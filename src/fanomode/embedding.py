"""Markovian embedding of the single-pole spectral function.

A pole/residue spectral representation maps onto a Lindblad-type generator
for the atom plus one auxiliary damped mode (pseudomode).  The residue is
factorized as

    2 pi i r1 = - g_minus * conj(g_plus),    g_(-/+) = mu -/+ i nu,

which fixes the coherent atom-pseudomode coupling mu together with a complex
cross-damping rate gamma_F = 2 nu.  The generator is of Lindblad form iff
the 2x2 Kossakowski matrix of the dissipative block is positive
semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import TWO_PI, FanoModel, PoleSpectral, _Record


@dataclass(frozen=True)
class EmbeddedQME(_Record):
    """Generator data of the atom + pseudomode quantum master equation.

    Coherent part: omega_A, omega_C (= Re z1) and the coupling mu.
    Dissipative part: rates gamma (atom), kappa (pseudomode, = -2 Im z1) and
    the complex cross rate gamma_F (= 2 nu).
    """

    omega_A: float
    omega_C: float
    mu: complex
    gamma: float
    kappa: float
    gamma_F: complex

    BOUNDS = {"gamma": (">=", 0)}

    def __post_init__(self):
        super().__post_init__()
        if not self.kappa / 2.0 > 0:  # the pole's width, -Im z1 = kappa / 2
            raise ParameterError(
                f"kappa must be > 0, and kappa / 2 must not underflow, got {self.kappa}"
            )

    @property
    def nu(self) -> complex:
        return self.gamma_F / 2.0

    @property
    def g_tilde_minus(self) -> complex:
        return self.mu - 1j * self.nu

    @property
    def g_tilde_plus(self) -> complex:
        return self.mu + 1j * self.nu

    @property
    def z1(self) -> complex:
        return complex(self.omega_C, -self.kappa / 2.0)

    @property
    def J0(self) -> float:
        return self.gamma / TWO_PI


@dataclass(frozen=True)
class LindbladReport:
    """Positivity verdict for a generator, with the quantities behind it.

    ``scalar_condition`` is (-Im z1) pi J0 - |nu|^2 (= det/4 for these
    generators); ``j0_repair_threshold`` is the background level
    |nu|^2 / (pi (-Im z1)) at which the verdict flips for fixed kappa, nu.
    """

    passed: bool
    eigenvalues: tuple[float, float]
    det: float
    trace: float
    scalar_condition: float
    j0_repair_threshold: float
    tolerance: float


def embed_from_model(model: FanoModel) -> EmbeddedQME:
    """Generator of a physical model, with mu = g and nu = gamma_F / 2.

    The residue factorization admits a one-parameter family of (mu, nu);
    this is the member whose coherent coupling is the physical g.
    :func:`spectral_from_qme` maps it back to the model's pole form.
    """
    return EmbeddedQME(
        omega_A=model.omega_A,
        omega_C=model.omega_C,
        mu=model.g,
        gamma=model.gamma,
        kappa=model.kappa,
        gamma_F=model.gamma_F,
    )


def spectral_from_qme(qme: EmbeddedQME) -> PoleSpectral:
    """Invert the embedding: J0 = gamma/2pi, z1 = omega_C - i kappa/2,
    r1 = -g_minus conj(g_plus) / (2 pi i)."""
    r1 = -qme.g_tilde_minus * np.conj(qme.g_tilde_plus) / (2j * math.pi)
    return PoleSpectral(J0=qme.gamma / TWO_PI, z1=qme.z1, r1=complex(r1))


def kossakowski(qme: EmbeddedQME) -> np.ndarray:
    """Kossakowski matrix of the generator's dissipative block: the 2x2
    Hermitian [[gamma, conj(gamma_F)], [gamma_F, kappa]] in the jump-operator
    ordering (atom lowering, pseudomode annihilation)."""
    return np.array(
        [[qme.gamma, np.conj(qme.gamma_F)], [qme.gamma_F, qme.kappa]], dtype=complex
    )


def is_lindblad(qme: EmbeddedQME) -> LindbladReport:
    """Check positive semidefiniteness of the Kossakowski matrix.

    The PSD test uses a relative tolerance of 1e-12 * trace so that the
    maximal-interference boundary (det = 0) classifies as Lindblad despite
    roundoff.
    """
    eigs = np.linalg.eigvalsh(kossakowski(qme))  # ascending
    trace = qme.gamma + qme.kappa
    tol = 1e-12 * trace
    nu_sq = abs(qme.nu) ** 2
    return LindbladReport(
        passed=bool(eigs[0] >= -tol),
        eigenvalues=(float(eigs[0]), float(eigs[1])),
        det=qme.gamma * qme.kappa - abs(qme.gamma_F) ** 2,
        trace=trace,
        scalar_condition=(qme.kappa / 2.0) * math.pi * qme.J0 - nu_sq,
        j0_repair_threshold=nu_sq / (math.pi * (qme.kappa / 2.0)),
        tolerance=tol,
    )
