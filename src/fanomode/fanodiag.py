"""Exact diagonalization of the cavity-continuum block (Fano construction).

For the setup where atom and cavity couple to one shared flat continuum, the
quadratic cavity + continuum Hamiltonian is diagonalized by eigenmode
operators with cavity weight alpha(omega) (a Lorentzian of width kappa) and
a continuum kernel beta(omega, omega') consisting of a principal-value part
plus a delta part.  The atom then couples to the eigenmode at omega with
strength Lambda(omega), and 2 pi |Lambda|^2 reproduces the
maximal-interference (eta = 1) spectral function of the embedded model.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ParameterError
from .spectral import (
    TWO_PI,
    FanoModel,
    _match_scalar,
    evaluate_J,
    pole_residue_from_model,
)


def fano_alpha(
    model: FanoModel, omega: float | np.ndarray, psi: float = 0.0
) -> complex | np.ndarray:
    """Cavity weight of the eigenmode at omega.

    alpha(omega) = sqrt(kappa/2pi) e^{-i theta_C + i psi}
                   / (omega - omega_C - i kappa/2);
    |alpha|^2 is a unit-normalized Lorentzian.  psi is a free gauge phase.
    """
    w = np.asarray(omega, dtype=float)
    out = (
        math.sqrt(model.kappa / TWO_PI)
        * cmath.exp(1j * (psi - model.theta_C))
        / (w - model.omega_C - 0.5j * model.kappa)
    )
    return _match_scalar(omega, out)


def fano_lambda(
    model: FanoModel, omega: float | np.ndarray, psi: float = 0.0
) -> complex | np.ndarray:
    """Atom coupling to the eigenmode at omega.

    Lambda(omega) = e^{-i psi} / (omega - omega_C + i kappa/2)
                    * [ g sqrt(kappa/2pi) e^{i theta_C}
                        + (omega - omega_C) sqrt(gamma/2pi) e^{i theta_A} ].

    The first term is the cavity-mediated path, the second the direct one;
    their interference is the Fano effect, and it vanishes when gamma = 0.
    """
    w = np.asarray(omega, dtype=float)
    detuning = w - model.omega_C
    numerator = model.g * math.sqrt(model.kappa / TWO_PI) * cmath.exp(
        1j * model.theta_C
    ) + detuning * math.sqrt(model.gamma / TWO_PI) * cmath.exp(1j * model.theta_A)
    out = cmath.exp(-1j * psi) * numerator / (detuning + 0.5j * model.kappa)
    return _match_scalar(omega, out)


def verify_lambda_identity(
    model: FanoModel, omega_grid: np.ndarray, psi: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """2 pi |Lambda|^2 and the eta = 1 spectral function 2 pi J on
    ``omega_grid``, their absolute difference, and its max relative value.

    Both sides vanish at the anti-resonance, so the deviation is normalized
    by the grid maximum of 2 pi J rather than pointwise.  Only defined for
    eta = 1; other models raise :class:`ParameterError`.
    """
    if model.eta != 1.0:
        raise ParameterError(
            f"the coupling identity holds only for eta = 1, got eta = {model.eta}"
        )
    grid = np.asarray(omega_grid, dtype=float)
    lam_sq = TWO_PI * np.abs(fano_lambda(model, grid, psi)) ** 2
    j_vals = TWO_PI * evaluate_J(pole_residue_from_model(model), grid)
    diff = np.abs(lam_sq - j_vals)
    scale = max(float(np.max(np.abs(j_vals))), 1e-300)
    return lam_sq, j_vals, diff, float(np.max(diff) / scale)
