"""Spectral function of a lossy atom-cavity system with Fano interference.

The reservoir coupling density has the form

    J(omega) = J0 + f(omega)

with a constant background J0 and a single conjugate pole pair

    f(omega) = r1/(omega - z1) + r1*/(omega - z1*),   Im z1 < 0,

which is real on the real axis by construction.  For a physical model the
background is J0 = gamma/(2 pi), the pole sits at z1 = omega_C - i kappa/2,
and the residue r1 carries the Fano interference between the direct atom
decay channel and the cavity-mediated one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Any, NamedTuple

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * math.pi

_RELATIONS = {  # relation -> (test of a value against the bound, bound as read)
    ">": (lambda value, bound: value > bound, str),
    ">=": (lambda value, bound: value >= bound, str),
    "of length >=": (lambda value, bound: len(value) >= bound, str),
    "one of": (lambda value, bound: value in bound, ", ".join),
}


def _require(name: str, value: Any, relation: str, bound: Any,
             error: type[Exception] = ParameterError) -> None:
    """Raise ``error`` "<name> must be <relation> <bound>, got <value>"
    unless ``value`` stands in ``relation`` to ``bound``; NaN stands in none."""
    test, shown = _RELATIONS[relation]
    if not test(value, bound):
        raise error(f"{name} must be {relation} {shown(bound)}, got {value!r}")


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")


class _Record:
    """Base of the parameter dataclasses: refuses a field that is not finite
    or one outside the class's ``BOUNDS``, a table field -> (relation, bound)."""

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        for name, (relation, bound) in self.BOUNDS.items():
            _require(name, getattr(self, name), relation, bound)


def _resolved(values: np.ndarray) -> bool:
    """Whether ``values`` are finite and strictly increasing in floating point."""
    return bool(np.all(np.isfinite(values)) and np.all(np.diff(values) > 0.0))


def _grid(low: float, high: float, n: int, what: str) -> np.ndarray:
    """``np.linspace(low, high, n)``, the one builder of every sampled grid.

    A grid of fewer than 2 points, or one whose points are not finite and
    strictly increasing in floating point (an empty or reversed span, a span
    that overflows, points that round onto each other), raises
    ParameterError naming ``what``, the settings that span it.
    """
    if n < 2 or not _resolved(grid := np.linspace(low, high, n)):
        raise ParameterError(
            f"the grid set by {what}, {n} points from {low:.6g} to {high:.6g}, "
            "must have at least 2, finite and strictly increasing in floating point"
        )
    return grid


def _match_scalar(arg, out):
    """``out`` as a Python float or complex when ``arg`` is a scalar or a
    0-d array, else ``out`` unchanged."""
    return out.item() if np.ndim(arg) == 0 else out


@dataclass(frozen=True)
class FanoModel(_Record):
    """Parameter bundle of the dissipative atom-cavity system.

    All frequencies and rates share one unit; kappa = 1 is the conventional
    choice.  ``eta`` in [0, 1] sets the interference strength (0: independent
    decay channels, 1: maximal Fano interference); values above 1 are
    accepted but yield a non-Lindblad generator (see
    :func:`fanomode.embedding.is_lindblad`).

    Attributes:
        gamma: atom loss rate (>= 0).
        kappa: cavity loss rate (> 0).
        g_abs: magnitude of the atom-cavity coupling (>= 0).
        eta: Fano interference strength (>= 0).
        omega_A: atom transition frequency.
        omega_C: cavity frequency.
        phi: phase of the atom-cavity coupling g = g_abs * exp(i phi).
        theta_A: phase of the atom-reservoir coupling.
        theta_C: phase of the cavity-reservoir coupling.
    """

    gamma: float
    kappa: float
    g_abs: float
    eta: float
    omega_A: float = 0.0
    omega_C: float = 0.0
    phi: float = 0.0
    theta_A: float = 0.0
    theta_C: float = 0.0

    # also the config's model.* bounds; eta < 0 would make gamma_F imaginary
    BOUNDS = {"gamma": (">=", 0), "kappa": (">", 0), "g_abs": (">=", 0),
              "eta": (">=", 0)}

    @property
    def g(self) -> complex:
        """Complex atom-cavity coupling g = |g| e^{i phi}."""
        return self.g_abs * cmath.exp(1j * self.phi)

    @property
    def delta_phi(self) -> float:
        """Relative phase phi - theta_A + theta_C entering the Fano parameter."""
        return self.phi - self.theta_A + self.theta_C

    @property
    def gamma_F(self) -> complex:
        """Complex cross-damping rate sqrt(eta gamma kappa) e^{i(theta_A - theta_C)}."""
        return math.sqrt(self.eta * self.gamma * self.kappa) * cmath.exp(
            1j * (self.theta_A - self.theta_C)
        )

    @property
    def q(self) -> complex:
        """Complex Fano parameter q = 2 |g| e^{i delta_phi} / sqrt(gamma kappa)."""
        if self.gamma == 0:
            raise ParameterError("q is undefined for gamma = 0")
        return (
            2.0 * self.g_abs * cmath.exp(1j * self.delta_phi)
            / math.sqrt(self.gamma * self.kappa)
        )


@dataclass(frozen=True)
class PoleSpectral(_Record):
    """Pole/residue representation of J(omega) = J0 + f(omega).

    ``J0 >= 0`` and ``Im z1 < 0`` are enforced; ``r1`` is unconstrained, so a
    hand-built instance may describe a spectral function that goes negative
    (consumers that require J >= 0 check for themselves).
    """

    J0: float
    z1: complex
    r1: complex

    BOUNDS = {"J0": (">=", 0)}

    def __post_init__(self):
        super().__post_init__()
        if not self.z1.imag < 0:
            raise ParameterError(f"z1 must lie in the lower half plane, got {self.z1}")

    @property
    def kappa(self) -> float:
        """Width -2 Im z1 of the pole."""
        return -2.0 * self.z1.imag


@dataclass(frozen=True)
class ReducedForm(_Record):
    """Reduced parameterization of J over the detuning epsilon = 2(omega - omega_C)/kappa.

    2 pi J(epsilon) = gamma / (epsilon^2 + 1) * [ |epsilon + sqrt(eta) q|^2
                      + (1 - eta)(1 + |q|^2) ].
    """

    gamma: float
    q: complex
    eta: float

    BOUNDS = {"gamma": (">=", 0), "eta": (">=", 0)}


class MemoryKernel(NamedTuple):
    """Memory kernel F(tau) split into its delta part and regular part.

    F(tau) = delta_weight * delta(tau) + regular(tau); the delta weight is
    reported symbolically and must never be smeared onto a time grid.
    """

    delta_weight: float
    regular: complex | np.ndarray


class QuadratureResult(NamedTuple):
    """Value of a numerical quadrature together with a rough error estimate.

    ``error_estimate`` combines a grid-halving (discretization) and a
    window-halving (truncation) difference; it is an order-of-magnitude
    indicator, not a strict bound.
    """

    value: complex
    error_estimate: float


def pole_residue_from_model(model: FanoModel) -> PoleSpectral:
    """Pole/residue data of the spectral function of ``model``.

    J0 = gamma / 2 pi,  z1 = omega_C - i kappa / 2, and

        r1 = (i / 2 pi) [ |g|^2 - eta gamma kappa / 4
                          - i |g| sqrt(eta gamma kappa) cos(delta_phi) ].
    """
    cross = math.sqrt(model.eta * model.gamma * model.kappa)
    r1 = (1j / TWO_PI) * (
        model.g_abs**2
        - model.eta * model.gamma * model.kappa / 4.0
        - 1j * model.g_abs * cross * math.cos(model.delta_phi)
    )
    return PoleSpectral(
        J0=model.gamma / TWO_PI,
        z1=complex(model.omega_C, -model.kappa / 2.0),
        r1=r1,
    )


def evaluate_J(spec: PoleSpectral, omega: float | np.ndarray) -> float | np.ndarray:
    """Spectral function J(omega) from its pole/residue form.

    J = J0 + 2 [Re r1 (omega - Re z1) - Im z1 Im r1]
            / [(omega - Re z1)^2 + (Im z1)^2]
    """
    w = np.asarray(omega, dtype=float)
    # In place on x; for a scalar omega, x is a 0-d array, which takes
    # in-place operations and still gives a Python float below.
    x = np.asarray(w - spec.z1.real)
    denominator = x * x
    denominator += spec.z1.imag**2
    x *= spec.r1.real
    x -= spec.z1.imag * spec.r1.imag
    x *= 2.0
    x /= denominator
    x += spec.J0
    return _match_scalar(omega, x)


def evaluate_reduced_J(rf: ReducedForm, epsilon: float | np.ndarray) -> float | np.ndarray:
    """J as a function of the reduced detuning epsilon = 2(omega - omega_C)/kappa."""
    eps = np.asarray(epsilon, dtype=float)
    shifted = eps + math.sqrt(rf.eta) * rf.q
    bracket = np.abs(shifted) ** 2 + (1.0 - rf.eta) * (1.0 + abs(rf.q) ** 2)
    out = rf.gamma / TWO_PI * bracket / (eps * eps + 1.0)
    return _match_scalar(epsilon, out)


def memory_kernel(spec: PoleSpectral, tau: float | np.ndarray) -> MemoryKernel:
    """Memory kernel F(tau) = 2 pi J0 delta(tau) - 2 pi i r1 e^{-i z1 tau}.

    The delta term is returned as a separate weight 2 pi J0; the regular part
    decays like exp(Im z1 * tau) = exp(-kappa tau / 2).  Requires tau >= 0.
    """
    t = np.asarray(tau, dtype=float)
    _require("tau", float(np.min(t, initial=0.0)), ">=", 0)  # NaN fails too
    regular = _match_scalar(tau, -1j * TWO_PI * spec.r1 * np.exp(-1j * spec.z1 * t))
    return MemoryKernel(delta_weight=TWO_PI * spec.J0, regular=regular)


def kernel_by_quadrature(
    spec: PoleSpectral, tau: float, window: float, n_points: int
) -> QuadratureResult:
    """Composite-trapezoid evaluation of the regular kernel part.

    Integrates f(omega) e^{-i omega tau} over [Re z1 - window, Re z1 + window]
    on a uniform grid; the delta part of F is excluded analytically.  For
    tau > 0 this converges to ``memory_kernel(spec, tau).regular`` as window
    and n_points grow; tau < 0 raises ParameterError, as for
    :func:`memory_kernel`.  The slowly decaying 1/omega tail of f makes the
    truncation error fall off only like 1/(window * tau), which dominates the
    reported estimate at practical settings.  The sum reads only the samples
    of J on the grid (:func:`_kernel_quadrature`).
    """
    values, estimates = _kernel_quadrature(spec, np.array([tau]), window, n_points)
    return QuadratureResult(
        value=complex(values[0]), error_estimate=float(estimates[0])
    )


# Taus per pass of the factorized quadrature sum, which bounds its memory.
_QUADRATURE_CHUNK = 64


def _phase_table(freqs: np.ndarray, step: float, n: int) -> np.ndarray:
    """e^{-i f j step}, j < n (rows), for each f of ``freqs`` (columns).

    With q = ceil(sqrt(n)), row a q + r is row a of a table of step
    q ``step`` times row r of one of step ``step`` (angle addition): ~2
    sqrt(n) exponentials per f.  Each entry errs by eps |f j step| and a
    few eps.
    """
    q = math.isqrt(n - 1) + 1
    coarse, fine = (np.exp(np.outer(s * np.arange(k), -1j * freqs))
                    for s, k in ((q * step, -(-n // q)), (step, q)))
    return (coarse[:, None] * fine).reshape(-1, len(freqs))[:n]


def _kernel_quadrature(
    spec: PoleSpectral, taus: np.ndarray, window: float, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of :func:`kernel_by_quadrature` at every tau
    of ``taus``.

    The trapezoid sum reads only the samples f = J - J0 on the uniform grid
    omega_j = omega_0 + j d.  With the grid index split as j = b m + r, where
    m ~ sqrt(n_points) is even, it factorizes as

        sum_j w_j f_j e^{-i omega_j tau}
            = e^{-i omega_0 tau} sum_b e^{-i b m d tau}
              sum_r w_{bm+r} f_{bm+r} e^{-i r d tau}.

    Both phase tables come from :func:`_phase_table` (each entry off by eps
    (|omega_0| + j d) tau and a few eps, as the direct sum's omega_j tau is
    by eps |omega_j| tau), and the inner sums of all rows are real matrix
    products against the interleaved cos and -sin parts, one for the even
    and one for the odd columns (m is even).  The even one alone is the
    half-resolution sum of the discretization estimate, less half its last
    point when n_points is even; the central half-window slice of the
    truncation estimate is the rows inside it plus its two partial edge
    rows.  Taus are taken 64 at a time, so memory does not grow with their
    number.  A grid that does not resolve (:func:`_grid`) or phases that
    overflow raise ParameterError.
    """
    _check_finite(tau=taus, window=window)
    _require("tau", float(np.min(taus, initial=0.0)), ">=", 0)
    lo, hi = spec.z1.real - window, spec.z1.real + window
    grid = _grid(lo, hi, n_points, "the quadrature's window and n_points")
    if not math.isfinite((hi - lo + max(-lo, hi)) * float(np.max(taus, initial=1.0))):
        raise ParameterError(f"the phases omega tau over {spec.z1.real:.6g} +- "
                             f"{window:.6g} overflow floating point")
    m = 2 * math.ceil(math.sqrt(n_points) / 2)
    rows = -(-n_points // m)
    f = evaluate_J(spec, grid) - spec.J0
    # Trapezoid weights times f by the parity of j, in zero-padded rows of
    # m / 2; each sum's step, grid[1] - grid[0] or its analogue on the
    # subgrid, is applied last.
    f[[0, -1]] *= 0.5
    even, odd = np.zeros((2, rows, m // 2))
    even.flat[: (n_points + 1) // 2], odd.flat[: n_points // 2] = f[::2], f[1::2]
    h = grid[1] - grid[0]
    if n_points >= 5:
        # j = first..last: the rows inside whole, the edge rows masked.
        quarter = (n_points - 1) // 4
        first, last = quarter, n_points - 1 - quarter
        inside = slice(first // m + 1, last // m)
        edge = np.array(sorted({first // m, last // m}))
        j = edge[:, None] * m + np.arange(m)
        central_edge = np.stack((even[edge], odd[edge]), axis=2).reshape(j.shape)
        central_edge[(j < first) | (j > last)] = 0.0
        central_edge[(j == first) | (j == last)] *= 0.5
        h_half, h_central = grid[2] - grid[0], grid[first + 1] - grid[first]
    del grid, f  # only the weights stay alive through the tau loop
    # Phases from linspace's own step: grid[1] - grid[0] carries the rounding
    # of grid[1], which j up to n_points would multiply.
    d = (hi - lo) / (n_points - 1)

    def sums(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inner = _phase_table(tau, d, m)
        outer = _phase_table(tau, m * d, rows)
        outer *= np.exp(-1j * lo * tau)
        terms = _row_sums(odd, inner[1::2])
        terms *= outer
        even_terms = _row_sums(even, inner[::2])
        even_terms *= outer
        terms += even_terms
        value = h * terms.sum(axis=0)
        if n_points < 5:
            # Neither estimate has a subgrid to compare with.
            return value, 2.0 * np.abs(value)
        # Truncation estimate: compare with the central half-window slice.
        central = terms[inside].sum(axis=0)
        central += (outer[edge] * _row_sums(central_edge, inner)).sum(axis=0)
        # Discretization estimate: compare with the half-resolution subgrid.
        coarse = even_terms.sum(axis=0)
        if n_points % 2 == 0:  # j = n_points - 2 ends the even subgrid
            b, r = divmod(n_points - 2, m)
            coarse -= 0.5 * even[b, r // 2] * outer[b] * inner[r]
        return value, (np.abs(value - h_half * coarse)
                       + np.abs(value - h_central * central))

    values = np.empty(len(taus), dtype=complex)
    estimates = np.empty(len(taus))
    for start in range(0, len(taus), _QUADRATURE_CHUNK):
        part = slice(start, start + _QUADRATURE_CHUNK)
        values[part], estimates[part] = sums(taus[part])
    return values, estimates


def _row_sums(weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """weights @ phases for real weights and complex phases, as one real
    matrix product against the interleaved cos and -sin parts of the phases."""
    return (weights @ phases.view(float)).view(complex)
