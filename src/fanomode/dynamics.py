"""Single-excitation dynamics by four mutually validating methods.

All solvers work in the subspace spanned by
{|0>_A|0>_C, |1>_A|0>_C, |0>_A|1>_C} (plus, for the brute-force oracle, the
explicit reservoir modes) and are deterministic on a fixed time grid:

* :func:`solve_volterra`     -- exact memory-kernel equation for c1(t),
  solved from samples of the regular kernel alone: a Taylor start on the
  first four samples, then every step 64 at a time by one precomputed
  block response, with the Gregory history convolution blocked by FFT
  (O(n log^2 n)) and the delta part applied analytically.
* :func:`solve_amplitudes`   -- coupled (c1, b1) pseudomode amplitudes,
  each sample e^{tA} y0 of the 2x2 non-Hermitian generator A, from exact
  powers of the step (:func:`_propagate`), with the jump probability from
  one block exponential.
* :func:`solve_qme`          -- full 3x3 master equation, each sample
  e^{tL} rho0 of its vectorized 9x9 Liouvillian L, sampled the same way.
* :func:`solve_discretized`  -- Schroedinger evolution against an explicit
  frequency comb sampling J(omega); the brute-force oracle.  The atom's
  amplitude is the Chebyshev series of e^{-iHt} on the atom + comb star
  (Tal-Ezer & Kosloff), its K moments from K / 2 star products (O(N K)),
  with K from Kapteyn's bound |J_k(x)| <= r_k^k at x = a t_max, a the
  half-width of the star's spectrum, found on its secular equation.  An
  outer eigenvalue more than W / 2 beyond the comb (W its half-width; a
  polariton of a strong coupling, an atom far from the comb) is split off
  and summed in closed form, so K < ~pi N whatever the coupling.  By
  Jacobi-Anger the series is a sum over K + 3 real-weighted nodes, its
  weights from one FFT of the moments; the nodes are mirror pairs about
  the interval's centre, so over the n_t samples it is a real two-level
  sum of cos/sin pairs (O(K n_t) multiply-adds on tables of O(K n_t^(1/4))
  cosines and sines, :mod:`fanomode.chebyshev`),
  and each split-off eigenvalue a two-level phase: exact at every sample.
  The state stays normalized, so the reservoir population is
  |c1(0)|^2 - |c1(t)|^2; each run checks its moments against [-1, 1],
  psi_0(0) against 1 and |psi_0| against 1.

Amplitudes, QME and the oracle are exact at every sample, so for them h is
only the sampling step.  Fast phases at omega_A are removed internally
(rotating frame) and restored on output.  Each :class:`Trajectory` reports
its own observables: the columns of its table and the invariants it breaks
(norm identity, trace, positivity, jump-probability monotonicity, comb
moments), computed only when asked for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any
import warnings

import numpy as np

from .chebyshev import _chebyshev_nodes, _chebyshev_order, _paired_phase_sum
from .embedding import EmbeddedQME, kossakowski
from .errors import ParameterError, SolverFailure
from .spectral import (
    TWO_PI, PoleSpectral, _grid, _phase_table, _require, _resolved, evaluate_J,
    memory_kernel,
)

# Basis ordering of the truncated atom + pseudomode space.
GROUND, ATOM_EXCITED, CAVITY_EXCITED = 0, 1, 2

# Levels beyond integrator noise at which a run breaks an invariant: the
# density matrix's minimum eigenvalue, a jump-probability increment, the
# drift from 1 of a conserved sum (trace, norm), and the comb's excess of a
# Chebyshev moment over mu_0 in modulus, error of psi_0(0) = 1 or excess of
# |psi_0| over 1.
_EIG_VIOLATION = -1e-9
_INCREMENT_VIOLATION = -1e-11
_DRIFT_VIOLATION = 1e-8
_MOMENT_VIOLATION = 1e-12


def _drift(values: np.ndarray, what: str) -> list[str]:
    """A violation when ``values`` leave 1 by more than integrator noise."""
    drift = np.max(np.abs(values - 1.0))
    return [] if drift <= _DRIFT_VIOLATION else [f"{what} drifts by {drift:.3e}"]


def _jump_decrease(jump: np.ndarray) -> list[str]:
    """A violation when the jump probability falls by more than integrator noise."""
    increments = np.diff(jump)
    if increments.size and not np.min(increments) >= _INCREMENT_VIOLATION:
        return [f"jump probability decreases (min increment {np.min(increments):.3e})"]
    return []


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid solver output.

    Amplitude-type methods fill ``c1`` (and, when defined, ``b1``/``pi_j``,
    or the comb oracle's ``reservoir_population``); the master-equation
    method fills ``rho`` with shape (n+1, 3, 3).
    ``metadata`` holds ``c1_0``, ``t_max``, ``h`` and the model solved:
    ``qme`` (amplitudes, qme) or ``spec`` and ``omega_A`` (volterra), enough
    to rerun the run.  The comb's holds ``omega_A``, ``n_modes`` and
    ``delta_omega`` but not the comb, so it cannot rerun the run, and the
    diagnostics of :func:`solve_discretized`.
    :meth:`observables` gives the run's table columns and the invariants it
    breaks, computed when asked for, never by a solver.
    """

    times: np.ndarray
    method: str
    c0: complex | None = None
    c1: np.ndarray | None = None
    b1: np.ndarray | None = None
    pi_j: np.ndarray | None = None
    rho: np.ndarray | None = None
    reservoir_population: np.ndarray | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def c1_abs2(self) -> np.ndarray:
        """|c1(t)|^2; the master equation stores it as rho_11."""
        if self.c1 is None:
            return self.rho[:, ATOM_EXCITED, ATOM_EXCITED].real
        return np.abs(self.c1) ** 2

    @property
    def c1_abs(self) -> np.ndarray:
        if self.c1 is None:
            return np.sqrt(self.c1_abs2)
        return np.abs(self.c1)

    def observables(self) -> tuple[dict[str, np.ndarray], list[str]]:
        """The run's columns by name, ``t`` first, and the invariants it breaks:
        jump-probability monotonicity (qme, by rho_00, and amplitudes),
        positivity and trace (qme), the norm identity
        |c0|^2 + |c1|^2 + |b1|^2 + Pi_j = 1 (amplitudes), moments in
        [-1, 1], psi_0(0) = 1 and |psi_0| <= 1 (discretized);
        Volterra has none.  NaN fails every check.
        """
        columns: dict[str, np.ndarray] = {"t": self.times}
        violations: list[str] = []
        if self.method == "qme":
            for k in range(3):
                columns[f"rho_{k}{k}"] = self.rho[:, k, k].real
            columns["trace"] = np.trace(self.rho, axis1=1, axis2=2).real
            columns["min_eigenvalue"] = np.linalg.eigvalsh(self.rho)[:, 0]
            min_eig = np.min(columns["min_eigenvalue"])
            if not min_eig >= _EIG_VIOLATION:
                violations.append(
                    f"density matrix loses positivity (min eigenvalue {min_eig:.3e})"
                )
            # rho_00 gains only by jumps: its increments are the jump rate.
            violations += _jump_decrease(columns["rho_00"])
            return columns, violations + _drift(columns["trace"], "trace")
        columns["c1_abs2"] = self.c1_abs2
        if self.method == "amplitudes":
            columns["b1_abs2"] = np.abs(self.b1) ** 2
            columns["pi_j"] = self.pi_j
            columns["norm_sum"] = (
                abs(self.c0) ** 2 + columns["c1_abs2"] + columns["b1_abs2"] + self.pi_j
            )
            violations += _jump_decrease(self.pi_j)
            # Pi_j comes from the Kossakowski matrix, the amplitudes from the
            # generator: a drift means the two disagree.
            violations += _drift(columns["norm_sum"], "norm identity")
        elif self.method == "discretized":
            reservoir = self.reservoir_population
            columns["reservoir_population"] = reservoir
            columns["norm_sum"] = abs(self.c0) ** 2 + columns["c1_abs2"] + reservoir
            excess = self.metadata["moment_excess"]
            if not excess <= _MOMENT_VIOLATION:
                violations.append(
                    f"star moments leave [-1, 1] (max |mu_k| - mu_0 = {excess:.3e})"
                )
            error = self.metadata["start_error"]
            if not error <= _MOMENT_VIOLATION:
                violations.append(f"psi_0(0) misses 1 by {error:.3e}")
            # the norm sum holds by construction; |psi_0| <= 1 carries the
            # information (a reservoir population >= 0)
            excess = self.metadata["psi_peak"] - 1.0
            if not excess <= _MOMENT_VIOLATION:
                violations.append(f"|psi_0| exceeds 1 by {excess:.3e}")
        return columns, violations


@dataclass(frozen=True)
class DiscretizedReservoir:
    """Frequency comb standing in for the continuum.

    Real couplings g_k = sqrt(J(omega_k) d_omega); the phase of g_k is pure
    gauge (only |g_k|^2 enters J) and is fixed to zero.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    delta_omega: float

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    @property
    def recurrence_time(self) -> float:
        """Poincare recurrence scale 2 pi / d_omega of the comb."""
        return TWO_PI / self.delta_omega


def _time_grid(t_max: float, h: float) -> np.ndarray:
    if h <= 0 or not np.isfinite(h):
        raise ParameterError(f"h must be > 0, got {h}")
    if not np.isfinite(t_max) or t_max < h:
        raise ParameterError(f"t_max must be >= h, got t_max={t_max}, h={h}")
    if not t_max / h <= sys.maxsize:  # no array has that many samples
        raise ParameterError(f"too many steps: t_max / h = {t_max / h:.3g}")
    n = round(t_max / h)
    if abs(n * h - t_max) > 1e-9 * t_max:
        raise ParameterError(f"t_max must be a multiple of h, got t_max={t_max}, h={h}")
    return h * np.arange(n + 1)


# The [13/13] Pade approximant to e^x is exact to double precision for
# matrices of 1-norm up to _THETA13 (Higham 2005, Table 2.3).
_THETA13 = 5.371920351148152
# Its coefficients b_j = (26 - j)! 13! / (26! j! (13 - j)!), j = 0..13.
_PADE13 = tuple(
    math.factorial(26 - j) * math.factorial(13)
    / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
    for j in range(14)
)


# Largest h |A - i Im diag A|_1, A the generator less its free rotation (a
# phase the exponential keeps entry by entry), at which amplitudes and QME
# resolve the step's exponential.  On Lindblad models whose coupling sets it
# (n = 1e2-1e6 steps), runs broke an invariant from 2.4e4 and overflowed
# from 2e16.
_STEP_LIMIT = 1e3


# Steps per block: amplitudes and QME step only the block starts and fill
# each block from the powers of their step.  Volterra sums pairs j < m
# inside one base block of its history convolution directly, all other
# pairs by FFT, and takes every step after its start _BLOCK at a time.
_BLOCK = 64
# Blocks filled per pass from their starts: the pass's temporaries stay in
# cache.
_FILL_BLOCKS = 32


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a of each matrix of a stack ``a`` of shape (..., d, d), by scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179): the
    [13/13] Pade approximant of e^{a / 2^s}, squared s times, with 2^s the
    least power of two taking the matrix's |a|_1 below _THETA13.

    With U and V the odd and even parts of the approximant
    (V - U)^{-1} (V + U), it is kept as r = e^a - 1 = (V - U)^{-1} 2U,
    squared as (1 + r)^2 - 1 = r r + 2r, and 1 is added last.  So a
    near-identity step e^{hA} is correctly rounded; rounding 1 + O(h) inside
    the solve errs by an ulp, which a run of n steps repeats n times.  No
    eigendecomposition, so a defective matrix (an exceptional point of the
    pseudomode generator) is as accurate as any other.  Each matrix has its
    own s, and the squarings run on the matrices that still need them, so
    every result is bitwise the one a call on that matrix alone gives.  A
    non-finite matrix gives a non-finite result.
    """
    shape = a.shape
    a = a.reshape(-1, *shape[-2:])
    s = np.maximum(0, np.frexp(np.linalg.norm(a, 1, axis=(-2, -1)) / _THETA13)[1])
    a = a / (2.0**s)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1], dtype=a.dtype)
    a2, power = a @ a, eye
    even, odd = b[0] * eye, b[1] * eye
    for j in range(2, 13, 2):
        power = power @ a2
        even = even + b[j] * power
        odd = odd + b[j + 1] * power
    odd = a @ odd
    r = np.linalg.solve(even - odd, 2.0 * odd)
    for k in range(int(s.max())):
        square = s > k
        part = r[square]
        r[square] = part @ part + 2.0 * part
    return (eye + r).reshape(shape)


def _propagate(gen: np.ndarray, y0, times: np.ndarray) -> np.ndarray:
    """States y_k = e^{k gen} y0 at the samples k = 0..n of ``times``.

    With B = _BLOCK, the powers P_j = e^{j gen}, j = 0..B, each come from
    the generator by :func:`_expm` (one stacked call), never as products of
    the step, so a sample's rounding does not grow with j.  Only the block
    starts z_{k+1} = P_B z_k are stepped, n / B of them; every sample is
    then y_{Bk + j} = P_j z_k, filled 32 blocks at a time by adding the d
    products P_j[:, c] z_k[c] in the order c = 0..d - 1.  All sums have a
    fixed order, unlike BLAS, so runs are bit-for-bit reproducible.  A
    sample that is not finite raises SolverFailure (:func:`_check_states`),
    and so does a step |gen - i Im diag gen|_1 > _STEP_LIMIT, before the run.
    """
    step = np.linalg.norm(gen - np.diag(1j * gen.diagonal().imag), 1)
    if not step <= _STEP_LIMIT:
        raise SolverFailure(
            f"h * |generator less its rotation|_1 = {step:.3g} > {_STEP_LIMIT:g}: the "
            "step's exponential is not resolved in floating point; reduce h"
        )
    n, d = len(times) - 1, len(gen)
    # Only the powers the run reaches: j <= n.
    powers = _expm(np.arange(min(n, _BLOCK) + 1)[:, None, None] * gen)
    starts = np.empty((n // _BLOCK + 1, d), dtype=complex)
    starts[0] = y0
    # Row c: column c of every P_j, j < _BLOCK, so that row k of ``states``,
    # the samples of block k, is sum_c cols[c] z_k[c].
    cols = np.moveaxis(powers[:_BLOCK], 2, 0).reshape(d, -1)
    states = np.empty((len(starts), cols.shape[1]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(1, len(starts)):  # only when n >= _BLOCK
            starts[k] = np.add.reduce(powers[_BLOCK] * starts[k - 1], axis=1)
        for k in range(0, len(starts), _FILL_BLOCKS):
            block, z = states[k : k + _FILL_BLOCKS], starts[k : k + _FILL_BLOCKS]
            np.multiply(cols[0], z[:, :1], out=block)
            for c in range(1, d):
                block += cols[c] * z[:, c, None]
    states = states.reshape(-1, d)[: n + 1]
    _check_states(states, times)
    return states


def _check_states(states: np.ndarray, times: np.ndarray) -> None:
    """Raise SolverFailure naming the first of ``times`` whose state, that
    row of ``states``, is not finite."""
    if not np.isfinite(states).all():
        finite = np.isfinite(states.reshape(len(times), -1)).all(axis=1)
        raise SolverFailure(
            f"state is not finite from t = {times[np.argmin(finite)]:.6g}: the "
            "model's generator grows the state past the floating-point range"
        )


def _c0_from_c1(c1_0: complex) -> float:
    p = abs(c1_0) ** 2
    if not p <= 1.0 + 1e-12:  # NaN fails too
        raise ParameterError(f"|c1(0)| must be <= 1, got |c1(0)|^2 = {p}")
    return math.sqrt(max(0.0, 1.0 - p))


def solve_amplitudes(
    qme: EmbeddedQME, c1_0: complex, t_max: float, h: float
) -> Trajectory:
    """Integrate the coupled pseudomode amplitude equations

        dc1/dt = -(i omega_A + gamma/2) c1 - i g_minus b1,
        db1/dt = -i z1 b1 - i conj(g_plus) c1,

    with b1(0) = 0 (reservoir vacuum), in the omega_A rotating frame.  The
    system y' = A y is linear and time-invariant, so every sample is exactly
    e^{t_k A} y0, taken from the powers e^{jhA} of the generator in blocks
    of 64 steps (:func:`_propagate`), and ``h`` is only the sampling step.
    The jump probability Pi_j gains x^H Q_h x over a step from x, with
    Q_h = int_0^h e^{A^H s} G^T e^{A s} ds and G the Kossakowski matrix;
    the step P = e^{hA} and P^H Q_h come from one exponential of
    h [[-A^H, G^T], [0, A]] (Van Loan, IEEE Trans. Autom. Control 23 (1978)
    395).  Q_h is built from G, never as 1 - P^H P, so the norm identity
    checks the Kossakowski rate against the generator to roundoff.
    """
    times = _time_grid(t_max, h)
    c0 = _c0_from_c1(c1_0)

    a_mat = np.array(
        [
            [-0.5 * qme.gamma, -1j * qme.g_tilde_minus],
            [-1j * np.conj(qme.g_tilde_plus), -1j * (qme.z1 - qme.omega_A)],
        ],
        dtype=complex,
    )
    states = _propagate(h * a_mat, (c1_0, 0.0), times)
    gm_t = kossakowski(qme).T
    exact = _expm(h * np.block([[-a_mat.conj().T, gm_t], [np.zeros((2, 2)), a_mat]]))

    # Re(x^H Q_h x) = Re sum_k x_k conj((Q_h x)_k), over one (n, 2) product
    gained = states[:-1] @ (exact[2:, 2:].conj().T @ exact[:2, 2:]).T
    np.conjugate(gained, out=gained)
    gained *= states[:-1]
    pi_j = np.zeros(len(times))
    np.sum(gained.real, axis=1, out=pi_j[1:])
    np.cumsum(pi_j[1:], out=pi_j[1:])
    del gained  # freed before the outputs are built

    # back to the lab frame in place: c1 and b1 are the columns of states
    states *= np.exp(-1j * qme.omega_A * times)[:, None]
    return Trajectory(
        times=times,
        method="amplitudes",
        c0=complex(c0),
        c1=states[:, 0],
        b1=states[:, 1],
        pi_j=pi_j,
        metadata={"qme": qme, "c1_0": complex(c1_0), "t_max": t_max, "h": h},
    )


# Fourth-order Gregory weights of the history integral over j = 0..m: the
# trapezoid with third-order corrections on the three samples at either end,
# valid from m = 5, where the two ends first stop overlapping.  The Volterra
# start supplies u[0.._START - 1]; every later sample is stepped.
_GREGORY_EDGE = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)
_START = 5
# Largest h max(sqrt|k(0)|, pi J0, |z1 - omega_A|), h times the kernel's
# fastest rate, that Volterra's samples resolve.  Against solve_amplitudes
# (T = 10; 1080 models, kappa 0.1-10, gamma 0.01-3, g 0.05-5, eta 0-1,
# omega_A 0, -1, 3) the worst error at the largest admitted step was 3.1e-4
# (kappa = gamma = 3, g = 0.1, eta = 1; 5 models above 2e-4), 0.016 at 0.2.
_RESOLUTION = 0.1


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """Pairwise-summed dot product.

    numpy's pairwise reduction depends only on length, not on buffer
    alignment, so results are bit-for-bit reproducible across allocations
    (BLAS dots are not).
    """
    return complex(np.add.reduce(a * b))


def _far_field(kt, u):
    """Yield far[b : b + _BLOCK] for b = _BLOCK, 2 _BLOCK, ... <= len(u) - 1,
    where far[m] holds the terms kt[m - j] u[j] of S[m] = sum_{j<m} kt[m - j] u[j]
    with j in an earlier base block than m (none for m < _BLOCK).

    S[m] is the causal Toeplitz product of Hairer, Lubich & Schlichte (SIAM
    J. Sci. Stat. Comput. 6 (1985) 532).  Every pair it leaves to ``far``
    lies in exactly one square j in [a, a + L), m in [a + L, a + 2L) with
    L = _BLOCK 2^k and a a multiple of 2L; the square closing at b is added
    by one FFT of size 2L just before block b is yielded, so the block is
    complete then and only u[j < b] has been read.  The caller fills u up to
    b + _BLOCK - 1 before asking for the next block.  Cost O(n log^2 n).

    The transforms are the pocketfft kernels behind ``np.fft.fft`` and
    ``np.fft.ifft`` (numpy >= 2.0), called with the same factors (1 forward,
    1 / 2L inverse), so the sums are those of the public functions bit for
    bit; each square's transforms run in place in one buffer, sized for the
    largest square, so no square allocates.
    """
    from numpy.fft._pocketfft_umath import fft, ifft  # loaded when first run

    n = len(u) - 1
    far = np.zeros(n + 1, dtype=complex)
    # A transformed square has L <= b < n: at most _BLOCK times the largest
    # power of two not above n / _BLOCK.
    top = _BLOCK << max(n // _BLOCK, 1).bit_length() - 1
    work = np.empty(2 * top, dtype=complex)
    spectra = {}  # size L -> FFT of kt[0:2L], kept while the size recurs
    for b in range(_BLOCK, n + 1, _BLOCK):
        # The square whose history block [a, b) ends here: L = _BLOCK times
        # the largest power of two dividing b / _BLOCK, so a = b - L is a
        # multiple of 2L.
        size = _BLOCK * ((b // _BLOCK) & -(b // _BLOCK))
        if b == n:
            # The last square feeds far[n] alone: one direct dot, not an FFT
            # of size 2L.
            far[n] += _dot(kt[size:0:-1], u[n - size : n])
        else:
            spectrum = spectra.pop(size, None)
            if spectrum is None:
                spectrum = fft(kt[: 2 * size], 1, out=np.empty(2 * size, complex))
            if b + 2 * size <= n:  # the same size comes round again
                spectra[size] = spectrum
            # Linear convolution of u[a:b] (zero-padded) with kt[0:2L];
            # entries L..2L-1 (lags 1..2L-1) do not wrap around.
            conv = fft(u[b - size : b], 1, out=work[: 2 * size])
            conv *= spectrum
            del spectrum  # an uncached spectrum is freed before the inverse FFT
            ifft(conv, 1 / (2 * size), out=conv)
            end = min(b + size, n + 1)
            far[b:end] += conv[size : size + end - b]
        yield far[b : b + _BLOCK]


def _block_response(kt, damping, h, rows):
    """The Adams-Moulton steps of one stepped base block as a fixed linear
    map R of shape (_BLOCK + 3, _BLOCK + 5).

    Input x: the forcing g[m], m = b..b + _BLOCK - 1 (far field plus
    start-side Gregory corrections, see :func:`_volterra_core`), then the
    carries u[b - 2], u[b - 1], f[b - 3], f[b - 2], f[b - 1], with f = du/dt.
    Output R x: u[b..b + _BLOCK - 1], then f[b + _BLOCK - 3..b + _BLOCK - 1],
    so the next block's carries are its last five entries.  R couples the
    in-block Toeplitz sum over kt[1.._BLOCK - 1], the end-side Gregory
    corrections on u[m - 1] and u[m - 2] and the implicit step
    u[m] = u[m - 1] + h (9 f[m] + 19 f[m - 1] - 5 f[m - 2] + f[m - 3]) / 24;
    none depends on b.  It is that recurrence run once over the identity
    columns, with fixed-order sums.  Only the first ``rows`` steps are run:
    a run that ends inside its first stepped block needs no more, and the
    rows past them stay zero.
    """
    cols = _BLOCK + 5
    eye = np.eye(cols, dtype=complex)
    u = np.zeros((_BLOCK + 2, cols), dtype=complex)  # rows u[b - 2], u[b - 1], u[b], ...
    f = np.zeros((_BLOCK + 3, cols), dtype=complex)  # rows f[b - 3], ..., f[b], ...
    u[:2] = eye[_BLOCK : _BLOCK + 2]
    f[:3] = eye[_BLOCK + 2 :]
    e0, e1, e2 = _GREGORY_EDGE
    # The history sum's endpoint term e0 kt[0] u[m] is implicit.
    denom = 1.0 + (9.0 * h / 24.0) * damping + (9.0 * h * h / 24.0) * e0 * kt[0]
    for i in range(rows):
        m = i + 2  # row of u[b + i]; f[b + i] is row m + 1
        partial = eye[i] + np.add.reduce(kt[i:0:-1, None] * u[2:m], axis=0)
        partial += (e2 - 1.0) * kt[2] * u[m - 2] + (e1 - 1.0) * kt[1] * u[m - 1]
        explicit = u[m - 1] + (h / 24.0) * (
            19.0 * f[m] - 5.0 * f[m - 1] + f[m - 2]
        ) - (9.0 * h * h / 24.0) * partial
        u[m] = explicit / denom
        f[m + 1] = -damping * u[m] - h * (partial + e0 * kt[0] * u[m])
    return np.concatenate((u[2:], f[-3:]))


def _volterra_start(kt, damping, c1_0, h):
    """u and du/dt at t = 0, h, ..., 4h from the Taylor series of u through t^5.

    Differentiating u' = -damping u - int_0^t k(t - s) u(s) ds at t = 0 gives
    u^(k+1)(0) = -damping u^(k)(0) - sum_{j<k} k^(j)(0) u^(k-1-j)(0), with the
    kernel's derivatives k^(j)(0), j <= 3, those of the cubic through
    kt[0..3]: a Taylor starting procedure (Linz, Analytical and Numerical
    Methods for Volterra Equations, SIAM 1985).  The values err by O(h^6)
    and the derivatives by O(h^5), so the fourth-order steps that follow
    keep their order.
    """
    k0, k1, k2, k3 = kt[:4]
    kernel = (
        k0,
        (-11.0 * k0 + 18.0 * k1 - 9.0 * k2 + 2.0 * k3) / (6.0 * h),
        (2.0 * k0 - 5.0 * k1 + 4.0 * k2 - k3) / h**2,
        (3.0 * (k1 - k2) + k3 - k0) / h**3,
    )
    derivs = [complex(c1_0)]
    for k in range(_START):
        memory = sum(kernel[j] * derivs[k - 1 - j] for j in range(k))
        derivs.append(-damping * derivs[k] - memory)
    # Taylor coefficients u^(k)(0) / k!, highest power first
    series = np.array([d / math.factorial(k) for k, d in enumerate(derivs)])[::-1]
    t = h * np.arange(_START)
    return np.polyval(series, t), np.polyval(np.polyder(series), t)


def _volterra_core(kt, damping, c1_0, h):
    """u(t) at t = 0, h, ..., nh for u' = -damping u - int_0^t k(t - s) u(s) ds,
    u(0) = c1_0, from the samples kt[i] = k(ih), i = 0..n + _BLOCK - _START.

    The history integral is the fourth-order Gregory sum, and the step the
    implicit fourth-order Adams-Moulton rule; global error O(h^4).  u[0..4]
    come from :func:`_volterra_start`, and every later sample is stepped.
    The Gregory interior is a causal Toeplitz product of kt and the history,
    kept with _BLOCK - _START leading zeros so that the stepped base blocks
    start at 5 + 64k and the start fills the block before the first of them.
    :func:`_far_field` sums the pairs from earlier base blocks by FFT; the
    samples past n meet only those zeros.  The Gregory endpoint corrections
    are applied exactly.  When a block starts, its far field is complete, so
    its 64 values are one fixed linear map (:func:`_block_response`, built
    once per run) of the forcing g[m] = far[m] + the start-side corrections
    on u[0..2] and of the carried u[b - 2], u[b - 1], f[b - 3..b - 1]: one
    fixed-order product per block, so results are bit-for-bit reproducible.
    """
    lead = _BLOCK - _START
    n = len(kt) - 1 - lead
    history = np.zeros(len(kt), dtype=complex)  # u[j] at lead + j
    values, derivs = _volterra_start(kt, damping, c1_0, h)
    history[lead : lead + _START] = values[: n + 1]

    response = _block_response(kt, damping, h, min(_BLOCK, n + 1 - _START))
    e0, e1, e2 = _GREGORY_EDGE
    start_edge = (
        (e0 - 1.0) * values[0], (e1 - 1.0) * values[1], (e2 - 1.0) * values[2]
    )
    x = np.zeros(_BLOCK + 5, dtype=complex)
    x[_BLOCK:] = *values[_START - 2 :], *derivs[_START - 3 :]
    # The loop's temporaries, allocated once: a start-side correction, the
    # products response * x and their row sums y.
    edge = np.empty(_BLOCK, dtype=complex)
    products = np.empty_like(response)
    y = np.empty(len(response), dtype=complex)
    for b, far in zip(range(_BLOCK, len(history), _BLOCK), _far_field(kt, history)):
        # A last block shorter than _BLOCK leaves stale forcing in
        # x[size:_BLOCK]; the map is causal, so it reaches only u past n.
        size, m = len(far), b - lead
        g, term = x[:size], edge[:size]
        np.add(far, np.multiply(start_edge[0], kt[m : m + size], out=term), out=g)
        g += np.multiply(start_edge[1], kt[m - 1 : m - 1 + size], out=term)
        g += np.multiply(start_edge[2], kt[m - 2 : m - 2 + size], out=term)
        np.multiply(response, x, out=products)
        np.add.reduce(products, axis=1, out=y)  # fixed order, unlike BLAS
        history[b : b + size] = y[:size]
        x[_BLOCK:] = y[_BLOCK - 2 :]
    return history[lead:]


def solve_volterra(
    spec: PoleSpectral, omega_A: float, c1_0: complex, t_max: float, h: float
) -> Trajectory:
    """Integrate the exact memory-kernel equation

        dc1/dt = -i omega_A c1 - int_0^t F(t - t') c1(t') dt'

    directly, keeping the full amplitude history.  In the omega_A rotating
    frame the kernel is that of the pole shifted by -omega_A, sampled by
    :func:`~fanomode.spectral.memory_kernel`; the delta part of F contributes
    half its weight at the endpoint of the one-sided integral, i.e. a local
    -pi J0 c1(t) damping, applied analytically and never smeared onto the
    grid.  :func:`_volterra_core` solves the equation from the regular
    kernel's samples alone, never from its one-pole form: a fourth-order
    Gregory history sum, blocked by FFT (O(n log^2 n) for n steps), implicit
    fourth-order Adams-Moulton steps taken 64 at a time, and a Taylor start
    from the samples.  Global error O(h^4).  A step that would not resolve
    the kernel's rates, h max(sqrt|k(0)|, pi J0, |z1 - omega_A|) >
    _RESOLUTION, raises SolverFailure before the kernel is sampled, and a
    sample that overflows raises it after (:func:`_check_states`).
    """
    times = _time_grid(t_max, h)
    c0 = _c0_from_c1(c1_0)
    # |z1 - omega_A| is the one read of the pole besides sampling the kernel,
    # and it only decides whether the run starts: aliased samples are those
    # of a valid, slower kernel, so no test on the samples can see them.
    k = memory_kernel(spec, 0.0)  # the omega_A shift is a phase of 1 at tau = 0
    rate = max(math.sqrt(abs(k.regular)), k.delta_weight / 2, abs(spec.z1 - omega_A))
    if not h * rate <= _RESOLUTION:
        raise SolverFailure(
            f"h * max(sqrt|k(0)|, pi J0, |z1 - omega_A|) = {h * rate:.3g} > "
            f"{_RESOLUTION}: the kernel's rates are not resolved; reduce h"
        )
    kernel = memory_kernel(
        PoleSpectral(J0=spec.J0, z1=spec.z1 - omega_A, r1=spec.r1),
        h * np.arange(len(times) + _BLOCK - _START),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        u = _volterra_core(kernel.regular, kernel.delta_weight / 2.0, c1_0, h)
    _check_states(u, times)
    return Trajectory(
        times=times,
        method="volterra",
        c0=complex(c0),
        c1=u * np.exp(-1j * omega_A * times),
        metadata={
            "spec": spec, "omega_A": omega_A, "c1_0": complex(c1_0),
            "t_max": t_max, "h": h,
        },
    )


def _liouvillian(qme: EmbeddedQME) -> np.ndarray:
    """The master equation as a 9x9 matrix on row-major vec(rho).

    With vec(A X B) = (A kron B^T) vec(X) and K = -i H_AC - sum_{mn} G_mn
    X_n^dag X_m / 2: L = K kron 1 + 1 kron conj(K) + sum G_mn X_m kron conj(X_n).
    """
    h_ac = np.zeros((3, 3), dtype=complex)
    h_ac[ATOM_EXCITED, ATOM_EXCITED] = qme.omega_A
    h_ac[CAVITY_EXCITED, CAVITY_EXCITED] = qme.omega_C
    h_ac[ATOM_EXCITED, CAVITY_EXCITED] = qme.mu
    h_ac[CAVITY_EXCITED, ATOM_EXCITED] = np.conj(qme.mu)
    # X_1: atom lowering, X_2: pseudomode annihilation.
    ops = np.zeros((2, 3, 3), dtype=complex)
    ops[0, GROUND, ATOM_EXCITED] = 1.0
    ops[1, GROUND, CAVITY_EXCITED] = 1.0
    gm = kossakowski(qme)
    eye = np.eye(3)
    k_eff = -1j * h_ac
    jumps = np.zeros((9, 9), dtype=complex)
    for (m_idx, n_idx), coeff in np.ndenumerate(gm):
        x_m, x_n = ops[m_idx], ops[n_idx]
        k_eff -= 0.5 * coeff * (x_n.conj().T @ x_m)
        jumps += coeff * np.kron(x_m, x_n.conj())
    return np.kron(k_eff, eye) + np.kron(eye, k_eff.conj()) + jumps


def solve_qme(
    qme: EmbeddedQME, c1_0: complex, t_max: float, h: float
) -> Trajectory:
    """Integrate the full master equation

        drho/dt = -i [H_AC, rho]
                  + sum_{mn} G_mn (X_m rho X_n^dag - {X_n^dag X_m, rho} / 2)

    with X_1 the atom lowering operator and X_2 the pseudomode annihilation
    operator, from the pure state rho(0) = |psi><psi|, psi = (c0, c1(0), 0)
    over {|00>, |10>, |01>} with c0 = sqrt(1 - |c1(0)|^2): the pseudomode
    starts empty, as every solver's reservoir does.  The equation is linear
    and time-invariant, so it is vectorized once into its 9x9 Liouvillian L
    and every sample is exactly e^{t_k L} vec(rho(0)), taken from the powers
    e^{jhL} of the generator in blocks of 64 steps (:func:`_propagate`):
    ``h`` is only the sampling step.  The generator is traceless in range,
    so the trace is preserved to roundoff.
    """
    times = _time_grid(t_max, h)
    psi = np.array([_c0_from_c1(c1_0), c1_0, 0.0], dtype=complex)
    rho0 = np.outer(psi, psi.conj())
    states = _propagate(h * _liouvillian(qme), rho0.reshape(9), times)
    return Trajectory(
        times=times,
        method="qme",
        rho=states.reshape(-1, 3, 3),
        metadata={"qme": qme, "c1_0": complex(c1_0), "t_max": t_max, "h": h},
    )


def build_discretized(
    spec: PoleSpectral, window: float, n_modes: int
) -> DiscretizedReservoir:
    """Sample J on a uniform comb of ``n_modes`` frequencies over
    [Re z1 - window, Re z1 + window].

    Requires n_modes >= 100 and window >= 20 pole widths so that the comb
    can stand in for the continuum, frequencies that are finite and
    strictly increasing in floating point, and finite J samples and
    couplings.  A genuinely negative J sample raises :class:`SolverFailure`;
    roundoff-level negatives at a spectral zero are clamped to 0.
    """
    _require("n_modes", n_modes, ">=", 100)
    if window < 20.0 * spec.kappa:
        raise ParameterError(
            f"window must cover >= 20 pole widths ({20 * spec.kappa:.3g}), got {window}"
        )
    omegas = _grid(spec.z1.real - window, spec.z1.real + window, n_modes,
                   "the comb's window and n_modes")
    j_vals = evaluate_J(spec, omegas)
    delta_omega = omegas[1] - omegas[0]
    # J d_omega = |g_k|^2 is finite exactly when J and g_k are.
    if not np.all(np.isfinite(j_vals * delta_omega)):
        raise ParameterError(
            f"J or its couplings are not finite on the comb over "
            f"{spec.z1.real:.6g} +- {window:.6g}"
        )
    scale = spec.J0 + abs(spec.r1) / spec.kappa
    if np.min(j_vals) < -1e-12 * max(scale, 1e-300):
        raise SolverFailure(
            f"spectral function is negative on the grid (min {np.min(j_vals):.3g})"
        )
    j_vals = np.maximum(j_vals, 0.0)
    return DiscretizedReservoir(
        omegas=omegas,
        couplings=np.sqrt(j_vals * delta_omega),
        delta_omega=float(delta_omega),
    )


# Newton steps to an outer eigenvalue of the star; from the start of
# :func:`_upper_edge` it converges in a handful.
_NEWTON_STEPS = 100
# The series' interval reaches this fraction of its half-width beyond the
# outer eigenvalues, which Newton ends within roundoff of.
_EDGE_MARGIN = 1e-9
# With both outer eigenvalues split off, the atom's weight on the rest is
# not summed once it is bounded by this (a coupling ~1e10 times the comb's
# width): it is far below roundoff, and summing it fails.  Over 210 combs
# (|g| 1e11-1e150, omega_A -1e6 to 1e6, W 20-80, 801 or 4001 modes) all
# run clean with it left out; summed, 54 report violations, 42 of them
# after the star moments overflow (|g| = 1e20 at omega_A = +-1e6, 1e80 at
# W = 80, 1e120 at W = 20).
_INTERIOR_NEGLIGIBLE = 1e-20


def _upper_edge(
    detunings: np.ndarray, couplings: np.ndarray, norm: float
) -> tuple[float, float | None]:
    """Top of the star's spectrum, or of the rest of it if its top
    eigenvalue is split off from the series, and that eigenvalue (else None).

    All eigenvalues but the top and the bottom one interlace the modes, and
    a decoupled mode is one of its own.  The top one of the rest is the root
    above the highest coupled mode c of f(x) = x - sum_k g_k^2 / (x -
    Omega_k), which rises and is concave there, found by Newton from below,
    where the iterates rise monotonically to it: from the larger of the top
    roots of x^2 = Omega_c x + g_c^2 and x^2 = bottom x + |g|^2, where f <=
    0, as the sum is at least g_c^2 / (x - Omega_c) and |g|^2 / (x - bottom).
    A root more than W / 2 beyond the top mode (W the comb's half-width: a
    polariton of a strong coupling, an atom far from the comb) is split
    off, and the top is the top mode, which bounds the rest; one below it,
    which is then decoupled, leaves the top at it.
    """
    top, bottom = float(np.max(detunings)), float(np.min(detunings))
    peak = int(np.argmax(np.where(couplings != 0.0, detunings, -np.inf)))
    high, g_high = float(detunings[peak]), float(couplings[peak])
    x = 0.5 * max(high + math.hypot(high, 2.0 * g_high),
                  bottom + math.hypot(bottom, 2.0 * norm))
    for _ in range(_NEWTON_STEPS):
        if not x > high:  # g_c^2 below roundoff: the root is Omega_c
            break
        ratios = couplings / (x - detunings)
        step = (float(ratios @ couplings) - x) / (1.0 + float(ratios @ ratios))
        if not x + step > x:
            break
        x += step
    if x > top + 0.25 * (top - bottom):
        return top, x
    return max(x, top), None


def _split_off(
    detunings: np.ndarray, couplings: np.ndarray, norm: float
) -> tuple[float, float, list[tuple[float, np.ndarray, float]], bool]:
    """The series' interval [low, high], the hull of the eigenvalues not
    split off widened by _EDGE_MARGIN of its half-width, the eigenvalues
    split off from it as (lambda, u, w), and whether the atom's weight on
    the remaining ones is summed.

    The eigenvector of lambda is (1, u) sqrt(w) with u_k = g_k / (lambda -
    Omega_k) and w = 1 / (1 + |u|^2) its weight on the atom.  With both
    outer eigenvalues l < Omega < h split off, p(x) = (x - h)(x - l) bounds
    the weight m on the rest: sum_j w_j p(lambda_j)^2 = |p(H)|0>|^2 =
    (|g|^2 + h l)^2 + |(Omega - h - l) g|^2 >= m min_comb p^2.  A bound
    below _INTERIOR_NEGLIGIBLE leaves the rest out.
    """
    high, top = _upper_edge(detunings, couplings, norm)
    low, bottom = _upper_edge(-detunings, couplings, norm)
    roots = [] if top is None else [top]
    if bottom is not None:
        roots.append(-bottom)
    split = []
    for root in roots:
        u = couplings / (root - detunings)
        split.append((root, u, 1.0 / (1.0 + float(u @ u))))
    interior = True
    if len(roots) == 2:
        h, l = roots
        p_min = min((h - x) * (x - l) for x in (-low, high))  # the comb's ends
        spread = (detunings - (h + l)) * (couplings / p_min)
        bound = ((norm * norm + h * l) / p_min) ** 2 + float(spread @ spread)
        interior = not bound <= _INTERIOR_NEGLIGIBLE
    margin = _EDGE_MARGIN * 0.5 * (high + low)
    return -low - margin, high + margin, split, interior


def _star_moments(
    detunings: np.ndarray, couplings: np.ndarray, centre: float,
    half_width: float, order: int, split: list[tuple[float, np.ndarray, float]],
) -> np.ndarray:
    """Chebyshev moments mu_k = <0'|T_k(H')|0'>, k = 0..``order`` (even), of
    the atom (site 0, detuning 0) coupled to modes at ``detunings`` with
    real ``couplings``, H' = (H - centre) / half_width.

    The eigenvectors (1, u) sqrt(w) of the eigenvalues ``split`` off from
    the interval (:func:`_split_off`) are projected out of the atom's state,
    |0'> = |0> - sum w (1, u), and H' is taken with their eigenvalues moved
    to the centre (a rank-one term each), where roundoff along them stays
    bounded.  With nothing split off, |0'> = |0>.

    The vectors v_k = T_k(H') |0'> follow v_{k+1} = 2 H' v_k - v_{k-1}, and
    each pair of moments comes from one of them (Weisse, Wellein, Alvermann
    & Fehske, Rev. Mod. Phys. 78 (2006) 275): mu_2k = 2 <v_k, v_k> - mu_0
    and mu_2k+1 = 2 <v_k+1, v_k> - mu_1, so order / 2 star products give
    all.  The vectors are real.  Each product makes 4 passes over the N
    modes in place, 2 more per eigenvalue split off, in buffers that
    rotate, and the inner products are BLAS dots, whose order of summation
    follows the length (and, past 10 000 modes, the BLAS thread count),
    never the address of the buffers.
    """
    scale = 2.0 / half_width
    diag = (detunings - centre) * scale
    links = couplings * scale
    moved = [((centre - root) * scale * w, u) for root, u, w in split]
    if split:
        start0 = 1.0 - sum(w for _, _, w in split)
        start = -sum(w * u for _, u, w in split)
    else:
        start0, start = 1.0, np.zeros_like(diag)
    mu = np.empty(order + 1)
    # v_0 = |0'>, v_1 = H' |0'>: the atom's entry first, then the modes'.
    prev0, prev = start0, start
    v0 = -centre / half_width * start0 + 0.5 * float(links @ start)
    v = 0.5 * (diag * start + links * start0)
    for coef, u in moved:
        shift = 0.5 * coef * (start0 + float(u @ start))
        v0 += shift
        v += shift * u
    mu[0] = start0 * start0 + float(start @ start)
    mu[1] = start0 * v0 + float(start @ v)
    scratch = np.empty_like(diag)
    for k in range(1, order // 2 + 1):
        mu[2 * k] = 2.0 * (v0 * v0 + float(v @ v)) - mu[0]
        if k == order // 2:
            break
        # v_{k+1} into the buffer of v_{k-1}
        new0 = -centre * scale * v0 + float(links @ v) - prev0
        np.multiply(diag, v, out=scratch)
        np.subtract(scratch, prev, out=prev)
        prev += np.multiply(links, v0, out=scratch)
        for coef, u in moved:
            shift = coef * (v0 + float(u @ v))
            new0 += shift
            prev += np.multiply(u, shift, out=scratch)
        mu[2 * k + 1] = 2.0 * (new0 * v0 + float(prev @ v)) - mu[1]
        prev0, v0, prev, v = v0, new0, v, prev
    return mu


def solve_discretized(
    res: DiscretizedReservoir, omega_A: float, c1_0: complex, t_max: float, h: float
) -> Trajectory:
    """Exact Schroedinger evolution of the atom + comb system

        dc1/dt = -i omega_A c1 - i sum_k g_k c_k,
        dc_k/dt = -i omega_k c_k - i g_k c1,

    from the Chebyshev moments of the star.  In the omega_A rotating frame
    the atom's amplitude is c1(t) = c1(0) psi_0(t) e^{-i omega_A t} with
    psi_0(t) = <0|e^{-iHt}|0>, H the real symmetric star of the atom and
    the modes at detunings Omega_k = omega_k - omega_A.  All of its spectrum
    but the two outer eigenvalues lies within the modes' span, and those
    are found on the secular equation (:func:`_upper_edge`).  The series
    runs on the interval [b - a, b + a] between them, widened by
    _EDGE_MARGIN of its half-width, except on a side whose outer eigenvalue
    lies more than W / 2 (W the comb's half-width) beyond the span, where it
    ends at the outermost mode.  That eigenvalue (a polariton of a strong
    coupling, or the level of an atom far from the comb) is split off and
    summed in closed form, e^{-i lambda t} times its weight on the atom
    (:func:`_split_off`).  So with H' = (H - b) / a

        psi_0(t) = sum_split w e^{-i lambda t}
                   + e^{-ibt} sum_k (2 - delta_k0) (-i)^k J_k(at) mu_k,

    mu_k = <0'|T_k(H')|0'> the moments of the atom's state with the split
    eigenvectors projected out, exact to double precision when cut at the
    K of :func:`_chebyshev_order` for x = a t_max (:func:`_star_moments`,
    O(N K)).  As a <= ~3W / 2 and t_max < pi / d_omega (the recurrence guard),
    K < ~pi N whatever the coupling or the atom's detuning.  By
    Jacobi-Anger the series is a sum over K + 3 nodes lambda_n = b - a sin
    theta_n (:func:`_chebyshev_nodes`, one FFT), and with the split-off
    eigenvalues it is evaluated at every sample, so ``h`` is only the
    sampling step.  With the sample index j = b' m + r, m = ceil(sqrt(n_t)),

        e^{-i lambda j h} = e^{-i lambda b' m h} e^{-i lambda r h}:

    each split-off eigenvalue is a two-level phase table
    (:func:`fanomode.spectral._phase_table`), and the series, its nodes
    folded into (K + 2) / 2 mirror pairs about b and the centre node, is a
    real (2B x 2 pairs) by (2 pairs x m) product per 256 pairs of such
    tables (:func:`_paired_phase_sum`): O(K n_t^(1/4)) cosines and sines,
    O(K n_t) multiply-adds.  At a fixed
    comb K grows like t_max, so the moments grow like t_max and the sum
    like t_max^2.  Only the comb's samples of J enter, never the pole form or
    the kernel.  A comb with |g| = 0 leaves the atom in its free rotation,
    psi_0 = 1.  t_max past half the comb's recurrence time, where the
    finite comb stops mimicking the continuum, raises SolverFailure.

    The state is normalized, so the reservoir population is
    |c1(0)|^2 (1 - |psi_0(t)|^2).  The moments are those of a positive
    measure of mass mu_0 on [-1, 1], and |psi_0| <= 1: ``metadata`` holds
    ``moment_excess`` = max_k |mu_k| - mu_0, ``start_error`` =
    |psi_0(0) - 1| and ``psi_peak`` = max_t |psi_0(t)|, which
    :meth:`Trajectory.observables` judges, the order K and the number of
    eigenvalues split off.
    """
    if t_max >= 0.5 * res.recurrence_time:
        raise SolverFailure(
            f"t_max = {t_max} exceeds half the recurrence time "
            f"{res.recurrence_time:.3g} of the comb; increase n_modes"
        )
    times = _time_grid(t_max, h)
    c0 = _c0_from_c1(c1_0)

    detunings = res.omegas - omega_A
    if not _resolved(detunings):
        raise ParameterError(
            f"the comb's detunings from omega_A = {omega_A:.6g} do not resolve "
            "into finite, distinct values"
        )
    norm = math.sqrt(float(res.couplings @ res.couplings))
    order, split, moment_excess = 0, [], 0.0
    if norm == 0.0:
        psi = np.ones(len(times), dtype=complex)
    else:
        low, high, split, interior = _split_off(detunings, res.couplings, norm)
        psi = np.zeros(len(times), dtype=complex)
        for root, _, w in split:
            psi += w * _phase_table(np.array([root]), h, len(times))[:, 0]
        if interior:
            centre, half_width = 0.5 * (low + high), 0.5 * (high - low)
            order = _chebyshev_order(half_width * t_max)
            mu = _star_moments(
                detunings, res.couplings, centre, half_width, order, split
            )
            nodes, weights = _chebyshev_nodes(mu, centre, half_width)
            moment_excess = float(np.max(np.abs(mu)) - mu[0])
            psi += _paired_phase_sum(nodes, weights, centre, h, len(times))

    return Trajectory(
        times=times,
        method="discretized",
        c0=complex(c0),
        c1=c1_0 * psi * np.exp(-1j * omega_A * times),
        reservoir_population=abs(c1_0) ** 2 * (1.0 - np.abs(psi) ** 2),
        metadata={
            "n_modes": res.n_modes, "delta_omega": res.delta_omega,
            "omega_A": omega_A, "c1_0": complex(c1_0), "t_max": t_max, "h": h,
            "chebyshev_order": order, "split_off": len(split),
            "moment_excess": moment_excess,
            "start_error": float(abs(psi[0] - 1.0)),
            "psi_peak": float(np.max(np.abs(psi))),
        },
    )


def decay_rate(traj: Trajectory, fit_window: tuple[float, float]) -> float:
    """Least-squares decay rate of |c1|^2 over ``fit_window``, for a
    trajectory of any method.

    Fits -log|c1(t)|^2 with a straight line and returns the slope.  The
    window (t_a, t_b) must lie in the run's span, times[0] <= t_a < t_b <=
    times[-1], and the population must be strictly positive on it; a
    non-monotone population triggers a fit-quality warning (the fit still
    runs).
    """
    t_a, t_b = fit_window
    times = traj.times
    if not times[0] <= t_a < t_b <= times[-1]:  # NaN fails too
        raise ParameterError(
            f"fit window must have {times[0]:g} <= t_a < t_b <= {times[-1]:g} "
            f"(the run's span), got {fit_window}"
        )
    mask = (times >= t_a) & (times <= t_b)
    if np.count_nonzero(mask) < 2:
        raise ParameterError(f"fit window {fit_window} selects fewer than 2 samples")
    population = traj.c1_abs2[mask]
    if not np.min(population) > 0.0:  # NaN fails too
        raise ParameterError("|c1|^2 must be strictly positive on the fit window")
    if np.any(np.diff(population) > 0.0):
        warnings.warn(
            "population is not monotone on the fit window; decay-rate fit "
            "quality is degraded",
            UserWarning,
            stacklevel=2,
        )
    slope, _ = np.polyfit(traj.times[mask], -np.log(population), 1)
    return float(slope)
