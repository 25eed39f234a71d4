"""Property tests over the whole Lindblad parameter box, edges included.

The box is the one ``conftest.random_lindblad_model`` samples (kappa = 1),
searched by hypothesis instead of a fixed seed.  Runs are derandomized, so
every run draws the same examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from fanomode import cli, dynamics
from fanomode.config import BOUNDS, DEFAULT_CONFIG
from fanomode.dynamics import (
    DiscretizedReservoir,
    build_discretized,
    solve_amplitudes,
    solve_discretized,
    solve_qme,
    solve_volterra,
)
from fanomode.embedding import embed_from_model, is_lindblad, spectral_from_qme
from fanomode.errors import ParameterError, PropertyViolation, SolverFailure
from fanomode.fanodiag import verify_lambda_identity
from fanomode.spectral import (
    FanoModel,
    PoleSpectral,
    _phase_table,
    evaluate_J,
    memory_kernel,
    pole_residue_from_model,
)

from conftest import star_solution, volterra_per_step

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=60
)

ANGLES = st.floats(0.0, 2.0 * math.pi)
# Absolute floor: the box reaches couplings whose squares are subnormal.
UNDERFLOW = 1e-300
EPS = np.finfo(float).eps


def models(eta_max: float = 1.0, **fields):
    """The box; ``fields`` replace the strategies of single parameters."""
    strategies = dict(
        gamma=st.floats(0.0, 1.0),
        kappa=st.just(1.0),
        g_abs=st.floats(0.0, 2.0),
        eta=st.floats(0.0, eta_max),
        omega_A=st.floats(-2.0, 2.0),
        omega_C=st.just(0.0),
        phi=ANGLES,
        theta_A=ANGLES,
        theta_C=ANGLES,
    )
    strategies.update(fields)
    return st.builds(FanoModel, **strategies)


@DETERMINISTIC
@given(model=models(), omega=st.floats(-1e3, 1e3))
def test_spectral_function_nonnegative(model, omega):
    spec = pole_residue_from_model(model)
    omegas = np.append(np.linspace(-50.0, 50.0, 2001), omega)
    scale = spec.J0 + abs(spec.r1) / model.kappa
    assert np.min(evaluate_J(spec, omegas)) >= -1e-12 * scale - UNDERFLOW


@DETERMINISTIC
@given(model=models(eta_max=2.0))
def test_kossakowski_det_identity(model):
    det = is_lindblad(embed_from_model(model)).det
    expected = model.gamma * model.kappa * (1.0 - model.eta)
    scale = model.gamma * model.kappa * max(1.0, model.eta)
    assert abs(det - expected) <= 1e-12 * scale + UNDERFLOW


@DETERMINISTIC
@given(model=models(eta_max=2.0))
def test_embedding_round_trip(model):
    spec = pole_residue_from_model(model)
    qme = embed_from_model(model)
    back = spectral_from_qme(qme)
    assert back.z1 == spec.z1
    assert abs(back.J0 - spec.J0) <= 1e-14 * spec.J0 + UNDERFLOW
    # r1 is a product of the two couplings: its roundoff scales with them
    r1_scale = (abs(qme.mu) + abs(qme.nu)) ** 2
    assert abs(back.r1 - spec.r1) <= 1e-14 * r1_scale + UNDERFLOW


@DETERMINISTIC
@given(
    model=models(eta=st.just(1.0), omega_C=st.floats(-2.0, 2.0)), psi=ANGLES
)
def test_fanodiag_identity(model, psi):
    # the CLI's grid and gate
    grid = np.linspace(model.omega_C - 20.0, model.omega_C + 20.0, 4001)
    assert verify_lambda_identity(model, grid, psi)[-1] <= 1e-12


@DETERMINISTIC
@given(model=models(), h=st.sampled_from([0.05, 0.1, 0.2]))
def test_amplitudes_and_qme_agree_at_coarse_h(model, h):
    # Both step the same dynamics by its exact propagator, on |psi> and on
    # rho, so only roundoff separates them; the O(h^4) bound, kept from the
    # former RK4 solvers, is loose.
    qme = embed_from_model(model)
    ta = solve_amplitudes(qme, 1.0, 10.0, h)
    rho = solve_qme(qme, 1.0, 10.0, h).rho
    deviation = max(
        np.max(np.abs(rho[:, 1, 1].real - ta.c1_abs2)),
        np.max(np.abs(rho[:, 2, 2].real - np.abs(ta.b1) ** 2)),
        np.max(np.abs(rho[:, 1, 2] - ta.c1 * np.conj(ta.b1))),
    )
    assert deviation <= 10.0 * h**4


@settings(DETERMINISTIC, max_examples=20)
@given(model=models())
def test_volterra_and_amplitudes_agree(model):
    # criterion 2's tolerance, at T = 5
    spec = pole_residue_from_model(model)
    volterra = solve_volterra(spec, model.omega_A, 1.0, 5.0, 1e-3)
    amplitudes = solve_amplitudes(embed_from_model(model), 1.0, 5.0, 1e-3)
    assert np.max(np.abs(np.abs(volterra.c1) - np.abs(amplitudes.c1))) < 1e-6


@DETERMINISTIC
@given(
    n=st.integers(1, 100_000),
    span=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    scale=st.floats(-5.0, 5.0).map(lambda e: 10.0**e),
    ratios=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
)
# one row, a coarse table of one row, and a perfect square
@example(n=1, span=1e3, scale=1.0, ratios=[1.0, -0.25])
@example(n=2, span=1e3, scale=1e-5, ratios=[-1.0, 0.0, 0.5])
@example(n=10_000, span=1e3, scale=1e5, ratios=[1.0, -1.0, 0.3])
def test_phase_table_is_the_direct_exponential(n, span, scale, ratios):
    # |f step j| up to 1e3 rad over frequencies of 1e-5..1e5; each entry
    # errs by its phases' rounding and a few eps of products, measured at
    # most 2.3 eps (1 + |phase|)
    freqs = scale * np.array(ratios)
    step = span / (n * scale)
    phases = np.outer(step * np.arange(n), freqs)
    table = _phase_table(freqs, step, n)
    assert table.shape == phases.shape
    error = np.abs(table - np.exp(-1j * phases))
    assert np.all(error <= 4.0 * EPS * (1.0 + np.abs(phases)))


@settings(DETERMINISTIC, max_examples=20)
@given(model=models(), t_max=st.sampled_from([0.5, 2.0, 5.0, 7.5]))
def test_comb_chain_matches_dense_star(model, t_max):
    # from K = 58 moments (t_max = 0.5) to 464 at the edge of half the
    # comb's recurrence time 7.85 (t_max = 7.5)
    res = build_discretized(pole_residue_from_model(model), 40.0, 201)
    traj = solve_discretized(res, model.omega_A, 1.0, t_max, 0.01)
    c1, reservoir = star_solution(res, model.omega_A, 1.0, traj.times)
    assert np.max(np.abs(traj.c1 - c1)) <= 1e-12
    assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-12


def log_uniform(low: float, high: float):
    """10**e for e uniform on [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


# A strong coupling with the atom inside the comb: the outer eigenvalues
# lie far beyond the comb.
_STRONG = FanoModel(gamma=0.25, kappa=1.0, g_abs=40.0, eta=1.0)


def _outer_eigenvalue_at(side: float, beyond: float) -> FanoModel:
    """``_STRONG`` with the atom placed so that the star's outer eigenvalue
    on ``side`` (+1 above, -1 below) lies ``beyond`` past the comb's end
    (W = 20), by the secular equation E - omega_A = sum_k g_k^2 / (E - omega_k)."""
    res = build_discretized(pole_residue_from_model(_STRONG), 20.0, 201)
    level = (res.omegas[-1] if side > 0 else res.omegas[0]) + side * beyond
    shift = float((res.couplings / (level - res.omegas)) @ res.couplings)
    return dataclasses.replace(_STRONG, omega_A=level - shift)


@DETERMINISTIC
@given(
    model=models(
        g_abs=log_uniform(-1.0, 4.0),
        omega_A=st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(-1.0, 4.0)).map(
            math.prod
        ),
    ),
    window=st.sampled_from([20.0, 40.0]),
    steps=st.integers(50, 700),
    decoupled=st.sampled_from([None, 0, -1]),
)
# the outer eigenvalue just within and just past W / 2 beyond the comb, the
# split threshold, on each side; a decoupled top mode at the end of an
# interval whose two outer eigenvalues are split off
@example(model=_outer_eigenvalue_at(1.0, 10.0 - 1e-8), window=20.0, steps=700,
         decoupled=None)
@example(model=_outer_eigenvalue_at(1.0, 10.0 + 1e-8), window=20.0, steps=700,
         decoupled=None)
@example(model=_outer_eigenvalue_at(-1.0, 10.0 - 1e-8), window=20.0, steps=700,
         decoupled=None)
@example(model=_outer_eigenvalue_at(-1.0, 10.0 + 1e-8), window=20.0, steps=700,
         decoupled=None)
@example(model=dataclasses.replace(_STRONG, g_abs=1e3), window=20.0, steps=700,
         decoupled=-1)
def test_comb_matches_dense_star_over_whole_ranges(model, window, steps, decoupled):
    # couplings and detunings up to 1e4 W; t_max = steps h <= 7 stays below
    # 0.45 of the recurrence time.  The bound is the dense star's own
    # conditioning floor eps |H| t.
    res = build_discretized(pole_residue_from_model(model), window, 201)
    if decoupled is not None:
        couplings = res.couplings.copy()
        couplings[decoupled] = 0.0
        res = DiscretizedReservoir(res.omegas, couplings, res.delta_omega)
    t_max = steps * 0.01
    assert t_max < 0.45 * res.recurrence_time
    traj = solve_discretized(res, model.omega_A, 1.0, t_max, 0.01)
    assert traj.observables()[1] == []
    c1, reservoir = star_solution(res, model.omega_A, 1.0, traj.times)
    norm = math.sqrt(float(res.couplings @ res.couplings))
    bound = 50.0 * EPS * max(norm, abs(model.omega_A), window) * t_max
    assert np.max(np.abs(traj.c1 - c1)) <= bound
    assert np.max(np.abs(traj.reservoir_population - reservoir)) <= bound


@DETERMINISTIC
@given(
    model=models(
        g_abs=log_uniform(-1.0, 4.0),
        omega_A=st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(-1.0, 4.0)).map(
            math.prod
        ),
    ),
    window=st.sampled_from([20.0, 40.0]),
    decoupled=st.sampled_from([None, 0, -1]),
)
# a decoupled top and bottom mode, whose level ends the interval when the
# root past the coupled modes lies within it, and a polariton ~0.5 beyond a
# decoupled top mode, reached from the coupled modes; the atom at either
# window edge
@example(model=dataclasses.replace(_STRONG, g_abs=0.1, omega_A=0.3), window=20.0,
         decoupled=-1)
@example(model=dataclasses.replace(_STRONG, g_abs=0.1, omega_A=0.3), window=20.0,
         decoupled=0)
@example(model=dataclasses.replace(_STRONG, g_abs=20.0, omega_A=0.3), window=20.0,
         decoupled=-1)
@example(model=dataclasses.replace(_STRONG, g_abs=0.5, omega_A=40.0), window=40.0,
         decoupled=None)
@example(model=dataclasses.replace(_STRONG, g_abs=0.5, omega_A=-40.0), window=40.0,
         decoupled=None)
def test_interval_is_the_hull_of_the_unsplit_spectrum(model, window, decoupled):
    # every eigenvalue of the dense star that is not split off lies in the
    # series' interval, whose unsplit ends overshoot the outermost of them
    # by the margin and the dense eigvalsh's own roundoff; a split end is
    # the outermost mode
    res = build_discretized(pole_residue_from_model(model), window, 201)
    couplings = res.couplings.copy()
    if decoupled is not None:
        couplings[decoupled] = 0.0
    detunings = res.omegas - model.omega_A
    norm = math.sqrt(float(couplings @ couplings))
    low, high, split, _ = dynamics._split_off(detunings, couplings, norm)
    n = len(detunings)
    ham = np.zeros((n + 1, n + 1))
    ham[0, 1:] = ham[1:, 0] = couplings
    ham[np.arange(1, n + 1), np.arange(1, n + 1)] = detunings
    spectrum = np.linalg.eigvalsh(ham)
    margin = dynamics._EDGE_MARGIN * 0.5 * (high - low)
    roundoff = 50.0 * EPS * max(norm, abs(model.omega_A), window)
    above = any(root > high for root, _, _ in split)
    below = any(root < low for root, _, _ in split)
    assert above + below == len(split)
    unsplit = spectrum[int(below) : len(spectrum) - int(above)]
    assert low <= unsplit[0] and unsplit[-1] <= high
    for end, outer, mode, is_split in ((high, unsplit[-1], detunings[-1], above),
                                       (-low, -unsplit[0], -detunings[0], below)):
        assert 0.0 < end - (mode if is_split else outer) <= margin + roundoff


@settings(DETERMINISTIC, max_examples=50)
@given(
    omega_C=st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(-300.0, 308.0)).map(
        math.prod
    ),
    window=log_uniform(-300.0, 308.0),
    kappa=log_uniform(-300.0, 300.0),
)
# the draws exit 0, 1 or 3; these exit 0 at extreme omega_C and kappa, and
# 1 where J overflows to inf
@example(omega_C=-1e15, window=1e4, kappa=1e-300)
@example(omega_C=0.0, window=1e-200, kappa=1e-300)
def test_comb_cli_keeps_the_exit_code_contract(omega_C, window, kappa):
    # extreme combs fail as usage (1), property (2) or solver (3) errors,
    # each on one stderr line, never with a traceback
    argv = ["evolve", "--out", os.devnull, "--set", "solver.method=discretized",
            "--set", "solver.n_modes=100", "--set", "solver.t_max=0.01",
            "--set", f"model.omega_C={omega_C!r}",
            "--set", f"solver.window={window!r}", "--set", f"model.kappa={kappa!r}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("fanomode: ")
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


# u[k] errs by O(h^6) and du/dt by O(h^5); the kernel's derivatives are
# largest at the box's corners, the explicit examples.  Bounds ~2.5x the
# largest error measured over the draws and the examples (1.9e-15, 3.0e-12;
# 1.9e-9, 2.9e-7).
@pytest.mark.parametrize(
    "h, u_bound, du_bound", [(1e-3, 5e-15, 8e-12), (1e-2, 5e-9, 8e-7)]
)
@settings(DETERMINISTIC, max_examples=30)
@given(model=models())
@example(
    model=FanoModel(gamma=1.0, kappa=1.0, g_abs=2.0, eta=1.0, omega_A=2.0, phi=math.pi)
)
@example(model=FanoModel(gamma=1.0, kappa=1.0, g_abs=2.0, eta=0.0, omega_A=-2.0))
def test_volterra_start_is_the_exponential(model, h, u_bound, du_bound):
    # the start from kt[0..3] alone against u(kh) = (e^{khA} y0)_0 and
    # du/dt(kh) = (A e^{khA} y0)_0, A the amplitudes generator
    spec = pole_residue_from_model(model)
    shifted = PoleSpectral(J0=spec.J0, z1=spec.z1 - model.omega_A, r1=spec.r1)
    kernel = memory_kernel(shifted, h * np.arange(4))
    values, derivs = dynamics._volterra_start(
        kernel.regular, kernel.delta_weight / 2.0, 1.0, h
    )
    qme = embed_from_model(model)
    gen = np.array([
        [-0.5 * qme.gamma, -1j * qme.g_tilde_minus],
        [-1j * np.conj(qme.g_tilde_plus), -1j * (qme.z1 - qme.omega_A)],
    ])
    states = dynamics._expm(h * np.arange(5)[:, None, None] * gen)[:, :, 0]
    assert np.max(np.abs(values - states[:, 0])) <= u_bound
    assert np.max(np.abs(derivs - states @ gen[0])) <= du_bound


def _at_resolution(h: float, kappa: float, g_abs: float, ratio: float) -> FanoModel:
    """A model whose Volterra run at step ``h`` has h |z1 - omega_A| =
    ``ratio`` times the resolution bound (omega_C = 0, omega_A < 0)."""
    frequency = ratio * dynamics._RESOLUTION / h
    return FanoModel(gamma=0.05, kappa=kappa, g_abs=g_abs, eta=0.5,
                     omega_A=-math.sqrt(frequency**2 - 0.25 * kappa**2))


@settings(DETERMINISTIC, max_examples=40)
@given(
    model=models(
        kappa=st.one_of(st.just(1.0), log_uniform(-1.0, 2.0)),
        gamma=log_uniform(-2.0, 0.5),
        g_abs=log_uniform(-1.3, 0.7),
        omega_A=st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(-2.0, 2.5)).map(
            math.prod
        ),
    ),
    h=st.sampled_from([1e-3, 1e-2, 2.5e-2, 0.1]),
)
# either side of the rule at the pole's rate |z1 - omega_A|, where the
# admitted error peaks, with a coupling just below it, at h = 0.1 and 1e-2
@example(model=_at_resolution(0.1, 1.0, 0.9, 1.0 - 1e-9), h=0.1)
@example(model=_at_resolution(0.1, 1.0, 0.9, 1.0 + 1e-9), h=0.1)
@example(model=_at_resolution(1e-2, 1.0, 2.9, 1.0 - 1e-9), h=1e-2)
@example(model=_at_resolution(1e-2, 1.0, 2.9, 1.0 + 1e-9), h=1e-2)
# the default model in units 100 times smaller (refused by h |k(0)| = 3.12),
# a coupling sqrt|k(0)| = 0.2 at h = 2 (admitted with an error of 4.3e-2),
# and either side of the rule at the coupling sqrt|k(0)| = |g| = 5 (eta = 0)
@example(model=FanoModel(gamma=25.0, kappa=100.0, g_abs=50.0, eta=1.0), h=1e-3)
@example(model=FanoModel(gamma=0.001, kappa=0.01, g_abs=0.2, eta=1.0), h=2.0)
@example(model=FanoModel(gamma=0.25, kappa=1.0, g_abs=5.0 * (1.0 - 1e-9), eta=0.0),
         h=0.02)
@example(model=FanoModel(gamma=0.25, kappa=1.0, g_abs=5.0 * (1.0 + 1e-9), eta=0.0),
         h=0.02)
def test_admitted_volterra_runs_agree_with_amplitudes(model, h):
    # kappa 0.1-100, |omega_C - omega_A| 0.01-300, g 0.05-5 and h 1e-3-0.1;
    # a run the step rule admits agrees with amplitudes within 2e-4; on a
    # grid of these ranges, the 1514 runs it admits that the two former
    # guards refused erred by at most 3.4e-5
    spec = pole_residue_from_model(model)
    k = memory_kernel(spec, 0.0)
    rate = max(math.sqrt(abs(k.regular)), k.delta_weight / 2,
               abs(spec.z1 - model.omega_A))
    try:
        volterra = solve_volterra(spec, model.omega_A, 1.0, 10.0, h)
    except SolverFailure:
        assert h * rate > dynamics._RESOLUTION
        return
    assert h * rate <= dynamics._RESOLUTION
    amplitudes = solve_amplitudes(embed_from_model(model), 1.0, 10.0, h)
    assert np.max(np.abs(volterra.c1 - amplitudes.c1)) <= 2e-4


@DETERMINISTIC
@given(model=models())
def test_volterra_block_steps_match_per_step(model):
    # T = 1 runs the start, 15 whole blocks and a partial one
    spec = pole_residue_from_model(model)
    got = solve_volterra(spec, model.omega_A, 1.0, 1.0, 1e-3).c1
    want = volterra_per_step(spec, model.omega_A, 1.0, 1.0, 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(DETERMINISTIC, max_examples=30)
@given(
    model=models(),
    blocks=st.integers(1, 40),
    rest=st.integers(1, 63),
    h=st.sampled_from([1e-3, 0.01, 0.1]),
)
def test_blocked_runs_keep_their_invariants(model, blocks, rest, h):
    # n = 64 blocks + rest samples past t = 0, so the last block is partial;
    # the bounds are those of the fixed-model tests
    n = 64 * blocks + rest
    qme = embed_from_model(model)
    amplitudes = solve_amplitudes(qme, 1.0, n * h, h)
    rho = solve_qme(qme, 1.0, n * h, h).rho
    assert len(amplitudes.times) == len(rho) == n + 1
    norm = amplitudes.observables()[0]["norm_sum"]
    assert np.max(np.abs(norm - 1.0)) < 1e-10
    assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) < 1e-10
    assert np.max(np.abs(rho[:, 1, 1].real - amplitudes.c1_abs2)) < 1e-8
    assert np.max(np.abs(rho[:, 2, 2].real - np.abs(amplitudes.b1) ** 2)) < 1e-8
    assert np.max(np.abs(rho[:, 1, 2] - amplitudes.c1 * np.conj(amplitudes.b1))) < 1e-8


# The exit-code contract over the whole config space: every command and
# every numeric key.  Each draws from the extremes of PROBE, and a key
# bounded in config.BOUNDS also on both sides of its bound, on top of
# SMALL_RUN.
PROBE = (0.0, 5e-324, 1e-300, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e150, 1e300, -1e300,
         -1.0, -1e3)
SMALL_RUN = {
    "solver.t_max": 1.0, "solver.h": 0.01, "solver.n_modes": 200,
    "spectrum.n_points": 51, "kernel.n_points": 51,
    "kernel.quadrature_points": 1001, "fanodiag.n_points": 51,
    "decay_rate.t_max": 6.0, "decay_rate.h": 0.01,
    "decay_rate.fit_t_min": 1.0, "decay_rate.fit_t_max": 5.0,
}
# what each run computes, drawn for every run; a method name outside
# config.BOUNDS exits 1 under every command, whether or not it reads it
SOLVERS = ("amplitudes", "volterra", "qme", "discretized")
METHOD_KEYS = ("solver.method", "compare.method_a", "compare.method_b")
METHODS = {
    **{key: SOLVERS + ("magic",) for key in METHOD_KEYS},
    "kernel.quadrature_check": (False, True),
}
# the bounded keys that are not numbers, on both sides of their bounds
NON_NUMERIC = {"spectrum.curves": ([], [{}]), "output.format": ("csv", "json", "xml")}
DEFAULTS = {
    f"{section}.{key}": value
    for section, table in DEFAULT_CONFIG.items() if isinstance(table, dict)
    for key, value in table.items()
}
NUMERIC_KEYS = sorted(
    key for key, value in DEFAULTS.items()
    if isinstance(value, (int, float)) and not isinstance(value, bool)
)
# A valid run larger than this is slow, not a question of the contract;
# one of 1e15 samples or more (8 PB) fails at once on any host.
SAMPLE_BUDGET = 20_000
# the label that leads a failing run's stderr line, by exit code
LABELS = {error.exit_code: error.label
          for error in (ParameterError, PropertyViolation, SolverFailure)}
SIZE_KEYS = ("solver.n_modes", "spectrum.n_points", "kernel.n_points",
             "kernel.quadrature_points", "fanodiag.n_points")


def config_values(key: str):
    if key in NON_NUMERIC:
        return st.sampled_from(NON_NUMERIC[key])
    values = list(PROBE)
    if isinstance(DEFAULTS[key], int):
        values += [int(v) for v in PROBE if v.is_integer()]
    relation, bound = BOUNDS.get(key, (None, None))
    if relation in (">", ">="):
        values += [bound - 1, bound, bound + 1]
        if isinstance(DEFAULTS[key], float):
            values += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return st.sampled_from(values)


def run_samples(settings_: dict) -> list[float]:
    """The sample counts the run's arrays take from its settings."""
    counts = [abs(settings_[key]) for key in SIZE_KEYS]
    for section in ("solver", "decay_rate"):
        t_max, h = settings_[f"{section}.t_max"], settings_[f"{section}.h"]
        counts.append(abs(t_max / h) if h else 0.0)
    return counts


@settings(DETERMINISTIC, max_examples=300)
@given(
    command=st.sampled_from(list(cli._COMMANDS)),
    methods=st.fixed_dictionaries(
        {key: st.sampled_from(values) for key, values in METHODS.items()}
    ).map(lambda drawn: list(drawn.items())),
    overrides=st.lists(
        st.sampled_from(NUMERIC_KEYS + list(NON_NUMERIC)).flatmap(
            lambda key: st.tuples(st.just(key), config_values(key))
        ),
        min_size=1, max_size=3, unique_by=lambda item: item[0],
    ),
)
# three inputs that ended in a ZeroDivisionError traceback: a kappa whose
# half underflows, and a comb whose detunings from omega_A all round to one
@example(command="lindblad-check", methods=[], overrides=[("model.kappa", 5e-324)])
@example(command="evolve", methods=[("solver.method", "discretized")],
         overrides=[("model.omega_A", 1e19)])
@example(command="compare", methods=[("compare.method_b", "discretized")],
         overrides=[("model.omega_A", 1e19)])
# three grids that collapsed onto repeated points and exited 0: a quadrature
# grid and a fanodiag grid of width 2 at omega_C = 1e17, and five taus
# up to the least subnormal
@example(command="kernel", methods=[("kernel.quadrature_check", True)],
         overrides=[("model.omega_C", 1e17), ("kernel.quadrature_window", 1.0),
                    ("kernel.n_points", 3)])
@example(command="fanodiag", methods=[],
         overrides=[("model.omega_C", 1e17), ("fanodiag.half_width", 1.0)])
@example(command="kernel", methods=[],
         overrides=[("kernel.tau_max", 5e-324), ("kernel.n_points", 5)])
# two method names that the command does not read, which exited 0
@example(command="spectrum", methods=[("solver.method", "magic")],
         overrides=[("spectrum.n_points", 51)])
@example(command="lindblad-check", methods=[("compare.method_b", "x")],
         overrides=[("model.kappa", 1.0)])
def test_cli_keeps_the_exit_code_contract_everywhere(command, methods, overrides):
    # exits 0-3 and nothing escapes; a failure prints one stderr line led by
    # its class's label, a usage error or solver failure writes no file, and
    # a table that passes is finite, its first column (the grid it is
    # sampled on) strictly increasing
    settings_ = {**SMALL_RUN, **dict(overrides)}
    assume(all(n <= SAMPLE_BUDGET or n >= 1e15 for n in run_samples(settings_)))
    fmt = dict(overrides).get("output.format", "csv")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [command, "--out", out]
        for key, value in [*SMALL_RUN.items(), *methods, *overrides]:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        if any(key in METHOD_KEYS and value not in SOLVERS for key, value in methods):
            assert code == 1
        if code:
            assert err.getvalue().startswith(f"fanomode: {LABELS[code]}: ")
            assert err.getvalue().count("\n") == 1
        if code in (1, 3):
            assert not os.path.exists(out)
        if code == 0 and command not in ("lindblad-check", "decay-rate"):
            if fmt == "json":
                with open(out, encoding="utf-8") as fh:
                    rows = np.array(json.load(fh)["rows"], dtype=float)
            else:
                rows = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)
            assert np.all(np.isfinite(rows))
            assert np.all(np.diff(rows[:, 0]) > 0.0)
