"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Tolerances are pinned here and never loosened to fit the
implementation; criterion 3 documents a physical limit of its pinned
parameters (see the window-convergence diagnostic at the bottom).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fanomode.cli import main
from fanomode.dynamics import (
    _BLOCK,
    _START,
    _volterra_core,
    build_discretized,
    decay_rate,
    solve_amplitudes,
    solve_discretized,
    solve_qme,
    solve_volterra,
)
from fanomode.embedding import EmbeddedQME, embed_from_model, is_lindblad
from fanomode.fanodiag import fano_lambda
from fanomode.spectral import (
    FanoModel,
    _kernel_quadrature,
    evaluate_J,
    pole_residue_from_model,
)

from conftest import random_lindblad_model

TWO_PI = 2.0 * math.pi


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_spectrum_presets(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--out", str(out)])
    data = np.loadtxt(out, delimiter=",", comments="#")
    elapsed = time.perf_counter() - started
    eps = data[:, 0]
    solid_zero = abs(data[np.argmin(np.abs(eps + 2.0)), 1])
    dashed_peak = abs(data[np.argmin(np.abs(eps)), 2] - 5.0)
    dotted_zero = abs(data[np.argmin(np.abs(eps)), 3])
    worst = max(solid_zero, dashed_peak, dotted_zero)
    report(
        1, "spectrum presets",
        code == 0 and worst < 1e-12 and elapsed < 1.0,
        f"worst deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_cross_solver_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        model = random_lindblad_model(rng)
        volterra = solve_volterra(
            pole_residue_from_model(model), model.omega_A, 1.0, 20.0, 1e-3
        )
        amplitudes = solve_amplitudes(embed_from_model(model), 1.0, 20.0, 1e-3)
        worst = max(
            worst, float(np.max(np.abs(np.abs(volterra.c1) - np.abs(amplitudes.c1))))
        )
    elapsed = time.perf_counter() - started
    report(
        2, "cross-solver equivalence",
        worst < 1e-6 and elapsed < 60.0,
        f"worst max-t deviation {worst:.3e} over 20 models, {elapsed:.1f}s",
    )


def test_criterion_3_brute_force_oracle():
    started = time.perf_counter()
    model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)  # |q| = 2
    spec = pole_residue_from_model(model)
    reservoir = build_discretized(spec, window=40.0, n_modes=4001)
    comb = solve_discretized(reservoir, model.omega_A, 1.0, 5.0, 1e-3)
    volterra = solve_volterra(spec, model.omega_A, 1.0, 5.0, 1e-3)
    deviation = float(np.max(np.abs(np.abs(comb.c1) - np.abs(volterra.c1))))
    elapsed = time.perf_counter() - started
    report(
        3, "brute-force oracle",
        deviation < 1e-3 and elapsed < 60.0,
        f"max |c1| deviation {deviation:.3e} at window 40/kappa, {elapsed:.1f}s "
        "(deviation floor is the truncated flat background, ~gamma/(pi W); "
        "see the window-convergence diagnostic)",
    )


def test_criterion_4_qme_consistency():
    qme = embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0))
    master = solve_qme(qme, 1.0, 20.0, 1e-3)
    amplitudes = solve_amplitudes(qme, 1.0, 20.0, 1e-3)
    rho = master.rho
    err_11 = float(np.max(np.abs(rho[:, 1, 1].real - amplitudes.c1_abs2)))
    err_22 = float(np.max(np.abs(rho[:, 2, 2].real - np.abs(amplitudes.b1) ** 2)))
    err_12 = float(
        np.max(np.abs(rho[:, 1, 2] - amplitudes.c1 * np.conj(amplitudes.b1)))
    )
    trace_drift = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)))
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    ok = (
        err_11 < 1e-8 and err_22 < 1e-8 and err_12 < 1e-8
        and trace_drift < 1e-10 and min_eig > -1e-10
    )
    report(
        4, "master-equation consistency", ok,
        f"population errors ({err_11:.1e}, {err_22:.1e}), coherence {err_12:.1e}, "
        f"trace drift {trace_drift:.1e}, min eigenvalue {min_eig:.1e}",
    )


def test_criterion_5_lindblad_boundary():
    rng = np.random.default_rng(555)
    worst_det = 0.0
    for _ in range(50):
        model = random_lindblad_model(rng, resonant=False)
        det = is_lindblad(embed_from_model(model)).det
        expected = model.gamma * model.kappa * (1.0 - model.eta)
        scale = max(model.gamma * model.kappa, abs(expected), 1e-30)
        worst_det = max(worst_det, abs(det - expected) / scale)
    in_range_ok = all(
        is_lindblad(embed_from_model(
            FanoModel(gamma=0.3, kappa=1.0, g_abs=0.7, eta=float(eta))
        )).passed
        for eta in np.linspace(0.0, 1.0, 11)
    )
    above_ok = not is_lindblad(embed_from_model(
        FanoModel(gamma=0.3, kappa=1.0, g_abs=0.7, eta=1.2)
    )).passed

    kappa, nu = 1.0, 0.3 + 0.1j
    threshold = abs(nu) ** 2 / (math.pi * kappa / 2.0)

    def passes(j0: float) -> bool:
        return is_lindblad(EmbeddedQME(
            omega_A=0.0, omega_C=0.0, mu=0.4, gamma=TWO_PI * j0,
            kappa=kappa, gamma_F=2.0 * nu,
        )).passed

    lo, hi = 0.0, 2.0 * threshold
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    bisect_err = abs(0.5 * (lo + hi) - threshold)
    ok = worst_det < 1e-12 and in_range_ok and above_ok and bisect_err < 1e-10
    report(
        5, "Lindblad boundary", ok,
        f"det identity rel err {worst_det:.1e}, eta-range verdicts "
        f"{'ok' if in_range_ok and above_ok else 'wrong'}, "
        f"repair threshold located to {bisect_err:.1e}",
    )


def test_criterion_6_diagonalization_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(10):
        base = random_lindblad_model(rng, resonant=False)
        model = FanoModel(
            gamma=max(base.gamma, 0.01), kappa=1.0, g_abs=base.g_abs, eta=1.0,
            omega_A=base.omega_A, omega_C=base.omega_C, phi=base.phi,
            theta_A=base.theta_A, theta_C=base.theta_C,
        )
        grid = np.linspace(model.omega_C - 20.0, model.omega_C + 20.0, 4001)
        lam_sq = TWO_PI * np.abs(fano_lambda(model, grid)) ** 2
        j_vals = TWO_PI * evaluate_J(pole_residue_from_model(model), grid)
        worst = max(worst, float(np.max(np.abs(lam_sq - j_vals)) / np.max(j_vals)))
    elapsed = time.perf_counter() - started
    report(
        6, "diagonalization identity",
        worst < 1e-12 and elapsed < 1.0,
        f"max relative deviation {worst:.3e} over 10 models, {elapsed:.2f}s",
    )


def test_criterion_7_transition_rate():
    weak = FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=1.0)
    predicted = TWO_PI * evaluate_J(pole_residue_from_model(weak), weak.omega_A)
    trajectory = solve_amplitudes(embed_from_model(weak), 1.0, 60.0, 1e-3)
    fitted = decay_rate(trajectory, (5.0, 40.0))
    deviation = abs(fitted - predicted) / predicted

    suppressed = FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=-0.5)
    trajectory_s = solve_amplitudes(embed_from_model(suppressed), 1.0, 60.0, 1e-3)
    with pytest.warns(UserWarning):
        fitted_s = decay_rate(trajectory_s, (5.0, 40.0))
    suppression_ok = abs(fitted_s) <= suppressed.gamma / 10.0
    report(
        7, "transition rate", deviation < 0.10 and suppression_ok,
        f"golden-rule deviation {deviation:.2%}, anti-resonance rate "
        f"{fitted_s:.2e} vs bare gamma {suppressed.gamma}",
    )


def test_criterion_8_jump_monotonicity():
    rng = np.random.default_rng(88)
    worst_increment = math.inf
    for _ in range(5):
        model = random_lindblad_model(rng)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 20.0, 1e-3)
        worst_increment = min(worst_increment, float(np.min(np.diff(traj.pi_j))))
    non_lindblad = FanoModel(gamma=0.25, kappa=1.0, g_abs=1.0, eta=1.2)
    traj_nl = solve_amplitudes(embed_from_model(non_lindblad), 1.0, 20.0, 1e-3)
    min_nl = float(np.min(np.diff(traj_nl.pi_j)))
    ok = worst_increment > -1e-12 and min_nl < 0.0
    report(
        8, "jump-probability monotonicity", ok,
        f"Lindblad-valid min increment {worst_increment:.2e}; eta=1.2 generator "
        f"min increment {min_nl:.2e} (strictly negative detected)",
    )


def test_oracle_window_convergence_diagnostic():
    """Not a criterion: documents that the comb-vs-Volterra deviation is the
    window-truncation floor of the flat background, falling like 1/window."""
    model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
    spec = pole_residue_from_model(model)
    volterra = solve_volterra(spec, model.omega_A, 1.0, 5.0, 1e-3)
    deviations = []
    for window, n_modes in ((40.0, 4001), (80.0, 8001), (160.0, 16001)):
        reservoir = build_discretized(spec, window, n_modes)
        comb = solve_discretized(reservoir, model.omega_A, 1.0, 5.0, 1e-3)
        deviations.append(
            float(np.max(np.abs(np.abs(comb.c1) - np.abs(volterra.c1))))
        )
    print(
        "window-convergence diagnostic (40, 80, 160)/kappa: "
        + ", ".join(f"{d:.3e}" for d in deviations)
    )
    assert deviations[0] > deviations[1] > deviations[2]
    # halving per doubling, and under 1e-3 by window = 160/kappa
    assert deviations[2] < 1e-3
    for coarse, fine in zip(deviations, deviations[1:]):
        assert fine == pytest.approx(coarse / 2.0, rel=0.25)


def test_oracle_windowed_kernel_split():
    """Not a criterion: splits criterion 3's deviation into the oracle's own
    error and the truncation floor.  The comb sees J only on
    [Re z1 - W, Re z1 + W], so Volterra is run on that windowed continuum
    kernel too: its regular part by quadrature over the comb's window and
    grid, its J0 part 2 J0 e^{-i Re z1 tau} sin(W tau)/tau in closed form,
    and no delta damping (omega_A = 0, so the rotating frame is the lab
    frame).  comb - windowed is the comb's own error; windowed - full
    Volterra is the flat-background truncation floor."""
    model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
    spec = pole_residue_from_model(model)
    h, t_max = 1e-3, 5.0
    full = solve_volterra(spec, model.omega_A, 1.0, t_max, h)
    taus = h * np.arange(len(full.times) + _BLOCK - _START)  # the core's lags
    own, floor = [], []
    for window, n_modes in ((40.0, 4001), (80.0, 8001)):
        regular, _ = _kernel_quadrature(spec, taus, window, n_modes)
        sinc = np.full(len(taus), 2.0 * window)
        sinc[1:] = 2.0 * np.sin(window * taus[1:]) / taus[1:]
        kernel = regular + spec.J0 * np.exp(-1j * spec.z1.real * taus) * sinc
        windowed = np.abs(_volterra_core(kernel, 0.0, 1.0, h))
        comb = solve_discretized(
            build_discretized(spec, window, n_modes), model.omega_A, 1.0, t_max, h
        )
        own.append(float(np.max(np.abs(np.abs(comb.c1) - windowed))))
        floor.append(float(np.max(np.abs(windowed - np.abs(full.c1)))))
    print(
        "windowed-kernel split at (40, 80)/kappa: comb - windowed "
        + ", ".join(f"{d:.3e}" for d in own)
        + "; windowed - full " + ", ".join(f"{d:.3e}" for d in floor)
    )
    # Measured: comb - windowed 9.9e-7 and 2.5e-7, windowed - full 2.666e-3
    # and 1.337e-3.  The floor carries criterion 3's deviation and halves
    # per doubling of the window.
    assert own[0] < 2e-6 and own[1] < 5e-7
    assert floor[1] == pytest.approx(floor[0] / 2.0, rel=0.05)
