"""End-to-end CLI tests: file outputs, exit codes, determinism, config."""

from __future__ import annotations

import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fanomode
from fanomode import __version__, cli, errors
from fanomode.cli import main
from fanomode.config import DEFAULT_CONFIG, load_config
from fanomode.errors import (
    FanomodeError,
    ParameterError,
    PropertyViolation,
    SolverFailure,
)
from fanomode.spectral import FanoModel

from conftest import render_reference


def run(*args: str) -> int:
    return main(list(args))


def load_rows(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


# A generator that grows the state (at eta = 50 the Liouvillian's largest
# real eigenvalue is 2.9) until it overflows to inf/nan.
UNSTABLE = ("--set", "solver.h=0.9", "--set", "solver.t_max=1800",
            "--set", "model.g_abs=5", "--set", "model.eta=50")


class TestSpectrum:
    def test_default_curves(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run("spectrum", "--out", str(out)) == 0
        data = load_rows(out)
        assert data.shape == (1601, 4)
        eps = data[:, 0]
        solid = data[np.argmin(np.abs(eps + 2.0)), 1]
        dashed = data[np.argmin(np.abs(eps)), 2]
        dotted = data[np.argmin(np.abs(eps)), 3]
        assert abs(solid) < 1e-12
        assert abs(dashed - 5.0) < 1e-12
        assert abs(dotted) < 1e-12

    def test_non_finite_table_is_violation(self, tmp_path):
        # used to write nan rows and exit 0 under three numpy RuntimeWarnings;
        # a subprocess, so stderr is the real one
        out = tmp_path / "spectrum.csv"
        src = str(Path(fanomode.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "fanomode.cli", "spectrum", "--out", str(out),
             "--set", "spectrum.epsilon_min=-1e300",
             "--set", "spectrum.epsilon_max=1e300"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "fanomode: property violation: table holds 4800 non-finite values\n"
        )
        assert np.isnan(load_rows(out)).any()

    def test_single_flat_curve(self, tmp_path):
        out = tmp_path / "flat.csv"
        code = run(
            "spectrum", "--out", str(out),
            "--set", 'spectrum.curves=[{"eta":0.0,"q_abs":0.0,"delta_phi":0.0}]',
        )
        assert code == 0
        data = load_rows(out)
        np.testing.assert_allclose(data[:, 1], 1.0, rtol=1e-14)

    def test_complex_q_symmetric_profile(self, tmp_path):
        # dphi = pi/2: |eps + i|q||^2 = eps^2 + |q|^2 is even in eps, so the
        # lineshape (eps^2 + |q|^2)/(eps^2 + 1) is symmetric; for |q| > 1 its
        # minimum sits at the grid edges (value -> 1), the center is the
        # maximum |q|^2; for |q| < 1 the minimum is |q|^2 at eps = 0
        out = tmp_path / "sym.csv"
        half_pi = "1.5707963267948966"
        code = run(
            "spectrum", "--out", str(out),
            "--set",
            "spectrum.curves=["
            f'{{"eta":1.0,"q_abs":2.0,"delta_phi":{half_pi}}},'
            f'{{"eta":1.0,"q_abs":0.5,"delta_phi":{half_pi}}}]',
        )
        assert code == 0
        data = load_rows(out)
        for column in (1, 2):
            np.testing.assert_allclose(data[:, column], data[::-1, column],
                                       rtol=1e-12)
        center = np.argmin(np.abs(data[:, 0]))
        assert np.argmax(data[:, 1]) == center
        assert data[:, 1].max() == pytest.approx(4.0, rel=1e-12)
        assert np.argmin(data[:, 1]) in (0, len(data) - 1)
        assert np.argmin(data[:, 2]) == center
        assert data[:, 2].min() == pytest.approx(0.25, rel=1e-12)

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        code = run("spectrum", "--set", "spectrum.epsilon_max=-20.0")
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("spectrum", "--out", str(a)) == 0
        assert run("spectrum", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_header(self, tmp_path):
        out = tmp_path / "bare.csv"
        assert run("spectrum", "--no-header", "--out", str(out)) == 0
        first = out.read_text().splitlines()[0]
        assert not first.startswith("#")

    def test_json_format(self, tmp_path):
        out = tmp_path / "spectrum.json"
        assert run("spectrum", "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "epsilon"
        assert len(doc["rows"]) == 1601
        assert doc["config"]["schema_version"] == 1


class TestKernel:
    def test_columns_and_weight(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert run("kernel", "--out", str(out)) == 0
        data = load_rows(out)
        assert data.shape == (1001, 4)
        header = out.read_text()
        assert "# delta_weight: 0.25" in header
        # |regular| decays like exp(-kappa tau / 2)
        ratio = data[-1, 3] / data[0, 3]
        assert ratio == pytest.approx(np.exp(-0.5 * 10.0), rel=1e-9)

    def test_quadrature_check_columns(self, tmp_path):
        out = tmp_path / "kernel_q.csv"
        code = run(
            "kernel", "--out", str(out),
            "--set", "kernel.quadrature_check=true",
            "--set", "kernel.n_points=5",
            "--set", "kernel.tau_max=2.0",
            "--set", "kernel.quadrature_window=60.0",
            "--set", "kernel.quadrature_points=20001",
        )
        assert code == 0
        data = load_rows(out)
        assert data.shape == (5, 8)
        # tau > 0: deviation bounded by the truncated-tail scale
        assert np.all(data[1:, 7] < 5e-3)
        # tau = 0: the symmetric-window integral is real, so it misses the
        # arc term Im(-2 pi i r1) = -0.25 of the one-sided kernel limit
        assert data[0, 7] == pytest.approx(0.25, abs=1e-3)
        assert abs(data[0, 5]) < 1e-10  # quadrature itself is real at tau = 0

    def test_quadrature_check_at_default_size(self, tmp_path):
        # 1001 taus on the default 100001-point grid
        out = tmp_path / "kernel_q.csv"
        assert run("kernel", "--out", str(out),
                   "--set", "kernel.quadrature_check=true") == 0
        lines = out.read_text().splitlines()
        assert ("# columns: tau,re_regular,im_regular,abs_regular,re_quadrature,"
                "im_quadrature,quadrature_error_estimate,abs_deviation") in lines
        data = load_rows(out)
        assert data.shape == (1001, 8)
        assert np.all(np.isfinite(data))
        header = next(line for line in lines if line.startswith("# max_abs_deviation:"))
        max_deviation = float(header.split(":")[1])
        assert max_deviation == np.max(data[:, 7])
        # The tau = 0 row: the arc term 0.25 (see above) plus 7.1e-7 of
        # window truncation, measured.
        assert max_deviation == data[0, 7]
        assert abs(max_deviation - 0.25) < 2e-6

    @pytest.mark.parametrize("setting", ["kernel.quadrature_points=1",
                                         "kernel.quadrature_window=-1"])
    def test_bad_quadrature_setting_names_its_key(self, capsys, setting):
        code = run("kernel", "--set", "kernel.quadrature_check=true", "--set", setting)
        assert code == 1
        assert setting.split("=")[0] in capsys.readouterr().err


class TestEvolve:
    def test_markovian_preset(self, tmp_path):
        out = tmp_path / "markov.csv"
        code = run(
            "evolve", "--out", str(out),
            "--set", "model.g_abs=0.0", "--set", "model.eta=0.0",
            "--set", "solver.t_max=5.0",
        )
        assert code == 0
        data = load_rows(out)
        np.testing.assert_allclose(
            data[:, 1], np.exp(-0.25 * data[:, 0]), atol=1e-9
        )
        np.testing.assert_allclose(data[:, 4], 1.0, atol=1e-10)

    def test_method_columns(self, tmp_path):
        for method, n_cols in [
            ("volterra", 2), ("amplitudes", 5), ("qme", 6), ("discretized", 4),
        ]:
            out = tmp_path / f"{method}.csv"
            code = run(
                "evolve", "--out", str(out),
                "--set", f"solver.method={method}",
                "--set", "solver.t_max=1.0",
                "--set", "solver.n_modes=801",
            )
            assert code == 0, method
            assert load_rows(out).shape[1] == n_cols, method

    @pytest.mark.parametrize("setting", ["model.g_abs=1e100", "model.omega_A=5000"])
    def test_comb_with_eigenvalues_outside_it_runs(self, tmp_path, setting):
        # polaritons of a huge coupling, or the level of an atom far from
        # the comb, lie outside it: they are summed in closed form
        out = tmp_path / "split.csv"
        code = run(
            "evolve", "--out", str(out), "--set", "solver.method=discretized",
            "--set", "solver.t_max=1.0", "--set", setting,
        )
        assert code == 0
        c1_abs2 = load_rows(out)[:, 1]
        assert np.all((c1_abs2 >= 0.0) & (c1_abs2 <= 1.0 + 1e-12))

    def test_non_lindblad_qme_flags_violation(self, tmp_path, capsys):
        out = tmp_path / "nonlindblad.csv"
        code = run(
            "evolve", "--out", str(out),
            "--set", "solver.method=qme",
            "--set", "model.eta=1.2", "--set", "model.g_abs=0.2",
            "--set", "solver.t_max=40.0", "--set", "solver.h=0.002",
        )
        assert code == 2
        assert "positivity" in capsys.readouterr().err
        data = load_rows(out)  # the file is still written
        assert data[:, 5].min() < -1e-6

    def test_non_lindblad_amplitudes_flags_violation(self, tmp_path, capsys):
        out = tmp_path / "nl_amp.csv"
        code = run(
            "evolve", "--out", str(out),
            "--set", "model.eta=1.2", "--set", "model.g_abs=1.0",
        )
        assert code == 2
        assert "jump probability decreases" in capsys.readouterr().err

    def test_non_lindblad_qme_flags_jump_decrease(self, tmp_path, capsys):
        # the amplitudes run's model: rho stays positive, rho_00 falls
        code = run(
            "evolve", "--out", str(tmp_path / "nl_qme.csv"),
            "--set", "solver.method=qme",
            "--set", "model.eta=1.2", "--set", "model.g_abs=1",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "jump probability decreases (min increment -8.694e-06)" in err

    def test_unknown_method(self, capsys):
        assert run("evolve", "--set", "solver.method=magic") == 1

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--set", "solver.method=magic"),
        ("kernel", "--set", "solver.method=qme2"),
        ("lindblad-check", "--set", "compare.method_b=x"),
        ("decay-rate", "--set", "compare.method_a=nope"),
    ])
    def test_unknown_method_is_refused_by_every_command(self, tmp_path, capsys, argv):
        # each of these ran and exited 0: the command reads no method
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 1
        key, _, value = argv[-1].partition("=")
        assert capsys.readouterr().err == (
            f"fanomode: error: 'config.{key}' must be one of volterra, "
            f"amplitudes, qme, discretized, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["amplitudes", "qme", "volterra"])
    def test_overflow_is_solver_failure(self, tmp_path, capsys, method):
        # used to write NaN rows and exit 0 (amplitudes) or 2 (volterra), or
        # to die with an uncaught LinAlgError traceback from eigvalsh (qme);
        # Volterra's step guard needs a finer h than UNSTABLE's
        out = tmp_path / "nan.csv"
        settings = UNSTABLE if method != "volterra" else (
            *UNSTABLE, "--set", "solver.h=0.003", "--set", "solver.t_max=900")
        code = run("evolve", "--out", str(out), "--set", f"solver.method={method}",
                   *settings)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("fanomode: solver failure: state is not finite from t = ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["amplitudes", "qme"])
    @pytest.mark.parametrize("h", ["0.5", "2.0"])
    def test_coarse_step_samples_the_same_solution(self, tmp_path, method, h):
        # each step is exact, so h is only the sampling step
        model = ("--set", f"solver.method={method}", "--set", "solver.t_max=20",
                 "--set", "model.g_abs=5")
        fine, coarse = tmp_path / "fine.csv", tmp_path / "coarse.csv"
        assert run("evolve", "--out", str(fine), *model) == 0
        assert run("evolve", "--out", str(coarse), "--set", f"solver.h={h}",
                   *model) == 0
        want = load_rows(fine)[:: round(float(h) / 1e-3)]
        assert np.max(np.abs(load_rows(coarse) - want)) <= 1e-12

    @pytest.mark.parametrize("argv", [
        # the kernel oscillates at omega_C - omega_A = 50: h = 0.3 aliases it
        # (|c1|^2 peaked at 1.16 and the run exited 0), and ...
        ("evolve", "--set", "solver.method=volterra", "--set", "model.omega_C=50",
         "--set", "solver.h=0.3", "--set", "solver.t_max=60"),
        # ... it decays at kappa / 2 = 50 within one step of h = 0.1 (c1 erred
        # by 0.04 against amplitudes)
        ("evolve", "--set", "solver.method=volterra", "--set", "model.kappa=100",
         "--set", "model.eta=0", "--set", "solver.h=0.1", "--set", "solver.t_max=10"),
        # an atom so far from the cavity that the comb (method_b) failed with
        # a traceback: Volterra (method_a) now refuses it first
        ("compare", "--set", "compare.method_b=discretized",
         "--set", "model.omega_A=1e19"),
    ])
    def test_unresolved_volterra_kernel_is_solver_failure(self, tmp_path, capsys,
                                                          argv):
        out = tmp_path / "c1.csv"
        assert run(*argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("fanomode: solver failure: "
                              "h * max(sqrt|k(0)|, pi J0, |z1 - omega_A|) = ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_t_max_not_multiple_of_h_rejected(self, capsys):
        # t_max = 1, h = 0.3 used to end silently at t = 0.9
        code = run("evolve", "--set", "solver.t_max=1", "--set", "solver.h=0.3")
        assert code == 1
        assert "multiple of h" in capsys.readouterr().err


class TestCompare:
    def test_volterra_vs_amplitudes_passes(self, tmp_path):
        out = tmp_path / "compare.csv"
        code = run("compare", "--out", str(out), "--set", "solver.t_max=10.0")
        assert code == 0
        data = load_rows(out)
        assert data.shape[1] == 4
        assert data[:, 3].max() < 1e-6

    def test_tight_tolerance_flags(self, tmp_path, capsys):
        out = tmp_path / "compare_tight.csv"
        code = run(
            "compare", "--out", str(out),
            "--set", "compare.tolerance=1e-15",
            "--set", "solver.t_max=5.0",
        )
        assert code == 2
        assert "residual" in capsys.readouterr().err

    def test_overflow_is_solver_failure(self, tmp_path, capsys):
        # NaN residuals used to pass: nan > tolerance is False
        code = run("compare", "--out", str(tmp_path / "nan.csv"),
                   "--set", "compare.method_a=amplitudes", *UNSTABLE)
        assert code == 3

    def test_nan_residual_fails(self, tmp_path, capsys, monkeypatch):
        real_run_method = cli._run_method

        def nan_run_method(method, config):
            traj = real_run_method(method, config)
            if method == config["compare"]["method_a"]:
                traj.c1[-1] = np.nan
            return traj

        monkeypatch.setattr(cli, "_run_method", nan_run_method)
        code = run("compare", "--out", str(tmp_path / "nan.csv"),
                   "--set", "solver.t_max=1.0")
        assert code == 2
        assert "residual nan exceeds" in capsys.readouterr().err

    def test_solvers_are_looked_up_on_the_cli_module(self, monkeypatch):
        # a wrapper set on the module sees every run, as the benchmark's
        # capture of the criterion-4 trajectories needs
        seen = []
        for name in ("solve_qme", "solve_amplitudes"):
            def record(*args, name=name, solve=getattr(cli, name)):
                seen.append(name)
                return solve(*args)
            monkeypatch.setattr(cli, name, record)
        assert run("compare", "--set", "compare.method_a=qme",
                   "--set", "solver.t_max=0.5") == 0
        assert seen == ["solve_qme", "solve_amplitudes"]
        assert run("decay-rate", "--set", "decay_rate.t_max=6",
                   "--set", "decay_rate.fit_t_min=1",
                   "--set", "decay_rate.fit_t_max=5") == 0
        assert seen[2:] == ["solve_amplitudes"]


class TestLindbladCheck:
    def test_valid_model_passes(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = run("lindblad-check", "--format", "json", "--out", str(out))
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["det"] == pytest.approx(0.0, abs=1e-13)  # eta = 1 boundary

    def test_eta_zero_diagonal(self, capsys):
        assert run("lindblad-check", "--set", "model.eta=0.0") == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_non_lindblad_fails(self, tmp_path, capsys):
        out = tmp_path / "check12.json"
        code = run(
            "lindblad-check", "--format", "json", "--out", str(out),
            "--set", "model.eta=1.2",
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "FAIL"
        assert doc["eigenvalue_min"] < 0
        assert doc["det"] < 0

    def test_non_finite_report_is_violation(self, tmp_path):
        # a subprocess, so stderr is the real one
        out = tmp_path / "check.csv"
        src = str(Path(fanomode.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "fanomode.cli", "lindblad-check", "--out",
             str(out), "--set", "model.gamma=1e300", "--set", "model.kappa=1e300",
             "--set", "model.eta=0"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "fanomode: property violation: report holds 2 non-finite values\n"
        )
        lines = out.read_text().splitlines()  # the report is still written
        assert "det,inf" in lines and "scalar_condition,inf" in lines

    def test_csv_report(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run("lindblad-check", "--out", str(out)) == 0
        text = out.read_text()
        assert "key,value" in text
        assert "verdict,PASS" in text


class TestFanodiag:
    def test_identity_file(self, tmp_path, capsys):
        out = tmp_path / "fanodiag.csv"
        assert run("fanodiag", "--out", str(out)) == 0
        data = load_rows(out)
        assert data.shape == (4001, 4)
        scale = np.max(data[:, 2])
        assert data[:, 3].max() / scale < 1e-12
        assert "max relative deviation" in capsys.readouterr().out

    def test_gauge_sweep_constant_output(self, tmp_path):
        outs = []
        for i, psi in enumerate((0.0, 1.3)):
            out = tmp_path / f"fd{i}.csv"
            assert run("fanodiag", "--out", str(out),
                       "--set", f"fanodiag.psi={psi}") == 0
            outs.append(load_rows(out))
        np.testing.assert_allclose(outs[0][:, 1], outs[1][:, 1], rtol=1e-12)

    def test_gamma_zero_degenerate(self, tmp_path):
        out = tmp_path / "fd_g0.csv"
        assert run("fanodiag", "--out", str(out), "--set", "model.gamma=0.0") == 0

    def test_eta_not_one_rejected(self, capsys):
        assert run("fanodiag", "--set", "model.eta=0.5") == 1
        assert "eta" in capsys.readouterr().err


class TestDecayRate:
    def test_golden_rule_report(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = run(
            "decay-rate", "--format", "json", "--out", str(out),
            "--set", "model.gamma=0.01", "--set", "model.g_abs=0.05",
            "--set", "model.omega_A=1.0",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["predicted_rate"] == pytest.approx(0.018, rel=1e-12)
        assert doc["fitted_rate"] == pytest.approx(0.018, rel=0.1)
        assert doc["status"] == "ok"

    def test_regime_guard_warns(self, capsys):
        # default model has gamma = 0.25 kappa: not a golden-rule regime
        assert run("decay-rate", "--set", "decay_rate.fit_t_min=2.0") == 0
        assert "golden-rule" in capsys.readouterr().out

    def test_judges_the_trajectory_it_fits(self, tmp_path, capsys):
        # a non-Lindblad generator's jump probability falls, as `evolve`
        # reports for the same run; the fit used to exit 0
        out = tmp_path / "rate.json"
        code = run("decay-rate", "--format", "json", "--out", str(out),
                   "--set", "model.g_abs=1.0", "--set", "model.eta=1.2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "fanomode: property violation: jump probability decreases"
        )
        assert "fitted_rate" in json.loads(out.read_text())

    def test_antiresonance_suppression(self, tmp_path):
        out = tmp_path / "suppressed.json"
        code = run(
            "decay-rate", "--format", "json", "--out", str(out),
            "--set", "model.gamma=0.01", "--set", "model.g_abs=0.05",
            "--set", "model.omega_A=-0.5",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fitted_rate"]) < 0.001  # >= 10x below bare gamma
        assert doc["status"] == "warning"


class TestOutputLayout:
    """Where each kind of output goes and how its header is laid out."""

    REPORT_KEYS = {
        "gamma", "kappa", "gamma_F", "eigenvalue_min", "eigenvalue_max", "det",
        "trace", "scalar_condition", "j0_repair_threshold", "psd_tolerance",
        "verdict",
    }
    KERNEL = ("kernel", "--set", "kernel.n_points=3", "--set", "kernel.tau_max=1.0",
              "--set", "kernel.quadrature_check=true",
              "--set", "kernel.quadrature_window=10.0",
              "--set", "kernel.quadrature_points=101")

    def test_csv_table_header_order(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert run(*self.KERNEL, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# fanomode {__version__}"
        assert lines[1] == "# command: kernel"
        assert lines[2].startswith("# units: ")
        assert lines[3].startswith("# config: {")
        config = json.loads(lines[3][len("# config: "):])
        assert config["kernel"]["quadrature_check"] is True
        # meta is sorted by key, not in the order the command built it
        assert [line.split(":")[0] for line in lines[4:7]] == [
            "# delta_weight", "# max_abs_deviation", "# pole"]
        assert lines[7] == ("# columns: tau,re_regular,im_regular,abs_regular,"
                            "re_quadrature,im_quadrature,quadrature_error_estimate,"
                            "abs_deviation")
        assert len(lines) == 8 + 3
        assert not any(line.startswith("#") for line in lines[8:])

    def test_csv_report_head(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run("lindblad-check", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# fanomode {__version__}"
        assert lines[1] == "# command: lindblad-check"
        assert lines[2].startswith("# config: {")
        assert lines[3] == "key,value"
        assert {line.split(",", 1)[0] for line in lines[4:]} == self.REPORT_KEYS

    @pytest.mark.parametrize("header", [True, False])
    def test_json_key_sets(self, tmp_path, header):
        flags = () if header else ("--no-header",)
        table, report = tmp_path / "table.json", tmp_path / "report.json"
        assert run("evolve", "--format", "json", "--out", str(table),
                   "--set", "solver.t_max=0.01", *flags) == 0
        assert run("lindblad-check", "--format", "json", "--out", str(report),
                   *flags) == 0
        head = {"tool", "command", "config"} if header else set()
        table_head = head | {"units", "meta"} if header else set()
        assert set(json.loads(table.read_text())) == {"columns", "rows"} | table_head
        assert set(json.loads(report.read_text())) == self.REPORT_KEYS | head

    def test_table_to_stdout_before_summary(self, capsys):
        assert run("fanodiag", "--set", "fanodiag.n_points=3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# fanomode {__version__}"
        assert lines[-2].count(",") == 3  # last table row
        assert lines[-1].startswith("max relative deviation of 2pi|Lambda|^2")

    def test_report_without_out_prints_only_summary(self, capsys):
        assert run("lindblad-check") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("Kossakowski matrix: ")
        assert lines[1].startswith("eigenvalues: ")
        assert lines[2].startswith("scalar condition ")
        assert lines[-1] == "verdict: PASS"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("compare", "--set", "compare.tolerance=1e-15", "--set", "solver.t_max=0.1"),
        ("lindblad-check", "--set", "model.eta=1.2"),
    ], ids=["table", "report"])
    def test_violation_still_writes_file(self, tmp_path, capsys, argv, fmt):
        out = tmp_path / f"out.{fmt}"
        assert run(*argv, "--format", fmt, "--out", str(out)) == 2
        assert "property violation" in capsys.readouterr().err
        text = out.read_text()
        assert text.endswith("\n")
        if fmt == "json":
            assert json.loads(text)["command"] == argv[0]
        else:
            assert text.startswith(f"# fanomode {__version__}\n# command: {argv[0]}\n")


class TestConfig:
    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "model": {"gamma": 0.5},
        }))
        loaded = load_config(str(cfg), ["model.eta=0.25"])
        assert loaded["model"]["gamma"] == 0.5
        assert loaded["model"]["eta"] == 0.25
        assert loaded["model"]["kappa"] == 1.0  # default preserved
        # a table as an override merges like the same table in the file
        assert load_config(None, ['model={"gamma": 0.5}', "model.eta=0.25"]) == loaded

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "model": {"gama": 0.5}}))
        with pytest.raises(ParameterError, match="gama"):
            load_config(str(cfg), [])
        with pytest.raises(ParameterError, match="unknown"):
            load_config(None, ["solver.stepsize=0.1"])

    def test_schema_version_required(self, tmp_path):
        cfg = tmp_path / "nover.json"
        cfg.write_text(json.dumps({"model": {"gamma": 0.5}}))
        with pytest.raises(ParameterError, match="schema_version"):
            load_config(str(cfg), [])
        with pytest.raises(ParameterError, match="schema_version"):
            load_config(None, ["schema_version=2"])

    def test_type_checking(self):
        with pytest.raises(ParameterError, match="number"):
            load_config(None, ["model.gamma=fast"])
        with pytest.raises(ParameterError, match="integer"):
            load_config(None, ["spectrum.n_points=12.5"])
        with pytest.raises(ParameterError, match="boolean"):
            load_config(None, ["output.header=1"])

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "int_beyond_float"],
    )
    def test_non_finite_number_rejected(self, tmp_path, literal):
        with pytest.raises(ParameterError, match="finite"):
            load_config(None, [f"kernel.tau_max={literal}"])
        with pytest.raises(ParameterError, match="finite"):
            load_config(None, [f'spectrum.curves=[{{"eta":{literal}}}]'])
        cfg = tmp_path / "run.json"
        cfg.write_text('{"schema_version": 1, "solver": {"c1_re": %s}}' % literal)
        with pytest.raises(ParameterError, match="finite"):
            load_config(str(cfg), [])

    def test_integer_too_long_to_parse_rejected(self, tmp_path):
        # used to escape as a ValueError traceback from json
        digits = "1" + "0" * 5000
        with pytest.raises(ParameterError, match="must be a number"):
            load_config(None, [f"kernel.tau_max={digits}"])
        cfg = tmp_path / "run.json"
        cfg.write_text('{"schema_version": 1, "kernel": {"tau_max": %s}}' % digits)
        with pytest.raises(ParameterError, match="not valid JSON"):
            load_config(str(cfg), [])

    @pytest.mark.parametrize("argv", [
        ("kernel", "--set", "kernel.tau_max=NaN", "--set", "kernel.n_points=3"),
        ("evolve", "--set", "solver.method=volterra", "--set", "solver.c1_re=NaN",
         "--set", "solver.t_max=0.01"),
        ("evolve", "--set", "solver.c1_re=NaN", "--set", "solver.t_max=0.01"),
    ])
    def test_cli_non_finite_number_is_usage_error(self, tmp_path, capsys, argv):
        # used to exit 0 with NaN rows, or 3 blaming the step size
        out = tmp_path / "nan.csv"
        assert run(*argv, "--out", str(out)) == 1
        assert "finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--set", "output.format=xml"),
        ("lindblad-check", "--set", "output.format=CSV"),
    ])
    def test_unknown_output_format_rejected(self, tmp_path, capsys, argv):
        # used to write JSON silently and exit 0
        out = tmp_path / "out.dat"
        assert run(*argv, "--out", str(out)) == 1
        assert "output.format" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schema_version": 1, "output": {"format": "xml"}}))
        with pytest.raises(ParameterError, match="csv, json"):
            load_config(str(cfg), [])

    @pytest.mark.parametrize("argv", [
        ("evolve", "--set", "solver.h=5e-324"),
        ("evolve", "--set", "solver.t_max=1e300", "--set", "solver.h=1e-300"),
        ("evolve", "--set", "solver.t_max=1e200", "--set", "solver.h=1e-100"),
        ("kernel", "--set", "kernel.n_points=100000000000000000000"),
        # about 7 EiB each, more than any 64-bit address space: the
        # allocation fails at once
        ("evolve", "--set", "solver.t_max=1e15", "--set", "solver.h=1e-3"),
        ("spectrum", "--set", "spectrum.n_points=1000000000000000000"),
        ("fanodiag", "--set", "fanodiag.n_points=1000000000000000000"),
        # a fit window past the run's t_max = 60: refused before any output,
        # not fitted over [50, 60] alone
        ("decay-rate", "--set", "decay_rate.fit_t_min=50",
         "--set", "decay_rate.fit_t_max=70"),
        # a negative tolerance: refused, not judged as a residual over it
        ("compare", "--set", "compare.tolerance=-1"),
        # out of its bounds under a command that does not read it
        ("evolve", "--set", "kernel.tau_max=0"),
        # a negative curve eta, refused by the reduced form
        ("spectrum", "--set", 'spectrum.curves=[{"eta": -1}]'),
    ])
    def test_oversized_run_is_usage_error(self, tmp_path, capsys, argv):
        # used to exit 1 with an OverflowError, ValueError or MemoryError
        # traceback
        out = tmp_path / "big.csv"
        assert run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("fanomode: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("kernel", "--set", "model.g_abs=1e300"),
        ("fanodiag", "--set", "model.g_abs=1e300"),
        ("decay-rate", "--set", "model.g_abs=1e200"),
        ("evolve", "--set", "model.g_abs=1e200", "--set", "solver.t_max=1",
         "--set", "solver.method=volterra"),
        ("evolve", "--set", "model.g_abs=1e200", "--set", "solver.t_max=1",
         "--set", "solver.method=discretized"),
        ("spectrum", "--set", 'spectrum.curves=[{"q_abs": 1e300}]'),
        ("evolve", "--set", "solver.method=discretized",
         "--set", "model.omega_C=1e17", "--set", "solver.t_max=1"),
        ("evolve", "--set", "solver.method=discretized",
         "--set", "solver.window=1e308"),
        ("spectrum", "--set", "spectrum.epsilon_min=-1e308",
         "--set", "spectrum.epsilon_max=1e308"),
        ("fanodiag", "--set", "fanodiag.half_width=1e308"),
        ("kernel", "--set", "kernel.quadrature_check=true",
         "--set", "kernel.quadrature_window=1e308"),
        ("kernel", "--set", "kernel.quadrature_check=true",
         "--set", "kernel.quadrature_window=1e306", "--set", "kernel.tau_max=1e3"),
        ("kernel", "--set", "kernel.quadrature_check=true",
         "--set", "model.omega_C=1e308", "--set", "kernel.quadrature_window=1e308"),
        ("lindblad-check", "--set", "model.kappa=5e-324"),
        ("evolve", "--set", "solver.method=discretized", "--set", "model.omega_A=1e19"),
        ("compare", "--set", "compare.method_a=amplitudes",
         "--set", "compare.method_b=discretized", "--set", "model.omega_A=1e19"),
        ("kernel", "--set", "kernel.quadrature_check=true",
         "--set", "model.omega_C=1e17", "--set", "kernel.quadrature_window=1",
         "--set", "kernel.n_points=3", "--set", "kernel.quadrature_points=1001"),
        ("fanodiag", "--set", "model.omega_C=1e17", "--set", "fanodiag.half_width=1"),
        ("kernel", "--set", "kernel.tau_max=5e-324", "--set", "kernel.n_points=5"),
    ])
    def test_overflowing_input_is_usage_error(self, tmp_path, capsys, argv):
        # squaring g_abs or |q| as a Python float used to end in an
        # OverflowError traceback; a comb whose frequencies repeat (at
        # omega_C = 1e17) or overflow (a window of 1e308) in a
        # ZeroDivisionError or ValueError one, and so did a kappa whose half
        # underflows to 0 and a comb whose detunings from omega_A = 1e19 all
        # round to one value; a spectrum or fanodiag grid whose span
        # overflows, or a quadrature grid whose span or phases omega tau do,
        # in nan rows and exit 2; a quadrature or fanodiag grid of width 2
        # at omega_C = 1e17, and five taus up to the least subnormal, whose
        # points repeat, in exit 0
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("fanomode: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document, overrides, match", [
        ({"schema_version": 1, "model": 5}, [], "'model' must be a table of keys"),
        ([], [], "must hold a JSON object"),
        (None, ["solver.method=5"], "must be a string"),
        (None, ["spectrum.curves=5"], "must be a list"),
        (None, ["spectrum.curves=[5]"], "must be a table of keys"),
        (None, ['spectrum.curves=[{"q": 1}]'],
         r"unknown config key 'config\.spectrum\.curves\[0\]\.q'"),
        (None, ["model.gamma"], "not of the form key=value"),
        (None, ["nosuch.gamma=1"], "unknown config key"),
        (None, ["model=1"], "'model' must be a table of keys"),
    ])
    def test_malformed_config_rejected(self, tmp_path, document, overrides, match):
        path = None
        if document is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(document))
        with pytest.raises(ParameterError, match=match):
            load_config(path and str(path), overrides)

    def test_defaults_are_not_mutated(self):
        load_config(None, ["model.gamma=0.9"])
        assert DEFAULT_CONFIG["model"]["gamma"] == 0.25

    def test_one_error_class_per_exit_code(self):
        classes = [value for value in vars(errors).values() if isinstance(value, type)
                   and issubclass(value, FanomodeError) and value is not FanomodeError]
        assert sorted((c.exit_code, c.label) for c in classes) == [
            (1, "error"), (2, "property violation"), (3, "solver failure")]

    @pytest.mark.parametrize("error", [ParameterError, PropertyViolation, SolverFailure],
                             ids=lambda error: f"{error.exit_code}-{error.label}")
    def test_error_exits_by_its_class(self, capsys, monkeypatch, error):
        def fail(config):
            raise error("by design")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", (fail, "fails"))
        assert run("spectrum") == error.exit_code
        assert capsys.readouterr().err == f"fanomode: {error.label}: by design\n"

    @pytest.mark.parametrize("argv, code, line", [
        # J(omega) < 0 under the comb (eta = 1.2 > 1)
        (("evolve", "--set", "solver.method=discretized", "--set", "model.eta=1.2",
          "--set", "solver.t_max=1"),
         3, "solver failure: spectral function is negative on the grid (min -0.00796)"),
        # the comb's recurrence horizon
        (("evolve", "--set", "solver.method=discretized", "--set", "solver.t_max=400"),
         3, "solver failure: t_max = 400.0 exceeds half the recurrence time 314 "
            "of the comb; increase n_modes"),
        # Volterra's step rule, here at the pole's rate |z1 - omega_A| = 50
        (("evolve", "--set", "solver.method=volterra", "--set", "model.omega_C=50",
          "--set", "solver.h=0.3", "--set", "solver.t_max=60"),
         3, "solver failure: h * max(sqrt|k(0)|, pi J0, |z1 - omega_A|) = 15 > 0.1: "
            "the kernel's rates are not resolved; reduce h"),
        # a generator that overflows the state
        (("evolve", "--set", "solver.method=volterra", "--set", "solver.h=0.003",
          "--set", "solver.t_max=900", "--set", "model.g_abs=5", "--set", "model.eta=50"),
         3, "solver failure: state is not finite from t = 479.055: the model's "
            "generator grows the state past the floating-point range"),
        # a config bound
        (("spectrum", "--set", "model.gamma=-1"),
         1, "error: 'config.model.gamma' must be >= 0, got -1.0"),
        # Volterra's step rule at the coupling sqrt|k(0)| = 0.2: the run
        # exited 0, and erred by 4.3e-2 against amplitudes
        (("evolve", "--set", "solver.method=volterra", "--set", "model.kappa=0.01",
          "--set", "model.g_abs=0.2", "--set", "model.gamma=0.001",
          "--set", "solver.h=2", "--set", "solver.t_max=10"),
         3, "solver failure: h * max(sqrt|k(0)|, pi J0, |z1 - omega_A|) = 0.4 > 0.1: "
            "the kernel's rates are not resolved; reduce h"),
        # a step exponential past floating point: a Lindblad run, which
        # exited 3 naming a generator that grows the state
        (("evolve", "--set", "model.g_abs=1e100", "--set", "solver.t_max=1"),
         3, "solver failure: h * |generator less its rotation|_1 = 1e+97 > 1000: "
            "the step's exponential is not resolved in floating point; reduce h"),
    ])
    def test_failure_prints_one_line_and_writes_no_file(self, tmp_path, capsys,
                                                         argv, code, line):
        assert run(*argv, "--out", str(tmp_path / "out")) == code
        assert capsys.readouterr().err == f"fanomode: {line}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("key", list(FanoModel.BOUNDS))
    def test_model_bound_is_refused_by_every_command(self, tmp_path, capsys,
                                                     command, key):
        # spectrum reads no model, and exited 0 for these
        out = tmp_path / "out"
        relation, bound = FanoModel.BOUNDS[key]
        assert run(command, "--set", f"model.{key}=-1", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"fanomode: error: 'config.model.{key}' must be {relation} {bound}, "
            "got -1.0\n"
        )
        assert not out.exists()

    def test_cli_bad_config_path(self, capsys):
        assert run("spectrum", "--config", "/nonexistent/run.json") == 1

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_output_path_is_usage_error(self, tmp_path, capsys, target):
        # a directory that does not exist, and a directory itself
        before = sorted(tmp_path.rglob("*"))
        assert run("spectrum", "--out", str(tmp_path / target)) == 1
        err = capsys.readouterr().err
        assert err.startswith("fanomode: error: [Errno ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_interrupt_exits_130_with_one_line(self, tmp_path):
        # Ctrl-C signals the whole process group, the forked formatter of
        # this table too; sent once the temporary output file is open, and
        # it leaves no file behind
        src = str(Path(fanomode.__file__).resolve().parents[1])
        out = tmp_path / "evolve.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanomode.cli", "evolve",
             "--set", "solver.t_max=2000", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while not any(tmp_path.iterdir()) and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.3)
            os.killpg(proc.pid, signal.SIGINT)
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert (proc.returncode, err) == (130, "fanomode: error: interrupted\n")
        with pytest.raises(ProcessLookupError):  # no process left in the group
            os.killpg(proc.pid, 0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("earlier", [None, b"an earlier run's file\n"])
    def test_failed_write_leaves_no_file(self, tmp_path, earlier):
        # a file size limit fails the write part way: exit 1, no temporary
        # file left, and an earlier file at the path kept byte for byte
        src = str(Path(fanomode.__file__).resolve().parents[1])
        out = tmp_path / "evolve.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        probe = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))\n"
            "from fanomode.cli import main\n"
            f"sys.exit(main(['evolve', '--out', {str(out)!r}]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, timeout=120,
        )
        err = result.stderr.decode()
        assert result.returncode == 1, err
        assert err.startswith("fanomode: error: [Errno 27] File too large")
        assert err.count("\n") == 1
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [out]
            assert out.read_bytes() == earlier

    def test_output_file_mode_follows_umask(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        umask = os.umask(0o027)
        try:
            assert run("spectrum", "--out", str(out)) == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o640
        out.chmod(0o604)  # an existing file keeps its mode, as open keeps it
        assert run("spectrum", "--out", str(out)) == 0
        assert out.stat().st_mode & 0o777 == 0o604
        assert list(tmp_path.iterdir()) == [out]

    def test_symlink_target_is_written_through(self, tmp_path, capsys):
        # not a regular file (like /dev/stdout): written directly, so the
        # link stays and the file it names gets the output
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        assert run("spectrum", "--out", str(link)) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("# fanomode ")
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_cli_usage_error_exit_code(self, capsys):
        assert run("no-such-command") == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_names_every_command(self, capsys, command):
        assert run(command, "--help") == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: fanomode ")
        assert all(f"\n  {name} " in out for name in cli._COMMANDS)


class TestImportCost:
    def test_import_leaves_numpy_fft_unloaded(self):
        # every command pays its imports; numpy.fft is needed only by the
        # Volterra history, which loads it when it runs
        src = str(Path(fanomode.__file__).resolve().parents[1])
        probe = "import sys, fanomode, fanomode.cli; print('numpy.fft' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout == "False\n"


def test_readme_examples_run_as_documented(tmp_path, monkeypatch):
    # each command of README's Examples block, exit 2 where its line says so
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "fanomode"
        assert (line, main(argv[1:])) == (line, 2 if "exits 2" in line else 0)


# IEEE edge values: signed zeros, the smallest subnormal and normal, the
# largest finite, infinities, nan, and integral floats
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
               np.nan, 1.0, -3.0, 1e16, 2.0 ** 53 + 2.0, 1e22, 0.1]


def edge_table() -> cli._Output:
    row = np.array(EDGE_VALUES)
    rows = np.stack([row, -row, row[::-1]])
    return cli._Output([f"c{i}" for i in range(len(row))], rows, {"kind": "edge"})


def random_table(n_rows: int) -> cli._Output:
    rng = np.random.default_rng(n_rows)
    scale = 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    rows = rng.standard_normal((n_rows, 3)) * scale
    return cli._Output(["a", "b", "c"], rows)


@pytest.fixture
def children(monkeypatch):
    """The formatting children forked during the test, by pid; the test must
    leave none behind, reaped or running."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def both_paths(monkeypatch):
    """Set up a table body formatted in one process, then one split between
    two at any size of two blocks or more, yielding each path's name."""
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    for path in ("serial", "split") if hasattr(os, "fork") else ("serial",):
        monkeypatch.setattr(cli, "_two_cpus", lambda split=path == "split": split)
        yield path


class TestRendering:
    SMALL = {
        "spectrum": ["spectrum.n_points=40"],
        "kernel": ["kernel.n_points=7", "kernel.tau_max=1.0",
                   "kernel.quadrature_check=true", "kernel.quadrature_window=10.0",
                   "kernel.quadrature_points=101"],
        "evolve-volterra": ["solver.method=volterra", "solver.t_max=0.3"],
        "evolve-amplitudes": ["solver.method=amplitudes", "solver.t_max=0.3"],
        "evolve-qme": ["solver.method=qme", "solver.t_max=0.3"],
        "evolve-discretized": ["solver.method=discretized", "solver.t_max=0.3"],
        "compare": ["solver.t_max=0.3"],
        "fanodiag": ["fanodiag.n_points=40"],
    }

    @staticmethod
    def assert_renders_as_reference(command, config, output):
        # On a mismatch, compare 80 characters around the first difference:
        # pytest's diff of the whole MB-sized texts takes minutes.
        for fmt in ("csv", "json"):
            for header in (True, False):
                text = "".join(cli._render(command, config, output, fmt, header))
                want = render_reference(command, config, output, fmt, header)
                if text != want:
                    at = next((i for i, (a, b) in enumerate(zip(text, want))
                               if a != b), min(len(text), len(want)))
                    window = slice(max(at - 40, 0), at + 40)
                    assert text[window] == want[window], (
                        f"{fmt}, header={header}: first difference at offset {at}")

    @pytest.mark.parametrize("case", list(SMALL))
    def test_commands_byte_identical_to_per_value_format(self, case):
        command = case.split("-")[0]
        config = load_config(None, self.SMALL[case])
        output = cli._COMMANDS[command][0](config)
        assert output.rows.shape[0] > 1
        self.assert_renders_as_reference(command, config, output)

    def test_edge_values_byte_identical(self):
        config = load_config(None, [])
        self.assert_renders_as_reference("spectrum", config, edge_table())

    @pytest.mark.parametrize("n_rows", [1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1,
                                        3 * cli._ROW_BLOCK])
    def test_block_boundaries_byte_identical(self, n_rows, monkeypatch, children):
        output = random_table(n_rows)
        for path in both_paths(monkeypatch):
            forked = len(children)
            self.assert_renders_as_reference("spectrum", load_config(None, []), output)
            chunks = list(cli._render("spectrum", {}, output, "csv", False))
            assert [chunk.count("\n") for chunk in chunks] == [
                min(cli._ROW_BLOCK, n_rows - start)
                for start in range(0, n_rows, cli._ROW_BLOCK)
            ]
            assert len(children) - forked == (
                5 if path == "split" and n_rows > cli._ROW_BLOCK else 0)

    @staticmethod
    def assert_round_trips(text, rows):
        # 17 significant digits parse back to the same double, and a zero
        # keeps its sign (nan is written unsigned)
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in text.splitlines()])
        assert np.array_equal(parsed, rows, equal_nan=True)
        zero = rows == 0.0
        assert np.array_equal(np.signbit(parsed[zero]), np.signbit(rows[zero]))

    @pytest.mark.parametrize("output", [edge_table(), random_table(cli._ROW_BLOCK + 1)],
                             ids=["edge", "random"])
    def test_csv_round_trips_exactly(self, tmp_path, output):
        out = tmp_path / "table.csv"
        cli._write_chunks(str(out), cli._render("spectrum", {}, output, "csv", False))
        self.assert_round_trips(out.read_text(), output.rows)

    def test_written_evolve_file_round_trips(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run("evolve", "--set", "solver.t_max=1.5", "--no-header",
                   "--out", str(out)) == 0
        rows = cli.cmd_evolve(load_config(None, ["solver.t_max=1.5"])).rows
        assert len(rows) > cli._ROW_BLOCK
        self.assert_round_trips(out.read_text(), rows)

    def test_closed_stdout_is_not_an_error(self):
        # the default evolve table (~1.7 MB) outgrows a pipe buffer, so a
        # later block is written to a closed pipe
        src = str(Path(fanomode.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanomode.cli", "evolve"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == f"# fanomode {__version__}\n".encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""  # no traceback, no message

    def test_closed_stdout_is_not_an_error_for_json(self):
        # the default evolve document is written in row blocks, so a later
        # block is written to a closed pipe
        src = str(Path(fanomode.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanomode.cli", "evolve", "--format", "json"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(len(b'{"columns":')) == b'{"columns":'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""

    def test_reused_block_template_then_partial_block(self):
        output = random_table(2 * cli._ROW_BLOCK + 1)
        self.assert_renders_as_reference("spectrum", load_config(None, []), output)

    @pytest.mark.parametrize("layout", ["one_column", "fortran", "column_strided"])
    def test_table_layouts_byte_identical(self, layout):
        rows = random_table(cli._ROW_BLOCK + 5).rows
        rows = {
            "one_column": rows[:, :1],
            "fortran": np.asfortranarray(rows),
            "column_strided": np.hstack([rows, -rows])[:, ::2],
        }[layout]
        output = cli._Output([f"c{i}" for i in range(rows.shape[1])], rows)
        self.assert_renders_as_reference("spectrum", load_config(None, []), output)

    def test_edge_values_inside_a_full_block_byte_identical(self):
        rows = np.random.default_rng(3).standard_normal(
            (cli._ROW_BLOCK + 1, len(EDGE_VALUES)))
        rows[[0, 511, cli._ROW_BLOCK - 1]] = edge_table().rows
        output = cli._Output([f"c{i}" for i in range(len(EDGE_VALUES))], rows)
        self.assert_renders_as_reference("spectrum", load_config(None, []), output)

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_default_size_tables_byte_identical(self, command):
        config = load_config(None, [])
        output = cli._COMMANDS[command][0](config)
        assert len(output.rows) > 2 * cli._ROW_BLOCK
        self.assert_renders_as_reference(command, config, output)

    @pytest.mark.parametrize("n_rows", [1, cli._ROW_BLOCK, 2 * cli._ROW_BLOCK + 1])
    def test_json_rows_arrive_in_blocks(self, n_rows, monkeypatch, children):
        output = random_table(n_rows)
        for _ in both_paths(monkeypatch):
            chunks = list(cli._render("spectrum", {}, output, "json", True))
            row_chunks = chunks[1:-1]
            assert len(row_chunks) == math.ceil(n_rows / cli._ROW_BLOCK)
            assert [len(json.loads("[" + chunk.lstrip(",") + "]"))
                    for chunk in row_chunks] == [
                min(cli._ROW_BLOCK, n_rows - start)
                for start in range(0, n_rows, cli._ROW_BLOCK)
            ]

    def test_json_table_is_never_held_whole(self, monkeypatch, children):
        # 20 001 x 5 rows as one list and one string peaked near 10 MB;
        # in row blocks the measured peak is ~0.9 MB, and the blocks read
        # back one at a time from a formatting child hold no more
        rows = np.random.default_rng(7).standard_normal((20_001, 5))
        output = cli._Output([f"c{i}" for i in range(5)], rows, {"kind": "mem"})
        for _ in both_paths(monkeypatch):
            tracemalloc.start()
            try:
                for _ in cli._render("evolve", {}, output, "json", True):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000


def table_with_edges_in_later_half(n_blocks: int) -> cli._Output:
    """A 16-column table of ``n_blocks`` row blocks, the last one short, with
    the IEEE edge rows where the later half of the blocks starts, inside it
    and on its last row."""
    n_rows = (n_blocks - 1) * cli._ROW_BLOCK + 700
    rows = np.random.default_rng(n_blocks).standard_normal((n_rows, len(EDGE_VALUES)))
    later = n_blocks // 2 * cli._ROW_BLOCK
    edges = edge_table().rows
    rows[later : later + 3] = edges
    rows[later + 600 : later + 603] = edges
    rows[-3:] = edges
    return cli._Output([f"c{i}" for i in range(len(EDGE_VALUES))], rows, {"kind": "edge"})


class TestTwoProcessRendering:
    """A table body formatted by a forked child for its later half renders
    the same bytes in the same chunks, and every way it can end leaves no
    child behind (the ``children`` fixture checks)."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, children):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        monkeypatch.setattr(cli, "_two_cpus", lambda: True)

    @pytest.mark.parametrize("n_blocks", [2, 3, 4, 5])
    def test_edge_values_in_the_childs_half_byte_identical(self, n_blocks, monkeypatch,
                                                           children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        output = table_with_edges_in_later_half(n_blocks)
        TestRendering.assert_renders_as_reference("spectrum", load_config(None, []),
                                                  output)
        assert len(children) == 4  # csv and json, with and without the header

    @pytest.mark.parametrize("above", [False, True], ids=["below", "at"])
    def test_tables_either_side_of_the_threshold(self, above, children):
        n_columns = 5
        n_rows = math.ceil(cli._SPLIT_MIN_VALUES / n_columns) - (0 if above else 1)
        rows = np.random.default_rng(n_rows).standard_normal((n_rows, n_columns))
        rows[-3:] = edge_table().rows[:, :n_columns]
        output = cli._Output([f"c{i}" for i in range(n_columns)], rows)
        assert (rows.size >= cli._SPLIT_MIN_VALUES) == above
        TestRendering.assert_renders_as_reference("evolve", load_config(None, []),
                                                  output)
        assert len(children) == (4 if above else 0)

    def test_failing_child_is_replaced_by_the_parent(self, monkeypatch, children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        parent = os.getpid()
        format_block = cli._format_block
        in_parent = []

        def fails_in_child(block, fmt, first):
            if os.getpid() != parent:
                raise RuntimeError("formatting child failed")
            in_parent.append(len(block))
            return format_block(block, fmt, first)

        monkeypatch.setattr(cli, "_format_block", fails_in_child)
        TestRendering.assert_renders_as_reference(
            "spectrum", load_config(None, []), table_with_edges_in_later_half(5))
        assert len(children) == 4
        assert len(in_parent) == 4 * 5  # every block, the child's half too

    def test_unusable_spool_directory_formats_alone(self, tmp_path, monkeypatch,
                                                    children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        TestRendering.assert_renders_as_reference(
            "spectrum", load_config(None, []), table_with_edges_in_later_half(4))
        assert children == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_consumer_closing_mid_table_reaps_the_child(self, fmt, monkeypatch,
                                                        children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        chunks = cli._render("spectrum", {}, random_table(4 * cli._ROW_BLOCK), fmt,
                             True)
        next(chunks), next(chunks)  # the header and the first block
        assert len(children) == 1
        chunks.close()

    def test_closed_stdout_reaps_the_child(self, monkeypatch, children):
        # the default evolve table, split at its real size
        class ClosedAfterTwoChunks(io.StringIO):
            def writelines(self, chunks):
                for i, chunk in enumerate(chunks):
                    if i == 2:
                        raise BrokenPipeError(32, "Broken pipe")
                    self.write(chunk)

            def close(self):
                # main closes stdout while it handles the BrokenPipeError:
                # the child is gone before the exception left the writer
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
                super().close()

        monkeypatch.setattr(sys, "stdout", ClosedAfterTwoChunks())
        assert run("evolve") == 0
        assert len(children) == 1

    def test_interrupt_while_formatting_reaps_the_child(self, monkeypatch, children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        parent = os.getpid()
        format_block = cli._format_block

        def interrupted(block, fmt, first):
            if os.getpid() == parent and not first:
                raise KeyboardInterrupt
            return format_block(block, fmt, first)

        monkeypatch.setattr(cli, "_format_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            "".join(cli._render("spectrum", {}, random_table(4 * cli._ROW_BLOCK),
                                "csv", True))
        assert len(children) == 1

    def test_interrupt_while_waiting_kills_the_child(self, monkeypatch, children):
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
        parent = os.getpid()
        format_block = cli._format_block

        def slow_in_child(block, fmt, first):
            if os.getpid() != parent:
                time.sleep(60)
            return format_block(block, fmt, first)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_format_block", slow_in_child)
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(KeyboardInterrupt):
                "".join(cli._render("spectrum", {}, random_table(2 * cli._ROW_BLOCK),
                                    "csv", True))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30
        assert len(children) == 1


def test_fork_beside_idle_blas_threads():
    # With the BLAS thread count left to the library, the solver's BLAS
    # threads sit idle when the default evolve table's formatting forks.
    src = str(Path(fanomode.__file__).resolve().parents[1])
    free = {key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    free["PYTHONPATH"] = src
    pinned = dict(free, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = [subprocess.run([sys.executable, "-m", "fanomode.cli", "evolve"], env=env,
                           capture_output=True, timeout=120)
            for env in (free, pinned)]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, b""), (0, b"")]
    assert runs[0].stdout == runs[1].stdout
