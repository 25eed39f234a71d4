"""The benchmark's workloads: seeded task lists and the checks on their outputs.

A workload is a fixed list of tasks built from the seed.  Each task has a
``work`` step -- one call into fanomode, the only part that is timed -- and a
``check`` step that verifies the output: the exit code (including the
expected non-zero ones), that every number is finite, and the tolerance-gated
checks, each reported as deviation / tolerance.  CLI tasks call
``fanomode.cli.main`` in process and write their files to a work directory;
library tasks call the public API.  Functions are looked up on their modules
at call time so that the traced run's wrappers see every call.

Models are drawn from the Lindblad-valid box of the test suite
(``random_lindblad_model`` in ``tests/conftest.py``: kappa = 1,
gamma in [0.01, 1], |g| in [0, 2], eta in [0, 1], resonant), or, for the
long-horizon workload, from a weak-coupling box in the golden-rule regime.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fanomode.cli as cli
import fanomode.dynamics as dynamics
import fanomode.embedding as embedding
import fanomode.spectral as spectral

TWO_PI = 2.0 * math.pi

# Acceptance tolerances (tests/test_acceptance.py) and the CLI's own gates.
TOL_CRITERION_1 = 1e-12   # spectrum preset zeros and peak
TOL_CRITERION_2 = 1e-6    # Volterra vs amplitudes, max |c1| residual
TOL_CRITERION_4 = 1e-8    # QME vs amplitudes, populations and coherence
TOL_TRACE = 1e-10         # QME trace drift
TOL_MIN_EIG = 1e-10       # QME minimum eigenvalue >= -TOL_MIN_EIG
TOL_NORM = 1e-8           # evolve norm identity (cli._TRACE_VIOLATION)
TOL_FANODIAG = 1e-12      # coupling identity (cmd_fanodiag gate)
TOL_RATE = 1e-6           # |rate_volterra - rate_amplitudes| / bare gamma
WINDOW_LAW_REL = 0.25     # comb deviation halves per window doubling


@dataclass
class Outcome:
    """What a task's check found."""

    reasons: list[str] = field(default_factory=list)  # empty when it passed
    ratios: dict[str, float] = field(default_factory=dict)  # deviation / tolerance
    reported: dict[str, float] = field(default_factory=dict)  # measured, not gated
    digest: str = ""
    bytes_out: int = 0
    rows_out: int = 0

    def gate(self, name: str, deviation: float, tolerance: float) -> None:
        ratio = float(deviation) / tolerance
        self.ratios[name] = ratio
        if not ratio <= 1.0:  # NaN fails too
            self.reasons.append(f"{name}: {deviation:.3e} exceeds {tolerance:.1e}")

    def finite(self, name: str, values) -> None:
        if not np.all(np.isfinite(np.asarray(values))):
            self.reasons.append(f"{name}: non-finite values")


@dataclass
class Task:
    id: str
    work: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Batch:
    traced: bool
    wall: float = 0.0
    norm: float = 0.0  # wall at nominal host speed, when paced
    outcomes: dict = field(default_factory=dict)  # task id -> Outcome
    failures: list = field(default_factory=list)


def run_batch(tasks: list[Task], tracer, pace=None) -> Batch:
    """Run the task list once; only the program calls are timed.

    With a ``pace`` (``bench_speed.Pace``) each task's time is also
    converted to seconds at nominal host speed, into ``batch.norm``."""
    batch = Batch(traced=tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        for task in tasks:
            if tracer is not None:
                tracer.task = task.id
            with pace.measure() if pace is not None else _Stopwatch() as timing:
                try:
                    value, raised = task.work(), None
                except Exception:  # a task that raises is a failed task
                    value, raised = None, traceback.format_exc()
            batch.wall += timing.wall
            batch.norm += timing.norm
            if raised is not None:
                batch.failures.append((task.id, raised))
                batch.outcomes[task.id] = Outcome(reasons=["raised"])
                continue
            try:
                outcome = task.check(value)
            except Exception:
                outcome = Outcome(reasons=["check raised"])
                batch.failures.append((task.id, traceback.format_exc()))
            if outcome.reasons:
                batch.failures.append((task.id, "; ".join(outcome.reasons)))
            batch.outcomes[task.id] = outcome
    finally:
        if tracer is not None:
            tracer.uninstall()
    return batch


class _Stopwatch:
    """Wall time of a block, for batches that are not paced."""

    norm = 0.0

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.started


# -- model draws ---------------------------------------------------------------

def lindblad_model(rng: np.random.Generator) -> dict:
    """The test suite's Lindblad-valid box, resonant (omega_A = omega_C = 0)."""
    return {
        "gamma": float(rng.uniform(0.01, 1.0)),
        "kappa": 1.0,
        "g_abs": float(rng.uniform(0.0, 2.0)),
        "eta": float(rng.uniform(0.0, 1.0)),
        "omega_A": 0.0,
        "omega_C": 0.0,
        "phi": float(rng.uniform(0.0, TWO_PI)),
        "theta_A": float(rng.uniform(0.0, TWO_PI)),
        "theta_C": float(rng.uniform(0.0, TWO_PI)),
    }


def weak_model(rng: np.random.Generator) -> dict:
    """Weak coupling (gamma, |g| << kappa), detuned atom: the golden-rule
    regime that ``decay-rate`` is written for."""
    return {
        "gamma": float(rng.uniform(0.01, 0.1)),
        "kappa": 1.0,
        "g_abs": float(rng.uniform(0.02, 0.15)),
        "eta": float(rng.uniform(0.0, 1.0)),
        "omega_A": float(rng.uniform(-2.0, 2.0)),
        "omega_C": 0.0,
        "phi": float(rng.uniform(0.0, TWO_PI)),
        "theta_A": float(rng.uniform(0.0, TWO_PI)),
        "theta_C": float(rng.uniform(0.0, TWO_PI)),
    }


# -- CLI tasks -----------------------------------------------------------------

@contextlib.contextmanager
def _capturing(names: tuple[str, ...]):
    """Keep what the named ``fanomode.cli`` functions return during the block."""
    captured: dict[str, Any] = {}
    originals = {name: getattr(cli, name) for name in names}

    def keep(name, fn):
        def wrapper(*args, **kwargs):
            captured[name] = fn(*args, **kwargs)
            return captured[name]
        return wrapper

    for name, fn in originals.items():
        setattr(cli, name, keep(name, fn))
    try:
        yield captured
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    captured: dict[str, Any]


def _run_cli(argv: list[str], capture: tuple[str, ...]) -> CliResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    with _capturing(capture) as captured:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), captured)


def _parse_output(text: str, fmt: str) -> tuple[dict, np.ndarray | dict]:
    """(meta, data) of a CLI output file: a table as a float array, a
    key/value report as a dict."""
    if fmt == "json":
        doc = json.loads(text)
        if "rows" in doc:
            return doc.get("meta", {}), np.asarray(doc["rows"], dtype=float)
        return {}, doc
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    if body and body[0] == "key,value":
        return meta, dict(line.split(",", 1) for line in body[1:])
    return meta, np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)


def _report_numbers(report: dict) -> list[float]:
    numbers = []
    for value in report.values():
        try:
            numbers.append(abs(complex(str(value).replace(" ", ""))))
        except ValueError:
            continue  # verdicts, notes, status
    return numbers


def cli_task(task_id: str, argv: list[str], out: Path, expect_code: int = 0,
             extra: Callable[[Outcome, dict, Any, CliResult], None] | None = None,
             capture: tuple[str, ...] = ()) -> Task:
    """One ``fanomode`` command writing ``out``; ``extra`` adds gated checks."""
    fmt = "json" if out.suffix == ".json" else "csv"
    full_argv = [*argv, "--out", str(out), "--format", fmt]

    def work() -> CliResult:
        return _run_cli(full_argv, capture)

    def check(result: CliResult) -> Outcome:
        outcome = Outcome()
        if result.code != expect_code:
            outcome.reasons.append(
                f"exit code {result.code}, expected {expect_code}: "
                f"{result.stderr.strip()[:200]}"
            )
            return outcome
        raw = out.read_bytes()
        out.unlink()  # a later run that writes nothing must not pass on this file
        outcome.digest = hashlib.sha256(raw).hexdigest()
        outcome.bytes_out = len(raw) + len(result.stdout.encode())
        meta, data = _parse_output(raw.decode(), fmt)
        if isinstance(data, dict):
            outcome.rows_out = len(data)
            outcome.finite("report", _report_numbers(data))
        else:
            outcome.rows_out = len(data)
            outcome.finite("table", data)
        if extra is not None and not outcome.reasons:
            extra(outcome, meta, data, result)
        return outcome

    return Task(task_id, work, check)


def _spectrum_presets(outcome: Outcome, meta, data, result) -> None:
    """Acceptance criterion 1 on the default curves."""
    eps = data[:, 0]
    at = lambda x: int(np.argmin(np.abs(eps - x)))  # noqa: E731
    outcome.gate("criterion_1.solid_zero", abs(data[at(-2.0), 1]), TOL_CRITERION_1)
    outcome.gate("criterion_1.dashed_peak", abs(data[at(0.0), 2] - 5.0),
                 TOL_CRITERION_1)
    outcome.gate("criterion_1.dotted_zero", abs(data[at(0.0), 3]), TOL_CRITERION_1)


def _norm_identity(outcome: Outcome, meta, data, result) -> None:
    outcome.gate("norm_identity", float(np.max(np.abs(data[:, -1] - 1.0))), TOL_NORM)


def _fanodiag_identity(outcome: Outcome, meta, data, result) -> None:
    outcome.gate("fanodiag_identity", float(meta["max_rel_error"]), TOL_FANODIAG)


def _verdict(expected: str):
    def extra(outcome: Outcome, meta, data, result) -> None:
        if data.get("verdict") != expected:
            outcome.reasons.append(f"verdict {data.get('verdict')}, expected {expected}")
    return extra


def _compare_residual(outcome: Outcome, meta, data, result) -> None:
    outcome.gate("criterion_2.residual", float(np.max(data[:, 3])), TOL_CRITERION_2)


def _qme_consistency(outcome: Outcome, meta, data, result) -> None:
    """Acceptance criterion 4 on the trajectories the compare command solved."""
    outcome.gate("compare.residual", float(np.max(data[:, 3])), TOL_CRITERION_2)
    rho = result.captured["solve_qme"].rho
    amp = result.captured["solve_amplitudes"]
    outcome.finite("rho", rho)
    outcome.gate("criterion_4.rho_11",
                 np.max(np.abs(rho[:, 1, 1].real - amp.c1_abs2)), TOL_CRITERION_4)
    outcome.gate("criterion_4.rho_22",
                 np.max(np.abs(rho[:, 2, 2].real - np.abs(amp.b1) ** 2)),
                 TOL_CRITERION_4)
    outcome.gate("criterion_4.rho_12",
                 np.max(np.abs(rho[:, 1, 2] - amp.c1 * np.conj(amp.b1))),
                 TOL_CRITERION_4)
    outcome.gate("criterion_4.trace_drift",
                 np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)), TOL_TRACE)
    outcome.gate("criterion_4.min_eigenvalue",
                 max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))), TOL_MIN_EIG)


def _kernel_deviation(outcome: Outcome, meta, data, result) -> None:
    """The quadrature deviation is reported, never gated: its error estimate
    is documented as not a bound."""
    tau, estimate, deviation = data[:, 0], data[:, 6], data[:, 7]
    positive = tau > 0
    outcome.reported["kernel.max_abs_deviation"] = float(np.max(deviation[positive]))
    outcome.reported["kernel.rows_above_estimate"] = float(
        np.count_nonzero(deviation[positive] > estimate[positive])
    )


def _write_config(path: Path, model: dict) -> str:
    path.write_text(json.dumps({"schema_version": 1, "model": model}, sort_keys=True))
    return str(path)


# -- library tasks -------------------------------------------------------------

def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _abs_residual(a, b) -> float:
    return float(np.max(np.abs(np.abs(a.c1) - np.abs(b.c1))))


def long_memory_task(task_id: str, model: dict, t_max: float, fit: tuple) -> Task:
    fano = spectral.FanoModel(**model)

    def work():
        spec = spectral.pole_residue_from_model(fano)
        volterra = dynamics.solve_volterra(spec, fano.omega_A, 1.0, t_max, 1e-3)
        qme = embedding.embed_from_model(fano)
        amplitudes = dynamics.solve_amplitudes(qme, 1.0, t_max, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non-monotone fit note
            rates = (dynamics.decay_rate(volterra, fit),
                     dynamics.decay_rate(amplitudes, fit))
        return volterra, amplitudes, rates

    def check(result) -> Outcome:
        volterra, amplitudes, rates = result
        outcome = Outcome(digest=_digest(volterra.c1, amplitudes.c1, np.array(rates)))
        outcome.finite("c1", [volterra.c1, amplitudes.c1])
        outcome.finite("rates", rates)
        outcome.gate("criterion_2.residual", _abs_residual(volterra, amplitudes),
                     TOL_CRITERION_2)
        outcome.gate("decay_rate.agreement", abs(rates[0] - rates[1]) / fano.gamma,
                     TOL_RATE)
        return outcome

    return Task(task_id, work, check)


def comb_task(task_id: str, model: dict, combs: tuple, t_max: float) -> Task:
    fano = spectral.FanoModel(**model)

    def work():
        spec = spectral.pole_residue_from_model(fano)
        volterra = dynamics.solve_volterra(spec, fano.omega_A, 1.0, t_max, 1e-3)
        runs = [
            dynamics.solve_discretized(
                dynamics.build_discretized(spec, window, n_modes),
                fano.omega_A, 1.0, t_max, 1e-3,
            )
            for window, n_modes in combs
        ]
        return volterra, runs

    def check(result) -> Outcome:
        volterra, runs = result
        outcome = Outcome(digest=_digest(volterra.c1, *(run.c1 for run in runs)))
        outcome.finite("c1", [volterra.c1, *(run.c1 for run in runs)])
        coarse, fine = (_abs_residual(run, volterra) for run in runs)
        outcome.reported["comb.deviation_coarse"] = coarse
        outcome.reported["comb.deviation_fine"] = fine
        # test_oracle_window_convergence_diagnostic: halving per doubling
        outcome.gate("comb.window_law", abs(fine / (coarse / 2.0) - 1.0),
                     WINDOW_LAW_REL)
        return outcome

    return Task(task_id, work, check)


# -- workloads -----------------------------------------------------------------

# Problem sizes; ``tiny`` keeps every code path at a fraction of the cost
# (used by the warm-up and by the benchmark's own tests).
ORACLE_T_MAX = 5.0
SIZES = {
    "full": {
        "emit_overrides": [],
        "cross_t_max": 20.0,
        "long_t_max": 60.0, "long_fit": (5.0, 40.0),
        "combs": ((40.0, 4001), (80.0, 8001)),
        "taus": 101, "quadrature_points": 100001,
    },
    "tiny": {
        "emit_overrides": [
            "spectrum.n_points=161", "kernel.n_points=11", "solver.t_max=0.5",
            "fanodiag.n_points=101", "decay_rate.t_max=6", "decay_rate.fit_t_min=1",
            "decay_rate.fit_t_max=5",
        ],
        "cross_t_max": 0.5,
        "long_t_max": 6.0, "long_fit": (1.0, 5.0),
        "combs": ((40.0, 401), (80.0, 801)),
        "taus": 3, "quadrature_points": 10001,
    },
}


def build(workload: str, seed: int, work_dir: Path, size: str = "full") -> list[Task]:
    """The fixed task list of ``workload`` for ``seed``: one drawn model and
    every command or solver the workload runs on it.  Files go to
    ``work_dir``."""
    rng = np.random.default_rng(seed)
    sz = SIZES[size]
    if workload == "emit":
        cfg = _write_config(work_dir / "model.json", lindblad_model(rng))
        base = ["--config", cfg, *(f"--set={item}" for item in sz["emit_overrides"])]
        return [
            cli_task("spectrum", ["spectrum", *base], work_dir / "spectrum.csv",
                     extra=_spectrum_presets),
            cli_task("kernel", ["kernel", *base], work_dir / "kernel.csv"),
            cli_task("evolve.csv", ["evolve", *base], work_dir / "evolve.csv",
                     extra=_norm_identity),
            cli_task("evolve.json", ["evolve", *base], work_dir / "evolve.json",
                     extra=_norm_identity),
            cli_task("fanodiag", ["fanodiag", *base, "--set=model.eta=1.0"],
                     work_dir / "fanodiag.csv", extra=_fanodiag_identity),
            cli_task("decay-rate", ["decay-rate", *base], work_dir / "decay.csv"),
            cli_task("lindblad-check", ["lindblad-check", *base],
                     work_dir / "lindblad.csv", extra=_verdict("PASS")),
            cli_task("lindblad-check.eta1.2",
                     ["lindblad-check", *base, "--set=model.eta=1.2"],
                     work_dir / "lindblad_eta1.2.csv", expect_code=2,
                     extra=_verdict("FAIL")),
        ]
    if workload == "crosscheck":
        cfg = _write_config(work_dir / "model.json", lindblad_model(rng))
        base = ["compare", "--config", cfg, f"--set=solver.t_max={sz['cross_t_max']}",
                "--set=solver.h=0.001"]
        return [
            cli_task("compare.volterra", base, work_dir / "volterra.csv",
                     extra=_compare_residual),
            cli_task("compare.qme", [*base, "--set=compare.method_a=qme"],
                     work_dir / "qme.csv", extra=_qme_consistency,
                     capture=("solve_qme", "solve_amplitudes")),
        ]
    if workload == "long_memory":
        return [long_memory_task("volterra_vs_amplitudes", weak_model(rng),
                                 sz["long_t_max"], sz["long_fit"])]
    if workload == "oracle":
        model = lindblad_model(rng)
        cfg = _write_config(work_dir / "model.json", model)
        return [
            comb_task("comb", model, sz["combs"], ORACLE_T_MAX),
            cli_task(
                "kernel.quadrature",
                ["kernel", "--config", cfg, "--set=kernel.quadrature_check=true",
                 f"--set=kernel.n_points={sz['taus']}",
                 f"--set=kernel.quadrature_points={sz['quadrature_points']}"],
                work_dir / "kernel_quadrature.csv", extra=_kernel_deviation,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
