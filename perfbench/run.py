"""fanomode benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload emit --seed 1 --seconds 15 --trace 0

Workloads (see ``bench_workloads.py``): ``emit`` regenerates the paper's data
files through the CLI, ``crosscheck`` runs the validation sweep (``compare``
Volterra and QME against amplitudes at T = 20), ``long_memory`` runs the
memory-kernel solver at the ``decay-rate`` horizon (T = 60), and ``oracle``
runs the two brute-force references (frequency comb, kernel quadrature).

Load is one closed-loop client in one process: each task starts when the
previous one has finished; BLAS is pinned to one thread.  The workload's
fixed task list (a batch) is repeated until ``--seconds`` have passed.  CLI
tasks call ``fanomode.cli.main`` in process, so the interpreter and import
cost is measured once, as ``setup_s``, in fresh child interpreters.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``wall_norm_s`` -- median wall time of one batch (program calls only;
  output checks are not timed), at nominal host speed;
* ``setup_s``     -- median time from starting a fresh interpreter to the
  first task being ready (``import fanomode``, ``fanomode.cli``,
  ``config.load_config``), over several child processes, at nominal host
  speed;
* ``peak_rss_mb`` -- peak resident memory of this process.

"At nominal host speed": a shared host runs the same code up to about twice
as slowly for seconds to minutes at a time, so a fixed reference kernel is
timed before, during and after every task, and the task's time is scaled by
the mean reference time (``bench_speed.py``).  The measured times, unscaled,
are in the run record.

With ``--trace 1`` batches alternate untraced and traced; the traced ones
record spans around every public fanomode function (``bench_spans.py``) and
the last line carries per-layer metrics averaged per traced batch, plus
``trace.overhead_s`` (traced minus untraced median batch time) and
``check.max_err_ratio``.

Every task is checked (exit code, finite output, tolerances); ``failed``
counts the tasks that failed, and ``correct`` is false if any did.  The run
record -- host, versions, seed, task list, SHA-256 of every output, batch
times (measured and scaled) with their count and percentiles, reference
kernel times, layer shares -- is written to
``perfbench/out/`` together with the spans of a traced run.
"""

from __future__ import annotations

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

if __name__ == "__main__":
    # Pinned before numpy loads, here and in the set-up children.
    for _var in BLAS_VARS:
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.load_config.calls": "count",
    "config.load_config.busy_s": "s",
    "spectral.evaluate_J.points": "count",
    "spectral.evaluate_J.busy_s": "s",
    "spectral.evaluate_reduced_J.points": "count",
    "spectral.evaluate_reduced_J.busy_s": "s",
    "spectral.memory_kernel.busy_s": "s",
    "spectral.kernel_by_quadrature.calls": "count",
    "spectral.kernel_by_quadrature.busy_s": "s",
    "spectral.kernel_by_quadrature.max_dev": "kappa2",
    "embedding.busy_s": "s",
    "dynamics.solve_amplitudes.steps": "count",
    "dynamics.solve_amplitudes.busy_s": "s",
    "dynamics.solve_volterra.steps": "count",
    "dynamics.solve_volterra.busy_s": "s",
    "dynamics.solve_qme.steps": "count",
    "dynamics.solve_qme.busy_s": "s",
    "dynamics.solve_discretized.mode_steps": "count",
    "dynamics.solve_discretized.busy_s": "s",
    "dynamics.build_discretized.busy_s": "s",
    "dynamics.decay_rate.busy_s": "s",
    "fanodiag.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.rows_out": "count",
    "trace.overhead_s": "s",
    "check.max_err_ratio": "ratio",
}

SETUP_SAMPLES = 7
# The child reports when it is ready, then times the reference kernel on its
# own processor (the first run warms it up and is dropped).
SETUP_PROBE = (
    "import fanomode, fanomode.cli\n"
    "from fanomode.config import load_config\n"
    "load_config()\n"
    "import time\n"
    "ready = time.monotonic()\n"
    "import statistics\n"
    "from bench_speed import reference_seconds\n"
    "reference = [reference_seconds() for _ in range(6)][1:]\n"
    "print(repr(ready), repr(statistics.median(reference)))\n"
)


class SetupError(Exception):
    """The program cannot be loaded from this checkout."""


def import_program():
    """Import fanomode from ``src/`` of this checkout, and nowhere else."""
    if not (SRC / "fanomode" / "__init__.py").is_file():
        raise SetupError(f"no fanomode package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fanomode

    if Path(fanomode.__file__).resolve().parent != SRC / "fanomode":
        raise SetupError(f"fanomode imported from {fanomode.__file__}, not {SRC}")
    import bench_spans
    import bench_speed
    import bench_workloads

    return bench_workloads, bench_spans, bench_speed


def measure_setup(samples: int, nominal_reference_s: float):
    """Seconds from spawning a fresh interpreter to its first task being
    ready: as measured, at nominal host speed, and the child's reference
    kernel time that scales one to the other.

    The child prints ``time.monotonic()`` once ready; that clock is shared by
    all processes, so the parent can subtract its own start time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times, normalised, references = [], [], []
    for _ in range(samples):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, reference = map(float, proc.stdout.split()[-2:])
        times.append(ready - started)
        references.append(reference)
        normalised.append(times[-1] * nominal_reference_s / reference)
    return times, normalised, references


def percentiles(walls: list[float]) -> dict[str, float]:
    """Median, and the highest of p90/p95/p99 with ten samples beyond it."""
    ordered = sorted(walls)
    out = {"p50": statistics.median(ordered)}
    for q in (99, 95, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[math.ceil(q / 100 * len(ordered)) - 1]
            break
    return out


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    workloads, spans, speed = import_program()
    setup, setup_norm, setup_refs = measure_setup(1 if tiny else SETUP_SAMPLES,
                                                  speed.NOMINAL_REFERENCE_S)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=out_dir))
    try:
        warm_dir = work_dir / "warmup"
        warm_dir.mkdir()
        workloads.run_batch(workloads.build(workload, seed, warm_dir, "tiny"), None)
        tasks = workloads.build(workload, seed, work_dir, "tiny" if tiny else "full")
        tracer = spans.Tracer() if trace else None
        pace = speed.Pace()
        batches = []
        started = time.perf_counter()
        while len(batches) < (2 if trace else 1) or time.perf_counter() - started < seconds:
            if trace and len(batches) % 2 == 1:
                batches.append(workloads.run_batch(tasks, tracer))
            else:
                batches.append(workloads.run_batch(tasks, None, pace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = [o for batch in batches for o in batch.outcomes.values()]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.reasons)
    max_err_ratio = max((r for o in outcomes for r in o.ratios.values()), default=0.0)
    plain = [b.wall for b in batches if not b.traced]
    plain_norm = [b.norm for b in batches if not b.traced]
    first = batches[0].outcomes

    if trace:
        traced = [b for b in batches if b.traced]
        layer = spans.layer_metrics(tracer.spans, len(traced))
        layer["cli.bytes_out"] = sum(
            o.bytes_out for b in traced for o in b.outcomes.values()) / len(traced)
        layer["cli.rows_out"] = sum(
            o.rows_out for b in traced for o in b.outcomes.values()) / len(traced)
        layer["trace.overhead_s"] = (statistics.median(b.wall for b in traced)
                                     - statistics.median(plain))
        layer["check.max_err_ratio"] = max_err_ratio
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_norm_s": statistics.median(plain_norm),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "load": "closed loop, one client, one process",
        "host": host_record(),
        "setup_s_samples": setup,
        "setup_norm_s_samples": setup_norm,
        "batch_wall_s": {"count": len(plain), "samples": plain, **percentiles(plain)},
        "batch_wall_norm_s": {"count": len(plain_norm), "samples": plain_norm,
                              **percentiles(plain_norm)},
        "reference_s": {"setup": setup_refs, "batches": pace.references},
        "failed_frac": failed / attempted,
        "max_err_ratio": max_err_ratio,
        "failures": [f for batch in batches for f in batch.failures],
        "tasks": [task.id for task in tasks],
        "digests": {task_id: o.digest for task_id, o in first.items()},
        "digests_stable": all(
            {k: o.digest for k, o in b.outcomes.items()}
            == {k: o.digest for k, o in first.items()} for b in batches
        ),
        "reported": {task_id: o.reported for task_id, o in first.items() if o.reported},
        "metrics": metrics,
    }
    if trace:
        traced_wall = sum(b.wall for b in batches if b.traced)
        record["layer_shares"] = spans.layer_shares(tracer.spans, traced_wall)
        stem = f"{workload}-seed{seed}"
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))
    name = f"record-{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("emit", "crosscheck", "long_memory", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (the benchmark's own tests)")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out",
                        help="where the run record and spans go")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny, args.out_dir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for task_id, failure in record["failures"]:
        print(f"perfbench: task {task_id} failed: {failure}", file=sys.stderr)
    summary = {key: record[key] for key in
               ("workload", "seed", "failed_frac", "max_err_ratio", "batch_wall_s")}
    summary["layer_shares"] = record.get("layer_shares")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
