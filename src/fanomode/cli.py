"""Command-line interface: deterministic plot-ready data files and reports.

Commands: spectrum, kernel, evolve, compare, lindblad-check, fanodiag,
decay-rate.  Every run is controlled by one JSON config (see
:mod:`fanomode.config`); flags override file values.  Output is CSV with a
``#``-prefixed metadata header (or a JSON mirror via ``--format json``),
printed with 17 significant digits so values round-trip exactly, and carries
no wall-clock content: identical configs give byte-identical files.  A
table is rendered and written in blocks of rows, one format call per block
in either format, so its text is never held whole.  On Linux, when this
process may run on two CPUs, a table of at least ``_SPLIT_MIN_VALUES``
values (rows x columns) is formatted by two processes: a forked child
formats the later half of its blocks into an unnamed temporary file, which
is read back one block at a time.  The bytes and the chunks are the same
either way.

Each ``cmd_*`` is a function of the config alone: it returns a table or a
key/value report, the summary lines it prints and the property violations it
found.  An ``evolve`` table and its violations are the trajectory's own
(:meth:`fanomode.dynamics.Trajectory.observables`): the CLI only runs the
solver and lays them out.  :func:`main` alone renders, writes and fails: a
table goes to the output path or to stdout, a report only to an output path;
the summary prints to stdout after the output; a violation exits 2 after the
file is written.  A file is written whole or not at all
(:func:`_write_chunks`).  A table or report holding a non-finite number is a
violation; numpy's floating-point warnings are silenced in its favour.

Exit codes: 0 success, 1 usage or invalid input, 2 property violation,
3 solver failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import stat
import sys
import tempfile
import textwrap
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Any, Generator, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import __version__
from .config import _FORMATS, load_config, model_from_config
from .dynamics import (
    Trajectory,
    build_discretized,
    decay_rate,
    solve_amplitudes,
    solve_discretized,
    solve_qme,
    solve_volterra,
)
from .embedding import embed_from_model, is_lindblad, kossakowski
from .errors import FanomodeError, ParameterError, PropertyViolation
from .fanodiag import verify_lambda_identity
from .spectral import (
    TWO_PI,
    ReducedForm,
    _grid,
    _kernel_quadrature,
    evaluate_J,
    evaluate_reduced_J,
    memory_kernel,
    pole_residue_from_model,
)

EXIT_OK = 0
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_UNITS_NOTE = (
    "frequencies and rates share the configured model's unit system "
    "(presets: kappa = 1)"
)
_ROW_BLOCK = 1024  # table rows formatted and written per chunk
# Least table size, rows x columns, formatted by two processes.  On a 2-vCPU
# Xeon host a fresh `fanomode evolve` process (CSV to a file, 30 000-90 000
# values, 550 alternating pairs each with BLAS at one thread and at the
# library's default) gains ~0.2 ms per 1000 values from the split and pays
# 11-13 ms for it: the fork's page-table copy, copy-on-write faults in both
# processes, the child's exit, and the parent's faults again at interpreter
# exit.  Its time from main() to being reaped breaks even at 58 000-65 000.
_SPLIT_MIN_VALUES = 60_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1
        self.exit(ParameterError.exit_code,
                  f"{self.prog}: {ParameterError.label}: {message}\n")


def _format_number(x: float) -> str:
    return f"{x:.17g}"


def _write_chunks(path: str, chunks: Generator[str, None, None]) -> None:
    """Write ``chunks`` as they come to ``path``, opened once, or to stdout,
    and close the generator however the writing ends (a closed pipe, an
    interrupt), so that it stops its work before the exception propagates.

    A file is written whole or not at all: into a temporary file beside
    ``path``, moved onto it after the last chunk and removed if the writing
    fails, so a failed run leaves no new file and keeps an earlier one.  The
    file gets the mode ``open`` would give it.  A path that exists as
    something other than a regular file (a device, a FIFO, a symlink such as
    /dev/stdout) is written directly.
    """
    with contextlib.closing(chunks):
        if not path:
            sys.stdout.writelines(chunks)
            return
        try:
            info = os.lstat(path)
        except OSError:
            info = None  # no file yet; opening it reports a bad path below
        if info is not None and not stat.S_ISREG(info.st_mode):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            return
        if info is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            mode = stat.S_IMODE(info.st_mode)
        folder, name = os.path.split(path)
        try:
            fd, temp = tempfile.mkstemp(prefix=f".{name}.", dir=folder or ".")
        except OSError as exc:  # reported against the target, as open does
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                os.fchmod(fd, mode)
                fh.writelines(chunks)
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise


@dataclass
class _Output:
    """What one command computed, for :func:`main` to render, write and judge.

    Either a table (``columns``, ``rows`` and the header's ``meta``) or a
    key/value ``report``; ``summary`` lines go to stdout and ``violations``
    are the property violations the run found.
    """

    columns: list[str] = field(default_factory=list)
    rows: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    report: dict[str, Any] | None = None
    summary: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


@lru_cache(maxsize=4)
def _csv_template(n_rows: int, n_columns: int) -> str:
    row = ",".join(["%.17g"] * n_columns)
    return "\n".join([row] * n_rows) + "\n"


def _format_block(block: np.ndarray, fmt: str, first: bool) -> str:
    """One block of table rows as text, by one format call: a CSV block
    template of ``%.17g`` fields filled by one ``%`` (the bytes of
    ``f"{x:.17g}"``), or one ``json.dumps`` of its rows for the document's
    ``rows`` member, after a comma unless the block is the ``first``."""
    if fmt == "json":
        return ("" if first else ",") + json.dumps(
            block.tolist(), separators=(",", ":"))[1:-1]
    return _csv_template(*block.shape) % tuple(block.ravel().tolist())


def _two_cpus() -> bool:
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


def _spool_blocks(spool: IO[bytes], texts: Iterable[str]) -> NoReturn:
    """In a forked child: write each text to ``spool`` after its byte length,
    then end the process at once, with status 1 if anything failed, running
    no exit handler and flushing none of the parent's buffers."""
    status = 1
    try:
        for text in texts:
            data = text.encode()
            spool.write(len(data).to_bytes(8, "little"))
            spool.write(data)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def _table_body(rows: np.ndarray, fmt: str) -> Iterator[str]:
    """The table's rows as formatted blocks of ``_ROW_BLOCK`` rows, in order,
    one chunk per block.

    On Linux, where this process may run on two CPUs, a table of at least
    ``_SPLIT_MIN_VALUES`` values in two or more blocks is formatted by two
    processes: a forked child formats the later half of the blocks into an
    unnamed spool file while this process formats and yields the earlier
    half, reaps the child and yields the spooled blocks one at a time.
    Without a spool or a child, or when the child fails, every block is
    formatted here.  A consumer that stops early kills and reaps the child.
    """
    starts = range(0, len(rows), _ROW_BLOCK)
    half = len(starts) // 2

    def block(start: int) -> str:
        return _format_block(rows[start : start + _ROW_BLOCK], fmt, start == 0)

    spool, pid = None, None
    if half and rows.size >= _SPLIT_MIN_VALUES and _two_cpus():
        try:
            spool = tempfile.TemporaryFile()
            pid = os.fork()
        except OSError:
            pass  # formatted here alone
        if pid == 0:
            _spool_blocks(spool, map(block, starts[half:]))
    try:
        yield from map(block, starts if pid is None else starts[:half])
        if pid is None:
            return
        status = os.waitpid(pid, 0)[1]
        pid = None
        if status:
            yield from map(block, starts[half:])
            return
        spool.seek(0)
        for _ in starts[half:]:
            yield spool.read(int.from_bytes(spool.read(8), "little")).decode()
    finally:
        if pid is not None:  # stopped before the child was known reaped
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if spool is not None:
            spool.close()


def _render(
    command: str, config: dict, output: _Output, fmt: str, header: bool
) -> Iterator[str]:
    """CSV under a ``#`` header, or its JSON mirror, as text chunks in order.

    The header names the tool, the command and the config; a table's header
    also carries the units note, its meta and its column names.  Table rows
    come from :func:`_table_body`, one chunk per block of ``_ROW_BLOCK``
    rows, so the whole table is never held as text; in JSON they are
    spliced into the document's ``rows`` member.  A key/value report is one
    chunk.
    """
    table = output.report is None
    if fmt == "json":
        compact = {"separators": (",", ":")}
        doc = {"columns": output.columns} if table else dict(output.report)
        if header:
            doc.update(tool=f"fanomode {__version__}", command=command, config=config)
            if table:
                doc.update(units=_UNITS_NOTE, meta=output.meta)
        if not table:
            yield json.dumps(doc, sort_keys=True, **compact) + "\n"
            return
        # keys are sorted, so "rows" falls between the members that sort
        # before it (at least "columns") and those that sort after it
        before = json.dumps({k: v for k, v in doc.items() if k < "rows"},
                            sort_keys=True, **compact)[1:-1]
        after = json.dumps({k: v for k, v in doc.items() if k > "rows"},
                           sort_keys=True, **compact)[1:-1]
        yield "{" + before + ',"rows":['
        yield from _table_body(output.rows, fmt)
        yield "]" + ("," + after if after else "") + "}\n"
        return
    lines = []
    if header:
        lines += [f"# fanomode {__version__}", f"# command: {command}"]
        if table:
            lines.append(f"# units: {_UNITS_NOTE}")
        lines.append(
            "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":"))
        )
        lines += [f"# {key}: {output.meta[key]}" for key in sorted(output.meta)]
        if table:
            lines.append("# columns: " + ",".join(output.columns))
    if not table:
        lines.append("key,value")
        lines += [f"{key},{'' if value is None else value}"
                  for key, value in output.report.items()]
    if lines:
        yield "\n".join(lines) + "\n"
    if table:
        yield from _table_body(output.rows, fmt)


def _run_method(method: str, config: dict, section: str = "solver") -> Trajectory:
    """Run ``method`` (one of config.BOUNDS's names) on the config's model;
    ``section`` names the table holding ``t_max`` and ``h``."""
    model = model_from_config(config)
    solver = config["solver"]
    c1_0 = complex(solver["c1_re"], solver["c1_im"])
    h, t_max = config[section]["h"], config[section]["t_max"]
    if method == "volterra":
        return solve_volterra(
            pole_residue_from_model(model), model.omega_A, c1_0, t_max, h
        )
    if method == "amplitudes":
        return solve_amplitudes(embed_from_model(model), c1_0, t_max, h)
    if method == "qme":
        return solve_qme(embed_from_model(model), c1_0, t_max, h)
    reservoir = build_discretized(
        pole_residue_from_model(model), solver["window"], solver["n_modes"]
    )
    return solve_discretized(reservoir, model.omega_A, c1_0, t_max, h)


def cmd_spectrum(config: dict) -> _Output:
    section = config["spectrum"]
    eps = _grid(section["epsilon_min"], section["epsilon_max"], section["n_points"],
                "spectrum.epsilon_min and spectrum.epsilon_max")
    columns = ["epsilon"]
    data = [eps]
    meta: dict[str, Any] = {}
    for i, curve in enumerate(section["curves"], start=1):
        q = curve["q_abs"] * np.exp(1j * curve["delta_phi"])
        rf = ReducedForm(gamma=1.0, q=complex(q), eta=curve["eta"])
        data.append(TWO_PI * evaluate_reduced_J(rf, eps))
        columns.append(f"curve_{i}")
        meta[f"curve_{i}"] = (
            f"2piJ/gamma at eta={curve['eta']:g} |q|={curve['q_abs']:g} "
            f"dphi={curve['delta_phi']:g}"
        )
    return _Output(columns, np.column_stack(data), meta)


def cmd_kernel(config: dict) -> _Output:
    section = config["kernel"]
    model = model_from_config(config)
    spec = pole_residue_from_model(model)
    taus = _grid(0.0, section["tau_max"], section["n_points"], "kernel.tau_max")
    kernel = memory_kernel(spec, taus)
    columns = ["tau", "re_regular", "im_regular", "abs_regular"]
    data = [taus, kernel.regular.real, kernel.regular.imag, np.abs(kernel.regular)]
    meta: dict[str, Any] = {
        "delta_weight": _format_number(kernel.delta_weight),
        "pole": f"{spec.z1.real:.17g}{spec.z1.imag:+.17g}j",
    }
    if section["quadrature_check"]:
        values, estimates = _kernel_quadrature(
            spec, taus, section["quadrature_window"], section["quadrature_points"]
        )
        deviation = np.abs(values - kernel.regular)
        columns += ["re_quadrature", "im_quadrature", "quadrature_error_estimate",
                    "abs_deviation"]
        data += [values.real, values.imag, estimates, deviation]
        meta["max_abs_deviation"] = _format_number(float(np.max(deviation)))
    return _Output(columns, np.column_stack(data), meta)


def cmd_evolve(config: dict) -> _Output:
    method = config["solver"]["method"]
    columns, violations = _run_method(method, config).observables()
    return _Output(list(columns), np.column_stack(list(columns.values())),
                   {"method": method}, violations=violations)


def cmd_compare(config: dict) -> _Output:
    section = config["compare"]
    traj_a = _run_method(section["method_a"], config)
    traj_b = _run_method(section["method_b"], config)
    abs_a, abs_b = traj_a.c1_abs, traj_b.c1_abs
    residual = np.abs(abs_a - abs_b)
    max_residual = float(np.max(residual))
    columns = ["t", f"c1_abs_{section['method_a']}", f"c1_abs_{section['method_b']}",
               "residual"]
    rows = np.column_stack([traj_a.times, abs_a, abs_b, residual])
    meta = {
        "max_residual": _format_number(max_residual),
        "tolerance": _format_number(section["tolerance"]),
    }
    violations = [] if max_residual <= section["tolerance"] else [
        f"cross-method residual {max_residual:.3e} exceeds tolerance "
        f"{section['tolerance']:.3e}"
    ]
    return _Output(columns, rows, meta, violations=violations)


def cmd_lindblad_check(config: dict) -> _Output:
    model = model_from_config(config)
    qme = embed_from_model(model)
    report = is_lindblad(qme)
    payload = {
        "gamma": qme.gamma,
        "kappa": qme.kappa,
        "gamma_F": str(qme.gamma_F),
        "eigenvalue_min": report.eigenvalues[0],
        "eigenvalue_max": report.eigenvalues[1],
        "det": report.det,
        "trace": report.trace,
        "scalar_condition": report.scalar_condition,
        "j0_repair_threshold": report.j0_repair_threshold,
        "psd_tolerance": report.tolerance,
        "verdict": "PASS" if report.passed else "FAIL",
    }
    summary = [
        f"Kossakowski matrix: {kossakowski(qme).tolist()}",
        f"eigenvalues: ({report.eigenvalues[0]:.17g}, {report.eigenvalues[1]:.17g})"
        f"  det: {report.det:.17g}",
        f"scalar condition (-Im z1) pi J0 - |nu|^2 = {report.scalar_condition:.17g}"
        f"  repair threshold J0* = {report.j0_repair_threshold:.17g}",
        f"verdict: {payload['verdict']}",
    ]
    violations = [] if report.passed else ["generator is not of Lindblad form"]
    return _Output(report=payload, summary=summary, violations=violations)


def cmd_fanodiag(config: dict) -> _Output:
    section = config["fanodiag"]
    model = model_from_config(config)
    grid = _grid(model.omega_C - section["half_width"],
                 model.omega_C + section["half_width"], section["n_points"],
                 "model.omega_C +- fanodiag.half_width")
    lam_sq, j_vals, diff, max_rel_error = verify_lambda_identity(
        model, grid, section["psi"])
    columns = ["omega", "twopi_lambda_sq", "twopi_J", "abs_diff"]
    rows = np.column_stack([grid, lam_sq, j_vals, diff])
    meta = {"max_rel_error": _format_number(max_rel_error)}
    summary = [
        f"max relative deviation of 2pi|Lambda|^2 from 2piJ: {max_rel_error:.3e}"
    ]
    violations = [] if max_rel_error <= 1e-12 else [
        f"coupling identity violated: max relative error {max_rel_error:.3e}"
    ]
    return _Output(columns, rows, meta, summary=summary, violations=violations)


def cmd_decay_rate(config: dict) -> _Output:
    section = config["decay_rate"]
    model = model_from_config(config)
    spec = pole_residue_from_model(model)
    predicted = TWO_PI * evaluate_J(spec, model.omega_A)
    notes = []
    if model.gamma > 0.1 * model.kappa:
        notes.append("gamma is not << kappa; outside the golden-rule regime")
    if predicted > 0.1 * model.kappa:
        notes.append("2piJ(omega_A) is not << kappa; outside the golden-rule regime")
    traj = _run_method("amplitudes", config, "decay_rate")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitted = decay_rate(traj, (section["fit_t_min"], section["fit_t_max"]))
    for warning in caught:
        notes.append(str(warning.message))
    deviation = (fitted - predicted) / predicted if predicted != 0.0 else None
    payload: dict[str, Any] = {
        "fitted_rate": fitted,
        "predicted_rate": predicted,
        "relative_deviation": deviation,
        "bare_gamma": model.gamma,
        "status": "warning" if notes else "ok",
        "notes": "; ".join(notes),
    }
    summary = [
        f"fitted decay rate:    {fitted:.17g}",
        f"predicted 2piJ(w_A):  {predicted:.17g}",
    ]
    if deviation is not None:
        summary.append(f"relative deviation:   {deviation:.3e}")
    summary += [f"warning: {note}" for note in notes]
    # the fit is only as good as the trajectory it reads
    return _Output(report=payload, summary=summary, violations=traj.observables()[1])


_COMMANDS = {  # name -> (function, help text)
    "spectrum": (cmd_spectrum, "emit 2piJ/gamma over the reduced detuning for "
                 "configured curves"),
    "kernel": (cmd_kernel, "emit the memory kernel's regular part (optionally "
               "cross-checked against direct quadrature)"),
    "evolve": (cmd_evolve, "run one time-evolution method and emit its populations"),
    "compare": (cmd_compare, "run two methods on the same model and emit their "
                "residual"),
    "lindblad-check": (cmd_lindblad_check, "report the Kossakowski matrix and the "
                       "positivity verdict"),
    "fanodiag": (cmd_fanodiag, "check the diagonalized-coupling identity against "
                 "the spectral function (eta = 1 only)"),
    "decay-rate": (cmd_decay_rate, "fit the emitter decay rate and compare with "
                   "2piJ(omega_A)"),
}

_EPILOG = "commands:\n" + "\n".join(
    textwrap.fill(help_text, width=78, initial_indent=f"  {name:<16}",
                  subsequent_indent=" " * 18)
    for name, (_, help_text) in _COMMANDS.items()
)


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command as a positional choice and the options every
    command shares, with each command's help in the epilog."""
    parser = _Parser(
        prog="fanomode", description=__doc__.splitlines()[0], epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the command to run (listed below)")
    parser.add_argument("--version", action="version", version=f"fanomode {__version__}")
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, help="output format")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="override one config entry by dotted path (repeatable)",
    )
    parser.add_argument(
        "--no-header", action="store_true", help="omit the metadata header"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; tables go to ``--out`` or stdout, reports only to a
    file, then the summary prints, and a property violation exits 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config, args.overrides)
        out = args.out if args.out is not None else config["output"]["path"]
        fmt = args.format if args.format is not None else config["output"]["format"]
        header = config["output"]["header"] and not args.no_header
        with np.errstate(all="ignore"):  # a non-finite output is judged below
            output = _COMMANDS[args.command][0](config)
        if output.report is None:
            what, values = "table", output.rows
        else:
            what = "report"
            values = [v for v in output.report.values() if isinstance(v, float)]
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            output.violations.append(f"{what} holds {bad} non-finite values")
        if out or output.report is None:
            _write_chunks(out, _render(args.command, config, output, fmt, header))
        for line in output.summary:
            print(line)
        if output.violations:
            raise PropertyViolation("; ".join(output.violations))
        return EXIT_OK
    except FanomodeError as exc:  # one class per exit code, with its label
        print(f"fanomode: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the stream; not an error
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return EXIT_OK
    except (OSError, MemoryError, OverflowError) as exc:  # invalid input too
        message = (exc if isinstance(exc, OSError)
                   else "not enough memory for this run" if isinstance(exc, MemoryError)
                   else "an input overflows floating point")
        print(f"fanomode: {ParameterError.label}: {message}", file=sys.stderr)
        return ParameterError.exit_code
    except KeyboardInterrupt:  # a forked formatter is reaped on the way out
        print("fanomode: error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
