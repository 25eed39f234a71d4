"""Run configuration: defaults, strict validation, and dotted-path overrides.

A run is fully described by one JSON document (schema version 1).  Unknown
keys are rejected so that typos cannot silently fall back to defaults, and
command-line ``--set section.key=value`` overrides are merged on top of the
file by the same rule.  All frequencies and rates are plain numbers in whatever unit system
the model uses; the shipped defaults put kappa = 1.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from typing import Any

from .errors import ParameterError
from .spectral import FanoModel, _require

SCHEMA_VERSION = 1

_FORMATS = ("csv", "json")
_METHODS = ("volterra", "amplitudes", "qme", "discretized")

DEFAULT_CONFIG: dict[str, Any] = {
    "schema_version": SCHEMA_VERSION,
    "model": {
        "omega_A": 0.0,
        "omega_C": 0.0,
        "gamma": 0.25,
        "kappa": 1.0,
        "g_abs": 0.5,
        "phi": 0.0,
        "eta": 1.0,
        "theta_A": 0.0,
        "theta_C": 0.0,
    },
    "solver": {
        "method": "amplitudes",
        "h": 1e-3,
        "t_max": 20.0,
        "c1_re": 1.0,
        "c1_im": 0.0,
        "window": 40.0,
        "n_modes": 4001,
    },
    "spectrum": {
        "epsilon_min": -8.0,
        "epsilon_max": 8.0,
        "n_points": 1601,
        "curves": [
            {"eta": 1.0, "q_abs": 2.0, "delta_phi": 0.0},
            {"eta": 0.0, "q_abs": 2.0, "delta_phi": 0.0},
            {"eta": 1.0, "q_abs": 0.0, "delta_phi": 0.0},
        ],
    },
    "kernel": {
        "tau_max": 10.0,
        "n_points": 1001,
        "quadrature_check": False,
        "quadrature_window": 100.0,
        "quadrature_points": 100001,
    },
    "fanodiag": {
        "half_width": 20.0,
        "n_points": 4001,
        "psi": 0.0,
    },
    "decay_rate": {
        "t_max": 60.0,
        "h": 1e-3,
        "fit_t_min": 5.0,
        "fit_t_max": 40.0,
    },
    "compare": {
        "method_a": "volterra",
        "method_b": "amplitudes",
        "tolerance": 1e-6,
    },
    "output": {
        "path": "",
        "format": "csv",
        "header": True,
    },
}

# The values a single key may take, as (relation, bound); load_config refuses
# any other.  The model's are FanoModel.BOUNDS.  A grid that two keys span is
# checked where it is built (spectral._grid).
BOUNDS: dict[str, tuple[str, Any]] = {
    "spectrum.n_points": (">=", 2),
    "spectrum.curves": ("of length >=", 1),
    "kernel.n_points": (">=", 2),
    "kernel.tau_max": (">", 0.0),
    "kernel.quadrature_points": (">=", 2),
    "kernel.quadrature_window": (">", 0.0),
    "fanodiag.n_points": (">=", 2),
    "fanodiag.half_width": (">", 0.0),
    "solver.method": ("one of", _METHODS),
    "compare.method_a": ("one of", _METHODS),
    "compare.method_b": ("one of", _METHODS),
    "compare.tolerance": (">=", 0.0),
    "output.format": ("one of", _FORMATS),
    **{f"model.{name}": bound for name, bound in FanoModel.BOUNDS.items()},
}


def _merge_strict(base: dict, incoming: Any, path: str) -> None:
    """Merge the table ``incoming`` into ``base`` in place, for a config file,
    an override and a curve alike: it may hold only the keys of ``base``,
    and an entry that is a table in ``base`` must be one in it too."""
    if not isinstance(incoming, dict):
        raise ParameterError(f"{path!r} must be a table of keys")
    for key, value in incoming.items():
        location = f"{path}.{key}" if path else key
        if key not in base:
            raise ParameterError(f"unknown config key {location!r}")
        if isinstance(base[key], dict):
            _merge_strict(base[key], value, location)
        else:
            base[key] = value


def _check_types(template: Any, value: Any, path: str) -> Any:
    if isinstance(template, dict):  # _merge_strict keeps it one
        return {k: _check_types(template[k], value[k], f"{path}.{k}") for k in template}
    if isinstance(template, bool):
        if not isinstance(value, bool):
            raise ParameterError(f"{path!r} must be a boolean, got {value!r}")
        return value
    if isinstance(template, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"{path!r} must be an integer, got {value!r}")
        if value > sys.maxsize:  # no array has that many points
            raise ParameterError(f"{path!r} must be at most {sys.maxsize}, got {value}")
        return value
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"{path!r} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float
            raise ParameterError(f"{path!r} must be a finite number, got {value!r}")
        return float(value)
    if isinstance(template, str):
        if not isinstance(value, str):
            raise ParameterError(f"{path!r} must be a string, got {value!r}")
        return value
    if isinstance(template, list):
        if not isinstance(value, list):
            raise ParameterError(f"{path!r} must be a list")
        out = []
        for i, item in enumerate(value):  # each entry merges into the first default
            entry = dict(template[0])
            _merge_strict(entry, item, f"{path}[{i}]")
            out.append(_check_types(template[0], entry, f"{path}[{i}]"))
        return out
    raise ParameterError(f"unhandled config entry {path!r}")  # pragma: no cover


def apply_override(config: dict, assignment: str) -> None:
    """Apply one ``section.key=value`` override; the value is parsed as JSON
    when possible and kept as a string otherwise."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ParameterError(f"override {assignment!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to convert
        value = raw
    # "a.b=v" merges as {"a": {"b": v}}, like the same entry in a file
    entry = functools.reduce(lambda inner, part: {part: inner},
                             reversed(key.split(".")), value)
    _merge_strict(config, entry, "")


def load_config(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Defaults, then the JSON file at ``path``, then dotted overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                incoming = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file {path!r}: {exc}") from exc
        except ValueError as exc:  # not JSON, or an integer too long to convert
            raise ParameterError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(incoming, dict):
            raise ParameterError("config file must hold a JSON object")
        if "schema_version" not in incoming:
            raise ParameterError("config file must carry a schema_version field")
        _merge_strict(config, incoming, "")
    for assignment in overrides or []:
        apply_override(config, assignment)
    config = _check_types(DEFAULT_CONFIG, config, "config")
    if config["schema_version"] != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {config['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    for key, (relation, bound) in BOUNDS.items():
        section, name = key.split(".")
        _require(f"'config.{key}'", config[section][name], relation, bound)
    return config


def model_from_config(config: dict) -> FanoModel:
    return FanoModel(**config["model"])
