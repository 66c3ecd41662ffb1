"""Run configuration: a single JSON document with five blocks.

Blocks: process (intensities and marks), observation (interval family and
means), thresholds, matrix (labels and threshold geometry), simulation
(path count, seed, horizon), output (directory and formats).  Unknown keys
are rejected so a config cannot silently misspell an option.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError, UnsupportedConfigurationError
from .matrix import DEFAULT_SCALE_FACTOR, StrategyMatrix
from .params import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)

_BLOCKS = ("process", "observation", "thresholds", "matrix", "simulation", "output")

_ALLOWED_KEYS = {
    "process": {"lambda_a", "lambda_b", "mark_a", "mark_b"},
    "observation": {"family", "initial_mean", "interval_mean"},
    "thresholds": {"m", "n"},
    "matrix": {
        "mode", "labels", "m", "n",
        "b_threshold", "a_threshold_low", "a_threshold_high", "scale_factor",
    },
    "simulation": {"paths", "seed", "horizon"},
    "output": {"directory", "formats"},
}

_MARK_KEYS = {"family", "value", "p"}

#: Upper bounds on the size fields.  A threshold sets the series order that
#: ``analyze`` expands (O(order^2) work; m = n = 20,000 takes a few seconds)
#: and the path count sets every simulated array (1,000,000 paths take a few
#: hundred MB).  The horizon and a fixed mark value stay far enough below
#: 2**63 that every index and level total the sampler forms fits in int64.
MAX_THRESHOLD = 20_000
MAX_PATHS = 1_000_000
MAX_HORIZON = 10**9
MAX_MARK_VALUE = 10**9


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized run configuration."""

    params: ModelParams
    thresholds: Thresholds
    matrix: StrategyMatrix
    matrix_mode: str
    scale_factor: float
    n_paths: int
    seed: int
    horizon: int
    output_dir: str
    formats: tuple

    def to_dict(self) -> dict:
        """Normalized five-block document; round-trips through from_dict."""
        p = self.params
        return {
            "process": {
                "lambda_a": p.lambda_a,
                "lambda_b": p.lambda_b,
                "mark_a": _mark_dict(p.mark_a),
                "mark_b": _mark_dict(p.mark_b),
            },
            "observation": {
                "family": p.obs_interval.family,
                "initial_mean": p.obs_initial.mean,
                "interval_mean": p.obs_interval.mean,
            },
            "thresholds": {"m": self.thresholds.m, "n": self.thresholds.n},
            "matrix": _matrix_dict(self.matrix, self.matrix_mode, self.scale_factor),
            "simulation": {
                "paths": self.n_paths,
                "seed": self.seed,
                "horizon": self.horizon,
            },
            "output": {
                "directory": self.output_dir,
                "formats": list(self.formats),
            },
        }


def _mark_dict(mark: MarkDistribution) -> dict:
    out = {"family": mark.family}
    if mark.family == "fixed":
        out["value"] = mark.value
    elif mark.family == "geometric":
        out["p"] = mark.p
    return out


def _matrix_dict(matrix: StrategyMatrix, mode: str, scale_factor: float) -> dict:
    out = {"mode": mode, "labels": list(matrix.labels)}
    if mode == "uniform":
        out["m"] = matrix.a_threshold_low
        out["n"] = matrix.b_threshold
    else:
        out["a_threshold_low"] = matrix.a_threshold_low
        out["a_threshold_high"] = matrix.a_threshold_high
        out["b_threshold"] = matrix.b_threshold
        out["scale_factor"] = scale_factor
    return out


def _require(block: dict, key: str, block_name: str):
    if key not in block:
        raise ConfigError(
            f"missing required key {key!r} in block {block_name!r}",
            field=f"{block_name}.{key}",
        )
    return block[key]


def _number(block: dict, key: str, block_name: str, default=None,
            integer: bool = False, upper=None):
    """``block[key]`` as a finite float, or as an int when ``integer``.

    A missing key takes ``default``, or is an error when there is none.
    Non-numbers, non-finite values, values above ``upper`` and, with
    ``integer``, fractional values are rejected with the entry's field name.
    """
    field = f"{block_name}.{key}"
    raw = _require(block, key, block_name) if default is None else block.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field} must be a number, got {raw!r}", field=field) from None
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {raw!r}", field=field)
    if upper is not None and value > upper:
        raise ConfigError(f"{field} must be <= {upper}, got {raw!r}", field=field)
    if not integer:
        return value
    if not value.is_integer():
        raise ConfigError(f"{field} must be an integer, got {raw!r}", field=field)
    return int(raw) if isinstance(raw, int) else int(value)


def _strings(block: dict, key: str, block_name: str, default) -> tuple:
    """``block[key]`` as a tuple of strings; a missing key takes ``default``.

    Anything but a list of strings is rejected with the entry's field name.
    """
    field = f"{block_name}.{key}"
    raw = block.get(key, default)
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ConfigError(f"{field} must be a list of strings, got {raw!r}",
                          field=field)
    return tuple(raw)


def _check_keys(block: dict, block_name: str, allowed):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in block {block_name!r}",
            field=block_name,
        )


def _parse_mark(raw, where: str) -> MarkDistribution:
    if raw is None:
        return MarkDistribution.unit()
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object", field=where)
    _check_keys(raw, where, _MARK_KEYS)
    family = raw.get("family", "unit")
    try:
        if family == "fixed":
            return MarkDistribution.fixed(
                _number(raw, "value", where, integer=True, upper=MAX_MARK_VALUE))
        if family == "geometric":
            return MarkDistribution.geometric(_number(raw, "p", where))
        return MarkDistribution(family=family)
    except (ParameterError, UnsupportedConfigurationError) as exc:
        raise ConfigError(str(exc), field=where) from exc


def from_dict(doc: dict) -> RunConfig:
    """Validate a config document and build the runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown top-level block(s) {sorted(unknown)}")
    for name in ("process", "observation", "thresholds", "simulation"):
        if name not in doc:
            raise ConfigError(f"missing required block {name!r}", field=name)
        if not isinstance(doc[name], dict):
            raise ConfigError(f"block {name!r} must be an object", field=name)
        _check_keys(doc[name], name, _ALLOWED_KEYS[name])

    proc = doc["process"]
    obs = doc["observation"]
    thr = doc["thresholds"]
    sim = doc["simulation"]

    try:
        params = ModelParams(
            lambda_a=_number(proc, "lambda_a", "process"),
            lambda_b=_number(proc, "lambda_b", "process"),
            obs_initial=IntervalDistribution(
                str(_require(obs, "family", "observation")),
                _number(obs, "initial_mean", "observation"),
            ),
            obs_interval=IntervalDistribution(
                str(obs["family"]),
                _number(obs, "interval_mean", "observation"),
            ),
            mark_a=_parse_mark(proc.get("mark_a"), "process.mark_a"),
            mark_b=_parse_mark(proc.get("mark_b"), "process.mark_b"),
        )
        # Thresholds are counts of mark units: a fractional one would be
        # simulated as its ceiling but analysed as its floor.
        thresholds = Thresholds(
            m=float(_number(thr, "m", "thresholds", integer=True, upper=MAX_THRESHOLD)),
            n=float(_number(thr, "n", "thresholds", integer=True, upper=MAX_THRESHOLD)),
        )
    except (ParameterError, UnsupportedConfigurationError) as exc:
        raise ConfigError(str(exc)) from exc

    matrix, mode, scale = _parse_matrix(doc.get("matrix"))

    n_paths = _number(sim, "paths", "simulation", integer=True, upper=MAX_PATHS)
    seed = _number(sim, "seed", "simulation", integer=True)
    horizon = _number(sim, "horizon", "simulation", 10_000, integer=True,
                      upper=MAX_HORIZON)
    if n_paths < 1:
        raise ConfigError("simulation.paths must be >= 1", field="simulation.paths")
    if seed < 0:
        raise ConfigError("simulation.seed must be >= 0", field="simulation.seed")
    if horizon < 1:
        raise ConfigError("simulation.horizon must be >= 1", field="simulation.horizon")

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("block 'output' must be an object", field="output")
    _check_keys(out, "output", _ALLOWED_KEYS["output"])
    formats = _strings(out, "formats", "output", ["csv", "json"])
    bad = set(formats) - {"csv", "json"}
    if bad:
        raise ConfigError(f"unknown output format(s) {sorted(bad)}", field="output.formats")

    return RunConfig(
        params=params,
        thresholds=thresholds,
        matrix=matrix,
        matrix_mode=mode,
        scale_factor=scale,
        n_paths=n_paths,
        seed=seed,
        horizon=horizon,
        output_dir=str(out.get("directory", "out")),
        formats=formats,
    )


def _parse_matrix(raw):
    if raw is None:
        return StrategyMatrix.bcg(), "row-dependent", DEFAULT_SCALE_FACTOR
    if not isinstance(raw, dict):
        raise ConfigError("block 'matrix' must be an object", field="matrix")
    _check_keys(raw, "matrix", _ALLOWED_KEYS["matrix"])
    mode = raw.get("mode", "row-dependent")
    labels = _strings(raw, "labels", "matrix", [])
    scale = _number(raw, "scale_factor", "matrix", DEFAULT_SCALE_FACTOR)
    if mode == "uniform":
        labels = labels or ("I", "II", "III", "IV")
        if len(labels) != 4:
            raise ConfigError("matrix.labels must list four region names",
                              field="matrix.labels")
        return (
            StrategyMatrix.uniform(
                _number(raw, "m", "matrix"), _number(raw, "n", "matrix"), labels
            ),
            mode,
            scale,
        )
    if mode == "row-dependent":
        default = StrategyMatrix.bcg()
        labels = labels or default.labels
        if len(labels) != 4:
            raise ConfigError("matrix.labels must list four region names",
                              field="matrix.labels")
        return (
            StrategyMatrix(
                labels=labels,
                a_threshold_low=_number(raw, "a_threshold_low", "matrix",
                                        default.a_threshold_low),
                a_threshold_high=_number(raw, "a_threshold_high", "matrix",
                                         default.a_threshold_high),
                b_threshold=_number(raw, "b_threshold", "matrix", default.b_threshold),
            ),
            mode,
            scale,
        )
    raise ConfigError(f"unknown matrix mode {mode!r}", field="matrix.mode")


def load(path) -> RunConfig:
    """Load and validate a config file; FileNotFoundError propagates."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(doc)


def dumps(config: RunConfig) -> str:
    """Serialize a normalized config (stable key order)."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
