"""Run configuration: a single JSON document with six blocks.

Blocks: process (intensities and marks), observation (interval family and
means), thresholds, matrix (labels and threshold geometry), simulation
(path count, seed, horizon), output (directory).

``SCHEMA`` declares every field once: its kind, its default and its bounds.
One walker reads a document against it.  Unknown keys are rejected, so a
config cannot silently misspell an option, and every present value is
checked by its entry, including keys the chosen mark family or matrix mode
does not read.  Every rejection inside the document names its field or its
block.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple

from .errors import ConfigError
from .matrix import BCG_A_HIGH, BCG_A_LOW, BCG_B, BCG_LABELS, GENERIC_LABELS, StrategyMatrix
from .params import (INTERVAL_FAMILIES, MARK_FAMILIES, IntervalDistribution,
                     MarkDistribution, ModelParams, Thresholds)

#: Upper bounds on the size fields.  A threshold sets the series order that
#: ``analyze`` expands (O(order log order) work above the FFT crossover;
#: m = n = 20,000 takes 0.4-0.7 s on 2 vCPUs, interpreter start included)
#: and the path count sets every simulated array (1,000,000 paths take a few
#: hundred MB).  The horizon and a fixed mark value stay far enough below
#: 2**63 that every index and arrival count the sampler forms fits in int64.
MAX_THRESHOLD = 20_000
MAX_PATHS = 1_000_000
MAX_HORIZON = 10**9
MAX_MARK_VALUE = 10**9

#: Observations per path before a path that has not exceeded is censored.
DEFAULT_HORIZON = 10_000

#: Default of an entry that must be given.
REQUIRED = object()


class Entry(namedtuple("Entry", "kind default ge gt le choices",
                       defaults=(REQUIRED, None, None, None, ()))):
    """One config field.

    ``kind`` is "number" (a finite JSON number, never a string or a
    boolean), "integer", "string" or "strings" (a list of strings);
    ``choices``, when given, lists the names a string may take.
    ``default`` is filled in when the key is absent: REQUIRED makes the key
    mandatory, and None leaves it absent.  ``ge``, ``gt`` and ``le`` bound a
    number.
    """

    __slots__ = ()


#: Region names of each matrix mode, used when ``matrix.labels`` is empty.
DEFAULT_LABELS = {"row-dependent": BCG_LABELS, "uniform": GENERIC_LABELS}

_MARK = {
    "family": Entry("string", "unit", choices=MARK_FAMILIES),
    "value": Entry("integer", None, ge=0, le=MAX_MARK_VALUE),
    "p": Entry("number", None, gt=0, le=1),
}

#: The config table.  A block is required when it holds a required entry.
SCHEMA = {
    "process": {
        "lambda_a": Entry("number", ge=0),
        "lambda_b": Entry("number", ge=0),
        "mark_a": _MARK,
        "mark_b": _MARK,
    },
    "observation": {
        "family": Entry("string", choices=INTERVAL_FAMILIES),
        "initial_mean": Entry("number", gt=0),
        "interval_mean": Entry("number", gt=0),
    },
    # Thresholds are counts of mark units (params.Thresholds holds ints).
    "thresholds": {
        "m": Entry("integer", ge=0, le=MAX_THRESHOLD),
        "n": Entry("integer", ge=0, le=MAX_THRESHOLD),
    },
    # Cut points are any finite numbers: the A axis is a log share, so a
    # negative or inverted cut is still plain geometry.
    "matrix": {
        "mode": Entry("string", "row-dependent", choices=tuple(DEFAULT_LABELS)),
        "labels": Entry("strings", []),
        "m": Entry("number", None),
        "n": Entry("number", None),
        "a_threshold_low": Entry("number", BCG_A_LOW),
        "a_threshold_high": Entry("number", BCG_A_HIGH),
        "b_threshold": Entry("number", BCG_B),
    },
    "simulation": {
        "paths": Entry("integer", ge=1, le=MAX_PATHS),
        "seed": Entry("integer", ge=0),
        "horizon": Entry("integer", DEFAULT_HORIZON, ge=1, le=MAX_HORIZON),
    },
    "output": {
        "directory": Entry("string", "out"),
    },
}

#: The keys one mark family or one matrix mode reads, and so requires.
NEEDS = {"fixed": ("value",), "geometric": ("p",), "uniform": ("m", "n")}

_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le))


def _missing(block: str, key: str) -> ConfigError:
    return ConfigError(f"missing required key {key!r} in block {block!r}",
                       field=f"{block}.{key}")


def _required(schema: dict) -> bool:
    return any(_required(e) if isinstance(e, dict) else e.default is REQUIRED
               for e in schema.values())


def _read(raw, schema: dict, path: str) -> dict:
    """``raw`` read against ``schema``: checked, normalized, defaults filled."""
    if not isinstance(raw, dict):
        raise ConfigError(f"block {path!r} must be an object" if path
                          else "config root must be a JSON object", field=path or None)
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        where = f"key(s) {unknown} in block {path!r}" if path else f"top-level block(s) {unknown}"
        raise ConfigError(f"unknown {where}", field=path or unknown[0])
    out = {}
    for key, entry in schema.items():
        field = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            if key not in raw and _required(entry):
                raise ConfigError(f"missing required block {key!r}", field=field)
            out[key] = _read(raw.get(key, {}), entry, field)
        elif key in raw:
            out[key] = _value(raw[key], entry, field)
        elif entry.default is REQUIRED:
            raise _missing(path, key)
        elif entry.default is not None:
            out[key] = _value(entry.default, entry, field)
    return out


def _value(raw, entry: Entry, field: str):
    """``raw`` checked against ``entry``: a float, an int, a string or a list."""
    if entry.kind in ("string", "strings"):
        def name(item):
            return isinstance(item, str) and (not entry.choices or item in entry.choices)

        if entry.kind == "string" and name(raw):
            return raw
        if entry.kind == "strings" and isinstance(raw, list) and all(map(name, raw)):
            return list(raw)
        wanted = "a string" if entry.kind == "string" else "a list of strings"
        wanted += f" in {entry.choices}" if entry.choices else ""
        raise ConfigError(f"{field} must be {wanted}, got {raw!r}", field=field)
    # A JSON number only: float() would also read "1.5" and true.
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{field} must be a number, got {raw!r}", field=field)
    try:
        value = float(raw)
    except OverflowError:
        raise ConfigError(f"{field} must be a number, got {raw!r}", field=field) from None
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {raw!r}", field=field)
    for attr, sign, holds in _BOUNDS:
        bound = getattr(entry, attr)
        if bound is not None and not holds(value, bound):
            raise ConfigError(f"{field} must be {sign} {bound}, got {raw!r}", field=field)
    if entry.kind == "number":
        return value
    if not value.is_integer():
        raise ConfigError(f"{field} must be an integer, got {raw!r}", field=field)
    return int(raw) if isinstance(raw, int) else int(value)


class RunConfig(namedtuple("RunConfig",
                           "params thresholds matrix n_paths seed horizon output_dir")):
    """Validated run configuration."""

    __slots__ = ()


def _mark(mark: dict) -> MarkDistribution:
    family = mark["family"]
    return MarkDistribution(family, **{key: mark[key] for key in NEEDS.get(family, ())})


def from_dict(doc) -> RunConfig:
    """Validate a config document and build the runtime objects."""
    doc = _read(doc, SCHEMA, "")
    proc, obs, mat = doc["process"], doc["observation"], doc["matrix"]
    for path, block, selector in (("process.mark_a", proc["mark_a"], "family"),
                                  ("process.mark_b", proc["mark_b"], "family"),
                                  ("matrix", mat, "mode")):
        for key in NEEDS.get(block[selector], ()):
            if key not in block:
                raise _missing(path, key)
    labels = mat["labels"] or DEFAULT_LABELS[mat["mode"]]
    if len(labels) != 4:
        raise ConfigError("matrix.labels must list four region names", field="matrix.labels")
    cuts = ((mat["m"], mat["m"], mat["n"]) if mat["mode"] == "uniform" else
            (mat["a_threshold_low"], mat["a_threshold_high"], mat["b_threshold"]))
    sim = doc["simulation"]
    return RunConfig(
        params=ModelParams(
            lambda_a=proc["lambda_a"],
            lambda_b=proc["lambda_b"],
            obs_initial=IntervalDistribution(obs["family"], obs["initial_mean"]),
            obs_interval=IntervalDistribution(obs["family"], obs["interval_mean"]),
            mark_a=_mark(proc["mark_a"]),
            mark_b=_mark(proc["mark_b"]),
        ),
        thresholds=Thresholds(**doc["thresholds"]),
        matrix=StrategyMatrix(tuple(labels), *cuts),
        n_paths=sim["paths"],
        seed=sim["seed"],
        horizon=sim["horizon"],
        output_dir=doc["output"]["directory"],
    )


def load(path) -> RunConfig:
    """Load and validate a config file.  An OSError from reading it propagates;
    bytes that are not JSON text, or nest too deep to parse, raise ConfigError."""
    try:
        with open(path, "rb") as file:  # an OSError names ``path`` as given
            doc = json.loads(file.read())
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(doc)
