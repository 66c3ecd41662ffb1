"""Exit-code contract over generated config documents.

Every document, however malformed, must end ``simulate``, ``analyze`` and
``conformance`` with a documented exit code (0/2/3/4/5), never an uncaught
exception, and every JSON artifact must be strict JSON (no NaN/Infinity).
Valid draws stay cheap: thresholds <= 50, paths <= 500, horizon <= 1000.
Wild values reach every field of the config table, the size fields
included: a size above its config bound (1e15, 1e300) exits 3 before any
work is done.  The same holds however the config reaches the CLI (JSON
text, bytes that are not UTF-8, arrays nested past the parser's depth, a
directory in place of the file) and wherever the output goes (a fresh
directory, an existing regular file, a path under one): each failure is
one ``error:`` line.

``classify`` arguments, in any combination of flags and values (NaN, +-inf,
0, negatives, a missing or doubled axis, the two forms mixed), end in one of
the config's matrix labels with exit 0, in argparse's usage error with exit 2
when an axis has no flag or two, or in one ``error:`` line with exit 4.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from literal import config_leaves
from strategyshift import cli
from strategyshift import config as config_mod

#: Values that are out of range, fractional, of the wrong type or extreme.
WILD = st.sampled_from([0, -1, -0.5, 1.5, 1e-300, 1e15, 1e300, "x", "1.5", "3",
                       True, False, None])

FIELDS = [field for field, _ in config_leaves()]

positive = st.floats(0.05, 4.0)

marks = st.one_of(
    st.none(),
    st.just({"family": "unit"}),
    st.builds(lambda v: {"family": "fixed", "value": v}, st.integers(0, 3)),
    st.builds(lambda p: {"family": "geometric", "p": p}, st.floats(0.05, 1.0)),
)


@st.composite
def documents(draw):
    """A valid document with up to three entries replaced by wild values."""
    doc = {
        "process": {"lambda_a": draw(positive), "lambda_b": draw(positive)},
        "observation": {
            "family": draw(st.sampled_from(["exponential", "deterministic"])),
            "initial_mean": draw(positive),
            "interval_mean": draw(positive),
        },
        "thresholds": {"m": draw(st.integers(0, 50)), "n": draw(st.integers(0, 50))},
        "simulation": {"paths": draw(st.integers(1, 500)),
                       "seed": draw(st.integers(0, 2**32)),
                       "horizon": draw(st.integers(1, 1000))},
    }
    for key in ("mark_a", "mark_b"):
        mark = draw(marks)
        if mark is not None:
            doc["process"][key] = mark
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(FIELDS))
        *path, key = field.split(".")
        block = doc
        for name in path:
            block = block.setdefault(name, {})
        block[key] = draw(WILD)
    return doc


def _reference(family="exponential", **blocks):
    """A valid document with unit rates and means, plus ``blocks``."""
    return {
        "process": {"lambda_a": 1.0, "lambda_b": 1.0},
        "observation": {"family": family, "initial_mean": 1.0, "interval_mean": 1.0},
        "thresholds": {"m": 1, "n": 1},
        "simulation": {"paths": 100, "seed": 7},
        **blocks,
    }


def _overflowing(family, **fields):
    """A valid document whose means and intensities (``fields``) are so
    large or small that their products or squares over- or underflow."""
    doc = _reference(family)
    for key, value in fields.items():
        doc["process" if key.startswith("lambda") else "observation"][key] = value
    return doc


def _strict(token):
    raise ValueError(f"non-finite JSON number {token}")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example(_overflowing("exponential", interval_mean=1e300, lambda_a=1e300))
@example(_overflowing("deterministic", interval_mean=1e300, lambda_a=1e300))
@example(_overflowing("deterministic", initial_mean=1e154, interval_mean=1e154,
                      lambda_a=1e154, lambda_b=1e154))
@example(_overflowing("exponential", interval_mean=1e-300, lambda_a=1e-300))
@example(_overflowing("exponential", initial_mean=1e155, interval_mean=1e155,
                      lambda_a=1e-150, lambda_b=1e-150))
@example(_overflowing("exponential", initial_mean=1.0000000000000002, lambda_a=1e-300))
@example(_reference(matrix={"labels": 5}))
@example(_reference(output={"formats": 5}))
def test_every_document_ends_in_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(out)}):
            for command in ("simulate", "analyze", "conformance"):
                assert cli.main([command, str(config)]) in {0, 2, 3, 4, 5}
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_strict)


#: How a document reaches the CLI: as JSON text, as bytes that are not UTF-8,
#: as arrays nested past the parser's depth, or as a directory in its place.
DELIVERIES = ("json", "not-utf8", "nested", "directory")

#: Where the output goes: a fresh directory, a regular file, or a path under one.
OUTPUTS = ("fresh", "file", "file/out")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(DELIVERIES), st.sampled_from(OUTPUTS),
       st.integers(0, 10**6))
@example(_reference(), "directory", "fresh", 0)
@example(_reference(), "not-utf8", "fresh", 0)
@example(_reference(), "nested", "fresh", 0)
@example(_reference(), "json", "file", 0)
@example(_reference(), "json", "file/out", 0)
def test_every_delivery_ends_in_a_documented_exit_code(doc, delivery, output, cut):
    text = json.dumps(doc).encode()
    cut %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        if delivery == "directory":
            config.mkdir()
        else:
            config.write_bytes({"json": text, "nested": b"[" * 100_000,
                                "not-utf8": text[:cut] + b"\xff" + text[cut:]}[delivery])
        (Path(tmp) / "file").write_text("")
        err = io.StringIO()
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(Path(tmp) / output)}), \
                redirect_stderr(err):
            codes = [cli.main([command, str(config)])
                     for command in ("simulate", "analyze", "conformance")]
    # The config is read before the output directory is made.
    if delivery == "directory":
        allowed = {2}
    elif delivery != "json":
        allowed = {3}
    else:
        allowed = {0, 3, 4, 5} if output == "fresh" else {2, 3}
    assert set(codes) <= allowed
    lines = err.getvalue().splitlines()
    assert len(lines) == sum(code not in (0, 5) for code in codes)
    assert all(line.startswith("error: ") for line in lines)


#: Values a user can type for a classify coordinate, non-finite ones included.
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(-1e3, 1e3),
    st.floats(),
)

CLASSIFY_MATRICES = {
    "bcg": {"mode": "row-dependent"},
    "uniform": {"mode": "uniform", "m": 2.0, "n": -3.0, "labels": ["w", "x", "y", "z"]},
}


@pytest.fixture(scope="module")
def classify_configs(tmp_path_factory):
    """(path, matrix labels) per matrix geometry, over one reference process."""
    directory = tmp_path_factory.mktemp("classify")
    configs = {}
    for name, matrix in CLASSIFY_MATRICES.items():
        doc = {
            "process": {"lambda_a": 1.0, "lambda_b": 1.0},
            "observation": {"family": "exponential", "initial_mean": 1.0,
                            "interval_mean": 1.0},
            "thresholds": {"m": 1, "n": 1},
            "matrix": matrix,
            "simulation": {"paths": 100, "seed": 7},
        }
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        configs[name] = (str(path), config_mod.load(str(path)).matrix.labels)
    return configs


@settings(max_examples=300, deadline=None)
@given(matrix=st.sampled_from(sorted(CLASSIFY_MATRICES)),
       share=st.none() | COORDINATES, growth=st.none() | COORDINATES,
       a=st.none() | COORDINATES, b=st.none() | COORDINATES)
def test_classify_arguments_end_in_a_label_or_exit_2_or_4(classify_configs, matrix,
                                                          share, growth, a, b):
    path, labels = classify_configs[matrix]
    given_flags = {"share": share, "growth": growth, "a": a, "b": b}
    flags = [f"--{name}={value!r}" for name, value in given_flags.items()
             if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["classify", path, *flags])

    if (share is None) == (a is None) or (growth is None) == (b is None):
        expected = 2  # an axis with no flag or with two
    else:
        a_valid = math.isfinite(a) if share is None else 0.0 < share < math.inf
        b_valid = math.isfinite(b if growth is None else growth)
        expected = 0 if a_valid and b_valid else 4
    assert code == expected
    if code == 0:
        assert out.getvalue().strip() in labels and err.getvalue() == ""
    elif code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: strategyshift classify")
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
