"""Exit-code contract over generated config documents.

Every document, however malformed, must end ``simulate``, ``analyze`` and
``conformance`` with a documented exit code (0/2/3/4/5), never an uncaught
exception, and every JSON artifact must be strict JSON (no NaN/Infinity).
Valid draws stay cheap: thresholds <= 50, paths <= 500, horizon <= 1000.
Wild values reach every field, the size fields included: a size above its
config bound (1e15, 1e300) exits 3 before any work is done.
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from strategyshift import cli

#: Values that are out of range, fractional, of the wrong type or extreme.
WILD = st.sampled_from([0, -1, -0.5, 1.5, 1e-300, 1e15, 1e300, "x", None])

FIELDS = sorted({
    "thresholds.m", "thresholds.n", "simulation.paths", "simulation.horizon",
    "process.mark_a.value", "process.mark_b.value",
    "process.lambda_a", "process.lambda_b", "process.mark_a.p",
    "process.mark_b.p", "process.mark_a.family", "observation.family",
    "observation.initial_mean", "observation.interval_mean", "simulation.seed",
})

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


def _strict(token):
    raise ValueError(f"non-finite JSON number {token}")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
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
