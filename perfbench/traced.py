"""Run one strategyshift CLI command with every package function traced.

Usage: python perfbench/traced.py SPANS_JSON COMMAND CONFIG [ARGS...]

Wraps every public function of every strategyshift module, at every module
that binds it (``from .x import y`` makes a second binding), plus the
TruncatedSeries kernels and the CLI's JSON writer.  Each call becomes a span
[name, start, end, parent, attrs]; spans stay in memory and are written to
SPANS_JSON when the command ends, whatever its exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

from strategyshift import cli, series

PACKAGE = "strategyshift"


def _steps(args, kwargs, summary):
    # Each path is stepped until both axes have exited: max(mu, nu) + 1 steps.
    steps = np.maximum(summary.mu, summary.nu) + 1
    return {"observation_steps": int(steps.max()), "path_steps": int(steps.sum())}


def _order(args, kwargs, result):
    return {"order": args[0].order}


ATTRS = {
    "oracle.estimate_exits": _steps,
    "series.reciprocal": _order,
    "series.exp": _order,
    "series.mul": _order,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.wrappers = {}

    def wrap(self, name, fn):
        if fn in self.wrappers:
            return self.wrappers[fn]
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        self.wrappers[fn] = traced
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        extra = {cli._write_json}
        # Name each function after the module that defines it, then rebind
        # it everywhere it is bound.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)
                        and (not attr.startswith("_") or obj in extra)):
                    owner = obj.__module__.rsplit(".", 1)[-1]
                    setattr(module, attr, self.wrap(f"{owner}.{obj.__name__}", obj))
        ts = series.TruncatedSeries
        for attr, name in (("reciprocal", "series.reciprocal"), ("exp", "series.exp"),
                           ("__mul__", "series.mul"), ("__rmul__", "series.mul")):
            setattr(ts, attr, self.wrap(name, getattr(ts, attr)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        with open(out_path, "w") as f:
            json.dump({"spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
