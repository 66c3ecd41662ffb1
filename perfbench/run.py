"""End-to-end benchmark of the strategyshift CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's config, then repeats rounds of CLI invocations, each in
a fresh interpreter (``python -m strategyshift.cli``) with PYTHONPATH=src and
STRATEGYSHIFT_OUTPUT_DIR set to a scratch directory, one at a time, until the
next round would run past S seconds.  Every invocation's output is checked
against the exact law in exact.py or against properties of the method.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

Every end-to-end time is host-normalised: an invocation's wall time divided
by the mean of the host.py kernel timed right before and right after it,
times host.REFERENCE_S.  That is seconds on a host on which the kernel takes
REFERENCE_S, and it cancels the host's speed drift.  The metric is the mean
over the run's rounds.  Raw mean wall times go to stderr, and every raw
wall time to .perfbench/walls-<workload>-seed<N>.json.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each invocation
at once with a traced twin (under traced.py, or ``python -X importtime`` for
the set-up probe) and reports per-layer metrics from the twins, including
the tracing overhead.
Spans and per-layer metrics are also written to
.perfbench/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import host
from layers import import_breakdown, span_metrics

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: One (relative share, growth %) point per growth-share quadrant, plus a
#: point on both boundaries (share 1 scales to exactly 0; growth exactly 10).
CLASSIFY_POINTS = ((0.5, 5.0), (2.0, 5.0), (2.0, 15.0), (1.2, 15.0), (1.0, 10.0))

#: The known fault: report.build_analytic_bundle lets DomainError escape for
#: any non-exponential observation interval, so conformance on high-order
#: exits 4 with this message.
KNOWN_FAULT = "closed-form exit-index PGFs require exponential observation intervals"


def deep_threshold_doc(seed: int) -> dict:
    # Mean increment 2 per interval on both axes: ~50 steps on average and
    # ~110 for the slowest of 100k paths.
    return {
        "process": {"lambda_a": 2.0, "lambda_b": 1.0,
                    "mark_b": {"family": "geometric", "p": 0.5}},
        "observation": {"family": "exponential", "initial_mean": 2.0,
                        "interval_mean": 1.0},
        "thresholds": {"m": 100, "n": 100},
        "matrix": {"mode": "row-dependent"},
        "simulation": {"paths": 100_000, "seed": seed},
        "output": {"directory": "out"},
    }


def high_order_doc(seed: int) -> dict:
    # Mean increment 2 per interval: ~1000 steps over 2k paths; series
    # order m + 8 = 2008.
    return {
        "process": {"lambda_a": 1.0, "lambda_b": 1.0,
                    "mark_a": {"family": "geometric", "p": 0.5},
                    "mark_b": {"family": "fixed", "value": 2}},
        "observation": {"family": "deterministic", "initial_mean": 3.0,
                        "interval_mean": 1.0},
        "thresholds": {"m": 2000, "n": 2000},
        "matrix": {"mode": "row-dependent"},
        "simulation": {"paths": 2000, "seed": seed},
        "output": {"directory": "out"},
    }


#: The shipped configs/reference.json is not a workload: at unit thresholds
#: every command is mostly interpreter start and import, which setup_s and
#: classify_s already measure on both workloads below.
WORKLOADS = {
    "deep-threshold": deep_threshold_doc,
    "high-order": high_order_doc,
}

END_TO_END = {
    "setup_s": "s", "simulate_s": "s", "analyze_s": "s", "classify_s": "s",
    "conformance_s": "s", "peak_rss_mb": "MB",
}

#: Per-layer units other than "s" (times) and "count" (names ending _calls).
LAYER_UNITS = {"series.max_order": "count", "oracle.observation_steps": "count",
               "oracle.path_steps": "count", "oracle.ns_per_path_step": "ns",
               "report.artifact_bytes": "bytes", "trace.spans": "count"}


def per_layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "count" if name.endswith("_calls") else "s")


@dataclass(frozen=True)
class Invocation:
    """Result of one subprocess: exit code, wall seconds, peak RSS, output,
    and the mean host kernel seconds around it."""

    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    out_dir: Path
    host_s: float

    @property
    def normalised(self) -> float:
        """Wall seconds on a host on which the kernel takes REFERENCE_S."""
        return self.wall * host.REFERENCE_S / self.host_s


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        doc = WORKLOADS[workload](seed)
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(doc, indent=2))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.expect = checks.Expected(doc)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.n_spawned = 0
        self.kernel_s = host.kernel()

    def spawn(self, argv) -> Invocation:
        """Run one interpreter to its exit and time it from spawn to exit.

        The host kernel is timed after each invocation; that figure also
        serves as the next invocation's before-figure.
        """
        self.n_spawned += 1
        out_dir = self.work / f"op{self.n_spawned}"
        out_dir.mkdir()
        env = dict(self.env, STRATEGYSHIFT_OUTPUT_DIR=str(out_dir))
        with open(out_dir.with_suffix(".out"), "w+b") as out, \
                open(out_dir.with_suffix(".err"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        before, self.kernel_s = self.kernel_s, host.kernel()
        return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                          stdout, stderr, out_dir, (before + self.kernel_s) / 2)

    def setup_argv(self):
        return ["-c", "import strategyshift, strategyshift.config as c; "
                      f"c.load({str(self.config)!r})"]

    def commands(self, index: int):
        """(command, argv) of round ``index``; the classify point rotates."""
        cfg = str(self.config)
        share, growth = CLASSIFY_POINTS[(self.seed + index) % len(CLASSIFY_POINTS)]
        return [("simulate", ["simulate", cfg]),
                ("analyze", ["analyze", cfg]),
                ("classify", ["classify", cfg, "--share", str(share),
                              "--growth", str(growth)]),
                ("conformance", ["conformance", cfg])]

    def record(self, command, argv, inv: Invocation) -> None:
        """Count one invocation and check its outputs."""
        self.attempted += 1
        if ((self.workload, command, inv.rc) == ("high-order", "conformance", 4)
                and KNOWN_FAULT in inv.stderr):
            self.failed += 1
        elif inv.rc != 0:
            self.failed += 1
            self.errors.append(f"{command} {argv[2:]} exited {inv.rc}: "
                               f"{inv.stderr.strip()[-300:]}")
        else:
            errors = self.expect.check(command, argv, inv.stdout, inv.out_dir)
            self.errors.extend(f"{command}: {e}" for e in errors)

    def run_round(self, index: int, times: dict, walls: dict, rss: list,
                  trace: bool):
        """One round: the set-up probe, then each command in a fresh
        interpreter.  Traced, each invocation is followed at once by its twin
        under ``-X importtime`` or traced.py, and the round's per-layer
        metrics and spans are returned.
        """
        inv = self.spawn(self.setup_argv())
        self.record("setup", [], inv)
        times["setup_s"].append(inv.normalised)
        walls["setup_s"].append(inv.wall)
        host_s = [inv.host_s]
        if trace:
            inv = self.spawn(["-X", "importtime", *self.setup_argv()])
            self.record("setup", [], inv)
            layer = import_breakdown(inv.stderr)
        span_lists, overhead, artifact_bytes = [], 0.0, 0
        for command, argv in self.commands(index):
            inv = self.spawn(["-m", "strategyshift.cli", *argv])
            self.record(command, argv, inv)
            # Failed invocations are timed too: on high-order the failing
            # conformance run is the only sample of conformance_s, and every
            # workload reports every metric.
            times[f"{command}_s"].append(inv.normalised)
            walls[f"{command}_s"].append(inv.wall)
            host_s.append(inv.host_s)
            rss.append(inv.rss_mb)
            if not trace:
                continue
            spans_path = self.work / f"spans{index}-{command}.json"
            twin = self.spawn([str(HERE / "traced.py"), str(spans_path), *argv])
            self.record(command, argv, twin)
            overhead += twin.wall - inv.wall
            artifact_bytes += sum(p.stat().st_size for p in twin.out_dir.iterdir())
            if spans_path.is_file():
                span_lists.append(json.loads(spans_path.read_text())["spans"])
            else:
                self.errors.append(f"traced {command} wrote no spans")
        if not trace:
            return None
        layer.update(span_metrics(span_lists))
        layer["report.artifact_bytes"] = artifact_bytes
        layer["trace.overhead_s"] = overhead
        layer["host.calibration_s"] = statistics.median(host_s)
        return layer, span_lists


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "strategyshift" / "cli.py").is_file():
        print("error: src/strategyshift/cli.py not found; run from the root "
              "of a strategyshift checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, work)
        # Warm-up, untimed: fills the bytecode and file caches that every
        # later invocation, and every user after the first run, finds warm.
        if bench.spawn(bench.setup_argv()).rc != 0:
            print("error: cannot import strategyshift from src/", file=sys.stderr)
            return 2

        times = {name: [] for name in END_TO_END if name != "peak_rss_mb"}
        walls = {name: [] for name in times}
        rss, layers, traces = [], [], []
        start = time.perf_counter()
        longest = 0.0
        for index in itertools.count():
            round_start = time.perf_counter()
            traced = bench.run_round(index, times, walls, rss, bool(args.trace))
            if traced:
                layers.append(traced[0])
                traces.append(traced[1])
            # Whole rounds only, so the share of failed operations is the
            # same in every run; stop before a round would overrun.
            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() - start + longest > args.seconds:
                break

        if args.trace:
            metrics = {name: {"value": statistics.median(layer[name] for layer in layers),
                              "unit": per_layer_unit(name)}
                       for name in layers[0]}
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "rounds": layers,
                 "per_layer_median": {k: v["value"] for k, v in metrics.items()},
                 "spans": traces}))
        else:
            # The mean, not the median: a run has only 3-7 rounds, and over
            # so few the mean of host-normalised times varies less from run
            # to run than their median.
            metrics = {name: {"value": statistics.mean(values), "unit": END_TO_END[name]}
                       for name, values in times.items()}
            metrics["peak_rss_mb"] = {"value": max(rss), "unit": "MB"}
            print("raw mean wall seconds: " + ", ".join(
                f"{name} {statistics.mean(values):.4f}"
                for name, values in walls.items()), file=sys.stderr)
            (OUT / f"walls-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "walls": walls,
                 "normalised": times}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in bench.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
