"""Output checks for every CLI command.

Each check tests a property the method must have, or compares a Monte Carlo
estimate with the exact law from exact.py within SE_MULTIPLE standard errors.
Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from exact import AxisLaw

#: Each seed gives 11 gated comparisons (4 in simulate, 7 in conformance).
#: At 5 SE the two-sided normal tail is 5.7e-7, so 300 seeds false-alarm
#: with odds near 1/500; at 4 SE (6.3e-5 each) the odds would be near 1/5.
SE_MULTIPLE = 5.0

#: Levels of the conformance deviation study (report.deviation_study).
STUDY_LEVELS = (2, 3, 5)

#: Growth-share geometry: A = 100 log10(share), cut at 0 in the low-growth
#: row and 17.6 in the high-growth row; B (growth %) cut at 10; ties go low.
BCG_LABELS = {(False, False): "Dogs", (True, False): "Cows",
              (True, True): "Stars", (False, True): "Question Marks"}


def expected_label(share: float, growth: float) -> str:
    b_high = growth > 10.0
    a_high = 100.0 * math.log10(share) > (17.6 if b_high else 0.0)
    return BCG_LABELS[(a_high, b_high)]


def strict_json(path: Path):
    """Parse JSON, refusing NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


class Expected:
    """Exact reference values of one workload config and the checks using them."""

    def __init__(self, doc: dict):
        self.paths = doc["simulation"]["paths"]
        laws = {axis: AxisLaw(doc, axis) for axis in "ab"}
        self.exit_mean = {axis: law.mean_exit_index() for axis, law in laws.items()}
        self.shift_mean = {axis: law.mean_shift_time() for axis, law in laws.items()}
        self.study_mean = {level: AxisLaw(doc, "a", level).mean_exit_index()
                           for level in STUDY_LEVELS}

    def check(self, command: str, argv, stdout: str, out_dir: Path) -> list:
        """Errors found in one successful invocation's outputs."""
        try:
            if command == "simulate":
                return self.simulate(out_dir)
            if command == "analyze":
                return self.analyze(out_dir)
            if command == "classify":
                return self.classify(argv, stdout)
            if command == "conformance":
                return self.conformance(out_dir)
            return []
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
            return [f"unreadable output: {exc!r}"]

    @staticmethod
    def near(label, estimate, se, exact) -> list:
        if abs(estimate - exact) <= SE_MULTIPLE * se:
            return []
        return [f"{label} = {estimate} (SE {se}) is more than {SE_MULTIPLE:g} SE "
                f"from the exact {exact}"]

    def simulate(self, out_dir: Path) -> list:
        errors = []
        summary = strict_json(out_dir / "summary.json")
        n = summary["n_paths"]
        if n != self.paths:
            errors.append(f"n_paths {n} != {self.paths}")
        for axis, name in (("a", "mu"), ("b", "nu")):
            with open(out_dir / f"histogram_{name}.csv", newline="") as f:
                rows = list(csv.reader(f))
            if rows[0] != ["index", "count", "probability"]:
                errors.append(f"histogram_{name}.csv header {rows[0]}")
            index = [int(r[0]) for r in rows[1:]]
            counts = [int(r[1]) for r in rows[1:]]
            probs = [float(r[2]) for r in rows[1:]]
            if index != list(range(len(index))):
                errors.append(f"histogram_{name}.csv indices are not 0..{len(index) - 1}")
            censored = summary[f"censored_{axis}"]
            if sum(counts) != n - censored:
                errors.append(f"histogram_{name} counts sum to {sum(counts)}, "
                              f"not paths - censored = {n - censored}")
            if any(not math.isclose(p, c / n, rel_tol=1e-11, abs_tol=1e-300)
                   for c, p in zip(counts, probs)):
                errors.append(f"histogram_{name} probabilities != counts / paths")
            hist_mean = sum(i * c for i, c in zip(index, counts)) / sum(counts)
            if not math.isclose(hist_mean, summary[f"mean_{name}"], rel_tol=1e-9):
                errors.append(f"histogram_{name} mean {hist_mean} != mean_{name}")
            errors += self.near(f"mean_{name}", summary[f"mean_{name}"],
                                summary[f"se_{name}"], self.exit_mean[axis])
            errors += self.near(f"mean_tau_{name}", summary[f"mean_tau_{name}"],
                                summary[f"se_tau_{name}"], self.shift_mean[axis])
        return errors

    def analyze(self, out_dir: Path) -> list:
        # The printed operator and lemma routes are off on purpose (they are
        # evaluated as printed), so only the report's form is checked.
        errors = []
        report = strict_json(out_dir / "analysis.json")
        if any(not math.isfinite(x) for x in numbers(report)):
            errors.append("analysis.json holds a non-finite number")
        if set(report) != {"means", "index_pgf_closed", "index_pgf_operator",
                           "joint_functional"}:
            errors.append(f"analysis.json sections {sorted(report)}")
        z_keys = {"0.25", "0.5", "0.75"}
        for axis in "ab":
            if set(report["means"][axis]) != {"exit_index_mean", "shift_time_mean",
                                              "prior_time_mean"}:
                errors.append(f"means.{axis} keys {sorted(report['means'][axis])}")
            if set(report["index_pgf_operator"][axis]) != z_keys:
                errors.append(f"index_pgf_operator.{axis} keys")
        closed = report["index_pgf_closed"]
        if not (set(closed) == {"note"} and isinstance(closed["note"], str)
                or set(closed) == {"a", "b"}
                and all(set(closed[axis]) == z_keys for axis in "ab")):
            errors.append(f"index_pgf_closed form {sorted(closed)}")
        grid = {f"{i},{j}" for i in (1, 2, 3) for j in (1, 2, 3)}
        if set(report["joint_functional"]) != grid:
            errors.append("joint_functional grid keys")
        return errors

    @staticmethod
    def classify(argv, stdout: str) -> list:
        share = float(argv[argv.index("--share") + 1])
        growth = float(argv[argv.index("--growth") + 1])
        label = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        want = expected_label(share, growth)
        return [] if label == want else [f"({share}, {growth}) -> {label!r}, not {want!r}"]

    def conformance(self, out_dir: Path) -> list:
        errors = []
        rows = strict_json(out_dir / "conformance.json")
        with open(out_dir / "conformance.csv", newline="") as f:
            csv_rows = list(csv.DictReader(f))
        if [r["quantity"] for r in csv_rows] != [r["quantity"] for r in rows]:
            errors.append("conformance.csv and conformance.json list different rows")
        for c, j in zip(csv_rows, rows):
            if float(c["mc_estimate"]) != j["mc_estimate"] or float(c["se"]) != j["se"]:
                errors.append(f"{j['quantity']}: csv and json values differ")
        if any(not math.isfinite(x) for x in numbers(rows)):
            errors.append("conformance.json holds a non-finite number")
        verdicts = {r["verdict"] for r in rows}
        if not verdicts <= {"match", "not-assertable"}:
            errors.append(f"verdicts {sorted(verdicts)} after exit code 0")

        by_name = {r["quantity"]: r for r in rows}
        wanted = {}
        for axis in "ab":
            wanted[f"mean_exit_index_{axis}"] = self.exit_mean[axis]
            wanted[f"mean_shift_time_{axis}"] = self.shift_mean[axis]
        for level, mean in self.study_mean.items():
            wanted[f"mean_exit_index_a[m={level}]"] = mean
        for name, exact in wanted.items():
            if name not in by_name:
                errors.append(f"row {name} missing")
                continue
            row = by_name[name]
            errors += self.near(name, row["mc_estimate"], row["se"], exact)
        return errors
