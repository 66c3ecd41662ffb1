"""Per-layer metrics from ``python -X importtime`` output and traced spans."""

from __future__ import annotations

from collections import defaultdict

IMPORT_PACKAGES = ("strategyshift", "numpy", "scipy")

#: Per-layer metric -> (span name, "calls" | "s").  A time is the summed
#: duration of a function's outermost spans, so nested or repeated bindings
#: of one function are not counted twice.
SPAN_METRICS = {
    "config.load_s": ("config.load", "s"),
    "transforms.gamma_series_calls": ("transforms.gamma_series", "calls"),
    "transforms.gamma_series_s": ("transforms.gamma_series", "s"),
    "series.reciprocal_calls": ("series.reciprocal", "calls"),
    "series.reciprocal_s": ("series.reciprocal", "s"),
    "series.exp_calls": ("series.exp", "calls"),
    "series.exp_s": ("series.exp", "s"),
    "series.mul_calls": ("series.mul", "calls"),
    "series.mul_s": ("series.mul", "s"),
    "analytics.axis_factor_s": ("analytics.axis_factor", "s"),
    "analytics.phi_functional_calls": ("analytics.phi_functional", "calls"),
    "analytics.phi_functional_s": ("analytics.phi_functional", "s"),
    "oracle.estimate_exits_calls": ("oracle.estimate_exits", "calls"),
    "oracle.estimate_exits_s": ("oracle.estimate_exits", "s"),
    "oracle.empirical_functional_s": ("oracle.empirical_functional", "s"),
    "process.compound_increments_calls": ("process.compound_increments", "calls"),
    "process.compound_increments_s": ("process.compound_increments", "s"),
    "report.build_analytic_bundle_s": ("report.build_analytic_bundle", "s"),
    "report.build_empirical_bundle_s": ("report.build_empirical_bundle", "s"),
    "report.deviation_study_s": ("report.deviation_study", "s"),
    "matrix.classify_s": ("matrix.classify", "s"),
}

#: Functions whose time makes up ``report.serialize_s``: the report writers
#: and the CLI's JSON writer for summary.json and analysis.json.
SERIALIZERS = ("report.histogram_csv", "report.rows_to_csv", "report.rows_to_json",
               "cli._write_json")


def import_breakdown(stderr: str) -> dict:
    """Import seconds per top-level package from ``-X importtime`` output.

    Each module's self time goes to the nearest enclosing import (itself
    included) that belongs to one of IMPORT_PACKAGES, so standard-library
    modules that scipy pulls in count as scipy's cost.  ``total`` is every
    import the interpreter made.
    """
    # Lines are in post-order: a module's children come right before it.
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_field, _, field = line.split("|")
        self_us = int(self_field.rsplit(":", 1)[1])
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][2] == depth + 1:
            children.append(stack.pop())
        stack.append((field.strip(), self_us, depth, children))

    totals = defaultdict(int)

    def walk(node, owner):
        name, self_us, _, children = node
        top = name.split(".", 1)[0]
        owner = top if top in IMPORT_PACKAGES else owner
        totals[owner] += self_us
        for child in children:
            walk(child, owner)

    for root in stack:
        walk(root, "other")
    out = {f"import.{pkg}_s": totals[pkg] / 1e6 for pkg in IMPORT_PACKAGES}
    out["import.total_s"] = sum(totals.values()) / 1e6
    return out


def span_metrics(commands: list) -> dict:
    """Per-layer metrics of one round, from each traced command's span list.

    Spans are [name, start, end, parent_index, attrs].
    """
    calls = defaultdict(int)
    seconds = defaultdict(float)
    cli_self = 0.0
    obs_steps = path_steps = max_order = 0
    for spans in commands:
        child_time = defaultdict(float)
        for name, start, end, parent, attrs in spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            if not _inside(spans, parent, name):
                seconds[name] += end - start
            if attrs:
                obs_steps += attrs.get("observation_steps", 0)
                path_steps += attrs.get("path_steps", 0)
                max_order = max(max_order, attrs.get("order", 0))
        cli_self += sum(end - start - child_time[i]
                        for i, (name, start, end, _, _) in enumerate(spans)
                        if name == "cli.main")

    out = {metric: (calls[name] if kind == "calls" else seconds[name])
           for metric, (name, kind) in SPAN_METRICS.items()}
    out["series.max_order"] = max_order
    out["oracle.observation_steps"] = obs_steps
    out["oracle.path_steps"] = path_steps
    out["oracle.ns_per_path_step"] = (
        seconds["oracle.estimate_exits"] * 1e9 / path_steps if path_steps else 0.0)
    out["report.serialize_s"] = sum(seconds[name] for name in SERIALIZERS)
    out["cli.self_s"] = cli_self
    out["trace.spans"] = sum(len(spans) for spans in commands)
    return out


def _inside(spans, parent, name) -> bool:
    """True when an ancestor span has the same name."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
