"""Command-line surface: simulate, analyze, classify, conformance.

Exit codes: 0 success, 2 missing input file, 3 invalid configuration,
4 domain error, 5 conformance deviation.  All artifacts are deterministic
for a fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as config_mod
from .analytics import (
    axis_means,
    lemma_constants_or_note,
    lemma_pgf_a,
    lemma_pgf_b,
    marginal_pgf,
    phi_functional,
)
from .errors import (
    ConfigError,
    DomainError,
    HorizonError,
    NoExitError,
    ParameterError,
    StrategyShiftError,
)
from .matrix import bcg_scale, classify
from .oracle import estimate_exits
from .report import (
    DEFAULT_Z_GRID,
    STUDY_LEVELS,
    _round12,
    conformance_rows,
    histogram_csv,
    rows_to_csv,
    rows_to_json,
)
from .transforms import TransformContext

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_INVALID_CONFIG = 3
EXIT_DOMAIN_ERROR = 4
EXIT_CONFORMANCE_DEVIATION = 5

OUTPUT_DIR_ENV = "STRATEGYSHIFT_OUTPUT_DIR"


def _load_config(path: str):
    try:
        return config_mod.load(path)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_MISSING_INPUT)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"error: invalid config{field}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_CONFIG)


def _output_dir(cfg) -> Path:
    directory = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    out = _output_dir(cfg)
    summary = estimate_exits(
        cfg.params, cfg.thresholds, cfg.n_paths, cfg.seed, cfg.horizon
    )
    if "csv" in cfg.formats:
        for axis in ("a", "b"):
            counts, probs = summary.histogram(axis)
            name = "histogram_mu.csv" if axis == "a" else "histogram_nu.csv"
            (out / name).write_text(histogram_csv(counts, probs))
    if "json" in cfg.formats:
        payload = {"n_paths": summary.n_paths,
                   "censored_a": summary.n_censored_a,
                   "censored_b": summary.n_censored_b}
        for name in ("mu", "nu", "tau_mu", "tau_mu_prev", "tau_nu", "tau_nu_prev"):
            mean, se = summary.mean_se(name)
            payload[f"mean_{name}"] = _round12(mean)
            payload[f"se_{name}"] = _round12(se)
        _write_json(out / "summary.json", payload)
    print(f"simulate: {summary.n_paths} paths -> {out}")
    return EXIT_OK


def _axis_means(cfg, axis: str):
    lam = cfg.params.lambda_a if axis == "a" else cfg.params.lambda_b
    try:
        index, shift, prior = axis_means(cfg.params, lam)
    except NoExitError:
        return {"exit_index_mean": "no shift predicted",
                "shift_time_mean": "no shift predicted",
                "prior_time_mean": "no shift predicted"}
    return {"exit_index_mean": _round12(index),
            "shift_time_mean": _round12(shift),
            "prior_time_mean": _round12(prior)}


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    out = _output_dir(cfg)
    m, n = int(cfg.thresholds.m), int(cfg.thresholds.n)
    report = {"means": {"a": _axis_means(cfg, "a"), "b": _axis_means(cfg, "b")}}

    z_grid = list(DEFAULT_Z_GRID)
    constants = lemma_constants_or_note(cfg.params)
    if isinstance(constants, str):
        closed = {"note": constants}
    else:
        closed = {"a": {f"{z:g}": _round12(lemma_pgf_a(z, m, constants)) for z in z_grid},
                  "b": {f"{z:g}": _round12(lemma_pgf_b(z, n, constants)) for z in z_grid}}
    report["index_pgf_closed"] = closed

    operator: dict = {"a": {}, "b": {}}
    for z in z_grid:
        operator["a"][f"{z:g}"] = _round12(marginal_pgf("index_a", z, m, n, cfg.params))
        operator["b"][f"{z:g}"] = _round12(marginal_pgf("index_b", z, m, n, cfg.params))
    report["index_pgf_operator"] = operator

    report["joint_functional"] = {
        f"{mm},{nn}": _round12(
            phi_functional(mm, nn, TransformContext.neutral(), cfg.params)
        )
        for mm in (1, 2, 3)
        for nn in (1, 2, 3)
    }
    _write_json(out / "analysis.json", report)
    print(f"analyze: report -> {out / 'analysis.json'}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    if args.share is not None:
        if args.growth is None:
            print("error: --share requires --growth", file=sys.stderr)
            return EXIT_DOMAIN_ERROR
        try:
            level_a = bcg_scale(args.share, cfg.scale_factor)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN_ERROR
        level_b = args.growth
    elif args.a is not None and args.b is not None:
        level_a, level_b = args.a, args.b
    else:
        print("error: provide --share/--growth or --a/--b", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    print(classify(level_a, level_b, cfg.matrix))
    return EXIT_OK


def cmd_conformance(args) -> int:
    cfg = _load_config(args.config)
    out = _output_dir(cfg)
    # One sample serves the table, the joint functional and the study.
    summary = estimate_exits(
        cfg.params, cfg.thresholds, cfg.n_paths, cfg.seed, cfg.horizon,
        levels=STUDY_LEVELS,
    )
    rows = conformance_rows(summary)
    if "csv" in cfg.formats:
        (out / "conformance.csv").write_text(rows_to_csv(rows))
    if "json" in cfg.formats:
        (out / "conformance.json").write_text(rows_to_json(rows))
    n_dev = sum(1 for r in rows if r.verdict == "deviation")
    print(f"conformance: {len(rows)} rows, {n_dev} deviation(s) -> {out}")
    return EXIT_CONFORMANCE_DEVIATION if n_dev else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategyshift",
        description="First-exceedance strategy-shift analytics and Monte "
                    "Carlo conformance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate paths and write exit summaries")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="write the closed-form analytic report")
    p.add_argument("config")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="print the strategy-matrix region")
    p.add_argument("config")
    p.add_argument("--share", type=float, help="relative market share (> 0)")
    p.add_argument("--growth", type=float, help="market growth rate in percent")
    p.add_argument("--a", type=float, help="raw A-axis level")
    p.add_argument("--b", type=float, help="raw B-axis level")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conformance", help="run the analytic-vs-MC conformance table")
    p.add_argument("config")
    p.set_defaults(func=cmd_conformance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (ParameterError, NoExitError, HorizonError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except StrategyShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
