"""Command-line surface: simulate, analyze, classify, conformance.

Exit codes: 0 success, 2 command-line usage error or a file the OS refuses
(a missing or unreadable config, an output directory that cannot be made
or written), 3 invalid configuration, 4 domain error, 5 conformance
deviation.  The commands raise; ``main`` alone turns an error into its exit
code and its one ``error:`` line.  All artifacts are deterministic for a
fixed (config, seed) pair.

``run`` is the process entry (``python -m strategyshift.cli`` and the
``strategyshift`` console script): it calls ``main`` and exits with its code.
``main`` returns the code and leaves the interpreter as it found it, for
in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from pathlib import Path

# numpy loads OpenBLAS, which by default starts a worker thread for each
# further core as it loads.  No command makes a BLAS call that such a thread
# could share (the only one numpy may reach is the inner product inside an
# np.convolve of fewer than 512 terms), yet on a 2-vCPU VM starting it made
# numpy's import inside `analyze` take 0.154 s against 0.089 s with one
# thread (medians of 10 runs, `python -X importtime`).  Every command imports
# numpy after this line runs; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import config as config_mod
from .errors import ConfigError, StrategyShiftError
from .matrix import bcg_scale, classify

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_INVALID_CONFIG = 3
EXIT_DOMAIN_ERROR = 4
EXIT_CONFORMANCE_DEVIATION = 5

OUTPUT_DIR_ENV = "STRATEGYSHIFT_OUTPUT_DIR"


def _output_dir(cfg) -> Path:
    path = Path(os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    """Write one JSON artifact: every float, at any depth, rounded to 12
    significant digits; sorted keys; a non-finite number raises before the
    file is touched; one trailing newline."""
    def rounded(value):
        if isinstance(value, float):
            return float(format(value, ".12g"))
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(item) for item in value]
        return value

    path.write_text(json.dumps(rounded(payload), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """Write one CSV artifact: strings as they are, None as an empty cell,
    every number with 12 significant digits; "\\n" ends each row."""
    import csv  # here, so classify and config errors never load it

    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if cell is None or isinstance(cell, str)
                             else format(float(cell), ".12g") for cell in row])


def cmd_simulate(args) -> int:
    cfg = config_mod.load(args.config)
    import numpy as np
    from .oracle import estimate_exits, exit_mean_se
    out = _output_dir(cfg)
    summary = estimate_exits(
        cfg.params, cfg.thresholds, cfg.n_paths, cfg.seed, cfg.horizon
    )
    payload = {"n_paths": cfg.n_paths}
    for axis, name, record in (("a", "mu", summary.a), ("b", "nu", summary.b)):
        exited = record.index[record.index >= 0]
        payload[f"censored_{axis}"] = cfg.n_paths - exited.size
        for key, values in ((name, record.index), (f"tau_{name}", record.shift),
                            (f"tau_{name}_prev", record.prior)):
            payload[f"mean_{key}"], payload[f"se_{key}"] = exit_mean_se(
                record.index, values, key)
        # Probabilities are over all paths, so censored mass shows as a total
        # below 1.  Cells go out as Python numbers, not numpy scalars.
        counts = np.bincount(exited, minlength=1)
        _write_csv(out / f"histogram_{name}.csv", ("index", "count", "probability"),
                   zip(range(counts.size), counts.tolist(),
                       (counts / cfg.n_paths).tolist()))
    _write_json(out / "summary.json", payload)
    print(f"simulate: {cfg.n_paths} paths -> {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = config_mod.load(args.config)
    from .analytics import (DEFAULT_Z_GRID, TransformContext, axis_means,
                            lemma_note, lemma_pgf, phi_functional)
    out = _output_dir(cfg)
    params = cfg.params
    m, n = cfg.thresholds.m, cfg.thresholds.n
    axes = (("a", m, params.lambda_a), ("b", n, params.lambda_b))
    report = {"means": {
        axis: dict(zip(("exit_index_mean", "shift_time_mean", "prior_time_mean"),
                       axis_means(params, lam)))
        for axis, _, lam in axes
    }}

    z_grid = list(DEFAULT_Z_GRID)
    note = lemma_note(params)
    report["index_pgf_closed"] = {"note": note} if note else {
        axis: {f"{z:g}": lemma_pgf(z, level, params, lam) for z in z_grid}
        for axis, level, lam in axes
    }
    report["index_pgf_operator"] = {
        "a": {f"{z:g}": phi_functional(m, n, TransformContext(z=z), params)
              for z in z_grid},
        "b": {f"{z:g}": phi_functional(m, n, TransformContext(g=z), params)
              for z in z_grid},
    }
    report["joint_functional"] = {
        f"{mm},{nn}": phi_functional(mm, nn, TransformContext(), params)
        for mm in (1, 2, 3)
        for nn in (1, 2, 3)
    }
    _write_json(out / "analysis.json", report)
    print(f"analyze: report -> {out / 'analysis.json'}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = config_mod.load(args.config)
    level_a = args.a if args.share is None else bcg_scale(args.share)
    print(classify(level_a, args.b, cfg.matrix))
    return EXIT_OK


def cmd_conformance(args) -> int:
    cfg = config_mod.load(args.config)
    from .oracle import estimate_exits
    from .report import STUDY_LEVELS, ConformanceRow, conformance_rows
    out = _output_dir(cfg)
    # One sample serves the table, the joint functional and the study.
    summary = estimate_exits(
        cfg.params, cfg.thresholds, cfg.n_paths, cfg.seed, cfg.horizon,
        levels=STUDY_LEVELS,
    )
    rows = conformance_rows(summary)
    _write_csv(out / "conformance.csv", ConformanceRow._fields, rows)
    # As dicts: _write_json writes any tuple, a row too, as a list.
    _write_json(out / "conformance.json", [row._asdict() for row in rows])
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
    # One flag per axis: argparse refuses a missing or doubled axis.
    axis = p.add_mutually_exclusive_group(required=True)
    axis.add_argument("--a", type=float, help="raw A-axis level")
    axis.add_argument("--share", type=float,
                      help="relative market share (> 0), scaled to 100 log10(share)")
    axis = p.add_mutually_exclusive_group(required=True)
    axis.add_argument("--b", type=float, help="raw B-axis level")
    axis.add_argument("--growth", type=float, dest="b", metavar="GROWTH",
                      help="market growth rate in percent (the raw B level)")
    # argparse's own pattern misses -1e3 and -inf and reads them as flags;
    # these options take numbers, so any negative float literal is a value.
    p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conformance", help="run the analytic-vs-MC conformance table")
    p.add_argument("config")
    p.set_defaults(func=cmd_conformance)
    return parser


def main(argv=None) -> int:
    """Run one command; the except chain is the table from failure to exit
    code, and the only place that prints ``error:``."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error it printed
        return int(exc.code) if exc.code is not None else EXIT_OK
    except FileNotFoundError as exc:
        code, message = EXIT_MISSING_INPUT, f"config file not found: {exc.filename}"
    except OSError as exc:  # a write that fails, on a full disk say, names no file
        where = f": {exc.filename}" if exc.filename else ""
        code, message = EXIT_MISSING_INPUT, f"{exc.strerror}{where}"
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        code, message = EXIT_INVALID_CONFIG, f"invalid config{field}: {exc}"
    except StrategyShiftError as exc:
        code, message = EXIT_DOMAIN_ERROR, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def run() -> None:
    """Process entry: run one command, then exit with its code.

    Every artifact is written and closed before ``main`` returns, so what is
    left is the interpreter's shut-down.  Freezing moves every live object
    into the collector's permanent generation, which shut-down's collections
    skip: without it they walk every object numpy and the package made, only
    to free memory the exiting process hands back anyway.  The std streams
    are still flushed and atexit handlers still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
