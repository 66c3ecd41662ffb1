"""Acceptance suite: one test per exit criterion, each printing a verdict line."""

import json
import time

import numpy as np
import pytest

import conftest
from literal import bcg_matrix, d_apply, d_apply_2d, d_extract_2d, phi_series
from strategyshift import cli
from strategyshift.analytics import (TransformContext, axis_factor, gamma_series,
                                     phi_functional)
from strategyshift.matrix import bcg_scale, classify
from strategyshift.oracle import estimate_exits, exit_mean_se
from strategyshift.params import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)
from strategyshift.report import conformance_rows
from strategyshift.series import d_extract

EXP1 = IntervalDistribution("exponential", 1.0)
REFERENCE = ModelParams(1.0, 1.0, EXP1, EXP1)
UNIT = Thresholds(1, 1)


def _verdict(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_operator_roundtrip():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        g = rng.normal(scale=10.0, size=rng.integers(1, 33))
        f = d_apply(g)
        ok &= all(abs(d_extract(f, k) - g[k]) <= 1e-9 for k in range(len(g)))
    for _ in range(50):
        g = rng.normal(scale=10.0, size=(8, 8))
        f = d_apply_2d(g)
        ok &= all(
            abs(d_extract_2d(f, (j, k)) - g[j, k]) <= 1e-9
            for j in range(8)
            for k in range(8)
        )
    elapsed = time.perf_counter() - start
    _verdict(f"criterion 1: operator round-trip (elapsed {elapsed:.2f}s)",
             ok and elapsed < 1.0)


def test_criterion_2_transform_identity():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    mark = MarkDistribution()
    ok = True
    n = 100_000
    # The series of 1 / (2 + theta - x) has coefficients (2 + theta)^-(k+1):
    # at z <= 0.9 its tail past order 60 is below 0.45^61 / 0.55 < 1e-20.
    order = 60
    for z in (0.2, 0.5, 0.9):
        for theta in (0.0, 0.5, 1.0):
            d = rng.exponential(1.0, n)
            a = rng.poisson(1.0 * d)
            samples = z**a * np.exp(-theta * d)
            se = samples.std(ddof=1) / np.sqrt(n)
            series = gamma_series(order, theta, 1.0, mark, EXP1)
            analytic = np.polynomial.polynomial.polyval(z, series.coeffs)
            ok &= abs(samples.mean() - analytic) <= 3 * se
    elapsed = time.perf_counter() - start
    _verdict(f"criterion 2: transform identity on the (z, theta) grid "
             f"(elapsed {elapsed:.2f}s)", ok and elapsed < 30.0)


def test_criterion_3_exit_distribution():
    start = time.perf_counter()
    n = 100_000
    summary = estimate_exits(REFERENCE, UNIT, n, 7)
    exited = summary.a.index[summary.a.index >= 0]
    probs = np.bincount(exited) / summary.a.index.size
    ok = True
    for j in range(7):
        expect = 0.5 ** (j + 1)
        se = np.sqrt(expect * (1.0 - expect) / n)
        ok &= abs(probs[j] - expect) <= 3 * se
    mean, se = exit_mean_se(summary.a.index, summary.a.index, "mu")
    ok &= abs(mean - 1.0) <= 3 * se
    elapsed = time.perf_counter() - start
    _verdict(f"criterion 3: geometric exit-index distribution "
             f"(elapsed {elapsed:.2f}s)", ok and elapsed < 20.0)


def test_criterion_4_mean_shift_conformance():
    summary = estimate_exits(REFERENCE, UNIT, 100_000, 7, levels=(2, 3, 5))
    rows = {r.quantity: r for r in conformance_rows(summary)}

    mu_row = rows["mean_exit_index_a"]
    tau_row = rows["mean_shift_time_a"]
    ok = mu_row.se < 0.01 and tau_row.se < 0.01
    ok &= abs(mu_row.mc_estimate - mu_row.analytic) <= max(
        3 * mu_row.se, 0.02 * mu_row.analytic
    )
    ok &= mu_row.verdict == "match"

    study = [rows[f"mean_exit_index_a[m={m}]"] for m in (2, 3, 5)]
    ok &= len(study) == 3
    ok &= all(r.verdict == "not-assertable" for r in study)
    # the documented anomaly: the closed form is flat in the threshold while
    # the simulated mean grows roughly linearly with it
    ok &= all(r.mc_estimate > r.analytic + 10 * r.se for r in study)
    _verdict("criterion 4: mean-shift conformance and threshold study", ok)


def test_criterion_5_functional_pipeline():
    ok = True
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            ok &= np.isfinite(
                phi_functional(m, n, TransformContext(), REFERENCE)
            )
    degenerate = ModelParams(0.0, 1.0, EXP1, EXP1)
    ok &= phi_functional(2, 2, TransformContext(), degenerate) == 0.0

    ctx = TransformContext(z=0.5, g=0.8, theta1=0.1)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            joint = d_extract_2d(phi_series(m, n, ctx, REFERENCE), (m, n))
            fx = axis_factor(m + 8, ctx.z, ctx.theta0, ctx.theta1, 1.0,
                             REFERENCE.mark_a, EXP1, EXP1)
            fy = axis_factor(n + 8, ctx.g, ctx.vartheta0, ctx.vartheta1, 1.0,
                             REFERENCE.mark_b, EXP1, EXP1)
            ok &= abs(joint - d_extract(fx, m) * d_extract(fy, n)) <= 1e-9

    # emit the operator-route vs empirical exit-index PGF comparison
    summary = estimate_exits(REFERENCE, UNIT, 50_000, 23)
    for z in (0.25, 0.5, 0.75):
        analytic = phi_functional(1, 1, TransformContext(z=z), REFERENCE)
        estimate, se = exit_mean_se(summary.a.index, z ** np.maximum(summary.a.index, 0),
                                    "the exit index")
        rel = abs(estimate - analytic) / analytic
        verdict = "match" if abs(estimate - analytic) <= 3 * se else "deviation"
        print(f"  index PGF z={z}: operator {analytic:.6f} vs MC "
              f"{estimate:.6f} (se {se:.2g}) -> {verdict} (rel dev {rel:.3f})")
        ok &= np.isfinite(analytic)
    _verdict("criterion 5: joint-functional pipeline", ok)


def test_criterion_6_bcg_golden_table():
    matrix = bcg_matrix()
    golden = [
        ((0.0, 10.0), "Dogs"),        # both boundaries, low side
        ((0.0, 5.0), "Dogs"),
        ((-9.7, 5.0), "Dogs"),
        ((-50.0, 10.0), "Dogs"),
        ((5.0, 8.0), "Cows"),
        ((30.1, 10.0), "Cows"),       # growth boundary stays low row
        ((0.1, 9.9), "Cows"),
        ((17.6, 12.0), "Question Marks"),  # share boundary, low side
        ((10.0, 12.0), "Question Marks"),
        ((0.0, 10.1), "Question Marks"),
        ((30.1, 15.0), "Stars"),
        ((17.7, 10.1), "Stars"),
    ]
    ok = all(classify(a, b, matrix) == label for (a, b), label in golden)
    _verdict("criterion 6: growth-share golden table (12 cases)", ok)


def test_criterion_7_scale_reconstruction():
    ok = abs(bcg_scale(1.5) - 17.6) <= 0.05 and bcg_scale(1.0) == 0.0
    _verdict("criterion 7: share-axis scale reconstruction", ok)


def test_criterion_8_determinism_and_exit_codes(tmp_path, monkeypatch):
    doc = {
        "process": {"lambda_a": 1.0, "lambda_b": 1.0},
        "observation": {"family": "exponential", "initial_mean": 1.0,
                        "interval_mean": 1.0},
        "thresholds": {"m": 1, "n": 1},
        "matrix": {"mode": "row-dependent"},
        "simulation": {"paths": 5000, "seed": 11},
        "output": {"directory": "out"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))

    artifacts = {}
    for run in ("run1", "run2"):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / run))
        assert cli.main(["simulate", str(cfg)]) == 0
        assert cli.main(["conformance", str(cfg)]) == 0
        artifacts[run] = {
            name: (tmp_path / run / name).read_bytes()
            for name in ("histogram_mu.csv", "histogram_nu.csv",
                         "summary.json", "conformance.csv", "conformance.json")
        }
    ok = artifacts["run1"] == artifacts["run2"]

    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
    ok &= cli.main(["simulate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok &= cli.main(["simulate", str(bad)]) == 3
    ok &= cli.main(["classify", str(cfg), "--share", "-2", "--growth", "1"]) == 4

    import strategyshift.report as report
    real = report.axis_means

    def wrong(params, intensity):
        return (50.0, *real(params, intensity)[1:])

    monkeypatch.setattr(report, "axis_means", wrong)
    ok &= cli.main(["conformance", str(cfg)]) == 5
    _verdict("criterion 8: determinism, formats, exit-code contract", ok)


def test_criterion_9_suite_runtime():
    elapsed = time.perf_counter() - conftest.SESSION_START
    _verdict(f"criterion 9: suite runtime {elapsed:.1f}s < 300s", elapsed < 300.0)
