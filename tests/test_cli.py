import json
import math
from pathlib import Path

import pytest

from strategyshift import cli
from strategyshift import config as config_mod
from strategyshift.errors import ConfigError

REFERENCE_DOC = {
    "process": {"lambda_a": 1.0, "lambda_b": 1.0},
    "observation": {"family": "exponential", "initial_mean": 1.0, "interval_mean": 1.0},
    "thresholds": {"m": 1, "n": 1},
    "matrix": {"mode": "row-dependent"},
    "simulation": {"paths": 5000, "seed": 11},
    "output": {"directory": "out"},
}


#: Every numeric entry set, so each can be corrupted in turn.
FULL_DOC = {
    "process": {"lambda_a": 1.0, "lambda_b": 1.0,
                "mark_a": {"family": "fixed", "value": 2},
                "mark_b": {"family": "geometric", "p": 0.5}},
    "observation": {"family": "exponential", "initial_mean": 2.0, "interval_mean": 1.0},
    "thresholds": {"m": 2, "n": 3},
    "matrix": {"mode": "row-dependent", "a_threshold_low": 0.0,
               "a_threshold_high": 17.6, "b_threshold": 10.0, "scale_factor": 100.0},
    "simulation": {"paths": 1000, "seed": 5, "horizon": 500},
    "output": {"directory": "out"},
}

NUMERIC_FIELDS = [
    "process.lambda_a", "process.lambda_b", "process.mark_a.value",
    "process.mark_b.p", "observation.initial_mean", "observation.interval_mean",
    "thresholds.m", "thresholds.n", "matrix.a_threshold_low",
    "matrix.a_threshold_high", "matrix.b_threshold", "matrix.scale_factor",
    "matrix.m", "matrix.n", "simulation.paths", "simulation.seed",
    "simulation.horizon",
]

INTEGER_FIELDS = ["process.mark_a.value", "thresholds.m", "thresholds.n",
                  "simulation.paths", "simulation.seed", "simulation.horizon"]


def _doc_with(field, value):
    doc = json.loads(json.dumps(FULL_DOC))
    if field in ("matrix.m", "matrix.n"):
        doc["matrix"] = {"mode": "uniform", "m": 1.0, "n": 1.0}
    *path, key = field.split(".")
    block = doc
    for name in path:
        block = block[name]
    block[key] = value
    return doc


@pytest.fixture
def config_file(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    return path


class TestConfig:
    def test_roundtrip_is_idempotent(self):
        cfg = config_mod.from_dict(REFERENCE_DOC)
        once = config_mod.dumps(cfg)
        twice = config_mod.dumps(config_mod.from_dict(json.loads(once)))
        assert once == twice

    def test_unknown_block_rejected(self):
        doc = dict(REFERENCE_DOC, extra={})
        with pytest.raises(ConfigError):
            config_mod.from_dict(doc)

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_c"] = 1.0
        with pytest.raises(ConfigError):
            config_mod.from_dict(doc)

    def test_missing_block_names_field(self):
        doc = {k: v for k, v in REFERENCE_DOC.items() if k != "thresholds"}
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(doc)
        assert excinfo.value.field == "thresholds"

    def test_invalid_mean_rejected(self):
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["observation"]["interval_mean"] = 0.0
        with pytest.raises(ConfigError):
            config_mod.from_dict(doc)

    def test_full_doc_accepted(self):
        config_mod.from_dict(FULL_DOC)
        config_mod.from_dict(_doc_with("matrix.m", 2.5))
        assert config_mod.from_dict(_doc_with("thresholds.m", 4.0)).thresholds.m == 4.0

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None])
    def test_bad_number_rejected(self, field, value):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, value))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_fractional_count_rejected(self, field):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, 1.5))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field, bound", [
        ("thresholds.m", config_mod.MAX_THRESHOLD),
        ("thresholds.n", config_mod.MAX_THRESHOLD),
        ("simulation.paths", config_mod.MAX_PATHS),
        ("simulation.horizon", config_mod.MAX_HORIZON),
        ("process.mark_a.value", config_mod.MAX_MARK_VALUE),
    ])
    def test_size_field_bounded(self, field, bound):
        config_mod.from_dict(_doc_with(field, bound))
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, bound + 1))
        assert excinfo.value.field == field

    def test_negative_seed_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with("simulation.seed", -1))
        assert excinfo.value.field == "simulation.seed"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(_doc_with("simulation.seed", -1)))
        for command in ("simulate", "conformance"):
            assert cli.main([command, str(path)]) == 3

    def test_uniform_matrix_mode(self):
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["matrix"] = {"mode": "uniform", "m": 2.0, "n": 3.0}
        cfg = config_mod.from_dict(doc)
        assert cfg.matrix.a_threshold_low == cfg.matrix.a_threshold_high == 2.0


class TestExitCodes:
    def test_simulate_ok(self, config_file):
        assert cli.main(["simulate", str(config_file)]) == 0

    @pytest.mark.parametrize("field, value, commands", [
        ("thresholds.m", 1e15, ("analyze",)),
        ("simulation.paths", 1e300, ("simulate",)),
        ("simulation.horizon", 1e19, ("simulate", "conformance")),
        ("process.mark_a.value", 1e300, ("simulate", "conformance")),
    ])
    def test_oversized_field_exit_code(self, tmp_path, monkeypatch, capsys,
                                       field, value, commands):
        # Each of these once ran into an allocation or int64 overflow.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(_doc_with(field, value)))
        for command in commands:
            assert cli.main([command, str(path)]) == 3
            assert f"(field: {field})" in capsys.readouterr().err

    def test_non_finite_config_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(_doc_with("process.lambda_a", math.nan)))
        for command in ("simulate", "analyze"):
            assert cli.main([command, str(bad)]) == 3
        assert "process.lambda_a" in capsys.readouterr().err
        assert not (tmp_path / "out" / "analysis.json").exists()

    def test_zero_intensity_simulate_fails_fast(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_b"] = 0.0
        doc["simulation"]["paths"] = 20_000
        path = tmp_path / "static.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path)]) == 4

    def test_missing_config(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        bad = tmp_path / "bad.json"
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["simulation"]["typo"] = 1
        bad.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(bad)]) == 3

    def test_corrupted_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["conformance", str(bad)]) == 3

    def test_domain_error(self, config_file):
        assert cli.main(["classify", str(config_file), "--share", "-1",
                         "--growth", "5"]) == 4

    def test_conformance_ok(self, config_file):
        assert cli.main(["conformance", str(config_file)]) == 0

    def test_conformance_deviation(self, config_file, monkeypatch):
        # force an assertably wrong closed form to exercise exit code 5
        import strategyshift.report as report

        real = report.expected_exit_index

        def wrong(params):
            return 50.0, real(params)[1]

        monkeypatch.setattr(report, "expected_exit_index", wrong)
        assert cli.main(["conformance", str(config_file)]) == 5

    @pytest.mark.parametrize("field, value", [
        ("observation.initial_mean", 1e300),
        ("observation.interval_mean", 1e300),
        ("process.lambda_a", 1e300),
        ("process.mark_a", {"family": "geometric", "p": 1e-300}),
    ])
    def test_huge_expected_count_is_a_domain_error(self, tmp_path, monkeypatch,
                                                   capsys, field, value):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        block, key = field.split(".")
        doc[block][key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for command in ("simulate", "conformance"):
            capsys.readouterr()
            assert cli.main([command, str(path)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestArtifacts:
    def test_classify_share_flags(self, config_file, capsys):
        assert cli.main(["classify", str(config_file), "--share", "2.0",
                         "--growth", "15"]) == 0
        assert capsys.readouterr().out.strip() == "Stars"

    def test_classify_raw_levels_uniform(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["matrix"] = {"mode": "uniform", "m": 0.0, "n": 0.0}
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", str(path), "--a", "0", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "I"

    def test_simulate_writes_contracted_files(self, config_file, tmp_path):
        cli.main(["simulate", str(config_file)])
        out = tmp_path / "out"
        header = (out / "histogram_mu.csv").read_text().splitlines()[0]
        assert header == "index,count,probability"
        summary = json.loads((out / "summary.json").read_text())
        assert {"mean_mu", "se_mu", "n_paths"} <= set(summary)

    def test_conformance_simulates_once(self, config_file, tmp_path, monkeypatch):
        from strategyshift import oracle, report
        from strategyshift.transforms import TransformContext

        summaries = []
        real = oracle.estimate_exits

        def counting(*args, **kwargs):
            summaries.append(real(*args, **kwargs))
            return summaries[-1]

        for module in (cli, oracle, report):
            if hasattr(module, "estimate_exits"):
                monkeypatch.setattr(module, "estimate_exits", counting)
        assert cli.main(["conformance", str(config_file)]) == 0
        assert len(summaries) == 1

        # the study rows and the joint functional come from that one sample
        rows = {r["quantity"]: r for r in json.loads(
            (tmp_path / "out" / "conformance.json").read_text())}
        study = [r for r in rows if "[m=" in r]
        assert len(study) == len(report.STUDY_LEVELS)
        for level in report.STUDY_LEVELS:
            idx = summaries[0].exit_index_a(level)
            est, se = oracle.sample_mean_se(idx[idx >= 0].astype(float), "mu")
            row = rows[f"mean_exit_index_a[m={level}]"]
            assert row["mc_estimate"] == report._round12(est)
            assert row["se"] == report._round12(se)
        est, se = oracle.empirical_functional(summaries[0], TransformContext.neutral())
        assert rows["joint_functional"]["mc_estimate"] == report._round12(est)
        assert rows["joint_functional"]["se"] == report._round12(se)

    def test_conformance_csv_header(self, config_file, tmp_path):
        cli.main(["conformance", str(config_file)])
        header = (tmp_path / "out" / "conformance.csv").read_text().splitlines()[0]
        assert header == "quantity,paper_ref,analytic,mc_estimate,se,rel_dev,verdict"

    def test_analyze_reports_closed_forms(self, config_file, tmp_path):
        assert cli.main(["analyze", str(config_file)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["means"]["a"]["shift_time_mean"] == 1.0
        assert report["index_pgf_closed"]["note"] == "singular"

    def test_analyze_shift_time_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_a"] = 0.5
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["means"]["a"]["shift_time_mean"] == 2.0

    def test_analyze_static_axis(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_a"] = 0.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["means"]["a"]["shift_time_mean"] == "no shift predicted"

    def test_analyze_deterministic_needs_memoryless(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["observation"]["family"] = "deterministic"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["index_pgf_closed"]["note"] == (
            "requires memoryless observation intervals"
        )

    def test_conformance_deterministic_intervals(self, tmp_path, monkeypatch):
        # The memoryless closed-form PGF rows are labelled, not fatal.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["observation"]["family"] = "deterministic"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["conformance", str(path)]) == 0
        rows = json.loads((tmp_path / "out" / "conformance.json").read_text())
        closed = [r for r in rows if r["quantity"].startswith("index_pgf_closed_a")]
        assert len(closed) == 3
        for row in closed:
            assert row["analytic"] == "requires memoryless observation intervals"
            assert row["verdict"] == "not-assertable"

    def test_json_writers_refuse_nan(self, tmp_path):
        import dataclasses

        from strategyshift.report import ConformanceRow, rows_to_json

        nan = float("nan")
        target = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            cli._write_json(target, {"mean_mu": nan})
        assert not target.exists()
        row = ConformanceRow("q", "ref", 1.0, nan, 0.1, None, "not-assertable")
        with pytest.raises(ValueError):
            rows_to_json([row])
        cfg = config_mod.from_dict(REFERENCE_DOC)
        with pytest.raises(ValueError):
            config_mod.dumps(dataclasses.replace(cfg, scale_factor=nan))

    @staticmethod
    def _clear_series_caches():
        from strategyshift import analytics, transforms

        transforms._gamma_series.cache_clear()
        analytics._axis_factor.cache_clear()

    def test_analyze_expands_each_series_once(self, tmp_path, monkeypatch):
        from strategyshift.series import TruncatedSeries

        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = _doc_with("thresholds.m", 200)
        doc["thresholds"]["n"] = 200
        doc["observation"]["family"] = "deterministic"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))

        orders = []
        real = TruncatedSeries.exp

        def counting(self):
            orders.append(self.order)
            return real(self)

        monkeypatch.setattr(TruncatedSeries, "exp", counting)
        self._clear_series_caches()
        assert cli.main(["analyze", str(path)]) == 0
        # one expansion per interval (initial, later) per axis at the top order
        assert orders.count(200) == 4
        calls = len(orders)
        assert cli.main(["analyze", str(path)]) == 0
        assert len(orders) == calls

    def test_series_cache_does_not_leak_between_configs(self, tmp_path, monkeypatch):
        x = _doc_with("observation.initial_mean", 3.0)
        x["observation"]["family"] = "deterministic"
        y = _doc_with("process.lambda_a", 0.4)
        y["process"]["mark_a"] = {"family": "geometric", "p": 0.3}
        outputs = []

        def analyze(doc):
            out = tmp_path / f"run{len(outputs)}"
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
            path = out.with_suffix(".json")
            path.write_text(json.dumps(doc))
            assert cli.main(["analyze", str(path)]) == 0
            outputs.append((out / "analysis.json").read_bytes())
            return outputs[-1]

        self._clear_series_caches()
        fresh_y = analyze(y)
        self._clear_series_caches()
        first_x, then_y, again_x = analyze(x), analyze(y), analyze(x)
        assert again_x == first_x
        assert then_y == fresh_y != first_x

    def test_byte_identical_reruns(self, config_file, tmp_path, monkeypatch):
        def run_into(d):
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(d))
            assert cli.main(["simulate", str(config_file)]) == 0
            assert cli.main(["conformance", str(config_file)]) == 0

        run_into(tmp_path / "run1")
        run_into(tmp_path / "run2")
        for name in ("histogram_mu.csv", "histogram_nu.csv", "summary.json",
                     "conformance.csv", "conformance.json"):
            b1 = (tmp_path / "run1" / name).read_bytes()
            b2 = (tmp_path / "run2" / name).read_bytes()
            assert b1 == b2, name


def test_runtime_needs_numpy_only():
    # A fresh interpreter importing the CLI may add numpy, the package itself
    # and standard-library modules, nothing else.
    import os
    import subprocess
    import sys

    import strategyshift

    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import strategyshift.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(strategyshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert set(json.loads(result.stdout)) <= {"numpy", "strategyshift"}
