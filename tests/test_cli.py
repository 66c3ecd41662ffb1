import ast
import itertools
import json
import math
import re
from pathlib import Path

import pytest

from literal import config_leaves
from strategyshift import cli
from strategyshift import config as config_mod
from strategyshift.errors import ConfigError, DomainError, StrategyShiftError

REFERENCE_DOC = {
    "process": {"lambda_a": 1.0, "lambda_b": 1.0},
    "observation": {"family": "exponential", "initial_mean": 1.0, "interval_mean": 1.0},
    "thresholds": {"m": 1, "n": 1},
    "matrix": {"mode": "row-dependent"},
    "simulation": {"paths": 5000, "seed": 11},
    "output": {"directory": "out"},
}


#: Every entry of the config table set, so each can be corrupted in turn.
#: Written out by hand: a field dropped from or renamed in the table fails
#: ``test_full_doc_sets_every_table_entry``.
FULL_DOC = {
    "process": {"lambda_a": 1.0, "lambda_b": 1.0,
                "mark_a": {"family": "fixed", "value": 2, "p": 0.5},
                "mark_b": {"family": "geometric", "value": 1, "p": 0.5}},
    "observation": {"family": "exponential", "initial_mean": 2.0, "interval_mean": 1.0},
    "thresholds": {"m": 2, "n": 3},
    "matrix": {"mode": "row-dependent", "labels": ["Dogs", "Cows", "Stars", "Question Marks"],
               "m": 1.0, "n": 1.0, "a_threshold_low": 0.0,
               "a_threshold_high": 17.6, "b_threshold": 10.0},
    "simulation": {"paths": 1000, "seed": 5, "horizon": 500},
    "output": {"directory": "out"},
}

LEAVES = dict(config_leaves())

NUMERIC_FIELDS = [f for f, e in LEAVES.items() if e.kind in ("number", "integer")]

INTEGER_FIELDS = [f for f, e in LEAVES.items() if e.kind == "integer"]

#: (field, upper bound) of every entry the table bounds from above.
BOUNDED_FIELDS = [(f, e.le) for f, e in LEAVES.items() if e.le is not None]
#: The upper bounds that README's config table documents, by key.
DOCUMENTED_BOUNDS = {"value": 10**9, "p": 1, "m": 20_000, "n": 20_000,
                     "paths": 1_000_000, "horizon": 10**9}
#: (field, inclusive lower bound) of every entry the table bounds from below.
FLOORED_FIELDS = [(f, e.ge) for f, e in LEAVES.items() if e.ge is not None]
#: The inclusive lower bounds that README's config table documents, by key.
DOCUMENTED_FLOORS = {"lambda_a": 0, "lambda_b": 0, "value": 0, "m": 0, "n": 0,
                     "paths": 1, "seed": 0, "horizon": 1}


def _block_of(doc, field):
    """(the dict holding ``field`` in ``doc``, the field's own key)."""
    *path, key = field.split(".")
    for name in path:
        doc = doc[name]
    return doc, key


def _doc_with(field, value):
    doc = json.loads(json.dumps(FULL_DOC))
    block, key = _block_of(doc, field)
    block[key] = value
    return doc


@pytest.fixture
def config_file(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    return path


class TestConfig:
    def test_unknown_block_rejected(self):
        doc = dict(REFERENCE_DOC, extra={})
        with pytest.raises(ConfigError):
            config_mod.from_dict(doc)

    def test_unknown_key_rejected(self):
        # output.formats and matrix.scale_factor were once config fields.
        for block, key, value in (("process", "lambda_c", 1.0),
                                  ("output", "formats", ["csv", "json"]),
                                  ("matrix", "scale_factor", 100.0)):
            doc = json.loads(json.dumps(REFERENCE_DOC))
            doc[block][key] = value
            with pytest.raises(ConfigError) as excinfo:
                config_mod.from_dict(doc)
            assert excinfo.value.field == block

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

    def test_deeply_nested_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            config_mod.load(path)

    def test_full_doc_sets_every_table_entry(self):
        def leaves(doc, path=""):
            for key, value in doc.items():
                field = f"{path}.{key}" if path else key
                yield from leaves(value, field) if isinstance(value, dict) else [field]

        assert sorted(leaves(FULL_DOC)) == sorted(LEAVES)

    def test_readme_table_lists_every_table_entry(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| field | kind | default | bounds |") + 2
        fields = set()
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                fields.update(name.replace("mark_*", mark) for mark in ("mark_a", "mark_b"))
        assert fields == set(LEAVES)

    def test_full_doc_accepted(self):
        config_mod.from_dict(FULL_DOC)
        config_mod.from_dict(_doc_with("matrix.m", 2.5))
        assert config_mod.from_dict(_doc_with("thresholds.m", 4.0)).thresholds.m == 4.0

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None,
                                       "1.5", "3", True, False])
    def test_bad_number_rejected(self, field, value):
        # float() reads "1.5" and true; a config holds JSON numbers only.
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, value))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_fractional_count_rejected(self, field):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, 1.5))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field, floor", FLOORED_FIELDS)
    def test_field_bounded_below(self, field, floor):
        assert floor == DOCUMENTED_FLOORS[field.rpartition(".")[2]]
        config_mod.from_dict(_doc_with(field, floor))
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, floor - 1))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field, bound", BOUNDED_FIELDS)
    def test_size_field_bounded(self, field, bound):
        assert bound == DOCUMENTED_BOUNDS[field.rpartition(".")[2]]
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

    @pytest.mark.parametrize("field, value", [
        ("matrix.labels", 5), ("matrix.labels", "ABCD"), ("matrix.labels", [1, 2, 3, 4]),
    ])
    def test_string_list_field_rejected(self, tmp_path, monkeypatch, capsys,
                                        field, value):
        # A string or a number was once split into characters or crashed.
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, value))
        assert excinfo.value.field == field
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(_doc_with(field, value)))
        assert cli.main(["simulate", str(path)]) == 3
        assert f"(field: {field})" in capsys.readouterr().err

    def test_uniform_matrix_mode(self):
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["matrix"] = {"mode": "uniform", "m": 2.0, "n": 3.0}
        cfg = config_mod.from_dict(doc)
        assert cfg.matrix.a_threshold_low == cfg.matrix.a_threshold_high == 2.0

    @pytest.mark.parametrize("field", sorted(LEAVES))
    def test_every_entry_names_its_field(self, field):
        # An object is no valid value of any kind of entry.
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, {}))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field, selector", [
        *[(f, None) for f, e in LEAVES.items() if e.default is config_mod.REQUIRED],
        ("process.mark_a.value", None), ("process.mark_b.p", None),
        ("matrix.m", ("matrix.mode", "uniform")), ("matrix.n", ("matrix.mode", "uniform")),
    ])
    def test_missing_entry_names_its_field(self, field, selector):
        # value and p are required by the fixed and geometric marks of
        # FULL_DOC, m and n by a uniform matrix.
        doc = _doc_with(*selector) if selector else json.loads(json.dumps(FULL_DOC))
        block, key = _block_of(doc, field)
        del block[key]
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(doc)
        assert excinfo.value.field == field
        path = field.rpartition(".")[0]
        assert str(excinfo.value) == f"missing required key {key!r} in block {path!r}"

    @pytest.mark.parametrize("field, choices", [
        ("process.mark_a.family", ("unit", "fixed", "geometric")),
        ("observation.family", ("exponential", "deterministic")),
    ])
    def test_unknown_family_lists_its_choices(self, field, choices):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, "poisson"))
        assert str(excinfo.value) == (
            f"{field} must be a string in {choices}, got 'poisson'")

    @pytest.mark.parametrize("block", [*sorted(config_mod.SCHEMA),
                                       "process.mark_a", "process.mark_b"])
    @pytest.mark.parametrize("value", [5, None, []])
    def test_block_that_is_no_object_names_its_block(self, block, value):
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(block, value))
        assert excinfo.value.field == block

    @pytest.mark.parametrize("field, value", [
        ("process.lambda_a", -1), ("process.lambda_b", -1e-300),
        ("observation.initial_mean", 0), ("observation.interval_mean", -1.0),
        ("observation.family", "expo"), ("thresholds.m", -1), ("thresholds.n", -1),
        ("process.mark_a.family", "poisson"), ("process.mark_a.value", -1),
        ("process.mark_b.p", 2), ("process.mark_b.p", 0), ("matrix.mode", "diagonal"),
    ])
    def test_model_range_rejection_names_its_field(self, field, value):
        # These were once refused by the model constructors, with no field
        # or only the mark's.
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(_doc_with(field, value))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("path, value, field", [
        ("process.mark_a", {"family": "unit", "value": "x", "p": "y"},
         "process.mark_a.value"),
        ("matrix", {"mode": "uniform", "m": 1, "n": 1, "a_threshold_low": "zz"},
         "matrix.a_threshold_low"),
        ("matrix", {"m": "zz"}, "matrix.m"),
        ("output.directory", 5, "output.directory"),
        ("output.directory", None, "output.directory"),
        ("observation.family", ["exponential"], "observation.family"),
        ("process.mark_a", None, "process.mark_a"),
        ("matrix", None, "matrix"),
    ])
    def test_unread_value_is_still_checked(self, tmp_path, monkeypatch, capsys,
                                           path, value, field):
        # A value the chosen mark family or matrix mode does not read, or a
        # non-string directory, was once accepted and silently ignored.
        doc = _doc_with(path, value)
        with pytest.raises(ConfigError) as excinfo:
            config_mod.from_dict(doc)
        assert excinfo.value.field == field
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        config = tmp_path / "unread.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(config)]) == 3
        assert f"(field: {field})" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, level_a, level_b, label", [
        ({"a_threshold_low": 5.0, "a_threshold_high": 1.0}, 3.0, 11.0, "Stars"),
        ({"a_threshold_low": 5.0, "a_threshold_high": 1.0}, 3.0, 5.0, "Dogs"),
        ({"a_threshold_high": -50.0, "b_threshold": -1e308}, -49.0, -1e307, "Stars"),
        ({"mode": "uniform", "m": -5, "n": 1e308}, -4.0, 1e300, "II"),
    ])
    def test_cut_points_are_any_finite_number(self, matrix, level_a, level_b, label):
        # classify is pure geometry on a log-share axis: inverted, negative
        # and extreme cut points are all meaningful.
        doc = dict(REFERENCE_DOC, matrix=matrix)
        assert cli.classify(level_a, level_b, config_mod.from_dict(doc).matrix) == label


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

    @pytest.mark.parametrize("field, value", [
        ("process.lambda_a", "1.5"), ("thresholds.m", "3"), ("process.lambda_b", True),
    ])
    def test_number_given_as_string_or_boolean_exit_code(self, tmp_path, monkeypatch,
                                                         capsys, field, value):
        # Each of these once ran every command as the number float() read.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(_doc_with(field, value)))
        for command in ("simulate", "analyze", "conformance"):
            assert cli.main([command, str(path)]) == 3
            assert f"(field: {field})" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("thresholds.m", 10 ** 400),  # an int float() cannot hold
        ("matrix.labels", ["Dogs", "Cows", "Stars"]),
    ], ids=["400-digit-threshold", "three-labels"])
    def test_unrepresentable_field_exit_code(self, tmp_path, monkeypatch, capsys,
                                             field, value):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_doc_with(field, value)))
        for command in ("simulate", "analyze", "conformance"):
            assert cli.main([command, str(path)]) == 3
            assert f"(field: {field})" in capsys.readouterr().err

    def test_overflowing_closed_form_mean_exit_code(self, tmp_path, monkeypatch, capsys):
        # 1 / (delta * lambda) at the smallest subnormal lambda is inf.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_a"] = 5e-324
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 4
        assert "closed-form means overflow" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags, code", [
        (["--a", "nan", "--b", "nan"], 4),
        (["--share", "nan", "--growth", "12"], 4),
        (["--share", "inf", "--growth", "5"], 4),
        (["--share", "1.5", "--growth=-inf"], 4),
        # Two flags on one axis: argparse's usage error.
        (["--share", "1.5", "--growth", "12", "--a", "-100", "--b", "-100"], 2),
        (["--growth", "12", "--a", "1", "--b", "1"], 2),
    ], ids=[f"flags{i}" for i in range(6)])
    def test_classify_rejects_non_finite_and_mixed(self, config_file, capsys,
                                                   flags, code):
        assert cli.main(["classify", str(config_file), *flags]) == code
        out, err = capsys.readouterr()
        assert out == ""
        if code == 2:
            assert err.startswith("usage: strategyshift classify")
            assert err.splitlines()[-1].startswith("strategyshift classify: error: ")
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, code", [
        (["--share", "2"], 2),
        (["--growth", "5"], 2),
        ([], 2),
        (["--a", "1", "--share", "2", "--b", "0"], 2),
        (["--share", "2", "--b", "15"], 3),
        (["--a", "5", "--growth", "15"], 3),
    ])
    def test_classify_axis_flags_are_checked_before_the_config(self, tmp_path,
                                                              flags, code):
        # A missing or doubled axis exits 2 without reading the config; with
        # one flag per axis, in either form, the invalid config is read (3).
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_doc_with("thresholds.m", 1.5)))
        assert cli.main(["classify", str(bad), *flags]) == code

    @pytest.mark.parametrize("flags, rc, out", [
        (["--share", "1.5", "--growth", "-1e3"], 0, "Cows\n"),
        (["--a", "-inf", "--b", "0"], 4, ""),
    ])
    def test_classify_negative_value_after_space(self, config_file, capsys,
                                                 flags, rc, out):
        # "-1e3" and "-inf" are values, exactly as in the "--flag=value" form.
        joined = [flags[0] + "=" + flags[1], *flags[2:]]
        results = []
        for argv in (flags, joined):
            results.append((cli.main(["classify", str(config_file), *argv]),
                            *capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][:2] == (rc, out)

    def test_conformance_ok(self, config_file):
        assert cli.main(["conformance", str(config_file)]) == 0

    def test_conformance_deviation(self, config_file, monkeypatch, capsys):
        # force an assertably wrong closed form to exercise exit code 5;
        # report binds axis_means at import, so it is patched there
        import strategyshift.report as report

        real = report.axis_means

        def wrong(params, intensity):
            return (50.0, *real(params, intensity)[1:])

        monkeypatch.setattr(report, "axis_means", wrong)
        assert cli.main(["conformance", str(config_file)]) == 5
        # both gated exit-index means deviate, and the summary line counts them
        rows = json.loads((config_file.parent / "out" / "conformance.json").read_text())
        assert [r["quantity"] for r in rows if r["verdict"] == "deviation"] == [
            "mean_exit_index_a", "mean_exit_index_b"]
        assert ", 2 deviation(s) -> " in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [
        ("observation.initial_mean", 1e300),
        ("observation.interval_mean", 1e300),
        ("observation.initial_mean", 1.7e308),
    ])
    def test_huge_expected_count_is_a_domain_error(self, tmp_path, monkeypatch,
                                                   capsys, field, value):
        # Epochs near 1e300 overflow the squares behind a standard error;
        # near 1.7e308 some overflow to inf themselves.
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
            assert err.startswith("error: ") and "not a finite float" in err
            assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("fields, mean_mu, conformance_rc", [
        # every crossing lies near 1e-300, before the first epoch
        ({"process.lambda_a": 1e300}, 0.0, 0),
        # level 1 is reached at the first arrival, whatever its mark
        ({"process.mark_a": {"family": "geometric", "p": 1e-300}}, 1.0, 0),
        # both crossings lie near 1e-154, before the one epoch 1e154
        ({"observation.family": "deterministic", "observation.initial_mean": 1e154,
          "observation.interval_mean": 1e154, "process.lambda_a": 1e154,
          "process.lambda_b": 1e154}, 0.0, 4),
    ])
    def test_huge_intensity_or_mark_simulates_its_exit_law(
            self, tmp_path, monkeypatch, capsys, fields, mean_mu, conformance_rc):
        # No increment is drawn after a crossing, so a huge expected count
        # leaves simulate with the exit law.  At lambda_a = 1e300 every path
        # exits at index 0: a sample with SE 0 gates nothing, so the
        # closed-form mean 1e-300 is not-assertable against it and
        # conformance exits 0.  The deterministic case's series argument
        # overflows analyze's side.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        for field, value in fields.items():
            block, key = field.split(".")
            doc[block][key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["censored_a"] == summary["censored_b"] == 0
        assert abs(summary["mean_mu"] - mean_mu) <= 3 * summary["se_mu"]
        capsys.readouterr()
        assert cli.main(["conformance", str(path)]) == conformance_rc
        # exits 0 and 5 print no error line, exit 4 prints one
        assert capsys.readouterr().err.count("\n") == (1 if conformance_rc == 4 else 0)

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("family, fields", [
        ("exponential", {"interval_mean": 1e300, "lambda_a": 1e300}),
        ("deterministic", {"interval_mean": 1e300, "lambda_a": 1e300}),
        ("deterministic", {"initial_mean": 1e154, "interval_mean": 1e154,
                           "lambda_a": 1e154, "lambda_b": 1e154}),
        ("exponential", {"initial_mean": 1e154, "interval_mean": 1e154,
                         "lambda_a": 1e154, "lambda_b": 1e154}),
        ("exponential", {"interval_mean": 1e-300, "lambda_a": 1e-300}),
        ("deterministic", {"interval_mean": 1e-300, "lambda_a": 1e-300}),
    ])
    def test_overflowing_series_argument_is_a_domain_error(
            self, tmp_path, monkeypatch, capsys, family, fields):
        # interval mean times intensity overflows the series argument (1e300)
        # or its absolute coefficient sum (1e154), or underflows to 0
        # (1e-300), where a crossing lies more epochs out than a float can
        # count; simulate's epochs near 1e300, or exponential ones near
        # 1e154, overflow the squares behind a standard error
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["observation"]["family"] = family
        for key, value in fields.items():
            doc["process" if key.startswith("lambda") else "observation"][key] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        commands = ("simulate", "analyze", "conformance")
        if fields.get("lambda_b") == 1e154:
            # The exponential series' reciprocal is finite, so analyze
            # succeeds.  The deterministic one's epochs all lie at 1e154,
            # whose square fits, so simulate succeeds (its answer is checked
            # in test_huge_intensity_or_mark_simulates_its_exit_law).
            commands = {"exponential": ("simulate", "conformance"),
                        "deterministic": ("analyze", "conformance")}[family]
        for command in commands:
            capsys.readouterr()
            assert cli.main([command, str(path)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "analysis.json").exists()

    @pytest.mark.parametrize("family, lambda_a", [("exponential", 1e-16),
                                                  ("deterministic", 1e-17)])
    def test_tiny_drift_analyzes(self, tmp_path, monkeypatch, family, lambda_a):
        # 1 - w G at w = 1 once rounded to 0 here, and analyze exited 4.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["observation"]["family"] = family
        doc["process"]["lambda_a"] = lambda_a
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert all(0.0 <= value < 1e-30 for value in report["index_pgf_operator"]["a"].values())

    def test_zero_intensity_b_at_zero_threshold(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_b"] = 0.0
        doc["thresholds"]["n"] = 0
        path = tmp_path / "static_b.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["means"]["b"] == dict.fromkeys(
            ("exit_index_mean", "shift_time_mean", "prior_time_mean"),
            "no shift predicted")
        assert report["means"]["a"]["exit_index_mean"] == 1.0
        # conformance reads the same note for axis B's three means, and each
        # of those rows is not-assertable instead of a domain error
        capsys.readouterr()
        assert cli.main(["conformance", str(path)]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "out" / "conformance.json").read_text())
        noted = [r for r in rows if r["analytic"] == "no shift predicted"]
        assert [r["quantity"] for r in noted] == [
            "mean_exit_index_b", "mean_shift_time_b", "mean_prior_time_b"]
        assert all(r["verdict"] == "not-assertable" and r["rel_dev"] is None
                   for r in noted)

    def test_zero_intensity_a_at_zero_threshold(self, tmp_path, monkeypatch, capsys):
        # simulate and analyze read only m = 0, where a static axis already
        # is; conformance also draws the study levels 2, 3 and 5, which a
        # static axis A never reaches.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_a"] = 0.0
        doc["thresholds"]["m"] = 0
        path = tmp_path / "static_a.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path)]) == 0
        assert cli.main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["conformance", str(path)]) == 4
        assert capsys.readouterr().err == (
            "error: axis A has zero drift (intensity times mean mark) and never "
            "reaches level 5\n")
        assert not (tmp_path / "out" / "conformance.json").exists()

    def test_zero_mark_b_at_zero_threshold(self, tmp_path, monkeypatch):
        # Zero drift, not zero intensity alone, keeps an axis still: fixed
        # marks of 0 give the operator route the same values as lambda_b = 0,
        # while the printed means stay literal (1 / (d * lambda)).
        def run(name, process):
            out = tmp_path / name
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
            doc = json.loads(json.dumps(REFERENCE_DOC))
            doc["process"].update(process)
            doc["thresholds"]["n"] = 0
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert cli.main(["analyze", str(path)]) == 0
            assert cli.main(["conformance", str(path)]) == 0
            report = json.loads((out / "analysis.json").read_text())
            rows = json.loads((out / "conformance.json").read_text())
            operator = [(r["quantity"], r["analytic"]) for r in rows
                        if r["quantity"].startswith(("index_pgf_operator", "joint"))]
            return (report["index_pgf_operator"], report["joint_functional"],
                    operator, report["means"]["b"]["exit_index_mean"])

        *zero_mark, mean = run("zero_mark", {"mark_b": {"family": "fixed", "value": 0}})
        *zero_intensity, note = run("zero_intensity", {"lambda_b": 0.0})
        assert zero_mark == zero_intensity
        assert (mean, note) == (1.0, "no shift predicted")

    def test_zero_drift_with_an_infinite_mark_mean(self, tmp_path, monkeypatch, capsys):
        # Geometric marks at p = 1e-310 have mean 1 / p = inf, so a drift
        # test of intensity times mean mark read NaN at lambda_b = 0: simulate
        # and conformance once died in a ZeroDivisionError (exit 1), and
        # analyze could not invert a series (exit 4).  The axis is still, as
        # at p = 0.5, and the analysis is the same.
        reference = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
        paths = []
        for p in (1e-310, 0.5):
            doc = json.loads(reference.read_text())
            doc["process"].update(lambda_b=0.0, mark_b={"family": "geometric", "p": p})
            paths.append(tmp_path / f"p{p}.json")
            paths[-1].write_text(json.dumps(doc))
        for command in ("simulate", "conformance"):
            out = tmp_path / command
            assert _run_in_process([command, str(paths[0])], out, monkeypatch, capsys) == (
                4, "", "error: axis B has zero drift (intensity times mean mark) and "
                "never reaches level 1\n")
            assert not any(out.iterdir())
        analyses = []
        for path in paths:
            out = tmp_path / f"analyze-{path.stem}"
            assert _run_in_process(["analyze", str(path)], out, monkeypatch, capsys)[0] == 0
            analyses.append((out / "analysis.json").read_bytes())
        assert analyses[0] == analyses[1]

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["classify", "CONFIG", "--share", "abc", "--growth", "5"],
    ])
    def test_usage_error_returns_2(self, config_file, capsys, argv):
        argv = [str(config_file) if arg == "CONFIG" else arg for arg in argv]
        assert cli.main(argv) == 2
        assert "usage: strategyshift" in capsys.readouterr().err


REPO = Path(__file__).resolve().parent.parent

#: Configs on which analyze and conformance must report the same closed forms.
AGREEMENT_DOCS = {
    "reference": json.loads((REPO / "configs" / "reference.json").read_text()),
    "deterministic": dict(
        REFERENCE_DOC,
        process={"lambda_a": 1.0, "lambda_b": 1.0,
                 "mark_a": {"family": "geometric", "p": 0.4}},
        observation={"family": "deterministic", "initial_mean": 2.0,
                     "interval_mean": 1.0},
        thresholds={"m": 5, "n": 3}),
    "exponential_d0_ne_d": dict(
        REFERENCE_DOC,
        process={"lambda_a": 1.0, "lambda_b": 1.0,
                 "mark_a": {"family": "geometric", "p": 0.4}},
        observation={"family": "exponential", "initial_mean": 2.0,
                     "interval_mean": 1.0},
        thresholds={"m": 4, "n": 3}),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_DOCS))
def test_analyze_and_conformance_report_the_same_closed_forms(
        tmp_path, monkeypatch, name):
    # The analytic column does not depend on the sample, so a small one does.
    doc = dict(AGREEMENT_DOCS[name], simulation={"paths": 2000, "seed": 7})
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 0
    assert cli.main(["conformance", str(path)]) == 0
    analysis = json.loads((tmp_path / "analysis.json").read_text())
    rows = {r["quantity"]: r["analytic"]
            for r in json.loads((tmp_path / "conformance.json").read_text())}

    means = analysis["means"]["a"]
    assert rows["mean_exit_index_a"] == means["exit_index_mean"]
    assert rows["mean_shift_time_a"] == means["shift_time_mean"]
    assert rows["mean_prior_time_a"] == means["prior_time_mean"]
    closed = analysis["index_pgf_closed"]
    for z, value in analysis["index_pgf_operator"]["a"].items():
        assert rows[f"index_pgf_operator_a[z={z}]"] == value
        assert rows[f"index_pgf_closed_a[z={z}]"] == (
            closed["note"] if "note" in closed else closed["a"][z])


REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


def _mean_verdicts(tmp_path, monkeypatch, **marks):
    """Exit code of ``conformance`` on configs/reference.json with the given
    ``mark_a``/``mark_b`` blocks, and the verdicts of its two gated rows."""
    doc = json.loads(REFERENCE_CONFIG.read_text())
    doc["process"].update(marks)
    out = tmp_path / ("_".join(sorted(marks)) or "plain")
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["conformance", str(path)])
    rows = {r["quantity"]: r["verdict"]
            for r in json.loads((out / "conformance.json").read_text())}
    return code, rows["mean_exit_index_a"], rows["mean_exit_index_b"]


@pytest.mark.parametrize("marks", [
    {"mark_a": {"family": "fixed", "value": 1}},
    {"mark_a": {"family": "geometric", "p": 0.3},
     "mark_b": {"family": "fixed", "value": 4}},
], ids=["fixed1-unit", "geometric-fixed4"])
def test_exit_mean_is_gated_whatever_the_marks(tmp_path, monkeypatch, marks):
    # At threshold 1 every mark (each at least 1) crosses at the first
    # arrival, so E[mu] = 1/(delta lambda) exactly and both rows are gated.
    assert _mean_verdicts(tmp_path, monkeypatch, **marks) == (0, "match", "match")


def test_axis_b_gate_ignores_axis_a_marks(tmp_path, monkeypatch):
    plain = _mean_verdicts(tmp_path, monkeypatch)
    geometric = _mean_verdicts(tmp_path, monkeypatch,
                               mark_a={"family": "geometric", "p": 0.3})
    assert plain[2] == geometric[2] == "match"


@pytest.fixture(scope="module")
def reference_artifacts(tmp_path_factory):
    """The output directory of simulate, analyze and conformance on
    configs/reference.json."""
    out = tmp_path_factory.mktemp("artifacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.OUTPUT_DIR_ENV, str(out))
        for command in ("simulate", "analyze", "conformance"):
            assert cli.main([command, str(REFERENCE_CONFIG)]) == 0
    return out


def _json_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _json_numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestArtifactContract:
    """Every artifact number carries 12 significant digits, and the two
    conformance files hold the same table."""

    @pytest.mark.parametrize("name", ["summary.json", "analysis.json", "conformance.json"])
    def test_json_numbers_are_rounded(self, reference_artifacts, name):
        numbers = list(_json_numbers(json.loads((reference_artifacts / name).read_text())))
        assert any(x != int(x) for x in numbers)
        for x in numbers:
            assert x == float(format(x, ".12g")), (name, x)

    @pytest.mark.parametrize("name", ["histogram_mu.csv", "histogram_nu.csv",
                                      "conformance.csv"])
    def test_csv_numbers_are_rounded(self, reference_artifacts, name):
        import csv

        with (reference_artifacts / name).open(newline="") as f:
            cells = [cell for row in list(csv.reader(f))[1:] for cell in row]
        numeric = [cell for cell in cells if _numeric(cell)]
        assert any("." in cell for cell in numeric)
        for cell in numeric:
            assert cell == format(float(cell), ".12g"), (name, cell)

    def test_conformance_csv_matches_json(self, reference_artifacts):
        import csv

        from strategyshift.report import ConformanceRow

        with (reference_artifacts / "conformance.csv").open(newline="") as f:
            csv_rows = list(csv.DictReader(f))
        json_rows = json.loads((reference_artifacts / "conformance.json").read_text())
        columns = list(ConformanceRow._fields)
        assert list(csv_rows[0]) == columns
        assert len(csv_rows) == len(json_rows) == 16
        for from_csv, from_json in zip(csv_rows, json_rows):
            assert sorted(from_json) == sorted(columns)
            for column, value in from_json.items():
                cell = from_csv[column]
                if value is None:
                    assert cell == ""
                elif isinstance(value, str):
                    assert cell == value
                else:
                    assert float(cell) == value and cell == format(value, ".12g")


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
        from strategyshift.analytics import TransformContext

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
        expected = {}
        for level in report.STUDY_LEVELS:
            idx = summaries[0].study_mu[level]
            expected[f"mean_exit_index_a[m={level}]"] = oracle.exit_mean_se(
                idx, idx, "mu")
        expected["joint_functional"] = oracle.empirical_functional(
            summaries[0], TransformContext())
        # the estimates as the artifact writer rounds them
        cli._write_json(tmp_path / "expected.json", expected)
        expected = json.loads((tmp_path / "expected.json").read_text())
        for quantity, (est, se) in expected.items():
            assert (rows[quantity]["mc_estimate"], rows[quantity]["se"]) == (est, se)

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

    def test_analyze_static_axis_a_with_unequal_means(self, tmp_path, monkeypatch):
        # d0 != d, so the closed-form PGF is not singular; lambda_a = 0 alone
        # makes it undefined, and analyze writes the note in its place.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        doc = json.loads(json.dumps(REFERENCE_DOC))
        doc["process"]["lambda_a"] = 0.0
        doc["observation"]["initial_mean"] = 2.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["index_pgf_closed"] == {"note": "no shift predicted"}

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
        from strategyshift.report import ConformanceRow

        nan = float("nan")
        target = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            cli._write_json(target, {"mean_mu": nan})
        assert not target.exists()
        # conformance.json is written from the rows as dicts
        row = ConformanceRow("q", "ref", 1.0, nan, 0.1, None, "not-assertable")
        target = tmp_path / "conformance.json"
        with pytest.raises(ValueError):
            cli._write_json(target, [row._asdict()])
        assert not target.exists()

    @staticmethod
    def _clear_series_caches():
        from strategyshift import analytics

        analytics.gamma_series.cache_clear()
        analytics.axis_factor.cache_clear()

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


def _loaded_after(command, modules, tmp_path):
    """Exit code of ``command`` on the reference config in a fresh
    interpreter, and which of ``modules`` it loaded."""
    import os
    import subprocess
    import sys

    import strategyshift

    code = (
        "import json, sys\n"
        "from strategyshift import cli\n"
        "code = cli.main([sys.argv[1], sys.argv[2]])\n"
        "print(json.dumps([code, [m for m in sys.argv[3:] if m in sys.modules]]))\n"
    )
    src = str(Path(strategyshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{cli.OUTPUT_DIR_ENV: str(tmp_path)})
    result = subprocess.run(
        [sys.executable, "-c", code, command, str(REPO / "configs" / "reference.json"),
         *modules],
        capture_output=True, text=True, check=True, env=env)
    return json.loads(result.stdout.splitlines()[-1])


def test_analyze_never_loads_the_simulator(tmp_path):
    # analyze reads only the closed forms; the Monte Carlo oracle is for
    # simulate and conformance.
    assert _loaded_after("analyze", ["strategyshift.oracle"], tmp_path) == [0, []]


def test_simulate_never_loads_the_series_code(tmp_path):
    # simulate draws exit records only; the power series and the closed forms
    # built on them are for analyze and conformance.
    modules = ["strategyshift.series", "strategyshift.analytics"]
    assert _loaded_after("simulate", modules, tmp_path) == [0, []]


#: The variables OpenBLAS reads its thread count from, first one first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("given", [None, "2"])
def test_cli_starts_numpy_with_one_blas_thread_unless_told(given):
    # Starting OpenBLAS's worker threads slows numpy's import, and no command
    # has work for them; a value the user gives is kept.
    import os
    import subprocess
    import sys

    import strategyshift

    code = (
        "import json, os\n"
        "import strategyshift.cli\n"
        "import numpy\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    src = str(Path(strategyshift.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    value, threads = json.loads(result.stdout)
    assert value == (given or "1")
    if given is None and threads is not None:  # Linux: one task per thread
        assert threads == 1


#: Runs CLI invocations (a JSON list of argv lists) in a fresh interpreter
#: where importing each module named after the probe config fails, after the
#: set-up probe's imports and load.
IMPORTS_BLOCKED = """
import sys
sys.modules.update(dict.fromkeys(sys.argv[3:]))
import contextlib, io, json, runpy
cases, probe_config = json.loads(sys.argv[1]), sys.argv[2]
import strategyshift, strategyshift.config
strategyshift.config.load(probe_config)
results = []
for argv in cases:
    sys.argv = ["strategyshift", *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("strategyshift.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _perfbench_classify_points():
    """``CLASSIFY_POINTS`` of perfbench/run.py, read without importing it."""
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(run_py.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "CLASSIFY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no CLASSIFY_POINTS")


def _check_without(blocked, tmp_path, capsys):
    """Run the set-up probe, the benchmark's classify points and every
    command's missing-config and invalid-config cases where importing any of
    ``blocked`` fails; each must end as it does under in-process cli.main."""
    import os
    import subprocess
    import sys

    import strategyshift

    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(REFERENCE_DOC))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_doc_with("thresholds.m", 1.5)))
    points = _perfbench_classify_points()
    assert len(points) == 5
    cases = [["classify", str(reference), "--share", str(share),
              "--growth", str(growth)] for share, growth in points]
    for command in ("simulate", "analyze", "classify", "conformance"):
        flags = ["--a", "1", "--b", "1"] if command == "classify" else []
        cases += [[command, str(tmp_path / "missing.json"), *flags],
                  [command, str(bad), *flags]]

    src = str(Path(strategyshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORTS_BLOCKED, json.dumps(cases), str(reference),
         *blocked],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    results = json.loads(result.stdout)

    for argv, (code, out, err) in zip(cases, results):
        capsys.readouterr()
        assert code == cli.main(argv), argv
        assert [out, err] == list(capsys.readouterr()), argv
    assert [code for code, _, _ in results] == [0] * 5 + [2, 3] * 4


def test_classify_and_config_errors_need_no_numpy(tmp_path, capsys):
    _check_without(["numpy"], tmp_path, capsys)


def test_classify_and_config_errors_need_no_dataclasses(tmp_path, capsys):
    # The record types are named tuples, so the config path never loads
    # dataclasses, nor the inspect module that dataclasses imports.
    _check_without(["dataclasses", "inspect"], tmp_path, capsys)


@pytest.mark.parametrize("command", ["simulate", "analyze", "conformance"])
def test_numpy_commands_never_load_dataclasses(tmp_path, command):
    assert _loaded_after(command, ["dataclasses"], tmp_path) == [0, []]


@pytest.mark.parametrize("command", ["simulate", "analyze", "conformance"])
def test_perfbench_tracer_runs_the_cli(tmp_path, command):
    # perfbench/traced.py binds package names (cli.main, cli._write_json, the
    # TruncatedSeries kernels); a rename here must not break it.  Its
    # estimate_exits hook never runs, since oracle loads after the tracer
    # installs, so the summary fields it reads are not pinned here.
    import os
    import subprocess
    import sys

    import strategyshift

    src = str(Path(strategyshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               **{cli.OUTPUT_DIR_ENV: str(tmp_path / "out")})
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced.py"), str(spans_path),
         command, str(REPO / "configs" / "reference.json")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert "cli.main" in {span[0] for span in spans}


#: (error main catches, exit code, stderr) for each failure a command can
#: raise: main's except chain is the only table from error to exit code.
FAILURES = [
    (FileNotFoundError(2, "No such file or directory", "c.json"), 2,
     "error: config file not found: c.json\n"),
    (IsADirectoryError(21, "Is a directory", "c.json"), 2, "error: Is a directory: c.json\n"),
    (PermissionError(13, "Permission denied", "out"), 2, "error: Permission denied: out\n"),
    (OSError(28, "No space left on device"), 2, "error: No space left on device\n"),
    (ConfigError("bad", field="thresholds.m"), 3,
     "error: invalid config (field: thresholds.m): bad\n"),
    (ConfigError("not JSON"), 3, "error: invalid config: not JSON\n"),
    *[(error("why"), 4, "error: why\n") for error in (DomainError, StrategyShiftError)],
]


def test_main_maps_every_error_class_to_its_exit_code(config_file, monkeypatch,
                                                      capsys):
    for error, code, stderr in FAILURES:
        def fail(args, error=error):
            raise error

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        assert (cli.main(["simulate", str(config_file)]), capsys.readouterr()) == (
            code, ("", stderr)), error


def test_every_raise_names_the_class_of_its_exit_code():
    # One error class per exit code: a class main cannot tell apart from
    # another would be a name without a behaviour.
    import strategyshift.errors as errors

    assert {name for name, value in vars(errors).items() if isinstance(value, type)
            and value.__module__ == errors.__name__} == {
        "StrategyShiftError", "DomainError", "ConfigError"}
    assert isinstance(config_mod._missing("process", "lambda_a"), ConfigError)
    raised = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                assert isinstance(node.exc, ast.Call), f"{path.name}:{node.lineno}"
                raised.add((path.name, node.exc.func.id))
    assert {name for _, name in raised} - {"ConfigError", "DomainError"} == {"_missing"}
    assert {file for file, name in raised if name == "_missing"} == {"config.py"}


#: (config file content, STRATEGYSHIFT_OUTPUT_DIR, exit code) of each input
#: the OS or the JSON parser refuses.  The CLI runs in a directory holding a
#: regular file named "file"; a content of None makes the config path a
#: directory.
REFUSED_INPUTS = {
    "config-is-a-directory": (None, None, 2),
    "config-not-utf8": (b"\xff{}", None, 3),
    "config-nested-100000-deep": (b"[" * 100_000, None, 3),
    "output-env-is-a-file": (REFERENCE_DOC, "file", 2),
    "output-env-under-a-file": (REFERENCE_DOC, "file/out", 2),
    "output-directory-is-a-file": (dict(REFERENCE_DOC, output={"directory": "file"}),
                                   None, 2),
    "output-directory-under-a-file": (
        dict(REFERENCE_DOC, output={"directory": "file/out"}), None, 2),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_refused_input_ends_in_one_error_line(tmp_path, case):
    # Each of these once ended in a traceback and exit 1.
    import os
    import subprocess
    import sys

    import strategyshift

    content, output, code = REFUSED_INPUTS[case]
    (tmp_path / "file").write_text("")
    config = tmp_path / "config.json"
    if content is None:
        config.mkdir()
    else:
        config.write_bytes(content if isinstance(content, bytes)
                           else json.dumps(content).encode())
    src = str(Path(strategyshift.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != cli.OUTPUT_DIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if output is not None:
        env[cli.OUTPUT_DIR_ENV] = output
    result = subprocess.run([sys.executable, "-m", "strategyshift.cli", "simulate",
                             "config.json"], capture_output=True, text=True,
                            cwd=tmp_path, env=env)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


#: argv after the config of each command, run on configs/reference.json.
COMMAND_FLAGS = {
    "simulate": [],
    "analyze": [],
    "conformance": [],
    "classify": ["--share", "2", "--growth", "5"],
}


def _run_process_entry(argv, out_dir):
    """(exit code, stdout, stderr) of ``python -m strategyshift.cli argv``,
    writing its artifacts to ``out_dir``."""
    import os
    import subprocess
    import sys

    import strategyshift

    src = str(Path(strategyshift.__file__).resolve().parents[1])
    env = dict(os.environ, **{cli.OUTPUT_DIR_ENV: str(out_dir)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "strategyshift.cli", *argv],
                            capture_output=True, text=True, env=env)
    return result.returncode, result.stdout, result.stderr


def _run_in_process(argv, out_dir, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, writing its
    artifacts to ``out_dir``.  Only the process entry freezes: ``main``
    leaves the caller's collector as it was."""
    import gc

    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out_dir))
    capsys.readouterr()
    collector = gc.get_freeze_count(), gc.isenabled()
    code = cli.main(argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == collector
    out, err = capsys.readouterr()
    return code, out, err


def _artifacts(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*"))}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_process_entry_writes_what_main_writes(tmp_path, monkeypatch, capsys, command):
    # The process entry only adds the exit: the same artifacts, byte for
    # byte, and the same lines on the std streams as an in-process call.
    argv = [command, str(REFERENCE_CONFIG), *COMMAND_FLAGS[command]]
    spawned = _run_process_entry(argv, tmp_path / "process")
    called = _run_in_process(argv, tmp_path / "main", monkeypatch, capsys)
    assert spawned[0] == called[0] == 0, spawned[2]
    process, main = str(tmp_path / "process"), str(tmp_path / "main")
    assert spawned[1].replace(process, main) == called[1]
    assert spawned[2] == called[2] == ""
    assert _artifacts(tmp_path / "process") == _artifacts(tmp_path / "main")
    assert bool(_artifacts(tmp_path / "main")) == (command != "classify")


@pytest.mark.parametrize("field, value, code", [
    ("thresholds.m", 1.5, 3),     # an invalid config
    ("process.lambda_a", 0, 4),   # axis A never reaches m = 2
])
def test_process_entry_passes_the_exit_code_through(tmp_path, monkeypatch, capsys,
                                                    field, value, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_doc_with(field, value)))
    argv = ["simulate", str(config)]
    spawned = _run_process_entry(argv, tmp_path / "process")
    assert spawned == _run_in_process(argv, tmp_path / "main", monkeypatch, capsys)
    assert spawned[:2] == (code, "")
    assert spawned[2].startswith("error: ") and spawned[2].count("\n") == 1


def test_run_freezes_after_main_and_exits_with_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert (exc.value.code, calls) == (3, ["main", "freeze"])
