"""The benchmark's workloads, run in-process and checked as the benchmark checks them.

perfbench/run.py runs every command in a fresh interpreter on two workload
documents and checks each output with perfbench/checks.py against the exact
law or a property of the method; a failed check makes the run incorrect.
Here one round of those commands runs through ``cli.main`` on both documents
and goes through the same ``Bench.record``, so an output change the checks
refuse fails here first.  perfbench/ is imported, never modified.
"""

import sys
from pathlib import Path

import pytest

from strategyshift import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, with its sibling modules importable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import run
    return run


@pytest.mark.parametrize("workload", ["deep-threshold", "high-order"])
def test_workload_outputs_pass_the_benchmark_checks(run, workload, tmp_path,
                                                    monkeypatch, capsys):
    # The host-speed kernel only normalises times, and none are taken here.
    monkeypatch.setattr(run.host, "kernel", lambda: 1.0)
    bench = run.Bench(workload, 1, tmp_path)
    for command, argv in bench.commands(0):
        out_dir = tmp_path / command
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out_dir))
        code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        bench.record(command, argv,
                     run.Invocation(code, 0.0, 0.0, stdout, stderr, out_dir, 1.0))
    # Every command exits 0 and every check passes: none failed, not even
    # with the conformance fault run.py still forgives on high-order.
    assert (bench.attempted, bench.failed, bench.errors) == (4, 0, [])
