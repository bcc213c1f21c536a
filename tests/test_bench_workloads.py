"""The benchmark's calls into the package still pass the benchmark's own checks.

Runs every workload of bench/workloads.py once at its "smoke" size, untraced:
each operation is called and its output checked against the workload's
references.  The benchmark's own self-test stays outside the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_reports_no_problem(name, tmp_path):
    inputs = workloads.make_inputs(name, 1, tmp_path, size="smoke")
    workload = workloads.WORKLOADS[name]("smoke")
    ops = workload.ops(inputs)
    assert ops
    for op in ops:
        outcome = op.check(op.run())
        assert outcome.problems == [], op.name
