"""Smoke-size self-test of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at its "smoke" size, traced and untraced, and checks
that the output checks pass on the package and catch a broken output.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from twinfock import cli  # noqa: E402
from twinfock.combinat import LogProb  # noqa: E402


def smoke_pass(name, tmp_path, seed=7, tracer=None):
    workload = workloads.WORKLOADS[name]("smoke")
    inputs = workload.make_inputs(seed, tmp_path)
    return workload, run.run_pass(workload, inputs, tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_checks_clean(name, tmp_path):
    workload, first = smoke_pass(name, tmp_path)
    assert first.problems == []
    assert first.failed == 0 and first.attempted == len(first.op_seconds) > 0
    assert first.work > 0
    # the second pass compares outputs byte for byte with the first
    second = run.run_pass(workload, workload.make_inputs(7, tmp_path))
    assert second.problems == [] and second.work == first.work


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_picks_values_not_sizes(name, tmp_path):
    a = workloads.make_inputs(name, 1, tmp_path / "a", "smoke")
    b = workloads.make_inputs(name, 1, tmp_path / "b", "smoke")
    c = workloads.make_inputs(name, 2, tmp_path / "c", "smoke")
    strip = lambda inputs: {k: v for k, v in inputs.items() if not k.startswith("argv")}
    assert strip(a) == strip(b)
    assert strip(a) != strip(c)
    workload = workloads.WORKLOADS[name]("smoke")
    assert len(workload.ops(a)) == len(workload.ops(c))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_accounts_for_its_time(name, tmp_path):
    tracer = tracing.Tracer()
    original = cli.main
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_pass(0)
        workload, result = smoke_pass(name, tmp_path, tracer=tracer)
    finally:
        uninstall()
    assert cli.main is original
    assert result.problems == []
    metrics = tracing.layer_metrics(tracer.counts)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(result.seconds, rel=0.05)
    assert all(metrics[f"{layer}.calls"] >= 0 for layer in tracing.LAYERS)
    if name == "sweep":
        assert metrics["fock.calls"] == metrics["states.calls"] == metrics["loss.calls"] == 0
        assert metrics["combinat.log_terms"] > 0
    if name == "verify":
        assert metrics["combinat.falling_ratio_logs.calls"] == 0
        assert metrics["fock.ladder_calls"] > 0
    if name == "bigstate":
        assert metrics["loss.enum_per_component"] > 0
    spans = list(tracer.spans())
    assert spans and all(span[7] >= -1e-9 for span in spans)
    roots = [span for span in spans if span[1] == -1]
    assert sum(span[6] for span in roots) == pytest.approx(sum(span[7] for span in spans))
    assert tracing.write_spans(tracer, tmp_path / "spans.tsv.gz") == len(spans)


def test_memory_pass_records_fock_peak(tmp_path):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_pass(0, memory=True)
        smoke_pass("bigstate", tmp_path, tracer=tracer)
    finally:
        uninstall()
    assert tracer.counts["fock.peak_bytes"] > 0


def test_checks_catch_wrong_values():
    sweep = workloads.Sweep("smoke")
    noise = workloads.NoiseRef(nbar=1.0)
    good = cli.fmt_log(LogProb(workloads.term_log(10, 20, 3)))
    assert sweep._check_value("term:3", 10, 20, good, True, noise) is None
    assert sweep._check_value("term:4", 10, 20, good, True, noise) is not None
    far = cli.fmt_log(LogProb(workloads.term_log(1000, 5000, 3) * (1 + 1e-9)))
    assert sweep._check_value("term:3", 1000, 5000, far, False, noise) is not None


def test_dump_check_catches_truncation(tmp_path):
    workload, _ = smoke_pass("bigstate", tmp_path)
    path = tmp_path / "short.dump"
    lines = (tmp_path / "state.dump").read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert workload._check_dump((0, "", ""), path).problems


def test_csv_check_catches_truncation(tmp_path):
    workload, _ = smoke_pass("sweep", tmp_path)
    path = tmp_path / "pfa_thermal.csv"
    path.write_text(path.read_text()[:-1])
    with open(path) as handle:
        problems = workload._check_pfa_rows(
            handle, workload.size["grid_n"], workload._grid, workloads.NoiseRef(nbar=1.0), "x")
    assert problems and "ends early" in problems[0]


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
