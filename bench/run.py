"""Benchmark of twinfock: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload verify --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each pass runs the workload's operations one
after another in this process (one thread, the next call starts when the
previous one returns) and checks every output outside the timed region.

With `--trace 0` the run makes passes until `--seconds` have elapsed,
timing set-up in a fresh interpreter after each one, and reports the
end-to-end metrics.  With `--trace 1` it alternates untraced and traced
passes for half of `--seconds`, then makes one tracemalloc pass, and
reports the per-layer metrics; the spans go to `.bench_out/`.  Metric
names and units come from BENCHMARK.json.

The last line of stdout is the result object; the line before it holds the
per-pass samples and any failure messages.  The exit code is 0 whenever a
result is printed, and 2 when the package cannot be found.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_SAMPLES = 7
#: A run measures at least this many passes, however long they take.
MIN_PASSES = 3

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import twinfock, twinfock.cli
import workloads
workloads.make_inputs({name!r}, {seed!r}, {directory!r})
print(time.perf_counter() - start)
"""


def measure_setup(name: str, seed: int, directory: Path) -> float:
    """Set-up time of a fresh interpreter: import twinfock and generate the inputs."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                              directory=str(directory))
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    work: int = 0
    rows: int = 0
    bytes: int = 0
    problems: list[str] = field(default_factory=list)
    op_seconds: dict[str, float] = field(default_factory=dict)


def run_pass(workload, inputs: dict, tracer=None) -> PassResult:
    """Run every operation once; time the calls, check outputs between them."""
    result = PassResult()
    for op in workload.ops(inputs):
        gc.collect()
        result.attempted += 1
        start = time.perf_counter()
        try:
            output = tracer.op(op.run) if tracer else op.run()
        except Exception as exc:  # an operation that raises counts as failed
            output = exc
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        result.op_seconds[op.name] = elapsed
        if isinstance(output, Exception):
            result.failed += 1
            result.problems.append(f"{op.name}: raised {output!r}")
            continue
        try:
            outcome = op.check(output)
        except Exception as exc:  # output too malformed to check
            result.failed += 1
            result.problems.append(f"{op.name}: check raised {exc!r}")
            continue
        del output
        if outcome.problems:
            result.failed += 1
            result.problems.extend(f"{op.name}: {p}" for p in outcome.problems)
        else:
            result.work += outcome.work
        result.rows += outcome.rows
        result.bytes += outcome.bytes
    return result


def end_to_end(workload, seed, inputs, workdir, seconds) -> tuple[dict, list[PassResult], dict]:
    """Passes until `seconds` have elapsed, with one set-up probe after each.

    wall_s is the mean pass time.  A shared virtual machine can switch
    between a fast and a slow CPU state every 10 to 30 seconds; a run's median
    pass lands in one state or the other, so run-to-run medians split into
    two clusters, while the mean weights each state by the time spent in it.
    The median and quartiles go to the detail line.  Set-up probes are spread
    over the run so they see the same states as the passes; their median is
    reported, since one probe is short enough to be hit by a single stall.
    """
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, inputs))
        setup.append(measure_setup(workload.name, seed, workdir / f"setup{len(setup)}"))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(workload.name, seed, workdir / f"setup{len(setup)}"))
    pass_s = [p.seconds for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(pass_s),
        "throughput": sum(p.work for p in passes) / sum(pass_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_s": setup,
        "pass_s": pass_s,
        "pass_s_quartiles": statistics.quantiles(pass_s, n=4, method="inclusive"),
        "op_median_s": {name: statistics.median(p.op_seconds[name] for p in passes)
                        for name in passes[0].op_seconds},
    }
    return metrics, passes, extra


def traced(workload, inputs, seconds, seed) -> tuple[dict, list[PassResult], dict]:
    import tracing

    tracer = tracing.Tracer()
    plain, timed, per_pass = [], [], []
    start = time.perf_counter()
    # the tracemalloc pass that follows takes several passes' time, so the
    # timed part of a traced run gets half of its seconds
    while not timed or time.perf_counter() - start < seconds / 2:
        plain.append(run_pass(workload, inputs))
        uninstall = tracing.install(tracer)
        try:
            # spans of the first traced pass are written out; later ones only count
            tracer.begin_pass(len(timed), keep_spans=not timed)
            timed.append(run_pass(workload, inputs, tracer))
        finally:
            uninstall()
        per_pass.append(tracing.layer_metrics(tracer.counts))
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_pass(len(timed), memory=True, keep_spans=False)
        memory = run_pass(workload, inputs, tracer)
    finally:
        uninstall()
    peak_bytes = tracer.counts["fock.peak_bytes"]

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["fock.peak_bytes"] = peak_bytes
    metrics["detection.pfa_max_rel_err"] = workload.max_rel_err
    metrics["cli.rows_out"] = statistics.median(p.rows for p in timed)
    metrics["cli.bytes_out"] = statistics.median(p.bytes for p in timed)
    traced_s = statistics.median(p.seconds for p in timed)
    metrics["trace.overhead"] = traced_s / statistics.median(p.seconds for p in plain)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz"
    spans = tracing.write_spans(tracer, span_path)
    layer_sum = sum(p[k] for p in per_pass for k in p if k.endswith(".self_s"))
    extra = {
        "span_file": str(span_path.relative_to(ROOT)),
        "spans": spans,
        "traced_passes": len(timed),
        "traced_pass_s": [p.seconds for p in timed],
        "untraced_pass_s": [p.seconds for p in plain],
        "memory_pass_s": memory.seconds,
        "self_time_coverage": layer_sum / sum(p.seconds for p in timed),
    }
    return metrics, plain + timed + [memory], extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinfock" / "__init__.py").is_file():
        print(f"error: no twinfock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        if args.trace:
            values, passes, extra = traced(workload, inputs, args.seconds, args.seed)
            wanted = spec["per_layer"]
        else:
            values, passes, extra = end_to_end(workload, args.seed, inputs, workdir, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra.update(passes=len(passes), problems=[m for p in passes for m in p.problems][:20])
    print(json.dumps({"workload": args.workload, "seed": args.seed, **extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
