"""Acceptance suite: every release gate in one module, one line of output each.

The paper's identities (pair creation, the loss identity, the beamsplitter
decomposition, the closed-form P_FA and P_MD against their oracles) are
gated by one run of the verify battery, twinfock.cli.CHECKS, up to N = 6
and M = 5: criteria 1-5 each gate their own entries of it, and every entry
belongs to exactly one of them.  The unit modules check the same identities
input by input.  The remaining criteria gate the pfa-curves sweep and the
log-space kernel.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import math
import time
from decimal import Decimal

import pytest

from twinfock.cli import CHECKS, main, run_verification
from twinfock.combinat import falling_ratio_exact, falling_ratio_logs


def _finish(name, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{name}: " + "; ".join(failures[:5])
    assert elapsed < budget, f"{name} exceeded {budget}s budget ({elapsed:.2f}s)"


#: Criteria 1-5 as views of the verify battery: the CHECKS entries each one gates.
BATTERY_CRITERIA = {
    "criterion 1 (annihilation identity)": (
        "pair-creation commutator (signal)", "pair-creation commutator (idler)",
        "signal-loss identity"),
    "criterion 2 (construction equivalence)": ("direct vs recursive build", "amplitude uniformity"),
    "criterion 3 (beamsplitter decomposition)": (
        "mixture completeness", "component orthonormality", "beamsplitter decomposition"),
    "criterion 4 (missed detection)": ("missed detection: closed vs oracle",),
    "criterion 5 (false alarm closed vs oracle)": ("false alarm: closed vs oracle",),
}


@pytest.fixture(scope="module")
def battery():
    """One run of the battery up to (6, 5): results by check name, and its time."""
    start = time.perf_counter()
    results = {result.name: result for result in run_verification(6, 5)}
    return results, time.perf_counter() - start


def _gate_criterion(battery, criterion):
    results, elapsed = battery
    failures = [
        f"{result.name}: worst {result.worst:.3e} above tol {result.tolerance:.0e}"
        for result in (results[name] for name in BATTERY_CRITERIA[criterion])
        if not result.passed
    ]
    _finish(criterion, failures, elapsed, 60.0)


def test_every_check_belongs_to_one_criterion():
    gated = [name for names in BATTERY_CRITERIA.values() for name in names]
    assert sorted(gated) == sorted(name for name, _, _ in CHECKS)


def test_criterion_1_annihilation_identity(battery):
    _gate_criterion(battery, "criterion 1 (annihilation identity)")


def test_criterion_2_construction_equivalence(battery):
    _gate_criterion(battery, "criterion 2 (construction equivalence)")


def test_criterion_3_beamsplitter_decomposition(battery):
    _gate_criterion(battery, "criterion 3 (beamsplitter decomposition)")


def test_criterion_4_missed_detection(battery):
    _gate_criterion(battery, "criterion 4 (missed detection)")


def test_criterion_5_false_alarm(battery):
    _gate_criterion(battery, "criterion 5 (false alarm closed vs oracle)")


def _curve_table(tmp_path, n_values):
    path = tmp_path / "curves.csv"
    args = ["pfa-curves", "--m-points", "49", "--m-max", "100000", "--csv", str(path)]
    for n in n_values:
        args += ["--n", str(n)]
    assert main(args) == 0
    table = {}
    for line in path.read_text().splitlines()[1:]:
        series, n, m, value = line.split(",")
        table[(int(n), series, int(m))] = Decimal(value)
    return table


def test_criterion_6_curve_family_shape(tmp_path):
    start = time.perf_counter()
    failures = []
    n_values = (10, 100)
    table = _curve_table(tmp_path, n_values)
    for photons in n_values:
        grid = sorted({m for (n, series, m) in table if n == photons and series == "term:1"})
        if grid[0] != photons or grid[-1] != 100_000:
            failures.append(f"grid endpoints off for N={photons}")
        if 10_000 not in grid:
            failures.append(f"grid misses M=1e4 for N={photons}")
        for m in grid:
            term1 = table[(photons, "term:1", m)]
            if m > photons:
                if not (term1 > 1 / Decimal(m)):
                    failures.append(f"term:1 below 1/M at N={photons} M={m}")
                if not (term1 < Decimal(photons) / Decimal(m)):
                    failures.append(f"term:1 above N/M at N={photons} M={m}")
            if m >= 2:
                last = table[(photons, f"term:{photons}", m)]
                if not (last < 1 / Decimal(m)):
                    failures.append(f"term:N above 1/M at N={photons} M={m}")
        for k in range(1, photons + 1):
            values = [table[(photons, f"term:{k}", m)] for m in grid]
            if not all(a > b for a, b in zip(values, values[1:])):
                failures.append(f"term:{k} not strictly decreasing for N={photons}")
        # asymptotic scaling: one decade in M shrinks term k by ~10^-k
        for k in (1, 2, 3):
            ratio = table[(photons, f"term:{k}", 100_000)] / table[(photons, f"term:{k}", 10_000)]
            deviation = abs(ratio * (Decimal(10) ** k) - 1)
            if deviation >= Decimal("0.05"):
                failures.append(f"scaling off by {deviation} for term:{k} N={photons}")
    _finish("criterion 6 (curve family shape)", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_7_log_space_fidelity():
    start = time.perf_counter()
    failures = []
    for photons in range(1, 31):
        for modes in range(1, 31):
            logs = falling_ratio_logs(photons, modes)
            for k in range(1, photons + 1):
                exact = float(falling_ratio_exact(photons, modes, k))
                approx = math.exp(logs[k - 1])
                if abs(approx - exact) >= 1e-12 * exact:
                    failures.append(f"rel gap at N={photons} M={modes} k={k}")
    logs = falling_ratio_logs(1000, 100_000)
    if len(logs) != 1000:
        failures.append("missing terms at N=1000")
    for k, entry in enumerate(logs, start=1):
        if not math.isfinite(entry):
            failures.append(f"non-finite term at k={k}")
    _finish("criterion 7 (log-space fidelity)", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_8_deterministic_output(tmp_path):
    start = time.perf_counter()
    failures = []
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    base = ["pfa-curves", "--n", "10", "--n", "100", "--m-points", "25",
            "--noise", "thermal:0.7", "--csv"]
    assert main(base + [str(first)]) == 0
    assert main(base + [str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        failures.append("consecutive runs differ")
    _finish("criterion 8 (deterministic output)", failures,
            time.perf_counter() - start, 30.0)
