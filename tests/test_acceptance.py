"""Acceptance suite: every release gate in one module, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

from twinfock.cli import main
from twinfock.combinat import (
    binomial,
    count_compositions,
    falling_ratio_exact,
    falling_ratio_logs,
)
from twinfock.detection import (
    TableNoise,
    ThermalNoise,
    detection_report,
    p_fa_closed,
    p_fa_oracle,
    p_md_oracle,
)
from twinfock.fock import combine
from twinfock.loss import beamsplitter_oracle, returned_mixture, split_by_environment
from twinfock.states import (
    loss_identity_residual,
    pair_state_direct,
    pair_state_recursive,
)

ETAS = (0.2, 0.5, 0.8)


def _finish(name, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{name}: " + "; ".join(failures[:5])
    assert elapsed < budget, f"{name} exceeded {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_annihilation_identity():
    start = time.perf_counter()
    failures = []
    for photons in range(1, 7):
        for modes in range(1, 6):
            for mode in range(modes):
                residual = loss_identity_residual(photons, modes, mode)
                if residual >= 1e-12:
                    failures.append(f"residual {residual:.2e} at N={photons} M={modes} j={mode}")
    _finish("criterion 1 (annihilation identity)", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_2_construction_equivalence():
    start = time.perf_counter()
    failures = []
    for photons in range(0, 7):
        for modes in range(1, 6):
            direct = dict(pair_state_direct(photons, modes).terms())
            recursive = dict(pair_state_recursive(photons, modes).terms())
            expected = 1 / math.sqrt(count_compositions(photons, modes))
            if set(direct) != set(recursive):
                failures.append(f"key mismatch at N={photons} M={modes}")
                continue
            for key, amp in direct.items():
                if abs(amp - recursive[key]) >= 1e-12:
                    failures.append(f"amplitude gap at N={photons} M={modes}")
                if abs(amp - expected) >= 1e-12:
                    failures.append(f"non-uniform amplitude at N={photons} M={modes}")
    _finish("criterion 2 (construction equivalence)", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_3_beamsplitter_decomposition():
    start = time.perf_counter()
    failures = []
    for photons in range(0, 4):
        for modes in range(1, 4):
            for eta in ETAS:
                mixture = returned_mixture(photons, modes, eta)
                grouped = {c.absorbed: c for c in split_by_environment(
                    beamsplitter_oracle(photons, modes, eta))}
                tag = f"N={photons} M={modes} eta={eta}"
                weight_sum = sum(c.weight for c in mixture)
                if abs(weight_sum - 1.0) >= 1e-10:
                    failures.append(f"weights sum {weight_sum} at {tag}")
                for component in mixture:
                    other = grouped.get(component.absorbed)
                    if other is None:
                        failures.append(f"missing arrangement {component.absorbed} at {tag}")
                        continue
                    if abs(other.weight - component.weight) >= 1e-12:
                        failures.append(f"weight gap at {tag}")
                    gap = combine([(1.0, other.state), (-1.0, component.state)]).max_abs()
                    if gap >= 1e-12:
                        failures.append(f"state gap {gap:.2e} at {tag}")
                states = [c.state for c in mixture]
                for i, a in enumerate(states):
                    for j, b in enumerate(states):
                        target = 1.0 if i == j else 0.0
                        if abs(a.inner(b) - target) >= 1e-12:
                            failures.append(f"Gram defect at {tag}")
    _finish("criterion 3 (beamsplitter decomposition)", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_4_missed_detection():
    start = time.perf_counter()
    failures = []
    for photons in range(0, 4):
        for modes in range(1, 4):
            for eta in ETAS:
                oracle = p_md_oracle(photons, modes, eta)
                closed = (1 - eta) ** photons
                if abs(oracle - closed) >= 1e-10:
                    failures.append(f"oracle gap at N={photons} M={modes} eta={eta}")
    noise = TableNoise((0.1,))
    for photons in range(0, 4):
        for eta in ETAS:
            values = {detection_report(photons, modes, eta, noise).p_md_closed
                      for modes in (1, 2, 5)}
            if len(values) != 1:
                failures.append(f"mode dependence at N={photons} eta={eta}")
    _finish("criterion 4 (missed detection)", failures,
            time.perf_counter() - start, 30.0)


def test_criterion_5_false_alarm():
    start = time.perf_counter()
    failures = []
    rng = random.Random(777)
    for photons in range(0, 4):
        for modes in range(1, 4):
            models = [
                TableNoise(tuple(rng.uniform(0.0, 0.1) for _ in range(max(photons, 1))))
                for _ in range(10)
            ]
            models += [ThermalNoise(nbar, modes) for nbar in (0.1, 1.0)]
            for noise in models:
                closed = p_fa_closed(photons, modes, noise)
                oracle = p_fa_oracle(photons, modes, noise)
                if abs(closed - oracle) >= 1e-10:
                    failures.append(
                        f"closed {closed} vs oracle {oracle} at N={photons} M={modes}")
            if photons >= 1:
                first = falling_ratio_exact(photons, modes, 1)
                if first != Fraction(photons, photons + modes - 1):
                    failures.append(f"first coefficient at N={photons} M={modes}")
                last = falling_ratio_exact(photons, modes, photons)
                if last != Fraction(1, binomial(photons + modes - 1, photons)):
                    failures.append(f"last coefficient at N={photons} M={modes}")
    _finish("criterion 5 (false alarm closed vs oracle)", failures,
            time.perf_counter() - start, 60.0)


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
