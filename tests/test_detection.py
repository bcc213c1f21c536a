import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from twinfock.combinat import LogProb, count_compositions, falling_ratio_exact
from twinfock.detection import (
    TableNoise,
    ThermalNoise,
    detection_report,
    false_alarm_series,
    p_fa_closed,
    p_fa_oracle,
    p_fa_trace,
    p_md_closed,
    p_md_oracle,
    single_photon_baselines,
)
from twinfock import detection, loss
from twinfock.combinat import compositions
from twinfock.loss import conditional_state, conditional_states
from twinfock.fock import IDLER, SIGNAL, AmplitudeCapError, SparseState, combine


def test_thermal_noiseless():
    noise = ThermalNoise(0.0, 3)
    assert noise.arrangement_prob(0) == 1.0
    for k in range(1, 5):
        assert noise.arrangement_prob(k) == 0.0


def test_thermal_single_mode_example():
    noise = ThermalNoise(1.0, 1)
    assert noise.arrangement_prob(1) == pytest.approx(0.25, rel=1e-14)


def test_thermal_rejects_negative_occupation():
    for nbar in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ThermalNoise(nbar, 2)


def test_thermal_normalization_over_arrangements():
    for modes in range(1, 5):
        for nbar in (0.2, 1.0, 2.0):
            noise = ThermalNoise(nbar, modes)
            total, k = 0.0, 0
            while True:
                term = count_compositions(k, modes) * noise.arrangement_prob(k)
                total += term
                k += 1
                if k > 5 and term < 1e-16:
                    break
            assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("nbar", [1e4, 1e8, 1e12])
def test_thermal_log_total_keeps_its_digits_at_large_occupation(nbar):
    photons, modes = 3, 1000
    total = false_alarm_series(photons, modes, ThermalNoise(nbar, modes))[1]
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(nbar) / (1 + Decimal(nbar))
        weighted = sum(Decimal(math.comb(photons - k + modes - 1, modes - 1)) * x ** k
                       for k in range(1, photons + 1))
        exact = (weighted / math.comb(photons + modes - 1, modes - 1)).ln() \
            - modes * (1 + Decimal(nbar)).ln()
    assert abs(Decimal(total.log_value) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_table_noise_zero_extension_and_bounds():
    noise = TableNoise((0.1, 0.05))
    assert noise.arrangement_prob(0) == 0.0
    assert noise.arrangement_prob(1) == 0.1
    assert noise.arrangement_prob(2) == 0.05
    assert noise.arrangement_prob(3) == 0.0
    for bad in (-0.1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            TableNoise((0.1, bad))


def test_table_noise_from_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("0.25\n0.125\n\n0.0625\n")
    noise = TableNoise.from_file(path)
    assert noise.values == (0.25, 0.125, 0.0625)


def test_arrangement_logs_match_probabilities():
    for noise in (ThermalNoise(0.0, 4), ThermalNoise(0.7, 4), ThermalNoise(100.0, 150)):
        logs = noise.arrangement_logs(6)
        # one expression for both, so exp reads each log back bit for bit
        assert [math.exp(x) for x in logs] == [noise.arrangement_prob(k) for k in range(1, 7)]
    table = TableNoise((0.1, 0.0, 0.05))
    assert table.arrangement_logs(5) == [
        math.log(0.1), -math.inf, math.log(0.05), -math.inf, -math.inf]
    assert table.arrangement_logs(1) == [math.log(0.1)]
    assert table.arrangement_logs(0) == []


def test_p_md_closed_examples():
    assert p_md_closed(5, 1.0) == 0.0
    assert p_md_closed(2, 0.5) == pytest.approx(0.25)
    assert p_md_closed(1, 0.3) == pytest.approx(0.7)
    assert p_md_closed(0, 0.4) == 1.0
    with pytest.raises(ValueError):
        p_md_closed(2, 1.5)


def test_first_coefficient_single_photon():
    for modes in (1, 2, 10, 57):
        coefficients, _ = false_alarm_series(1, modes, TableNoise((1.0,)))
        assert len(coefficients) == 1
        assert coefficients[0] == pytest.approx(1 / modes, rel=1e-14)


def test_single_mode_sums_all_noise():
    noise = TableNoise((0.1, 0.07, 0.02))
    assert p_fa_closed(3, 1, noise) == pytest.approx(0.19, rel=1e-12)


def test_hand_worked_example():
    # 0.1 * 2/3 + 0.05 * 2/(3*2) equals one twelfth
    noise = TableNoise((0.1, 0.05))
    assert p_fa_closed(2, 2, noise) == pytest.approx(1 / 12, rel=1e-12)
    assert p_fa_oracle(2, 2, noise) == pytest.approx(1 / 12, rel=1e-10)


def test_first_and_last_coefficients_exact():
    for photons in range(1, 6):
        for modes in range(1, 6):
            first = falling_ratio_exact(photons, modes, 1)
            assert first == Fraction(photons, photons + modes - 1)
            last = falling_ratio_exact(photons, modes, photons)
            assert last == Fraction(1, math.comb(photons + modes - 1, photons))


def test_zero_noise_oracle():
    assert p_fa_oracle(2, 2, TableNoise(())) == 0.0


def test_single_photon_oracle_example():
    assert p_fa_oracle(1, 2, TableNoise((0.2,))) == pytest.approx(0.1, abs=1e-12)


def test_closed_vs_oracle_random_tables():
    rng = random.Random(2024)
    for photons in range(0, 4):
        for modes in range(1, 4):
            for _ in range(10):
                noise = TableNoise(tuple(rng.uniform(0, 0.1) for _ in range(photons)))
                closed = p_fa_closed(photons, modes, noise)
                oracle = p_fa_oracle(photons, modes, noise)
                assert abs(closed - oracle) < 1e-10


def test_closed_vs_oracle_thermal():
    for photons in range(0, 4):
        for modes in range(1, 4):
            for nbar in (0.1, 1.0):
                noise = ThermalNoise(nbar, modes)
                assert abs(p_fa_closed(photons, modes, noise)
                           - p_fa_oracle(photons, modes, noise)) < 1e-10


def terms_walking_p_fa(photons, modes, noise):
    """Reference trace: every accepting component's terms unpacked through terms(), the signal summed."""
    uniform = 1.0 / count_compositions(photons, modes)
    probs = {k: noise.arrangement_prob(k) for k in range(1, photons + 1)}
    total = 0.0
    accepting = (conditional_state(photons, modes, absorbed)
                 for lost in range(photons) for absorbed in compositions(lost, modes))
    for component in accepting:
        for (_idler, returned), amp in component.terms():
            prob = probs.get(sum(returned), 0.0)
            if prob:
                total += uniform * prob * abs(amp) ** 2
    return total


def seeded_noise_cases():
    rng = random.Random(1107)
    for photons in range(0, 5):
        for modes in range(1, 4):
            yield photons, modes, ThermalNoise(rng.uniform(0.05, 3.0), modes)
            yield photons, modes, TableNoise(tuple(rng.uniform(0, 0.3) for _ in range(photons)))


def test_p_fa_oracle_equals_terms_walking_reference():
    # the same sum in the same order: equal bits, not within a tolerance
    for photons, modes, noise in seeded_noise_cases():
        assert p_fa_oracle(photons, modes, noise) == terms_walking_p_fa(photons, modes, noise)


def test_trace_over_mixture_components_equals_oracle():
    # verify traces every returned_mixture component; the all-absorbed ones add exactly zero
    for photons, modes, noise in seeded_noise_cases():
        states = [c.state for c in loss.returned_mixture(photons, modes, 0.3)]
        assert p_fa_trace(photons, modes, noise, states) == p_fa_oracle(photons, modes, noise)


def test_trace_rejects_mismatched_noise_modes():
    with pytest.raises(ValueError):
        p_fa_trace(2, 3, ThermalNoise(0.5, 2), [state for _, state in conditional_states(2, 3)])


def test_noise_modes_mismatch_rejected():
    with pytest.raises(ValueError):
        p_fa_closed(2, 3, ThermalNoise(0.5, 2))


def test_p_md_oracle_matches_closed_form():
    for photons in range(0, 4):
        for modes in range(1, 4):
            for eta in (0.2, 0.5, 0.8):
                assert abs(p_md_oracle(photons, modes, eta)
                           - p_md_closed(photons, eta)) < 1e-10
    assert p_md_oracle(1, 2, 0.5) == pytest.approx(0.5)
    assert p_md_oracle(3, 2, 0.4) == pytest.approx(0.216, abs=1e-12)
    assert p_md_oracle(2, 2, 0.0) == pytest.approx(1.0)


def test_oracles_refuse_hostile_sizes_up_front():
    # the oracle at (60, 60) needs about 10^48 amplitudes; p_md_oracle builds no
    # state, so only the up-front check stops its enumeration
    start = time.perf_counter()
    with pytest.raises(AmplitudeCapError, match="N=60, M=60"):
        p_md_oracle(60, 60, 0.5)
    with pytest.raises(AmplitudeCapError, match="N=60, M=60"):
        p_fa_oracle(60, 60, ThermalNoise(0.5, 60))
    assert time.perf_counter() - start < 0.5


def test_projector_rank():
    # one component per arrangement of 0..N absorbed photons over M modes
    for photons in range(0, 5):
        for modes in range(1, 4):
            components = list(conditional_states(photons, modes))
            assert len(components) == math.comb(photons + modes, modes)


def test_p_fa_oracle_builds_only_accepting_states_and_no_weights(monkeypatch):
    def refuse(*args):
        raise AssertionError("absorption_weight called")

    built = []
    build = loss.conditional_state

    def counting(photons, modes, absorbed):
        built.append(absorbed)
        return build(photons, modes, absorbed)

    monkeypatch.setattr(loss, "absorption_weight", refuse)
    monkeypatch.setattr(detection, "absorption_weight", refuse)
    monkeypatch.setattr(loss, "conditional_state", counting)
    p_fa_oracle(7, 6, ThermalNoise(0.4, 6))
    # C(13, 6) = 1,716 arrangements, less the C(12, 5) = 792 that absorb all 7 photons,
    # plus the first of those, which ends the trace
    assert 0 < len(built) <= 925


def test_projector_idempotent_on_random_states():
    rng = random.Random(99)
    components = [state for _, state in conditional_states(3, 2)]
    for _ in range(5):
        entries = []
        for _ in range(4):
            counts = (
                tuple(rng.randint(0, 2) for _ in range(2)),
                tuple(rng.randint(0, 2) for _ in range(2)),
            )
            entries.append((counts, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        state = SparseState.from_terms(2, (IDLER, SIGNAL), entries)
        once = combine((comp.inner(state), comp) for comp in components)
        twice = combine((comp.inner(once), comp) for comp in components)
        assert combine([(1.0, once), (-1.0, twice)]).max_abs() < 1e-12


def test_coefficients_decrease_with_modes():
    for photons in (2, 3, 6):
        for k in range(1, photons + 1):
            values = [falling_ratio_exact(photons, modes, k) for modes in range(2, 30)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_first_coefficient_beats_single_photon_baseline():
    for photons in (2, 3, 10):
        for modes in range(2, 40):
            first = falling_ratio_exact(photons, modes, 1)
            assert first > Fraction(1, modes)


def test_last_coefficient_below_single_photon_baseline():
    for photons in (2, 3, 10):
        for modes in range(2, 40):
            last = falling_ratio_exact(photons, modes, photons)
            assert last < Fraction(1, modes)


def test_every_coefficient_beats_repeated_copies_baseline():
    for photons in (2, 3, 7):
        for modes in range(photons + 1, photons + 30):
            for k in range(1, photons + 1):
                assert falling_ratio_exact(photons, modes, k) < Fraction(photons, modes)


def test_baselines():
    assert single_photon_baselines(10, 100) == (0.01, 0.1)
    low, high = single_photon_baselines(1000, 500)
    assert (low, high) == (1 / 500, 2.0)
    one = single_photon_baselines(1, 7)
    assert one.single_copy == one.repeated_copies == pytest.approx(1 / 7)


def test_exact_region_below_float_range_takes_log_route():
    # normal noise factors, but a total below the normal float range
    _, total = false_alarm_series(1, 199, TableNoise((1e-306,)))
    assert isinstance(total, LogProb)
    assert total.log_value == pytest.approx(math.log(1e-306) - math.log(199), rel=1e-15)
    # noise factors that are subnormal or underflow to zero as floats
    for noise in (TableNoise((1e-310,)), ThermalNoise(100.0, 190)):
        assert isinstance(false_alarm_series(1, 190, noise)[1], LogProb)
    # exact zeros stay on the exact route
    assert false_alarm_series(3, 10, ThermalNoise(0.0, 10))[1] == 0
    _, total = false_alarm_series(2, 3, TableNoise((0.0, 0.5)))
    assert total == Fraction(1, 2) * falling_ratio_exact(2, 3, 2)


def test_detection_report_consistency():
    noise = TableNoise((0.1, 0.05, 0.01))
    report = detection_report(3, 2, 0.4, noise, include_oracle=True)
    coefficients, _ = false_alarm_series(3, 2, noise)
    assert report.p_fa_closed == pytest.approx(
        sum(float(c) * noise.arrangement_prob(k) for k, c in enumerate(coefficients, start=1)),
        rel=1e-14)
    assert 0.0 <= report.p_fa_closed <= 1.0
    assert all(0 <= c <= 1 for c in coefficients)
    assert report.p_md_closed == pytest.approx(0.216, abs=1e-12)
    assert report.p_fa_oracle == pytest.approx(report.p_fa_closed, abs=1e-10)
    assert report.p_md_oracle == pytest.approx(report.p_md_closed, abs=1e-10)
    plain = detection_report(3, 2, 0.4, noise)
    assert plain.p_fa_oracle is None and plain.p_md_oracle is None
    # past the exact/log crossover the report and p_fa_closed still agree
    thermal = ThermalNoise(0.5, 100)
    far = detection_report(150, 100, 0.4, thermal)
    assert far.p_fa_closed == p_fa_closed(150, 100, thermal)
    log_coefficients, _ = false_alarm_series(150, 100, thermal)
    assert far.p_fa_closed == pytest.approx(
        sum(math.exp(c) * thermal.arrangement_prob(k)
            for k, c in enumerate(log_coefficients, start=1)), rel=1e-13)


def test_p_md_closed_has_no_mode_dependence():
    noise = TableNoise((0.1,))
    reports = [detection_report(4, modes, 0.35, noise) for modes in (1, 2, 5)]
    assert reports[0].p_md_closed == reports[1].p_md_closed == reports[2].p_md_closed
