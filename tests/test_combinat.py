import itertools
import math
import random
from fractions import Fraction

import pytest

from twinfock.combinat import (
    TEXT_CACHE_BOUND,
    LogProb,
    composition_texts,
    compositions,
    count_compositions,
    falling_ratio_exact,
    falling_ratio_logs,
    sum_log_probs,
    suffix_depth,
)
from twinfock.detection import TableNoise, false_alarm_series
from twinfock.fock import AmplitudeCapError, check_sector_size


def test_count_compositions_examples():
    for parts in (1, 2, 5):
        assert count_compositions(0, parts) == 1
        assert count_compositions(1, parts) == parts
    brute = [v for v in itertools.product(range(4), repeat=3) if sum(v) == 3]
    assert len(brute) == 10
    assert count_compositions(3, 3) == 10


def test_count_compositions_rejects_zero_parts():
    with pytest.raises(ValueError):
        count_compositions(1, 0)
    with pytest.raises(ValueError):
        count_compositions(-1, 2)


def test_compositions_listing():
    assert list(compositions(1, 2)) == [(1, 0), (0, 1)]
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]


def test_compositions_rejects_zero_parts():
    with pytest.raises(ValueError):
        list(compositions(2, 0))


def test_compositions_enumeration_matches_count():
    for total in range(13):
        for parts in range(1, 9):
            seq = list(compositions(total, parts))
            assert len(seq) == count_compositions(total, parts)
            assert len(set(seq)) == len(seq)
            assert all(sum(v) == total and min(v) >= 0 for v in seq)
            # descending lexicographic contract
            assert seq == sorted(seq, reverse=True)


def _joined_texts(total, parts):
    return [head + tail for head, tails in composition_texts(total, parts) for tail in tails]


def test_composition_texts_join_to_compositions_in_order():
    depths = set()
    # the last two need tails of no mode: one-mode tails would pass the cache bound
    cases = [(total, parts) for total in range(9) for parts in range(1, 11)] + [(4096, 1), (4100, 2)]
    for total, parts in cases:
        expected = [",".join(map(str, counts)) for counts in compositions(total, parts)]
        assert _joined_texts(total, parts) == expected, (total, parts)
        depths.add((suffix_depth(total, parts), parts))
    assert {depth for depth, _ in depths} == set(range(11))
    assert any(0 < depth < parts for depth, parts in depths)  # heads and tails both in use


def test_composition_texts_share_one_tail_list_per_photon_count():
    pairs = list(composition_texts(14, 8))
    assert suffix_depth(14, 8) == 4
    assert len(pairs) == count_compositions(14, 5)  # one pair per 4-mode head and its leftover
    assert len({id(tails) for _, tails in pairs}) == 15


def test_suffix_depth_keeps_the_cache_in_bound_wherever_a_pair_state_fits():
    # C(N + d, d) tail texts for every (N, M <= 200) the state caps admit; no text is built
    for modes in range(1, 201):
        photons = 0
        while True:
            try:
                check_sector_size("probe", photons, modes, modes, 2)
            except (AmplitudeCapError, ValueError):
                break
            depth = suffix_depth(photons, modes)
            assert 0 <= depth <= modes
            assert math.comb(photons + depth, depth) <= TEXT_CACHE_BOUND
            # the largest such depth: one more mode would pass the bound
            assert depth == modes or math.comb(photons + depth + 1, depth + 1) > TEXT_CACHE_BOUND
            photons += 1
        assert photons > 0


def test_falling_ratio_single_photon_is_one_over_modes():
    for modes in (1, 2, 10, 1000):
        assert falling_ratio_exact(1, modes, 1) == Fraction(1, modes)
        # the log of the rounded ratio reads back as exactly the float 1 / M
        assert falling_ratio_logs(1, modes)[0] == math.log(1 / modes)


def test_falling_ratio_single_mode_is_one():
    for k in range(1, 8):
        assert falling_ratio_exact(7, 1, k) == 1
    assert all(entry == 0.0 for entry in falling_ratio_logs(7, 1))


def test_falling_ratio_last_term_inverse_binomial():
    # k = photons collapses to one over the total arrangement count
    assert falling_ratio_exact(10, 100, 10) == Fraction(1, math.comb(109, 10))
    assert math.exp(falling_ratio_logs(10, 100)[-1]) == pytest.approx(
        1 / math.comb(109, 10), rel=1e-14)


def test_falling_ratio_argument_validation():
    with pytest.raises(ValueError):
        falling_ratio_exact(5, 2, 0)
    with pytest.raises(ValueError):
        falling_ratio_exact(5, 2, 6)
    with pytest.raises(ValueError):
        falling_ratio_exact(5, 0, 1)
    with pytest.raises(ValueError):
        falling_ratio_logs(5, 0)
    with pytest.raises(ValueError):
        falling_ratio_logs(-1, 2)
    assert falling_ratio_logs(0, 3) == []


def test_exact_and_log_routes_agree():
    for photons in range(1, 13):
        for modes in range(1, 13):
            logs = falling_ratio_logs(photons, modes)
            for k in range(1, photons + 1):
                exact = float(falling_ratio_exact(photons, modes, k))
                assert math.exp(logs[k - 1]) == pytest.approx(exact, rel=1e-14)


def test_strictly_decreasing_in_modes():
    for photons in (1, 2, 5, 11):
        for k in sorted({1, min(3, photons), photons}):
            logs = [falling_ratio_logs(photons, modes)[k - 1] for modes in range(1, 60)]
            assert all(a > b for a, b in zip(logs, logs[1:]))
            exact = [falling_ratio_exact(photons, modes, k) for modes in range(1, 60)]
            assert all(a > b for a, b in zip(exact, exact[1:]))


def test_prefix_logs_match_individual_terms():
    logs = falling_ratio_logs(9, 7)
    assert len(logs) == 9
    for k, entry in enumerate(logs, start=1):
        exact = falling_ratio_exact(9, 7, k)
        expected = math.log(exact.numerator) - math.log(exact.denominator)
        assert entry == pytest.approx(expected, rel=0, abs=1e-14)


def reference_falling_ratio_logs(photons, modes):
    """falling_ratio_logs as a plain loop that tests the Neumaier branch with abs()."""
    out = []
    acc = 0.0
    carry = 0.0
    for j in range(photons):
        factor = math.log((photons - j) / (photons + modes - 1 - j))
        summed = acc + factor
        if abs(acc) >= abs(factor):
            carry += (acc - summed) + factor
        else:
            carry += (factor - summed) + acc
        acc = summed
        out.append(acc + carry)
    return out


def reference_sum_log_probs(logs):
    """sum_log_probs with its shifted exponentials summed from a generator."""
    logs = [x for x in logs if x != -math.inf]
    if not logs:
        return LogProb(-math.inf)
    peak = max(logs)
    return LogProb(peak + math.log(sum(math.exp(x - peak) for x in logs)))


def test_log_kernels_equal_loop_references_exactly():
    # the same floats bit for bit, not within a tolerance
    rng = random.Random(2024)
    sizes = list(itertools.product((0, 1, 2, 10, 1000, 3000), (1, 2, 199, 10**5, 10**18)))
    sizes += [(rng.randrange(3001), rng.randrange(1, 10**6)) for _ in range(20)]
    for photons, modes in sizes:
        logs = falling_ratio_logs(photons, modes)
        assert logs == reference_falling_ratio_logs(photons, modes)
        step = rng.uniform(-3.0, 0.0)
        contributions = [c + k * step for k, c in enumerate(logs, start=1)]
        for _ in range(rng.randrange(4)):
            contributions.insert(rng.randrange(len(contributions) + 1), -math.inf)
        assert sum_log_probs(contributions) == reference_sum_log_probs(contributions)


def test_crossover_dispatch():
    noise = TableNoise((0.25,))
    coefficients, total = false_alarm_series(150, 50, noise)
    assert coefficients[16] == falling_ratio_exact(150, 50, 17)
    assert total == Fraction(0.25) * falling_ratio_exact(150, 50, 1)
    coefficients, total = false_alarm_series(150, 51, noise)
    assert coefficients == falling_ratio_logs(150, 51)
    assert isinstance(total, LogProb)
    assert false_alarm_series(1000, 100_000, noise)[0][2] == falling_ratio_logs(1000, 100_000)[2]


def test_huge_instance_stays_finite():
    logs = falling_ratio_logs(1000, 100_000)
    assert len(logs) == 1000
    assert all(math.isfinite(entry) for entry in logs)


def test_logprob_helpers():
    assert float(LogProb(-math.inf)) == 0.0
    half = math.log(0.5)
    assert float(LogProb(half + half)) == pytest.approx(0.25, rel=1e-15)
    assert float(sum_log_probs([half, half])) == pytest.approx(1.0, rel=1e-15)
    assert sum_log_probs([]).log_value == -math.inf
    assert float(sum_log_probs([-math.inf, half])) == pytest.approx(0.5, rel=1e-15)
