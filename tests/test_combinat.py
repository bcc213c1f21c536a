import itertools
import math

import pytest

from twinfock.combinat import (
    TEXT_CACHE_BOUND,
    composition_texts,
    compositions,
    count_compositions,
    suffix_depth,
)
from twinfock.detection import TableNoise, false_alarm_series
from twinfock.loss import CONTEXT
from twinfock.fock import AmplitudeCapError, check_sector_size

from references import sci17


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
    with pytest.raises(ValueError, match="^total must be non-negative$"):
        list(compositions(-1, 2))


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


def coefficients(photons, modes):
    """The false-alarm coefficients, the falling ratios of the closed form."""
    return false_alarm_series(photons, modes, TableNoise(()))[0]


def test_falling_ratio_single_photon_is_one_over_modes():
    for modes in (1, 2, 10, 1000):
        # the one coefficient is 1 / M rounded once, the baseline's value
        assert coefficients(1, modes) == [CONTEXT.divide(1, modes)]


def test_falling_ratio_single_mode_is_one():
    assert coefficients(7, 1) == [1] * 7


def test_falling_ratio_last_term_inverse_binomial():
    # k = photons collapses to one over the total arrangement count
    assert format(coefficients(10, 100)[-1], ".16e") == sci17(1, math.comb(109, 10))


def test_falling_ratio_argument_validation():
    with pytest.raises(ValueError):
        coefficients(5, 0)
    with pytest.raises(ValueError):
        coefficients(-1, 2)
    assert coefficients(0, 3) == []


def test_strictly_decreasing_in_modes():
    for photons in (1, 2, 5, 11):
        for k in sorted({1, min(3, photons), photons}):
            values = [coefficients(photons, modes)[k - 1] for modes in range(1, 60)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_huge_instance_stays_finite():
    values = coefficients(1000, 100_000)
    assert len(values) == 1000
    assert all(0 < value < 1 for value in values)
    # the last is 1 / C(100999, 1000), far below the float range
    assert format(values[-1], ".16e") == sci17(1, math.comb(100999, 1000))
