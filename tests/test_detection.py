import itertools
import math
import random
import time
from decimal import Context, Decimal, Subnormal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twinfock.combinat import compositions, count_compositions
from twinfock.detection import (
    TableNoise,
    ThermalNoise,
    detection_report,
    false_alarm_grid,
    false_alarm_series,
    p_fa_closed,
    p_fa_oracle,
    p_fa_trace,
    p_md_closed,
    single_photon_baselines,
)
from twinfock import detection, loss
from twinfock.loss import (
    CONTEXT,
    beamsplitter_oracle,
    conditional_state,
    conditional_states,
    split_by_environment,
)
from twinfock.fock import IDLER, SIGNAL, AmplitudeCapError, SparseState, combine

from references import (division_coefficients, falling_ratios, fraction17, full_pfa_total,
                        pfa_total, sci17)


def falling_ratio(photons, modes, k):
    """Coefficient k of the closed form, a Decimal that compares exactly with a Fraction."""
    return false_alarm_series(photons, modes, TableNoise(()))[0][k - 1]


def first_probs(noise, count):
    """p_0..p_count of arrangement_series, read in CONTEXT; a table's series ends sooner."""
    probs, _ = noise.arrangement_series()
    with localcontext(CONTEXT):
        return list(itertools.islice(probs, count + 1))


def test_thermal_noiseless():
    assert first_probs(ThermalNoise(0.0, 3), 4) == [1, 0, 0, 0, 0]
    assert ThermalNoise(0.0, 3).arrangement_series()[1] == 0


def test_thermal_single_mode_example():
    assert first_probs(ThermalNoise(1.0, 1), 1) == [Decimal("0.5"), Decimal("0.25")]
    assert ThermalNoise(1.0, 1).arrangement_series()[1] == Decimal("0.5")


def test_thermal_rejects_negative_occupation():
    for nbar in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ThermalNoise(nbar, 2)
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        ThermalNoise(0.5, 0)


def test_thermal_normalization_over_arrangements():
    for modes in range(1, 5):
        for nbar in (0.2, 1.0, 2.0):
            noise = ThermalNoise(nbar, modes)
            probs = first_probs(noise, 80)
            total = sum(count_compositions(k, modes) * float(p) for k, p in enumerate(probs))
            assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("nbar", [1e4, 1e8, 1e12])
def test_thermal_log_total_keeps_its_digits_at_large_occupation(nbar):
    # 1 / (1 + nbar) is raised to the power M = 1000, so a rounding of 1 + nbar
    # would grow a thousandfold; the total keeps all of its digits, and its log too
    photons, modes = 3, 1000
    noise = ThermalNoise(nbar, modes)
    total = false_alarm_series(photons, modes, noise)[1]
    numerator, denominator = pfa_total(photons, modes, noise)
    assert format(total, ".16e") == sci17(numerator, denominator)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(numerator).ln() - Decimal(denominator).ln()
        assert abs(total.ln() - exact) <= abs(exact) * Decimal(10) ** -38


def test_table_noise_zero_extension_and_bounds():
    noise = TableNoise((0.1, 0.05))
    # the vacuum reads as zero and the entries as their floats; the series ends with
    # the table, as every count past it reads as zero, and no ratio bounds its entries
    assert first_probs(noise, 3) == [0, Decimal(0.1), Decimal(0.05)]
    assert first_probs(noise, 1) == [0, Decimal(0.1)]
    assert noise.arrangement_series()[1] is None
    for bad in (-0.1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            TableNoise((0.1, bad))


def test_table_noise_from_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("0.25\n0.125\n\n0.0625\n")
    noise = TableNoise.from_file(path)
    assert noise.values == (0.25, 0.125, 0.0625)


def test_thermal_arrangement_probs_are_exact_to_their_rounding():
    # (1 + nbar)^-M x^k from the exact float nbar, against integer references
    for nbar, modes in ((0.7, 4), (100.0, 150), (0.3, 3000), (1e-300, 7)):
        probs = first_probs(ThermalNoise(nbar, modes), 6)
        assert len(probs) == 7
        n, d = nbar.as_integer_ratio()
        for k, prob in enumerate(probs):
            # within (2k + 2) 5e-40 of d^M n^k / (n + d)^(M + k), cross-multiplied in integers
            num, den = d ** modes * n ** k, (n + d) ** (modes + k)
            a, b = prob.as_integer_ratio()
            assert abs(a * den - num * b) * 10**39 < (k + 1) * num * b


def test_p_md_closed_examples():
    assert p_md_closed(5, 1.0) == 0.0
    assert p_md_closed(2, 0.5) == 0.25
    assert p_md_closed(1, 0.3) == 1 - 0.3
    assert p_md_closed(0, 0.4) == 1.0
    assert p_md_closed(0, 1.0) == 1.0
    with pytest.raises(ValueError):
        p_md_closed(2, 1.5)


def test_missed_detection_rounds_the_exact_power():
    # (1 - eta)^N for the exact float eta, N up to 10^4, against Fraction powers
    rng = random.Random(31)
    for _ in range(40):
        photons, eta = rng.randrange(10**4 + 1), rng.choice([rng.random(), 2.0 ** -rng.randrange(60)])
        exact = (1 - Fraction(eta)) ** photons
        assert format(p_md_closed(photons, eta, 17), ".16e") == fraction17(exact)
        assert p_md_closed(photons, eta) == float(exact)
    # 0.5^25 = 2.98023223876953125e-8 is an exact 17-digit midpoint: the exact route
    # rounds it half-even, down to an even last digit
    assert p_md_closed(25, 0.5, 17) == Decimal("2.9802322387695312E-8")


def test_p_md_closed_is_correctly_rounded_at_every_midpoint_kind():
    # with 1 - eta = b / 2^e, b odd, an exact midpoint needs b^N < 2^54 (N <= 34 once
    # b >= 3) or b = 1 and eN = 1075; 40 digits put (19, 0.125), (34, 0.25) and
    # (34, 0.625) on the wrong side, and 0.5^1075 is half the smallest subnormal
    for photons in range(80):
        for eta in (0, 0.1, 0.125, 0.25, 0.3, 0.375, 0.5, 0.625, 0.7, 1):
            exact = (1 - Fraction(eta)) ** photons
            assert p_md_closed(photons, eta) == float(exact), (photons, eta)
    assert p_md_closed(34, 0.25) == 5.650448946785622e-05
    assert p_md_closed(1075, 0.5) == 0.0


def test_p_md_reads_the_all_absorbed_loss_weight():
    for photons, eta in ((0, 1.0), (7, 0.3), (34, 0.25), (10**6, 1e-7)):
        assert p_md_closed(photons, eta, 17) == loss.absorption_weight(photons, 1, eta, photons,
                                                                       digits=17)
        assert p_md_closed(photons, eta) == loss.absorption_weight(photons, 1, eta, photons)
    for photons, eta in ((-1, 0.5), (2, 1.5), (2, math.nan)):
        for digits in (17, None):
            with pytest.raises(ValueError):
                p_md_closed(photons, eta, digits)
    # 0.5^(10^19) lies below the decimal range; both roundings name the quantity
    for digits in (17, None):
        with pytest.raises(Subnormal, match=r"P_MD at N=10000000000000000000, eta=0\.5 lies below"):
            p_md_closed(10**19, 0.5, digits)


def test_p_md_past_the_exact_fallback_bound_returns_at_once():
    # the N, about 7.45e302, that puts (1 - 1e-300)^N nearest 2^-1075: the 40 digits
    # straddle that midpoint, and an exact power of that size would never finish, so
    # past 65535 photons the float is rounded from the 40 digits
    with localcontext(Context(prec=700)):
        photons = int((1075 * Decimal(2).ln() / -(1 - Decimal(1e-300)).ln()).to_integral_value())
    # the kernel's own 40 digits: past 65535 photons round_once returns them as they are
    weight = loss.absorption_weight(photons, 1, 1e-300, photons, digits=CONTEXT.prec)
    # round_once would take an exact route here: the 40 digits leave the float undecided
    assert loss.round_once(weight, lambda: (1, 3)) == 1 / 3
    start = time.perf_counter()
    assert loss.absorption_weight(photons, 1, 1e-300, photons) == float(weight)
    assert p_md_closed(photons, 1e-300) == float(weight)
    assert p_md_closed(photons, 1e-300, 17) == Context(prec=17).plus(weight)
    assert time.perf_counter() - start < 1.0


def test_p_fa_closed_rounds_a_midpoint_total_half_even():
    # 2/3 (0.5 + 2^-53) + 1/3 (0.5 - 2^-54) = 0.5 + 2^-54, halfway between 0.5 and its
    # successor, so half-even gives 0.5; the rounded 2/3 tips the 40 digits above it
    noise = TableNoise((0.5 + 2 ** -53, 0.5 - 2 ** -54))
    assert Fraction(*pfa_total(2, 2, noise)) == Fraction(1, 2) + Fraction(1, 2 ** 54)
    assert p_fa_closed(2, 2, noise) == 0.5


def test_p_fa_closed_rounds_the_exact_total_of_each_noise_model():
    # exact totals on and near float midpoints, against integer references
    noises = [(1, 1, TableNoise((2 ** -54 + 2 ** -106,))),
              (2, 2, TableNoise((0.5 + 2 ** -53, 0.5 - 2 ** -54, 1.0))),
              (3, 4, ThermalNoise(1.0, 4)), (5, 3, ThermalNoise(5e-324, 3)),
              (4, 2, ThermalNoise(0.0, 2)), (0, 1, TableNoise((0.5,))),
              (30, 7, ThermalNoise(1e300, 7)), (12, 40, ThermalNoise(0.3, 40))]
    for photons, modes, noise in noises:
        exact = Fraction(*pfa_total(photons, modes, noise))
        assert p_fa_closed(photons, modes, noise) == float(exact)
        # the fallback's route: each model's exact sum of the integer coefficients times p_k
        numerators, denominator = falling_ratios(photons, modes)
        assert Fraction(*noise.exact_weighted_sum(numerators)) / denominator == exact


NBARS = (0.0, 5e-324, 1e-300, 0.3, 1.0, 1e6, 1e300)
PFA_MODES = (1, 2, 10, 10 ** 5, 10 ** 18)


@st.composite
def pfa_cases(draw):
    """(N, M, noise): thermal at NBARS, or tables with trailing zeros, all zeros or past N."""
    photons = draw(st.integers(0, 3000) | st.integers(0, 40))
    modes = draw(st.sampled_from(PFA_MODES))
    if draw(st.booleans()):
        return photons, modes, ThermalNoise(draw(st.sampled_from(NBARS)), modes)
    entries = draw(st.lists(st.floats(0.0, 1.0), max_size=50))
    zeros = draw(st.integers(0, 60))
    return photons, modes, TableNoise(tuple(entries) + (0.0,) * zeros)


@settings(max_examples=120, deadline=None)
@given(pfa_cases())
@example((3000, 3000, ThermalNoise(1.0, 3000)))
@example((3000, 1, ThermalNoise(1e300, 1)))
@example((3000, 10, ThermalNoise(1e6, 10)))
@example((3000, 10 ** 18, ThermalNoise(1.0, 10 ** 18)))
@example((100, 2, TableNoise((0.0,) * 150)))
@example((7, 10, TableNoise((0.25,) * 10 + (0.0,) * 5)))
def test_total_equals_the_full_sequential_sum(case):
    photons, modes, noise = case
    try:
        expected = full_pfa_total(photons, modes, noise)
    except Subnormal:  # (1 + nbar)^-M below the kernel's range, at M = 1e18
        with pytest.raises(Subnormal):
            false_alarm_series(photons, modes, noise)
        return
    total = false_alarm_series(photons, modes, noise)[1]
    assert total == expected
    # as pfa-curves prints them: a zero's exponent, which .16e shows, is not its value
    assert (format(total, ".16e") if total else "0") == (format(expected, ".16e") if expected else "0")


GRID_MODES = (1, 2, 199, 10 ** 5, 10 ** 18)


@pytest.mark.parametrize("noise_for", [
    lambda modes: ThermalNoise(1.0, modes),
    lambda modes: ThermalNoise(1e6, modes),
    lambda modes: TableNoise((0.3, 0.0, 0.125, 2 ** -60)),
], ids=["thermal:1", "thermal:1e6", "table"])
@pytest.mark.parametrize("photons", [0, 1, 2, 10, 3000])
def test_grid_kernel_keeps_the_bits_of_the_divisions_cell_by_cell(photons, noise_for):
    # numerator / int over numerators built once per N is the rounded division
    # context.divide(int, int) makes: every cell of a multi-cell grid holds the
    # coefficients and total of the reference and of the one-cell false_alarm_series
    cells = false_alarm_grid(photons, GRID_MODES, noise_for)
    for modes in GRID_MODES:
        noise = noise_for(modes)
        try:
            expected = division_coefficients(photons, modes), full_pfa_total(photons, modes, noise)
        except Subnormal:  # (1 + nbar)^-M below the kernel's range: thermal:1e6 at M = 1e18
            with pytest.raises(Subnormal, match=f"P_FA at N={photons}, M={modes} lies below"):
                next(cells)
            return
        assert next(cells) == (modes, *expected)
        assert false_alarm_series(photons, modes, noise) == expected
    assert next(cells, None) is None


class CountingNoise:
    """A noise model that counts the arrangement probabilities it hands out, past p_0."""

    def __init__(self, noise):
        self.noise, self.modes, self.handed = noise, getattr(noise, "modes", None), 0

    def arrangement_series(self):
        probs, step = self.noise.arrangement_series()

        def counted():
            yield next(probs)  # p_0, which no product takes
            for prob in probs:
                self.handed += 1
                yield prob
        return counted(), step


def test_total_stops_at_the_last_product_that_can_change_it():
    # under thermal:1 each product is at most about 1/4 of the one before, so the
    # 40 digits are fixed within 68 products: 112 are summed, of 3000
    noise = CountingNoise(ThermalNoise(1.0, 3000))
    total = false_alarm_series(3000, 3000, noise)[1]
    assert noise.handed <= 256
    assert total == full_pfa_total(3000, 3000, ThermalNoise(1.0, 3000))
    # a table's products stop at its last entry
    table = CountingNoise(TableNoise((0.5,) * 64))
    false_alarm_series(3000, 100, table)
    assert table.handed == 64


def test_first_coefficient_single_photon():
    for modes in (1, 2, 10, 57):
        coefficients, total = false_alarm_series(1, modes, TableNoise((1.0,)))
        assert coefficients == [total] == [CONTEXT.divide(1, modes)]
        assert format(total, ".16e") == sci17(1, modes)


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
            coefficients = false_alarm_series(photons, modes, TableNoise(()))[0]
            assert coefficients[0] == CONTEXT.divide(photons, photons + modes - 1)
            assert format(coefficients[-1], ".16e") == sci17(
                1, math.comb(photons + modes - 1, photons))


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
    probs = {k: float(p) for k, p in enumerate(first_probs(noise, photons)) if k}
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


def test_trace_names_bad_counts_as_the_oracle_does():
    # the photon and mode counts are checked first, in p_fa_oracle's words
    with pytest.raises(ValueError, match="^photons must be non-negative$"):
        p_fa_trace(-1, 2, TableNoise(()), [])
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        p_fa_trace(2, 0, TableNoise(()), [])
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        p_fa_trace(2, 0, ThermalNoise(0.5, 2), [])


def test_noise_modes_mismatch_rejected():
    with pytest.raises(ValueError):
        p_fa_closed(2, 3, ThermalNoise(0.5, 2))


def all_absorbed_mass(photons, modes, eta):
    """The weight the beamsplitter oracle leaves with every photon in the environment."""
    split = split_by_environment(beamsplitter_oracle(photons, modes, eta))
    return sum(c.weight for c in split if sum(c.absorbed) == photons)


def test_oracle_all_absorbed_mass_matches_closed_form():
    for photons in range(0, 4):
        for modes in range(1, 4):
            for eta in (0.2, 0.5, 0.8):
                closed = p_md_closed(photons, eta)
                assert abs(all_absorbed_mass(photons, modes, eta) - closed) < 1e-15
                report = detection_report(photons, modes, eta, TableNoise(()), include_oracle=True)
                assert abs(report.p_md_oracle - closed) < 1e-15
    assert all_absorbed_mass(1, 2, 0.5) == pytest.approx(0.5)
    assert all_absorbed_mass(3, 2, 0.4) == pytest.approx(0.216, abs=1e-12)
    assert all_absorbed_mass(2, 2, 0.0) == pytest.approx(1.0)


def test_p_md_oracle_is_independent_of_the_closed_form(monkeypatch):
    # the oracle is the beamsplitter oracle's all-absorbed weight, so a perturbed
    # absorption_weight moves the closed form and leaves the oracle at (1 - eta)^N
    monkeypatch.setattr(detection, "absorption_weight", lambda *args: 0.5)
    for photons, modes, eta in ((1, 1, 0.3), (3, 2, 0.4), (5, 3, 0.75), (2, 1, 1.0)):
        report = detection_report(photons, modes, eta, TableNoise(()), include_oracle=True)
        assert report.p_md_closed == 0.5
        assert report.p_md_oracle == pytest.approx(float((1 - Fraction(eta)) ** photons),
                                                   rel=1e-14)


def test_report_past_the_float_range_of_the_binomials():
    # C(1100, 550) is past the float range, which the integer quotient of the old weights met
    report = detection_report(1100, 1, 0.5, ThermalNoise(0.5, 1), include_oracle=True)
    assert report.p_md_closed == 0.0 and abs(report.p_md_oracle) <= 1e-12
    assert abs(report.p_fa_oracle - report.p_fa_closed) <= 1e-12


def test_oracles_refuse_hostile_sizes_up_front():
    # the oracle at (60, 60) needs about 10^48 amplitudes, so only the up-front check
    # stops its build; P_MD's oracle is its all-absorbed mass
    start = time.perf_counter()
    with pytest.raises(AmplitudeCapError, match="N=60, M=60"):
        beamsplitter_oracle(60, 60, 0.5)
    with pytest.raises(AmplitudeCapError, match="N=60, M=60"):
        p_fa_oracle(60, 60, ThermalNoise(0.5, 60))
    with pytest.raises(AmplitudeCapError, match="N=60, M=60"):
        detection_report(60, 60, 0.5, ThermalNoise(0.5, 60), include_oracle=True)
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
    build = loss._KeptSector.state

    def counting(sector, absorbed):
        built.append(absorbed)
        return build(sector, absorbed)

    # p_md_closed calls absorption_weight
    monkeypatch.setattr(loss, "absorption_weight", refuse)
    monkeypatch.setattr(detection, "absorption_weight", refuse)
    monkeypatch.setattr(loss._KeptSector, "state", counting)
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
            values = [falling_ratio(photons, modes, k) for modes in range(2, 30)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_first_coefficient_beats_single_photon_baseline():
    for photons in (2, 3, 10):
        for modes in range(2, 40):
            first = falling_ratio(photons, modes, 1)
            assert first > Fraction(1, modes)


def test_last_coefficient_below_single_photon_baseline():
    for photons in (2, 3, 10):
        for modes in range(2, 40):
            last = falling_ratio(photons, modes, photons)
            assert last < Fraction(1, modes)


def test_every_coefficient_beats_repeated_copies_baseline():
    for photons in (2, 3, 7):
        for modes in range(photons + 1, photons + 30):
            for k in range(1, photons + 1):
                assert falling_ratio(photons, modes, k) < Fraction(photons, modes)


def test_baselines():
    assert single_photon_baselines(10, 100) == (Decimal("0.01"), Decimal("0.1"))
    with pytest.raises(ValueError, match="^photons must be non-negative$"):
        single_photon_baselines(-1, 3)
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        single_photon_baselines(3, 0)
    low, high = single_photon_baselines(1000, 500)
    assert (low, high) == (Decimal("0.002"), 2)
    one = single_photon_baselines(1, 7)
    assert one.single_copy == one.repeated_copies == CONTEXT.divide(1, 7)
    assert format(one.single_copy, ".16e") == sci17(1, 7)


def test_detection_report_consistency():
    noise = TableNoise((0.1, 0.05, 0.01))
    report = detection_report(3, 2, 0.4, noise, include_oracle=True)
    coefficients, total = false_alarm_series(3, 2, noise)
    assert report.p_fa_closed == float(total) == float(Fraction(*pfa_total(3, 2, noise)))
    assert 0.0 <= report.p_fa_closed <= 1.0
    assert all(0 <= c <= 1 for c in coefficients)
    assert report.p_md_closed == pytest.approx(0.216, abs=1e-12)
    assert report.p_fa_oracle == pytest.approx(report.p_fa_closed, abs=1e-10)
    assert report.p_md_oracle == pytest.approx(report.p_md_closed, abs=1e-10)
    plain = detection_report(3, 2, 0.4, noise)
    assert plain.p_fa_oracle is None and plain.p_md_oracle is None
    thermal = ThermalNoise(0.5, 100)
    far = detection_report(150, 100, 0.4, thermal)
    assert far.p_fa_closed == p_fa_closed(150, 100, thermal)
    assert far.p_fa_closed == float(Fraction(*pfa_total(150, 100, thermal)))


def test_p_md_closed_has_no_mode_dependence():
    noise = TableNoise((0.1,))
    reports = [detection_report(4, modes, 0.35, noise) for modes in (1, 2, 5)]
    assert reports[0].p_md_closed == reports[1].p_md_closed == reports[2].p_md_closed
