import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from twinfock.combinat import compositions, count_compositions
from twinfock.detection import TableNoise, false_alarm_grid, p_fa_closed, p_fa_oracle, p_md_closed
from twinfock.fock import (
    BACKGROUND,
    IDLER,
    SIGNAL,
    AmplitudeCapError,
    SparseState,
    combine,
    orthonormality_residual,
)
from twinfock.loss import (
    absorption_weight,
    beamsplitter_oracle,
    conditional_state,
    conditional_states,
    returned_mixture,
    round_once,
    split_by_environment,
)
from twinfock import loss
from twinfock.states import pair_state_direct

from references import amplitude_bits

ETAS = (0.1, 0.3, 0.5, 0.9)


def amp_diff(a, b):
    return combine([(1.0, a), (-1.0, b)]).max_abs()


def arrangements(photons, modes):
    for lost in range(photons + 1):
        yield from compositions(lost, modes)


def enumerated_multiplicity(photons, modes, absorbed):
    """Sum over kept arrangements n of prod_i C(n_i + a_i, a_i), term by term."""
    acc = 0
    for kept in compositions(photons - sum(absorbed), modes):
        prod = 1
        for n_kept, n_lost in zip(kept, absorbed):
            prod *= math.comb(n_kept + n_lost, n_lost)
        acc += prod
    return acc


def enumerated_weight(photons, modes, eta, absorbed):
    """Exact weight of one arrangement from the enumerated multiplicity sum."""
    lost, eta = sum(absorbed), Fraction(eta)
    ratio = Fraction(enumerated_multiplicity(photons, modes, absorbed),
                     count_compositions(photons, modes))
    return eta ** (photons - lost) * (1 - eta) ** lost * ratio


def exact_weight(photons, modes, eta, lost):
    """C(N, k) eta^(N-k) (1-eta)^k / C(k+M-1, k) for the exact value of the float eta."""
    eta = Fraction(eta)
    return (Fraction(math.comb(photons, lost), math.comb(lost + modes - 1, lost))
            * eta ** (photons - lost) * (1 - eta) ** lost)


def laddered_state(photons, modes, absorbed):
    """Reference state: the smaller pair state raised by idler creations, normalized."""
    state = pair_state_direct(photons - sum(absorbed), modes)
    for mode, count in enumerate(absorbed):
        for _ in range(count):
            state = state.create(IDLER, mode)
    return state.scaled(1.0 / state.norm())


def term_gap(a, b):
    """Largest amplitude difference, unpruned; inf when the supports differ."""
    left, right = dict(a.terms()), dict(b.terms())
    if left.keys() != right.keys():
        return math.inf
    return max((abs(left[k] - right[k]) for k in left), default=0.0)


def test_weight_single_photon_example():
    assert absorption_weight(1, 2, 0.5, 1) == 0.25
    assert absorption_weight(1, 2, 0.5, 0) == 0.5


def test_weight_lossless_channel():
    for lost in (1, 2):
        assert absorption_weight(2, 2, 1.0, lost) == 0.0
    assert absorption_weight(2, 2, 1.0, 0) == 1.0


def test_weight_all_absorbed_sums_to_survival_complement():
    # the C(N+M-1, N) arrangements of all N photons share P_MD evenly
    cases = [(n, m, eta) for n in range(0, 9) for m in range(1, 6) for eta in ETAS + (0.0, 1.0)]
    for photons, modes, eta in cases + [(150, 40, 0.3), (1100, 1, 0.5)]:
        total = count_compositions(photons, modes) * absorption_weight(photons, modes, eta, photons)
        closed = p_md_closed(photons, eta)
        assert abs(total - closed) <= math.ulp(closed), (photons, modes, eta)


def test_multiplicity_sum_is_chu_vandermonde():
    # the sum no longer enumerated in production: C(N+M-1, N-k) for any arrangement
    for photons in range(0, 7):
        for modes in range(1, 5):
            for absorbed in arrangements(photons, modes):
                kept = photons - sum(absorbed)
                assert (enumerated_multiplicity(photons, modes, absorbed)
                        == math.comb(photons + modes - 1, kept))


def test_weight_matches_enumerated_sum():
    # every arrangement of k absorbed photons weighs exactly the count-k weight
    for photons in range(0, 7):
        for modes in range(1, 5):
            for eta in ETAS + (0.0, 1.0):
                for absorbed in arrangements(photons, modes):
                    exact = enumerated_weight(photons, modes, eta, absorbed)
                    assert exact == exact_weight(photons, modes, eta, sum(absorbed))
                    assert absorption_weight(photons, modes, eta, sum(absorbed)) == float(exact)


def test_weight_is_the_exact_value_rounded_once():
    for photons in range(0, 9):
        for modes in range(1, 6):
            for eta in (0.0, 0.3, 0.7, 1.0):
                for lost in range(photons + 1):
                    assert (absorption_weight(photons, modes, eta, lost)
                            == float(exact_weight(photons, modes, eta, lost)))
    # (1 - 0.3)^150 from the float 1 - 0.3 was 93 units of 2^-53 off at k = 150
    for lost in (150, 75):
        assert absorption_weight(150, 40, 0.3, lost) == float(exact_weight(150, 40, 0.3, lost))
    assert absorption_weight(150, 40, 0.3, 150) == 1.330602260488426e-64
    # exact values halfway between two floats, which 40 digits put on either side:
    # (1 - 0.3) / 2, and C(57, k) / 2^57 for k = 25 and 32
    for photons, modes, eta, lost in ((1, 2, 0.3, 1), (57, 1, 0.5, 25), (57, 1, 0.5, 32)):
        exact = exact_weight(photons, modes, eta, lost)
        # a dyadic rational with a 54-bit odd numerator: one bit more than a float holds
        assert exact.denominator.bit_count() == 1
        assert exact.numerator % 2 == 1 and exact.numerator.bit_length() == 54
        assert absorption_weight(photons, modes, eta, lost) == float(exact)


def _refused():
    raise AssertionError("the exact route was taken")


def test_round_once_takes_the_exact_route_only_near_a_rounding_boundary():
    # clear of every boundary, the kernel value decides, at either target
    assert round_once(Decimal("0.3"), _refused) == 0.3
    assert round_once(Decimal("0.3"), _refused, 17) == Decimal("0.3")
    # 8.4e-40 above 1 + 2^-53, the midpoint between 1 and its successor, which
    # half-even rounds down: the exact route gives 1.0, the 40 digits round up
    above = Decimal("1.000000000000000111022302462515654042364")
    assert float(above) == 1.0000000000000002
    assert round_once(above, lambda: (2**53 + 1, 2**53)) == 1.0
    # 1e-40 above the 17-digit midpoint 100001 / 2^18 = 0.381473541259765625
    total = Decimal("0.3814735412597656250000000000000000000001")
    assert round_once(total, lambda: (100001, 2**18), 17) == Decimal("0.38147354125976562")
    # with no exact route, as past a caller's bound, the kernel value is rounded
    assert round_once(above, None) == 1.0000000000000002
    assert round_once(total, None, 17) == Decimal("0.38147354125976563")


def test_mixture_past_the_float_range_of_the_binomials():
    # C(1100, 550) is past the float range, which the integer quotient of the old ratio met
    mixture = returned_mixture(1100, 1, 0.5)
    assert len(mixture) == 1101
    assert abs(math.fsum(c.weight for c in mixture) - 1.0) <= 1e-12
    assert mixture[550].weight == float(exact_weight(1100, 1, 0.5, 550))


def test_mixture_evaluates_one_weight_per_absorbed_count(monkeypatch):
    calls = []
    weigh = absorption_weight
    monkeypatch.setattr("twinfock.loss.absorption_weight",
                        lambda *args: calls.append(args[3]) or weigh(*args))
    mixture = returned_mixture(7, 6, 0.4)
    assert len(mixture) == math.comb(13, 6) and calls == list(range(8))


def test_conditional_state_matches_laddered_pair_state():
    for photons in range(0, 7):
        for modes in range(1, 5):
            for absorbed in arrangements(photons, modes):
                closed = conditional_state(photons, modes, absorbed)
                assert term_gap(closed, laddered_state(photons, modes, absorbed)) <= 1e-15


def from_terms_conditional_state(photons, modes, absorbed):
    """Reference: the closed-form amplitudes built through the public SparseState.from_terms."""
    kept = photons - sum(absorbed)
    multiplicity = math.comb(photons + modes - 1, kept)
    terms = []
    for arrangement in compositions(kept, modes):
        weight = 1
        for n, a in zip(arrangement, absorbed):
            weight *= math.comb(n + a, a)
        idler = tuple(n + a for n, a in zip(arrangement, absorbed))
        terms.append(((idler, arrangement), math.sqrt(weight / multiplicity)))
    return SparseState.from_terms(modes, (IDLER, SIGNAL), terms)


def test_conditional_state_equals_public_construction():
    # keys, their order and every amplitude bit, state by state and over every kept sector
    cases = [(4, 3, absorbed) for absorbed in ((0, 0, 0), (1, 0, 0), (0, 2, 1), (0, 0, 4))]
    cases += [(7, 6, absorbed) for absorbed in ((0,) * 6, (0, 0, 0, 0, 0, 1),
                                                 (2, 0, 1, 0, 3, 0), (1, 1, 1, 1, 1, 1))]
    built = [((photons, modes, absorbed), conditional_state(photons, modes, absorbed))
             for photons, modes, absorbed in cases]
    built += [((photons, modes, absorbed), state)
              for photons in range(0, 8) for modes in range(1, 7)
              for absorbed, state in conditional_states(photons, modes)]
    for (photons, modes, absorbed), state in built:
        reference = from_terms_conditional_state(photons, modes, absorbed)
        assert (state.modes, state.registers) == (reference.modes, reference.registers)
        assert amplitude_bits(state) == amplitude_bits(reference), (photons, modes, absorbed)
        assert all(type(amp) is complex for _, amp in state.terms())


def test_conditional_state_refuses_like_pair_state():
    # keeps 40 photons over 12 modes, the sector pair_state_direct(40, 12) refuses
    with pytest.raises(AmplitudeCapError, match="N=40, M=12"):
        conditional_state(41, 12, (1,) + (0,) * 11)
    with pytest.raises(ValueError, match="cannot absorb more"):
        conditional_state(1, 2, (1, 1))
    with pytest.raises(ValueError, match="one count per mode"):
        conditional_state(1, 2, (1,))  # wrong arity
    with pytest.raises(ValueError, match="one count per mode"):
        conditional_state(1, 2, (0, 0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        conditional_state(1, 2, (-1, 1))
    with pytest.raises(ValueError, match="^photons must be non-negative$"):
        conditional_state(-1, 2, (0, 0))
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        conditional_state(1, 0, ())
    # nothing kept, but the idler mode would hold more than a key word can
    with pytest.raises(ValueError, match="65535"):
        conditional_state(0x10000, 1, (0x10000,))


def test_weight_validation():
    with pytest.raises(ValueError):
        absorption_weight(1, 2, 0.5, 2)  # more absorbed than sent
    with pytest.raises(ValueError):
        absorption_weight(1, 2, 0.5, -1)
    with pytest.raises(ValueError, match="^photons must be non-negative$"):
        absorption_weight(-1, 2, 0.5, 0)
    with pytest.raises(ValueError, match="^modes must be at least 1$"):
        absorption_weight(1, 0, 0.5, 0)
    for eta in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="eta"):
            absorption_weight(1, 2, eta, 0)
        with pytest.raises(ValueError, match="eta"):
            beamsplitter_oracle(1, 2, eta)


def test_component_nothing_absorbed():
    for eta in ETAS:
        assert absorption_weight(2, 2, eta, 0) == pytest.approx(eta ** 2, rel=1e-15)
        assert amp_diff(conditional_state(2, 2, (0, 0)), pair_state_direct(2, 2)) < 1e-12


def test_component_single_photon_fully_absorbed():
    state = conditional_state(1, 2, (1, 0))
    assert len(state) == 1
    assert state.amplitude(((1, 0), (0, 0))) == pytest.approx(1.0)


def test_component_states_are_normalized():
    for photons in range(0, 5):
        for modes in range(1, 4):
            for lost in range(photons + 1):
                for absorbed in compositions(lost, modes):
                    state = conditional_state(photons, modes, absorbed)
                    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_component_orthonormality():
    for photons in range(0, 5):
        for modes in range(1, 4):
            states = [c.state for c in returned_mixture(photons, modes, 0.5)]
            for i, a in enumerate(states):
                for j, b in enumerate(states):
                    target = 1.0 if i == j else 0.0
                    assert abs(a.inner(b) - target) < 1e-12


def test_orthonormality_residual_matches_pairwise_inner():
    for eta in (0.3, 0.7):
        states = [c.state for c in returned_mixture(4, 3, eta)]
        pairwise = max(
            abs(a.inner(b) - (1.0 if i == j else 0.0))
            for i, a in enumerate(states) for j, b in enumerate(states) if i <= j
        )
        assert orthonormality_residual(states) == pairwise


def test_mixture_completeness():
    for photons in range(0, 6):
        for modes in range(1, 5):
            for eta in ETAS:
                mixture = returned_mixture(photons, modes, eta)
                assert sum(c.weight for c in mixture) == pytest.approx(1.0, abs=1e-10)
                assert all(c.weight >= 0 for c in mixture)


def test_conditional_states_are_the_mixture_without_weights(monkeypatch):
    for photons in range(0, 5):
        for modes in range(1, 4):
            mixture = returned_mixture(photons, modes, 0.4)
            listed = list(conditional_states(photons, modes))
            assert [absorbed for absorbed, _ in listed] == [c.absorbed for c in mixture]
            for (_, state), component in zip(listed, mixture):
                assert list(state._amps.items()) == list(component.state._amps.items())

    def refuse(*args):
        raise AssertionError("absorption_weight called")

    monkeypatch.setattr("twinfock.loss.absorption_weight", refuse)
    assert len(list(conditional_states(3, 2))) == math.comb(5, 2)


def test_conditional_states_build_lazily(monkeypatch):
    built = []
    build = loss._KeptSector.state
    monkeypatch.setattr(loss._KeptSector, "state",
                        lambda *args: built.append(args) or build(*args))
    components = conditional_states(7, 6)
    assert built == []
    absorbed, state = next(components)
    assert absorbed == (0,) * 6 and len(built) == 1
    assert state.max_abs_diff(pair_state_direct(7, 6)) == 0.0


def _build_refused(*args):
    raise AssertionError("a loss component was built")


def test_mixture_checks_eta_and_its_total_size_before_building(monkeypatch):
    monkeypatch.setattr(loss, "conditional_states", _build_refused)
    for eta in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="eta must lie in"):
            returned_mixture(9, 8, eta)
    # every kept sector is under the amplitude cap, but all of them hold C(32, 13) = 347,373,600
    with pytest.raises(AmplitudeCapError, match="N=13, M=10"):
        returned_mixture(13, 10, 0.5)


def test_zero_modes_are_refused_with_one_message():
    builds = [lambda modes: list(conditional_states(3, modes)),
              lambda modes: returned_mixture(3, modes, 0.5),
              lambda modes: conditional_state(3, modes, (0,) * max(modes, 0)),
              lambda modes: beamsplitter_oracle(3, modes, 0.5),
              lambda modes: p_fa_oracle(3, modes, TableNoise((0.1,) * 3))]
    for build in builds:
        for modes in (0, -1):
            with pytest.raises(ValueError, match="^modes must be at least 1$"):
                build(modes)


def test_negative_photon_counts_are_refused():
    # range(photons + 1) alone would enumerate nothing and return an empty mixture;
    # an empty grid of cells would likewise yield nothing
    refusals = [lambda: list(conditional_states(-1, 2)),
                lambda: returned_mixture(-1, 2, 0.5),
                lambda: list(false_alarm_grid(-1, [], lambda modes: TableNoise(()))),
                lambda: p_fa_closed(-1, 2, TableNoise((0.1,)))]
    for refusal in refusals:
        with pytest.raises(ValueError, match="^photons must be non-negative$"):
            refusal()


def test_mixture_single_pair_example():
    mixture = returned_mixture(1, 2, 0.5)
    assert [(c.absorbed, pytest.approx(c.weight)) for c in mixture] == [
        ((0, 0), pytest.approx(0.5)),
        ((1, 0), pytest.approx(0.25)),
        ((0, 1), pytest.approx(0.25)),
    ]


def test_mixture_eta_endpoints():
    intact = returned_mixture(2, 2, 1.0)
    assert intact[0].absorbed == (0, 0)
    assert intact[0].weight == pytest.approx(1.0)
    assert all(c.weight == 0.0 for c in intact[1:])

    opaque = returned_mixture(2, 2, 0.0)
    fully_absorbed = [c for c in opaque if sum(c.absorbed) == 2]
    assert sum(c.weight for c in fully_absorbed) == pytest.approx(1.0)
    assert all(c.weight == 0.0 for c in opaque if sum(c.absorbed) < 2)


def test_total_absorbed_count_is_binomial():
    # grouping arrangements by their total reproduces per-photon coin flips
    for photons in range(0, 6):
        for modes in range(1, 5):
            for eta in (0.3, 0.7):
                mixture = returned_mixture(photons, modes, eta)
                by_total = {}
                for component in mixture:
                    total = sum(component.absorbed)
                    by_total[total] = by_total.get(total, 0.0) + component.weight
                for lost, weight in by_total.items():
                    expected = (
                        math.comb(photons, lost)
                        * (eta ** (photons - lost))
                        * ((1 - eta) ** lost)
                    )
                    assert weight == pytest.approx(expected, abs=1e-12)


def test_oracle_transparent_splitter():
    oracle = beamsplitter_oracle(2, 2, 1.0)
    pair = pair_state_direct(2, 2)
    for (idler, signal, environment), amp in oracle.terms():
        assert environment == (0, 0)
        assert amp == pytest.approx(pair.amplitude((idler, signal)))
    assert len(oracle) == len(pair)


def test_oracle_single_photon_hand_expansion():
    oracle = beamsplitter_oracle(1, 2, 0.5)
    expected = math.sqrt(0.5 / 2)
    assert oracle.amplitude(((1, 0), (1, 0), (0, 0))) == pytest.approx(expected)
    assert oracle.amplitude(((1, 0), (0, 0), (1, 0))) == pytest.approx(expected)
    assert oracle.amplitude(((0, 1), (0, 1), (0, 0))) == pytest.approx(expected)
    assert oracle.amplitude(((0, 1), (0, 0), (0, 1))) == pytest.approx(expected)
    assert oracle.norm() == pytest.approx(1.0, abs=1e-12)


def test_oracle_matches_component_decomposition():
    cases = [(n, m, eta) for n in range(0, 4) for m in range(1, 4) for eta in (0.2, 0.5, 0.8)]
    # 171! is past the float range; no amplitude of the oracle may pass through it
    cases += [(n, 1, eta) for n in (171, 200) for eta in (0.0, 0.5, 1.0)]
    for photons, modes, eta in cases:
        oracle = beamsplitter_oracle(photons, modes, eta)
        assert oracle.norm() == pytest.approx(1.0, abs=1e-12)
        by_label = {c.absorbed: c for c in split_by_environment(oracle)}
        for component in returned_mixture(photons, modes, eta):
            other = by_label.get(component.absorbed)
            if other is None:
                # only an arrangement of probability exactly zero (eta = 0 or 1) has no amplitude
                assert component.weight == 0.0
                continue
            assert other.weight == pytest.approx(component.weight, abs=1e-12)
            assert amp_diff(other.state, component.state) < 1e-12


def test_split_normalizes_components_below_the_float_range():
    # at eta = 1e-158 the unabsorbed component weighs 1e-316, below the normal float
    # range, and at eta = 1e-300 its weight 1e-600 underflows to 0; no amplitude is zero
    for eta in (1e-158, 1e-300):
        oracle = beamsplitter_oracle(2, 2, eta)
        before = amplitude_bits(oracle)
        grouped = split_by_environment(oracle)
        # its groups are scaled in place, twice below the float range; the oracle never
        assert amplitude_bits(oracle) == before
        mixture = returned_mixture(2, 2, eta)
        assert [c.absorbed for c in grouped] == [c.absorbed for c in mixture]
        for component, closed in zip(grouped, mixture):
            assert component.weight == pytest.approx(closed.weight, rel=1e-7, abs=0.0)
            assert amp_diff(component.state, closed.state) < 1e-12
    assert mixture[0].weight == 0.0


def test_split_requires_environment_register():
    with pytest.raises(ValueError):
        split_by_environment(pair_state_direct(1, 2))


def test_split_ordering_matches_mixture():
    oracle = beamsplitter_oracle(2, 3, 0.4)
    grouped = split_by_environment(oracle)
    labels = [c.absorbed for c in grouped]
    expected = [c.absorbed for c in returned_mixture(2, 3, 0.4)]
    assert labels == expected


def test_oracle_imaginary_parts_stay_tiny():
    oracle = beamsplitter_oracle(3, 2, 0.3)
    for _, amp in oracle.terms():
        assert abs(amp.imag) < 1e-14


def ladder_oracle(photons, modes, eta):
    """Reference: every idler arrangement loaded alone, its signal photons routed one by one."""
    registers = (IDLER, SIGNAL, BACKGROUND)
    keep, leak = math.sqrt(eta), math.sqrt(1.0 - eta)
    scale = 1.0 / math.sqrt(count_compositions(photons, modes))
    empty = (0,) * modes
    pieces = []
    for arrangement in compositions(photons, modes):
        term = SparseState.from_terms(modes, registers, [((arrangement, empty, empty), 1.0)])
        for mode, count in enumerate(arrangement):
            for j in range(1, count + 1):
                step = 1.0 / math.sqrt(j)
                term = combine([
                    (keep * step, term.create(SIGNAL, mode)),
                    (leak * step, term.create(BACKGROUND, mode)),
                ])
        pieces.append((scale, term))
    return combine(pieces)


def test_oracle_matches_per_photon_ladder_reference():
    cases = [(n, m, eta) for n in range(0, 5) for m in range(1, 4)
             for eta in (0.0, 0.2, 0.5, 0.8, 1.0)]
    cases += [(n, 1, eta) for n in (171, 200) for eta in (0.0, 0.2, 0.5, 0.8, 1.0)]
    for photons, modes, eta in cases:
        built = dict(beamsplitter_oracle(photons, modes, eta).terms())
        reference = dict(ladder_oracle(photons, modes, eta).terms())
        assert built.keys() == reference.keys(), (photons, modes, eta)
        assert max((abs(built[k] - reference[k]) for k in built), default=0.0) <= 1e-15


def product_oracle(photons, modes, eta):
    """Reference: each leaf of the product of single-mode outputs multiplied out by math.prod."""
    keep, leak = math.sqrt(eta), math.sqrt(1.0 - eta)
    outputs = [SparseState.vacuum(1, (SIGNAL, BACKGROUND))]
    for j in range(1, photons + 1):
        step = 1.0 / math.sqrt(j)
        outputs.append(combine([(keep * step, outputs[-1].create(SIGNAL, 0)),
                                (leak * step, outputs[-1].create(BACKGROUND, 0))]))
    factors = [[(s, b, amp) for ((s,), (b,)), amp in output.terms()] for output in outputs]
    scale = 1.0 / math.sqrt(count_compositions(photons, modes))
    terms = []
    for arrangement in compositions(photons, modes):
        for picks in itertools.product(*map(factors.__getitem__, arrangement)):
            signal, background, amps = zip(*picks)
            amp = scale * math.prod(amps)
            if amp != 0:
                terms.append(((arrangement, signal, background), amp))
    return SparseState.from_terms(modes, (IDLER, SIGNAL, BACKGROUND), terms)


def test_oracle_equals_leaf_by_leaf_products_bit_for_bit():
    cases = [(n, m, eta) for n in range(0, 8) for m in range(1, 7) if n + m <= 10
             for eta in (0.0, 0.3, 0.7, 1.0)]
    cases.append((7, 6, 0.3))  # the size the benchmark builds
    cases += [(n, 1, eta) for n in (171, 200) for eta in (0.0, 0.3, 0.7, 1.0)]
    for photons, modes, eta in cases:
        built = beamsplitter_oracle(photons, modes, eta)
        reference = product_oracle(photons, modes, eta)
        assert amplitude_bits(built) == amplitude_bits(reference), (photons, modes, eta)


def test_oracle_routes_each_photon_count_once(monkeypatch):
    # the single-mode outputs are built once per oracle, for c = 0..N, whatever the mode count
    calls = []
    build = loss._one_mode_outputs

    def spying(photons, eta):
        outputs = build(photons, eta)
        calls.append(outputs)
        return outputs

    monkeypatch.setattr(loss, "_one_mode_outputs", spying)
    for photons, modes in ((0, 3), (1, 1), (3, 1), (3, 4), (5, 3), (7, 6)):
        calls.clear()
        beamsplitter_oracle(photons, modes, 0.4)
        (outputs,) = calls
        assert list(map(len, outputs)) == list(range(1, photons + 2)), (photons, modes)
