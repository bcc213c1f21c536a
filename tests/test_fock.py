import math
import random

import pytest

import twinfock.fock as fock
from twinfock.fock import (
    IDLER,
    SIGNAL,
    AmplitudeCapError,
    SparseState,
    check_sector_size,
    combine,
    log_sector_size,
    orthonormality_residual,
)

from references import amplitude_bits

IS = (IDLER, SIGNAL)


def random_state(rng, modes, registers=IS, terms=3, max_count=2):
    entries = []
    for _ in range(terms):
        counts = tuple(
            tuple(rng.randint(0, max_count) for _ in range(modes)) for _ in registers
        )
        entries.append((counts, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return SparseState.from_terms(modes, registers, entries)


def test_vacuum_inner_product():
    vac = SparseState.vacuum(2, IS)
    assert vac.inner(vac) == pytest.approx(1.0)
    assert vac.norm() == pytest.approx(1.0)


def test_vacuum_is_the_all_zero_basis_state_and_checks_the_caps_first():
    for modes in (1, 3):
        for registers in (IS, (IDLER, SIGNAL, fock.BACKGROUND)):
            zeros = tuple((0,) * modes for _ in registers)
            assert (amplitude_bits(SparseState.vacuum(modes, registers))
                    == amplitude_bits(SparseState.basis(modes, registers, zeros)))
    # 400 MB of key: refused before it is allocated
    with pytest.raises(AmplitudeCapError, match="key storage budget"):
        SparseState.vacuum(10 ** 8, IS)


def test_create_promotes_vacuum():
    vac = SparseState.vacuum(2, IS)
    raised = vac.create(IDLER, 0)
    assert len(raised) == 1
    assert raised.amplitude(((1, 0), (0, 0))) == pytest.approx(1.0)


def test_create_sqrt_rule():
    start = SparseState.basis(2, IS, ((2, 0), (0, 0)))
    raised = start.create(IDLER, 0)
    assert raised.amplitude(((3, 0), (0, 0))) == pytest.approx(math.sqrt(3))


def test_annihilate_sqrt_rule():
    start = SparseState.basis(2, IS, ((0, 0), (0, 2)))
    lowered = start.annihilate(SIGNAL, 1)
    assert lowered.amplitude(((0, 0), (0, 1))) == pytest.approx(math.sqrt(2))


def ladder_reference(state, register, mode, raise_count):
    """The create and annihilate loops written out apart, as a state."""
    off = state._offset(register, mode)
    out = {}
    for key, amp in state._amps.items():
        n = int.from_bytes(key[off:off + 2], "big")
        if raise_count:
            if n >= 0xFFFF:
                raise ValueError("mode count overflow")
            out[key[:off] + (n + 1).to_bytes(2, "big") + key[off + 2:]] = amp * math.sqrt(n + 1)
        elif n:
            out[key[:off] + (n - 1).to_bytes(2, "big") + key[off + 2:]] = amp * math.sqrt(n)
    return SparseState._adopt(state.modes, state.registers, out)


def test_ladder_keeps_keys_order_and_amplitude_bits():
    rng = random.Random(5)
    terms = [(((rng.choice([0, 1, 2, 7, 0xFFFE, 0xFFFF]), rng.randrange(4)),
               (rng.randrange(3), 0)), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
             for _ in range(40)]
    state = SparseState.from_terms(2, IS, terms)
    for register in IS:
        for mode in (0, 1):
            assert (amplitude_bits(state.annihilate(register, mode))
                    == amplitude_bits(ladder_reference(state, register, mode, False)))
            if register == IDLER and mode == 0:  # some idler counts there are 65535
                with pytest.raises(ValueError, match="mode count overflow"):
                    state.create(register, mode)
                continue
            assert (amplitude_bits(state.create(register, mode))
                    == amplitude_bits(ladder_reference(state, register, mode, True)))


def test_annihilate_vacuum_is_empty():
    vac = SparseState.vacuum(3, IS)
    assert len(vac.annihilate(SIGNAL, 0)) == 0
    assert vac.annihilate(SIGNAL, 0).norm() == 0.0


def test_number_operator_identity():
    for n in range(1, 6):
        state = SparseState.basis(1, IS, ((n,), (0,)))
        numbered = state.annihilate(IDLER, 0).create(IDLER, 0)
        assert numbered.amplitude(((n,), (0,))) == pytest.approx(n)


def test_ladder_linearity():
    a = SparseState.basis(2, IS, ((1, 0), (1, 0)))
    b = SparseState.basis(2, IS, ((0, 1), (0, 1)))
    superposition = combine([(0.6, a), (0.8j, b)])
    raised = superposition.create(SIGNAL, 0)
    expected = combine([(0.6, a.create(SIGNAL, 0)), (0.8j, b.create(SIGNAL, 0))])
    assert combine([(1, raised), (-1, expected)]).max_abs() == pytest.approx(0.0, abs=1e-15)


def test_create_annihilate_are_adjoint():
    rng = random.Random(7)
    for _ in range(20):
        modes = rng.randint(1, 4)
        a = random_state(rng, modes)
        b = random_state(rng, modes)
        register = rng.choice(IS)
        mode = rng.randrange(modes)
        lhs = a.inner(b.create(register, mode))
        rhs = b.inner(a.annihilate(register, mode))
        assert lhs == pytest.approx(rhs.conjugate(), abs=1e-12)


def test_register_validation():
    with pytest.raises(ValueError):
        SparseState.vacuum(2, (SIGNAL, IDLER))  # wrong canonical order
    with pytest.raises(ValueError):
        SparseState.vacuum(2, ())
    with pytest.raises(ValueError):
        SparseState.vacuum(0, IS)
    with pytest.raises(ValueError):
        SparseState.vacuum(2, ("X",))


def test_constructor_takes_no_raw_amplitudes():
    # a raw dict would skip key packing: a key of the wrong width breaks terms() and create()
    with pytest.raises(TypeError):
        SparseState(2, IS, {b"x": 1})
    assert len(SparseState(2, IS)) == 0


def test_from_terms_and_amplitude_check_the_shape_of_counts():
    with pytest.raises(ValueError, match="expected counts for registers"):
        SparseState.from_terms(2, IS, [(((1, 0),), 1.0)])
    with pytest.raises(ValueError, match="each register needs 2 mode counts"):
        SparseState.from_terms(2, IS, [(((1, 0), (1,)), 1.0)])
    with pytest.raises(ValueError, match="each register needs 2 mode counts"):
        SparseState.vacuum(2, IS).amplitude(((1, 0), (1, 0, 0)))
    # a repeated arrangement keeps its last amplitude; amplitude() packs keys as from_terms does
    state = SparseState.from_terms(2, IS, [(((1, 0), (1, 0)), 1.0), (((1, 0), (1, 0)), 0.5)])
    assert len(state) == 1
    assert state.amplitude(((1, 0), (1, 0))) == 0.5
    assert state.amplitude(((0, 1), (1, 0))) == 0j


def test_operator_argument_validation():
    vac = SparseState.vacuum(2, IS)
    with pytest.raises(ValueError):
        vac.create("B", 0)  # background not present
    with pytest.raises(ValueError):
        vac.create(IDLER, 2)
    with pytest.raises(ValueError):
        vac.annihilate(IDLER, -1)


def test_inner_walks_the_smaller_state_in_both_orders():
    # five terms against two, one key shared: <big|small> and <small|big> both walk small's terms
    shared = ((1, 0), (1, 0))
    big = SparseState.from_terms(2, IS, [
        (shared, 0.5 + 0.25j), (((0, 1), (0, 1)), 0.5j), (((2, 0), (2, 0)), -0.5),
        (((0, 2), (0, 2)), 0.25), (((1, 1), (1, 1)), 0.125 - 0.5j)])
    small = SparseState.from_terms(2, IS, [(shared, 0.75 - 0.5j), (((3, 0), (0, 0)), 1.0)])
    expected = (0.5 + 0.25j).conjugate() * (0.75 - 0.5j)  # the one shared key
    assert big.inner(small) == expected
    assert small.inner(big) == expected.conjugate()
    assert big.inner(small) == small.inner(big).conjugate()


def test_inner_shape_mismatch():
    a = SparseState.vacuum(2, IS)
    b = SparseState.vacuum(3, IS)
    c = SparseState.vacuum(2, (IDLER, SIGNAL, "B"))
    with pytest.raises(ValueError):
        a.inner(b)
    with pytest.raises(ValueError):
        a.inner(c)


def test_combine_identity_and_zero():
    x = SparseState.basis(2, IS, ((1, 0), (1, 0)))
    y = SparseState.basis(2, IS, ((0, 1), (0, 1)))
    out = combine([(1.0, x), (0.0, y)])
    assert len(out) == 1
    assert out.amplitude(((1, 0), (1, 0))) == pytest.approx(1.0)


def test_combine_refuses_an_empty_sum():
    with pytest.raises(ValueError, match="^combine needs at least one term$"):
        combine([])


def test_repr_gives_the_shape_and_term_count():
    assert repr(SparseState.vacuum(2, (IDLER, SIGNAL))) == (
        "SparseState(modes=2, registers=('I', 'S'), terms=1)")


def test_combine_adds_coefficients():
    x = SparseState.basis(2, IS, ((1, 0), (1, 0)))
    half = 1 / math.sqrt(2)
    out = combine([(half, x), (half, x)])
    assert out.amplitude(((1, 0), (1, 0))) == pytest.approx(math.sqrt(2))


def test_superposition_norm():
    a = SparseState.basis(2, IS, ((1, 0), (1, 0)))
    b = SparseState.basis(2, IS, ((0, 1), (0, 1)))
    alpha, beta = 0.3 + 0.4j, -0.5 + 0.2j
    out = combine([(alpha, a), (beta, b)])
    assert out.norm_sq() == pytest.approx(abs(alpha) ** 2 + abs(beta) ** 2, rel=1e-14)


def test_combine_drops_only_exact_zeros():
    a = SparseState.basis(1, IS, ((1,), (1,)))
    b = SparseState.basis(1, IS, ((2,), (2,)))
    # a tiny amplitude is kept, however small
    tiny = combine([(1.0, a), (1e-16, b)])
    assert len(tiny) == 2
    assert tiny.amplitude(((2,), (2,))) == 1e-16
    # cancellation leaves nothing behind
    gone = combine([(1.0, a), (-1.0, a)])
    assert len(gone) == 0


def test_prune_norm_drift_is_negligible():
    rng = random.Random(11)
    state = random_state(rng, 3, terms=6)
    rescaled = state.scaled(1.0)
    assert abs(rescaled.norm_sq() - state.norm_sq()) < 1e-12


def test_scaled_equals_one_term_combine_exactly():
    # equal amplitudes in the same key order, not within a tolerance, through tiny and
    # underflowing products, a zero coefficient and a NaN amplitude; only the sign of a
    # zero part may differ
    def values(state):
        return [(key, amp if amp == amp else "nan") for key, amp in state.terms()]

    rng = random.Random(5)
    nan_state = SparseState.from_terms(2, IS, [(((1, 0), (0, 1)), complex(math.nan, 0.0)),
                                              (((0, 1), (1, 0)), -0.5)])
    for state in [random_state(rng, 3, terms=8) for _ in range(4)] + [nan_state]:
        for coeff in (1.0, -0.3, 2j, complex(0.5, -1.5), 1e-15, 5e-324, 0.0):
            assert values(state.scaled(coeff)) == values(combine([(coeff, state)]))


def test_amplitude_cap_enforced(monkeypatch):
    monkeypatch.setattr(fock, "AMPLITUDE_CAP", 3)
    entries = [((( k,), (0,)), 1.0) for k in range(5)]
    with pytest.raises(AmplitudeCapError):
        SparseState.from_terms(1, IS, entries)
    small = SparseState.from_terms(1, IS, entries[:2])
    big = SparseState.from_terms(1, IS, entries[2:4])
    with pytest.raises(AmplitudeCapError):
        combine([(1.0, small), (1.0, big)])


def test_mode_count_bounds():
    for count in (70000, 65536, -1, 1.5):
        with pytest.raises(ValueError):
            SparseState.basis(1, IS, ((count,), (0,)))
    top = SparseState.basis(1, IS, ((0xFFFF,), (0,)))
    with pytest.raises(ValueError):
        top.create(IDLER, 0)
    # a sector whose photons could all sit in one mode past the bound is refused unbuilt
    assert check_sector_size("sector", 0xFFFF, 1, 1, 2) == 1
    with pytest.raises(ValueError, match="^photons must be non-negative$"):
        check_sector_size("x", -1, 2, 2, 2)
    for photons in (0x10000, 10**400):
        with pytest.raises(ValueError):
            check_sector_size("sector", photons, 1, 1, 2)


def test_log_sector_size_at_any_size():
    for photons in range(0, 30):
        for parts in range(1, 30):
            exact = math.log(math.comb(photons + parts - 1, photons))
            assert log_sector_size(photons, parts) == pytest.approx(exact, rel=1e-12, abs=1e-12)
    # past 2^53 a lower bound, beyond every cap; integers of any size cost nothing
    for photons, parts in ((2**53, 2), (10**400, 2), (1, 10**400), (10**20, 10**20)):
        estimate = log_sector_size(photons, parts)
        assert 36 < estimate <= min(photons, parts - 1) * math.log(photons + parts)
    assert log_sector_size(10**400, 1) == log_sector_size(0, 10**400) == 0.0
    assert log_sector_size(10**400, 10**400) == math.inf
    with pytest.raises(AmplitudeCapError):
        check_sector_size("sector", 10**400, 10**400, 2, 2)


def test_orthonormality_residual_reports_shared_key_overlap():
    a = SparseState.basis(2, IS, ((1, 0), (0, 1)))
    b = SparseState.from_terms(2, IS, [(((1, 0), (0, 1)), 0.6), (((0, 1), (1, 0)), 0.8)])
    assert b.norm_sq() == 1.0
    assert orthonormality_residual([a, b]) == abs(a.inner(b)) == 0.6
    disjoint = SparseState.basis(2, IS, ((0, 1), (0, 1)))
    assert orthonormality_residual([a, disjoint]) == 0.0
    # a third holder of the key meets both earlier ones: <b|c> = 0, <a|c> = 0.8
    c = SparseState.from_terms(2, IS, [(((1, 0), (0, 1)), 0.8), (((0, 1), (1, 0)), -0.6)])
    assert b.inner(c) == 0
    assert orthonormality_residual([b, c]) == abs(c.norm_sq() - 1.0) < 1e-15
    assert orthonormality_residual([b, a, c]) == 0.8


def test_orthonormality_residual_reports_unnormalized_state():
    a = SparseState.basis(2, IS, ((1, 0), (0, 1)))
    doubled = SparseState.basis(2, IS, ((0, 0), (2, 0))).scaled(2.0)
    assert orthonormality_residual([a, doubled]) == abs(doubled.norm_sq() - 1.0) == 3.0
    assert orthonormality_residual([SparseState(2, IS)]) == 1.0
    assert orthonormality_residual([]) == 0.0


def test_orthonormality_residual_rejects_mixed_layouts():
    # same key width (2 registers x 3 modes vs 3 registers x 2 modes), different layouts
    with pytest.raises(ValueError):
        orthonormality_residual([
            SparseState.vacuum(3, IS),
            SparseState.vacuum(2, (IDLER, SIGNAL, fock.BACKGROUND)),
        ])


def test_split_last_register_groups_by_its_counts():
    rng = random.Random(11)
    state = random_state(rng, 3, registers=(IDLER, SIGNAL, fock.BACKGROUND), terms=12)
    groups = state.split_last_register()
    assert sum(len(part) for part in groups.values()) == len(state)
    for (idler, signal, background), amp in state.terms():
        part = groups[background]
        assert part.registers == IS and part.modes == 3
        assert part.amplitude((idler, signal)) == amp
    # refused by an explicit check, also when there is no term to build a group from
    for single in (SparseState.vacuum(2, (IDLER,)), SparseState(2, (SIGNAL,))):
        with pytest.raises(ValueError, match="two registers"):
            single.split_last_register()


def test_max_abs_diff_equals_max_abs_of_the_difference_state():
    rng = random.Random(808)
    pairs = []
    for modes in range(1, 4):
        for _ in range(20):
            a = random_state(rng, modes, terms=6)
            pairs.append((a, random_state(rng, modes, terms=6)))
            # same support, gaps from 3e-16 to 3e-14
            nudged = [(counts, amp + complex(rng.choice((0.3, 3.0, 30.0)) * 1e-15))
                      for counts, amp in a.terms()]
            pairs.append((a, SparseState.from_terms(modes, IS, nudged)))
            pairs.append((a, a))
    pairs.append((SparseState(2, IS), SparseState(2, IS)))
    pairs.append((SparseState(2, IS), SparseState.vacuum(2, IS)))
    for a, b in pairs:
        for left, right in ((a, b), (b, a)):
            assert left.max_abs_diff(right) == combine([(1, left), (-1, right)]).max_abs()
    # gaps below 1e-15 read as themselves
    vacuum = SparseState.vacuum(2, IS)
    assert vacuum.max_abs_diff(vacuum.scaled(1 + 2 ** -52)) == 2 ** -52
    assert vacuum.max_abs_diff(SparseState.from_terms(2, IS, [(((0, 0), (0, 0)), 1.0),
                                                             (((1, 0), (1, 0)), 3e-16)])) == 3e-16
    with pytest.raises(ValueError):
        SparseState.vacuum(2, IS).max_abs_diff(SparseState.vacuum(3, IS))


def test_nan_amplitudes_survive_prune_and_maxima():
    nan_term = (((1, 0), (0, 1)), complex(math.nan, 0.0))
    finite = [(((0, 1), (1, 0)), 0.5), (((2, 0), (0, 2)), 0.25)]
    for terms in ([nan_term] + finite, finite + [nan_term]):
        state = SparseState.from_terms(2, IS, terms)
        assert math.isnan(state.max_abs())
        assert len(combine([(1.0, state)])) == 3
        assert len(state.scaled(0.5)) == 3
        assert math.isnan(state.create_pairs().max_abs())
        clean = SparseState.from_terms(2, IS, finite)
        assert math.isnan(state.max_abs_diff(clean))
        assert math.isnan(clean.max_abs_diff(state))
        assert math.isnan(orthonormality_residual([clean.scaled(1 / clean.norm()), state]))
    assert fock.nan_max([]) == 0.0
    assert fock.nan_max([0.5, math.inf, 2.0]) == math.inf
    assert math.isnan(fock.nan_max([3.0, math.nan, 1.0]))


def test_register_totals_sum_the_register_counts():
    rng = random.Random(31)
    registers = (IDLER, SIGNAL, fock.BACKGROUND)
    state = random_state(rng, 3, registers=registers, terms=10, max_count=5)
    for index, register in enumerate(registers):
        expected = [(sum(counts[index]), amp) for counts, amp in state.terms()]
        assert list(state.register_totals(register)) == expected
    with pytest.raises(ValueError):
        list(SparseState.vacuum(2, IS).register_totals(fock.BACKGROUND))
