import math
import random
import sys
import tracemalloc

import pytest

import twinfock.fock as fock
import twinfock.states as states
from twinfock.combinat import count_compositions
from twinfock.fock import BACKGROUND, IDLER, SIGNAL, AmplitudeCapError, SparseState, combine
from twinfock.states import (
    loss_identity_residual,
    pair_state_direct,
    pair_state_recursive,
)

from references import amplitude_bits

IS = (IDLER, SIGNAL)


def amp_diff(a, b):
    return combine([(1.0, a), (-1.0, b)]).max_abs()


def test_vacuum_pair_state():
    state = pair_state_direct(0, 3)
    assert len(state) == 1
    assert state.amplitude(((0, 0, 0), (0, 0, 0))) == pytest.approx(1.0)


def test_single_pair_state_two_modes():
    state = pair_state_direct(1, 2)
    assert len(state) == 2
    for counts in ((1, 0), (0, 1)):
        assert state.amplitude((counts, counts)) == pytest.approx(1 / math.sqrt(2))


def test_two_pair_state_two_modes():
    state = pair_state_direct(2, 2)
    assert len(state) == 3
    for counts in ((2, 0), (1, 1), (0, 2)):
        assert state.amplitude((counts, counts)) == pytest.approx(1 / math.sqrt(3))


def test_pair_states_unit_norm_and_sector_orthogonality():
    for modes in (1, 2, 4):
        one = pair_state_direct(1, modes)
        two = pair_state_direct(2, modes)
        assert one.inner(one) == pytest.approx(1.0, abs=1e-12)
        # different total photon numbers live in disjoint sectors
        assert one.inner(two) == 0


def test_direct_and_recursive_builds_agree():
    for photons in range(0, 7):
        for modes in range(1, 6):
            direct = pair_state_direct(photons, modes)
            recursive = pair_state_recursive(photons, modes)
            assert amp_diff(direct, recursive) < 1e-12
            assert recursive.norm() == pytest.approx(1.0, abs=1e-12)


def test_amplitude_uniformity():
    for photons in range(0, 7):
        for modes in range(1, 6):
            state = pair_state_direct(photons, modes)
            expected = 1 / math.sqrt(count_compositions(photons, modes))
            for _, amp in state.terms():
                assert amp.real == pytest.approx(expected, abs=1e-12)
                assert abs(amp.imag) < 1e-14


def test_annihilate_signal_single_pair():
    lowered = pair_state_direct(1, 2).annihilate(SIGNAL, 0)
    assert len(lowered) == 1
    assert lowered.amplitude(((1, 0), (0, 0))) == pytest.approx(1 / math.sqrt(2))


def test_annihilate_signal_norm():
    for modes in range(1, 7):
        lowered = pair_state_direct(1, modes).annihilate(SIGNAL, 0)
        assert lowered.norm_sq() == pytest.approx(1 / modes, rel=1e-12)


def test_annihilate_vacuum_pair_state():
    assert len(pair_state_direct(0, 3).annihilate(SIGNAL, 1)) == 0


def test_annihilate_signal_mode_bounds():
    with pytest.raises(ValueError):
        pair_state_direct(1, 2).annihilate(SIGNAL, 2)


def test_loss_identity_residual_vanishes():
    for photons in range(1, 7):
        for modes in range(1, 6):
            state, previous = pair_state_direct(photons, modes), pair_state_direct(photons - 1, modes)
            assert loss_identity_residual(photons, state, previous) < 1e-12


def test_loss_identity_single_mode():
    # one mode: both sides are proportional to |N, N-1>
    assert loss_identity_residual(3, pair_state_direct(3, 1), pair_state_direct(2, 1)) < 1e-12


def test_loss_identity_requires_photons():
    with pytest.raises(ValueError):
        loss_identity_residual(0, pair_state_direct(0, 2), pair_state_direct(0, 2))


def test_loss_identity_builds_no_state(monkeypatch):
    state, previous = pair_state_direct(2, 3), pair_state_direct(1, 3)

    def refuse(*args):
        raise AssertionError("pair state built")

    monkeypatch.setattr(states, "pair_state_direct", refuse)
    monkeypatch.setattr(states, "pair_state_recursive", refuse)
    assert loss_identity_residual(2, state, previous) < 1e-12


def test_loss_identity_mismatched_states_leave_a_residual():
    # the 2-pair state against itself as the "previous" state: the identity does not hold
    state = pair_state_direct(2, 3)
    assert loss_identity_residual(2, state, state) > 0.1


def _random_state(rng, modes, registers=IS, terms=3, max_count=2):
    entries = []
    for _ in range(terms):
        counts = tuple(
            tuple(rng.randint(0, max_count) for _ in range(modes)) for _ in registers
        )
        entries.append((counts, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return SparseState.from_terms(modes, registers, entries)


def reference_pair_create(state, scale=None):
    """Pair creation as per-mode ladder calls: create, create, combine, then scaled."""
    raised = combine((1.0, state.create(IDLER, i).create(SIGNAL, i)) for i in range(state.modes))
    return raised if scale is None else raised.scaled(scale)


def reference_pair_state_recursive(photons, modes):
    state = SparseState.vacuum(modes, IS)
    for step in range(1, photons + 1):
        state = reference_pair_create(state, 1.0 / math.sqrt(step * (step + modes - 1)))
    return state


def footprint(state):
    """Bytes the state's dict, keys and amplitudes hold."""
    return sys.getsizeof(state._amps) + sum(
        sys.getsizeof(key) + sys.getsizeof(amp) for key, amp in state._amps.items())


def create_pairs_chain(photons, modes):
    """The N-pair state as SparseState.create_pairs applied step by step to the vacuum."""
    state = SparseState.vacuum(modes, IS)
    for step in range(1, photons + 1):
        state = state.create_pairs(1.0 / math.sqrt(step * (step + modes - 1)))
    return state


def test_pair_create_equals_ladder_reference_exactly():
    # same amplitudes bit for bit and the same key order, not within a tolerance
    rng = random.Random(2024)
    for modes in range(1, 5):
        for registers in (IS, (IDLER, SIGNAL, BACKGROUND)):
            for _ in range(6):
                probe = _random_state(rng, modes, registers, terms=8, max_count=4)
                before = amplitude_bits(probe)
                assert (amplitude_bits(probe.create_pairs())
                        == amplitude_bits(reference_pair_create(probe)))
                scale = rng.uniform(0.1, 2.0)
                assert (amplitude_bits(probe.create_pairs(scale))
                        == amplitude_bits(reference_pair_create(probe, scale)))
                # the result is scaled in place in its own dict, never in the input's
                assert amplitude_bits(probe) == before
    empty = SparseState(3, IS)
    assert len(empty.create_pairs()) == 0


def test_pair_create_holds_less_than_its_input_beside_the_result():
    # the transient memory of one step: its traced peak less what the result keeps
    state = pair_state_recursive(7, 8)
    tracemalloc.start()
    try:
        raised = state.create_pairs(0.5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(raised) == count_compositions(8, 8)
    assert peak - held <= 1.4 * footprint(state)


def test_pair_state_recursive_equals_ladder_reference_exactly():
    for photons, modes in ((6, 5), (11, 8)):
        built = list(pair_state_recursive(photons, modes).terms())
        assert built == list(reference_pair_state_recursive(photons, modes).terms())


def test_pair_creation_makes_no_ladder_calls(monkeypatch):
    def refuse(self, register, mode):
        raise AssertionError("pair creation went through SparseState.create")

    monkeypatch.setattr(SparseState, "create", refuse)
    assert len(pair_state_recursive(4, 3)) == count_compositions(4, 3)
    assert len(SparseState.vacuum(3, IS).create_pairs()) == 3


def test_pair_state_recursive_equals_create_pairs_chain_bit_for_bit():
    # keys, key order and every amplitude bit of the general operator's chain
    cases = [(photons, modes) for photons in range(9) for modes in range(1, 8)]
    for photons, modes in cases + [(100, 1), (60, 2), (20, 3), (5, 12)]:
        assert (amplitude_bits(pair_state_recursive(photons, modes))
                == amplitude_bits(create_pairs_chain(photons, modes))), (photons, modes)


def test_pair_state_recursive_one_mode_reaches_the_count_limit():
    # one source per step: each step costs the same whatever it holds, so 65535 steps stay quick
    state = pair_state_recursive(fock.MAX_MODE_COUNT, 1)
    assert len(state) == 1
    assert abs(state.amplitude(((fock.MAX_MODE_COUNT,), (fock.MAX_MODE_COUNT,))) - 1) < 1e-9


def test_pair_state_recursive_makes_no_create_pairs_calls(monkeypatch):
    def refuse(self, scale=1.0):
        raise AssertionError("pair_state_recursive went through SparseState.create_pairs")

    monkeypatch.setattr(SparseState, "create_pairs", refuse)
    assert len(pair_state_recursive(4, 3)) == count_compositions(4, 3)


def test_pair_state_recursive_wide_modes_hold_about_the_state():
    # the vacuum comes back before any per-mode table is built, and past it no
    # table outgrows the state: the traced peak stays near the state's own bytes
    for photons, modes, bound in ((0, 10 ** 6, 1.1), (1, 1000, 1.25)):
        tracemalloc.start()
        try:
            state = pair_state_recursive(photons, modes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state) == count_compositions(photons, modes)
        assert peak <= bound * footprint(state), (photons, modes)


def test_pair_create_mode_count_overflow():
    for full in (((0xFFFF,), (0,)), ((0,), (0xFFFF,))):
        with pytest.raises(ValueError, match="overflow"):
            SparseState.basis(1, IS, full).create_pairs()
    top = SparseState.basis(1, IS, ((0xFFFE,), (0xFFFE,))).create_pairs()
    assert top.amplitude(((0xFFFF,), (0xFFFF,))) == 0xFFFF
    # a full background mode is never raised, so it is no overflow
    background = SparseState.basis(2, (IDLER, SIGNAL, BACKGROUND), ((0, 0), (0, 0), (0, 0xFFFF)))
    raised = background.create_pairs()
    assert amplitude_bits(raised) == amplitude_bits(reference_pair_create(background))
    assert raised.amplitude(((0, 1), (0, 1), (0, 0xFFFF))) == 1.0


def test_pair_state_recursive_checks_each_step_against_the_cap(monkeypatch):
    # the up-front sector check is bypassed, so only the per-step check can refuse
    monkeypatch.setattr(states, "_check_materializable", lambda photons, modes: None)
    monkeypatch.setattr(fock, "AMPLITUDE_CAP", 5)
    assert len(pair_state_recursive(1, 3)) == 3
    with pytest.raises(AmplitudeCapError):
        pair_state_recursive(3, 3)


def test_pair_creation_commutators():
    # [a_S_j, A+] = a+_I_j and [a_I_j, A+] = a+_S_j on random states
    rng = random.Random(12345)
    for modes in range(1, 5):
        for _ in range(4):
            probe = _random_state(rng, modes)
            raised = probe.create_pairs()
            for j in range(modes):
                signal_comm = combine([
                    (1.0, raised.annihilate(SIGNAL, j)),
                    (-1.0, probe.annihilate(SIGNAL, j).create_pairs()),
                ])
                assert amp_diff(signal_comm, probe.create(IDLER, j)) < 1e-12
                idler_comm = combine([
                    (1.0, raised.annihilate(IDLER, j)),
                    (-1.0, probe.annihilate(IDLER, j).create_pairs()),
                ])
                assert amp_diff(idler_comm, probe.create(SIGNAL, j)) < 1e-12


def test_reduced_idler_state_is_maximally_mixed():
    # tracing out the signal register leaves equal weight on every arrangement
    for photons in range(0, 5):
        for modes in range(1, 5):
            state = pair_state_direct(photons, modes)
            by_signal = {}
            for (idler, signal), amp in state.terms():
                by_signal.setdefault(signal, []).append((idler, amp))
            rho = {}
            for partners in by_signal.values():
                for idler_a, amp_a in partners:
                    for idler_b, amp_b in partners:
                        key = (idler_a, idler_b)
                        rho[key] = rho.get(key, 0j) + amp_a * amp_b.conjugate()
            expected = 1 / count_compositions(photons, modes)
            for (idler_a, idler_b), value in rho.items():
                target = expected if idler_a == idler_b else 0.0
                assert abs(value - target) < 1e-12
            diag = sum(1 for a, b in rho if a == b)
            assert diag == count_compositions(photons, modes)


def test_materialization_cap():
    # C(51, 11) is far beyond the amplitude cap; refused before any allocation
    with pytest.raises(AmplitudeCapError):
        pair_state_direct(40, 12)
    with pytest.raises(AmplitudeCapError):
        pair_state_recursive(40, 12)
