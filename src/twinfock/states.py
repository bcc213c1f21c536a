"""Builders for the maximally mode-correlated photon-pair states.

The N-pair family places N photons in the signal register and N in the
idler, correlated mode by mode: an equal-amplitude superposition of |n, n>
over every arrangement n of N photons across M modes.  N = 0 is the vacuum
and N = 1 the maximally entangled single-photon state.  Two independent
construction routes are provided (closed-form amplitudes and repeated
pair creation from vacuum) so each can check the other.
"""

import math
from typing import Iterator

from .combinat import compositions
from .fock import IDLER, SIGNAL, SparseState, check_sector_size, combine


def _check_materializable(photons: int, modes: int) -> int:
    return check_sector_size(f"pair state with N={photons}, M={modes}", photons, modes, modes, 2)


def pair_terms(photons: int, modes: int) -> tuple[float, Iterator[tuple[int, ...]]]:
    """Amplitude 1 / sqrt(C(N+M-1, N)) of every term |n, n>, and the n in compositions order.

    The arrangements come lazily; the size check runs at the call, before any
    is made, and refuses what pair_state_direct could not materialize.
    """
    count = _check_materializable(photons, modes)
    return 1.0 / math.sqrt(count), compositions(photons, modes)


def pair_state_direct(photons: int, modes: int) -> SparseState:
    """Equal-weight superposition of |n, n> over all arrangements |n| = photons."""
    amp, arrangements = pair_terms(photons, modes)
    amp = complex(amp)
    return SparseState._from_flat(
        modes, (IDLER, SIGNAL), ((arrangement + arrangement, amp) for arrangement in arrangements))


def pair_create(state: SparseState, scale: float = 1.0) -> SparseState:
    """Apply the pair-creation operator sum_i a+_{I,i} a+_{S,i}, times scale.

    One pass over the amplitudes, pruned as combine prunes and equal bit for
    bit to summing the per-mode create calls; ValueError when a mode already
    holds 65535 photons.
    """
    return state._create_pairs(scale)


def pair_state_recursive(photons: int, modes: int) -> SparseState:
    """Build the N-pair state by repeated pair creation from vacuum.

    Each step applies the pair-creation operator to the (k-1)-pair state and
    rescales by 1 / sqrt(k (k + M - 1)), which keeps the state normalized.
    Agrees with pair_state_direct to float precision; the equality is pinned
    in the tests.
    """
    _check_materializable(photons, modes)
    state = SparseState.vacuum(modes, (IDLER, SIGNAL))
    for step in range(1, photons + 1):
        state = pair_create(state, 1.0 / math.sqrt(step * (step + modes - 1)))
    return state


def loss_identity_residual(photons: int, modes: int, mode: int) -> float:
    """Residual norm of the single-photon-loss identity.

    Losing one signal photon from the N-pair state equals, up to the factor
    sqrt(N / (N + M - 1)), adding one idler photon to the (N-1)-pair state;
    the returned norm of the difference should be zero to float precision.
    """
    if photons < 1:
        raise ValueError("photons must be at least 1")
    lhs = pair_state_direct(photons, modes).annihilate(SIGNAL, mode)
    rhs = pair_state_direct(photons - 1, modes).create(IDLER, mode)
    scale = math.sqrt(photons / (photons + modes - 1))
    return combine([(1.0, lhs), (-scale, rhs)]).norm()
