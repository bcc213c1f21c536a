"""Builders for the maximally mode-correlated photon-pair states.

The N-pair family places N photons in the signal register and N in the
idler, correlated mode by mode: an equal-amplitude superposition of |n, n>
over every arrangement n of N photons across M modes.  N = 0 is the vacuum
and N = 1 the maximally entangled single-photon state.  Two independent
construction routes are provided (closed-form amplitudes and repeated
pair creation from vacuum) so each can check the other.
"""

import math

from .combinat import compositions
from .fock import IDLER, SIGNAL, SparseState, check_sector_size, combine, nan_max


def _check_materializable(photons: int, modes: int) -> int:
    return check_sector_size(f"pair state with N={photons}, M={modes}", photons, modes, modes, 2)


def pair_amplitude(photons: int, modes: int) -> float:
    """Amplitude 1 / sqrt(C(N+M-1, N)) shared by every term |n, n>, n in compositions(N, M).

    Runs the size check first and refuses what pair_state_direct could not
    materialize.
    """
    return 1.0 / math.sqrt(_check_materializable(photons, modes))


def pair_state_direct(photons: int, modes: int) -> SparseState:
    """Equal-weight superposition of |n, n> over all arrangements |n| = photons."""
    amp = complex(pair_amplitude(photons, modes))
    return SparseState._from_flat(
        modes, (IDLER, SIGNAL),
        ((arrangement + arrangement, amp) for arrangement in compositions(photons, modes)))


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
        state = state.create_pairs(1.0 / math.sqrt(step * (step + modes - 1)))
    return state


def loss_identity_residual(photons: int, state: SparseState, previous: SparseState) -> float:
    """Largest residual norm, over the modes, of the single-photon-loss identity.

    Losing one signal photon from the N-pair state equals, up to the factor
    sqrt(N / (N + M - 1)), adding one idler photon to the (N-1)-pair state;
    given those two states, the norm of the difference should be zero to
    float precision in every mode.  NaN if any mode's residual is.
    """
    if photons < 1:
        raise ValueError("photons must be at least 1")
    modes = state.modes
    scale = math.sqrt(photons / (photons + modes - 1))
    return nan_max(
        combine([(1.0, state.annihilate(SIGNAL, mode)),
                  (-scale, previous.create(IDLER, mode))]).norm()
        for mode in range(modes)
    )
