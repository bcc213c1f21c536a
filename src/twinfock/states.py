"""Builders for the maximally mode-correlated photon-pair states.

The N-pair family places N photons in the signal register and N in the
idler, correlated mode by mode: an equal-amplitude superposition of |n, n>
over every arrangement n of N photons across M modes.  N = 0 is the vacuum
and N = 1 the maximally entangled single-photon state.  Two independent
construction routes are provided (closed-form amplitudes and repeated
pair creation from vacuum) so each can check the other.

The recursive route holds each photon sector as one dense list of
amplitudes in compositions(k, M) order, the order of the keys, and finds a
term by its rank there (Knuth, TAOCP vol. 4A, 7.2.1.3).  With s_j the
photons after mode j, the rank of an arrangement is the sum over j < M - 1
of C(s_j + M - j - 2, M - j - 1), whatever its total; adding a photon to
mode i raises s_j by one for every j < i, so by Pascal's rule it raises the
rank by the sum over j < i of C(s_j + M - j - 2, s_j).
"""

import itertools
import math

from .combinat import compositions
from .fock import IDLER, SIGNAL, SparseState, check_sector_size, combine, nan_max


def check_pair_state_size(photons: int, modes: int) -> int:
    """Terms of the N-pair state, C(N+M-1, N); AmplitudeCapError past the caps."""
    return check_sector_size(f"pair state with N={photons}, M={modes}", photons, modes, modes, 2)


def _pair_state(photons: int, modes: int, amplitudes) -> SparseState:
    """The state of |n, n> with the given complex amplitudes, n over compositions(photons, modes)."""
    return SparseState._from_flat(
        modes, (IDLER, SIGNAL),
        ((n + n, amp) for n, amp in zip(compositions(photons, modes), amplitudes)))


def pair_amplitude(photons: int, modes: int) -> float:
    """Amplitude 1 / sqrt(C(N+M-1, N)) shared by every term |n, n>, n in compositions(N, M).

    Runs the size check first and refuses what pair_state_direct could not
    materialize.
    """
    return 1.0 / math.sqrt(check_pair_state_size(photons, modes))


def pair_state_direct(photons: int, modes: int) -> SparseState:
    """Equal-weight superposition of |n, n> over all arrangements |n| = photons.

    After the size check, N = 0 is the vacuum, its key of zero words written directly.
    """
    amplitude = pair_amplitude(photons, modes)
    if photons == 0:
        return SparseState.vacuum(modes, (IDLER, SIGNAL))
    return _pair_state(photons, modes, itertools.repeat(complex(amplitude)))


def pair_state_recursive(photons: int, modes: int) -> SparseState:
    """Build the N-pair state by repeated pair creation from vacuum.

    Each step applies the pair-creation operator sum_i a+_{I,i} a+_{S,i} to
    the (k-1)-pair state and rescales by 1 / sqrt(k (k + M - 1)), which keeps
    the state normalized.  Agrees with pair_state_direct to float precision.

    Each step runs over dense lists of the two sectors' amplitudes, indexed
    by rank (see the module docstring), and hashes nothing: raising mode i
    of the source at rank r lands at rank r plus a sum of binomials read
    from a table.  The result is bit for bit the chain of
    SparseState.create_pairs(1 / sqrt(k (k + M - 1))) calls from the vacuum,
    keys, key order and amplitudes, as the tests pin:
    - create_pairs runs the modes outermost, so each target adds up its
      contributions in ascending mode order; the sources of a target fall
      in rank as the mode rises, so visiting the sources from the last rank
      to the first, modes inside, adds them in the same order;
    - every amplitude is a positive real x + 0j, and complex products and
      sums of such values compute the real part by the same float
      operations (x * u - 0 * 0 and 0 + x) with an imaginary +0.0, so the
      steps run in floats and complex(x) gives each final amplitude.
    Each sector is checked against the caps before its list is allocated,
    and no table is built for the vacuum.
    """
    check_pair_state_size(photons, modes)
    if photons == 0:
        return SparseState.vacuum(modes, (IDLER, SIGNAL))
    up = list(map(math.sqrt, range(1, photons + 1)))  # up[n] = sqrt(n + 1)
    # steps[j][s]: the rank gained past mode j, with s photons after it, C(s + M - j - 2, s)
    steps = [[math.comb(s + modes - j - 2, s) for s in range(photons)] for j in range(modes - 1)]
    amps = [1.0]
    for held in range(photons):
        size = check_pair_state_size(held + 1, modes)
        raised = [0.0] * size
        rank = len(amps)
        # the photons after each of the first M - 1 modes, for the sources from the last rank;
        # one mode has none, so it gets no pool of held + 1 counts to copy at every step
        pool = range(held, -1, -1) if modes > 1 else ()
        for after in itertools.combinations_with_replacement(pool, modes - 1):
            rank -= 1
            amp, target, left = amps[rank], rank, held
            for rest, step in zip(after, steps):
                u = up[left - rest]
                raised[target] += amp * u * u  # (amp * u) * u, as create_pairs multiplies
                target += step[rest]
                left = rest
            u = up[left]
            raised[target] += amp * u * u
        scale = 1.0 / math.sqrt((held + 1) * (held + modes))
        amps = [scale * amp for amp in raised]
    return _pair_state(photons, modes, map(complex, amps))


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
