"""Beamsplitter attenuation of the signal register.

A target of reflectivity eta returns each signal photon with amplitude
sqrt(eta) and leaks it to the environment with amplitude sqrt(1 - eta).
The returned light decomposes into mutually orthogonal pure components
labeled by the exact arrangement of absorbed photons.  Chu-Vandermonde
fixes every component in closed form: summed over the kept arrangements,
the per-arrangement multiplicities give C(N+M-1, N-k) whatever the absorbed
arrangement of k photons, so each weight is one binomial ratio and each
state's amplitudes are written down directly.  A brute-force tripartite
oracle that tracks the environment register explicitly is provided as the
independent cross-check for the whole decomposition.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .combinat import compositions, count_compositions
from .fock import (
    BACKGROUND,
    IDLER,
    PRUNE_THRESHOLD,
    SIGNAL,
    SparseState,
    check_sector_size,
    combine,
)


@dataclass(frozen=True)
class LossComponent:
    """One orthogonal piece of the returned state.

    absorbed: per-mode photon counts left in the environment
    weight:   probability of that exact arrangement
    state:    normalized idler/signal state conditioned on the arrangement
    """

    absorbed: tuple[int, ...]
    weight: float
    state: SparseState


def _check_loss_args(photons: int, modes: int, eta: float, absorbed) -> int:
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return _check_arrangement(photons, modes, absorbed)


def _check_arrangement(photons: int, modes: int, absorbed) -> int:
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    absorbed = tuple(absorbed)
    if len(absorbed) != modes:
        raise ValueError(f"absorbed needs one count per mode ({modes})")
    if any(a < 0 for a in absorbed):
        raise ValueError("absorbed counts must be non-negative")
    lost = sum(absorbed)
    if lost > photons:
        raise ValueError("cannot absorb more photons than were sent")
    return lost


def absorption_weight(photons: int, modes: int, eta: float, absorbed) -> float:
    """Probability that the environment holds exactly the given arrangement.

    Evaluates eta^(N-k) (1-eta)^k C(N+M-1, N-k) / C(N+M-1, N) for k absorbed
    photons; the ratio is the exact integer quotient rounded once to float,
    and the arrangement enters only through its total k.
    """
    lost = _check_loss_args(photons, modes, eta, absorbed)
    top = photons + modes - 1
    ratio = math.comb(top, photons - lost) / math.comb(top, photons)
    return (eta ** (photons - lost)) * ((1.0 - eta) ** lost) * ratio


def conditional_state(photons: int, modes: int, absorbed) -> SparseState:
    """Normalized idler/signal state left when the given arrangement is absorbed.

    Holds |n + a, n> for every arrangement n of the N - k kept photons, with
    amplitude sqrt(prod_i C(n_i + a_i, a_i) / C(N+M-1, N-k)); it does not
    depend on eta.  Refuses, as pair_state_direct(N - k, M) does, a kept
    sector too large to materialize.
    """
    absorbed = tuple(absorbed)
    lost = _check_arrangement(photons, modes, absorbed)
    kept = photons - lost
    check_sector_size(f"pair state with N={kept}, M={modes}", kept, modes, modes, 2)
    multiplicity = math.comb(photons + modes - 1, kept)
    loaded = [(mode, count) for mode, count in enumerate(absorbed) if count]
    terms = []
    for arrangement in compositions(kept, modes):
        weight = 1
        for mode, count in loaded:
            weight *= math.comb(arrangement[mode] + count, count)
        idler = tuple(map(operator.add, arrangement, absorbed))
        terms.append((idler + arrangement, complex(math.sqrt(weight / multiplicity))))
    return SparseState._from_flat(modes, (IDLER, SIGNAL), terms)


def conditional_states(photons: int, modes: int) -> Iterator[tuple[tuple[int, ...], SparseState]]:
    """Lazily yield (absorbed, conditional_state) for every absorbed arrangement.

    The canonical order: total absorbed count ascending, then descending-lex
    arrangement.  The states carry no eta, and no weight is computed.
    """
    if photons < 0:
        raise ValueError("photons must be non-negative")
    for lost in range(photons + 1):
        for absorbed in compositions(lost, modes):
            yield absorbed, conditional_state(photons, modes, absorbed)


def returned_mixture(photons: int, modes: int, eta: float) -> list[LossComponent]:
    """All components of the returned state: conditional_states with their weights, which sum to one."""
    return [LossComponent(absorbed, absorption_weight(photons, modes, eta, absorbed), state)
            for absorbed, state in conditional_states(photons, modes)]


def check_oracle_size(photons: int, modes: int) -> int:
    """Amplitudes of beamsplitter_oracle(photons, modes, eta); AmplitudeCapError past the caps."""
    label = f"beamsplitter oracle with N={photons}, M={modes}"
    return check_sector_size(label, photons, 2 * modes, modes, 3)


def beamsplitter_oracle(photons: int, modes: int, eta: float) -> SparseState:
    """Exact tripartite state after the beamsplitter, built by ladder operators.

    Each signal mode holding c photons leaves the splitter as
    (sqrt(eta) a+_S + sqrt(1-eta) a+_B)^c / sqrt(c!) |0>, a product of
    single-mode outputs.  Those are built once for c = 0..N, by routing one
    photon at a time, one binomial expansion per photon.  The j-th photon
    routed into a mode is weighted by 1/sqrt(j), which spreads the 1/sqrt(c!)
    normalisation over the ladder steps: each partial output is a normalized
    state, so no amplitude exceeds one at any photon number, and neither does
    a product of them.  Each amplitude of the product is then written
    once per idler arrangement, and pruned once.  Intended for small
    instances; the result holds C(N + 2M - 1, N) amplitudes.
    """
    _check_loss_args(photons, modes, eta, (0,) * modes)
    check_oracle_size(photons, modes)
    keep = math.sqrt(eta)
    leak = math.sqrt(1.0 - eta)
    outputs = [SparseState.vacuum(1, (SIGNAL, BACKGROUND))]
    for j in range(1, photons + 1):
        step = 1.0 / math.sqrt(j)
        outputs.append(combine([
            (keep * step, outputs[-1].create(SIGNAL, 0)),
            (leak * step, outputs[-1].create(BACKGROUND, 0)),
        ]))
    # factors[c]: (signal count, background count, amplitude) of each term of the c-photon output
    factors = [[(s, b, amp) for ((s,), (b,)), amp in output.terms()] for output in outputs]
    scale = 1.0 / math.sqrt(count_compositions(photons, modes))

    def terms():
        for arrangement in compositions(photons, modes):
            for picks in itertools.product(*map(factors.__getitem__, arrangement)):
                signal, background, amps = zip(*picks)
                amp = scale * math.prod(amps)
                if not abs(amp) < PRUNE_THRESHOLD:
                    yield arrangement + signal + background, amp

    return SparseState._from_flat(modes, (IDLER, SIGNAL, BACKGROUND), terms())


def split_by_environment(state: SparseState) -> list[LossComponent]:
    """Group a tripartite state by its environment-register content.

    Returns one component per occurring arrangement: the squared-norm weight
    and the normalized idler/signal remainder, ordered as returned_mixture
    orders its components.
    """
    if state.registers != (IDLER, SIGNAL, BACKGROUND):
        raise ValueError("expected a state over the idler, signal and background registers")
    groups = state.split_last_register()
    weights = {environment: sub.norm_sq() for environment, sub in groups.items()}
    return [LossComponent(e, weights[e], groups[e].scaled(1.0 / math.sqrt(weights[e])))
            for e in sorted(groups, key=lambda e: (sum(e), tuple(-c for c in e)))]
