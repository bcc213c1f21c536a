"""Beamsplitter attenuation of the signal register.

A target of reflectivity eta returns each signal photon with amplitude
sqrt(eta) and leaks it to the environment with amplitude sqrt(1 - eta).
The returned light decomposes into mutually orthogonal pure components
labeled by the exact arrangement of absorbed photons.  Chu-Vandermonde
fixes every component in closed form: summed over the kept arrangements,
the per-arrangement multiplicities give C(N+M-1, N-k) whatever the absorbed
arrangement of k photons, so each weight depends on k alone, one binomial
term in CONTEXT (absorption_decimal) rounded once (absorption_weight); at
one mode the all-absorbed weight is P_MD.  Each state's amplitudes are
written down directly.  A brute-force tripartite oracle that tracks the
environment register explicitly is the independent cross-check.
"""

import decimal
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator

from .combinat import compositions, count_compositions
from .fock import (BACKGROUND, IDLER, MAX_MODE_COUNT, SIGNAL, SparseState, check_sector_size,
                   combine)

#: The one context of the closed forms; a result too small for it raises Subnormal.
CONTEXT = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                          traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                 decimal.Overflow, decimal.Subnormal])


def _one_plus(value: float) -> Decimal:
    """1 + value exactly: a float is a dyadic rational, so the sum is a finite decimal."""
    numerator, denominator = value.as_integer_ratio()
    twos = denominator.bit_length() - 1
    return Decimal(f"{(numerator + denominator) * 5 ** twos}e-{twos}")


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")


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


def _check_arrangement(photons: int, modes: int, absorbed) -> int:
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    if len(absorbed) != modes:
        raise ValueError(f"absorbed needs one count per mode ({modes})")
    if any(a < 0 for a in absorbed):
        raise ValueError("absorbed counts must be non-negative")
    lost = sum(absorbed)
    if lost > photons:
        raise ValueError("cannot absorb more photons than were sent")
    return lost


def absorption_decimal(photons: int, modes: int, eta: float, lost: int) -> Decimal:
    """C(N, k) eta^(N-k) (1-eta)^k / C(k+M-1, k) for k = lost, in CONTEXT.

    The chance that exactly k of the N photons are absorbed, shared evenly among
    the C(k+M-1, k) arrangements of k photons over M modes; at M = 1, k = N it
    is P_MD.  From the exact eta and 1 - eta, in five roundings: within 1e-35.
    """
    if modes < 1 or not 0 <= lost <= photons:
        raise ValueError(f"need M >= 1 and 0 <= lost <= N, got M={modes}, lost={lost}, N={photons}")
    _check_eta(eta)
    with decimal.localcontext(CONTEXT) as context:
        weight = context.divide(math.comb(photons, lost), math.comb(lost + modes - 1, lost))
        for base, power in ((Decimal(eta), photons - lost), (_one_plus(-eta), lost)):
            if power:  # CONTEXT traps 0^0, met at eta = 0 or 1
                weight *= base ** power
        return weight


def absorption_weight(photons: int, modes: int, eta: float, lost: int) -> float:
    """Probability of any one arrangement of `lost` absorbed photons, a float.

    The exact value of absorption_decimal rounded once: from its 40 digits,
    or, up to MAX_MODE_COUNT photons, from the exact integer quotient when a
    rounding boundary between floats lies within their error, as at C(57, 25) / 2^57.
    """
    weight = absorption_decimal(photons, modes, eta, lost)
    if photons > MAX_MODE_COUNT:  # past it the exact powers grow without bound
        return float(weight)
    with decimal.localcontext(CONTEXT):
        spread = weight.scaleb(-35)
        if float(weight - spread) == float(weight + spread):
            return float(weight)
    num, den = eta.as_integer_ratio()  # int / int rounds the exact quotient once
    return (math.comb(photons, lost) * num ** (photons - lost) * (den - num) ** lost
            / (math.comb(lost + modes - 1, lost) * den ** photons))


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
    components = list(conditional_states(photons, modes))
    weights = [absorption_weight(photons, modes, eta, lost) for lost in range(photons + 1)]
    return [LossComponent(absorbed, weights[sum(absorbed)], state)
            for absorbed, state in components]


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
    a product of them.  Each amplitude of the product is then written once
    per idler arrangement, unless it is exactly zero.  Intended for small
    instances; the result holds C(N + 2M - 1, N) amplitudes.
    """
    _check_eta(eta)
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
                if amp != 0:
                    yield arrangement + signal + background, amp

    return SparseState._from_flat(modes, (IDLER, SIGNAL, BACKGROUND), terms())


def split_by_environment(state: SparseState) -> list[LossComponent]:
    """Group a tripartite state by its environment-register content.

    Returns one component per occurring arrangement: the squared-norm weight
    and the normalized idler/signal remainder, ordered as returned_mixture
    orders its components.  A remainder whose squared norm is below the
    normal float range is scaled by 2^600 first, so it is normalized to full
    precision even where its weight underflows to zero.
    """
    if state.registers != (IDLER, SIGNAL, BACKGROUND):
        raise ValueError("expected a state over the idler, signal and background registers")
    groups = state.split_last_register()
    components = []
    for environment in sorted(groups, key=lambda e: (sum(e), tuple(-c for c in e))):
        sub, shift = groups[environment], 0
        if (weight := sub.norm_sq()) < sys.float_info.min:
            sub, shift = sub.scaled(2.0 ** 600), -1200  # exact: a power of two
            weight = sub.norm_sq()
        components.append(LossComponent(environment, math.ldexp(weight, shift),
                                        sub.scaled(1.0 / math.sqrt(weight))))
    return components
