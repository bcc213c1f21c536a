"""Beamsplitter attenuation of the signal register.

A target of reflectivity eta returns each signal photon with amplitude
sqrt(eta) and leaks it to the environment with amplitude sqrt(1 - eta).
The returned light decomposes into mutually orthogonal pure components
labeled by the exact arrangement of absorbed photons.  Chu-Vandermonde
fixes every component in closed form: summed over the kept arrangements,
the per-arrangement multiplicities give C(N+M-1, N-k) whatever the absorbed
arrangement of k photons, so each weight depends on k alone, one binomial
term in CONTEXT rounded once (absorption_weight); at one mode the
all-absorbed weight is P_MD.  The states are built one kept sector at a
time: the arrangements of the N - k kept photons are enumerated once, as
packed integer keys and per-mode count columns, and each absorbed
arrangement of k photons costs one integer add, one to_bytes and one dict
store per amplitude.  A brute-force tripartite oracle that tracks the
environment register explicitly is the independent cross-check; it expands
each idler arrangement's product of single-mode outputs mode by mode, as
prefix products under integer keys.  Both give, bit for bit, the keys, key
order and amplitudes of a term-by-term build.
"""

import decimal
import functools
import itertools
import math
import operator
import struct
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from decimal import Decimal

from .combinat import compositions, count_compositions
from .fock import (BACKGROUND, IDLER, MAX_MODE_COUNT, SIGNAL, SparseState, check_counts,
                   check_sector_size)
from .states import check_pair_state_size

#: The one context of the closed forms; a result too small for it raises Subnormal.
CONTEXT = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                          traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                 decimal.Overflow, decimal.Subnormal])


def round_once(value: Decimal, exact: Callable[[], tuple[int, int]] | None,
               digits: int | None = None):
    """The exact value behind a kernel value, which lies within 1e-35 relative of
    it, rounded once: to a float, or half-even to a Decimal of `digits` digits.

    Near a rounding boundary, exact() gives it as (numerator, denominator) for
    one division; with exact None, past the caller's bound, value is rounded.
    """
    with decimal.localcontext(CONTEXT) as context:
        context.prec = digits or context.prec
        to, divide = (context.plus, context.divide) if digits else (float, operator.truediv)
        if exact is not None:
            spread = value.scaleb(-35)
            if to(value - spread) != to(value + spread):
                return divide(*exact())
        return to(value)


def _one_plus(value: float) -> Decimal:
    """1 + value exactly: a float is a dyadic rational, so the sum is a finite decimal."""
    numerator, denominator = value.as_integer_ratio()
    twos = denominator.bit_length() - 1
    return Decimal(f"{(numerator + denominator) * 5 ** twos}e-{twos}")


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")


class LossComponent(namedtuple("LossComponent", "absorbed weight state")):
    """One orthogonal piece of the returned state.

    absorbed: per-mode photon counts left in the environment
    weight:   probability of that exact arrangement
    state:    normalized idler/signal state conditioned on the arrangement
    """

    __slots__ = ()


def _check_arrangement(photons: int, modes: int, absorbed) -> int:
    check_counts(photons, modes)
    if len(absorbed) != modes:
        raise ValueError(f"absorbed needs one count per mode ({modes})")
    if any(a < 0 for a in absorbed):
        raise ValueError("absorbed counts must be non-negative")
    lost = sum(absorbed)
    if lost > photons:
        raise ValueError("cannot absorb more photons than were sent")
    return lost


def absorption_weight(photons: int, modes: int, eta: float, lost: int,
                      digits: int | None = None):
    """C(N, k) eta^(N-k) (1-eta)^k / C(k+M-1, k) for k = lost, rounded once.

    The chance that exactly k of the N photons are absorbed, shared evenly among
    the C(k+M-1, k) arrangements of k photons over M modes; at M = 1, k = N it
    is P_MD.  Taken in CONTEXT from the exact eta and 1 - eta, in five roundings,
    within 1e-35, then rounded once by round_once: to a float, or to `digits`
    digits.  round_once may need the exact quotient, as at C(57, 25) / 2^57,
    which up to MAX_MODE_COUNT photons it gets: past it the exact powers grow
    without bound.
    """
    check_counts(photons, modes)
    if not 0 <= lost <= photons:
        raise ValueError(f"need 0 <= lost <= N, got lost={lost}, N={photons}")
    _check_eta(eta)
    with decimal.localcontext(CONTEXT) as context:
        weight = context.divide(math.comb(photons, lost), math.comb(lost + modes - 1, lost))
        for base, power in ((Decimal(eta), photons - lost), (_one_plus(-eta), lost)):
            if power:  # CONTEXT traps 0^0, met at eta = 0 or 1
                weight *= base ** power

    def exact() -> tuple[int, int]:
        num, den = eta.as_integer_ratio()
        return (math.comb(photons, lost) * num ** (photons - lost) * (den - num) ** lost,
                math.comb(lost + modes - 1, lost) * den ** photons)
    return round_once(weight, exact if photons <= MAX_MODE_COUNT else None, digits)


class _Memo(dict):
    """A dict that fills each missing key with make(key) on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _KeptSector:
    """The N - k photons kept when k of N are absorbed: their arrangements, enumerated once.

    Each kept arrangement n is held as one integer, the key of |n, n> with the
    idler and signal words packed big-endian, beside one column of counts per
    mode.  An absorbed arrangement a adds its idler words to every key, and
    weighs each n by prod_i C(n_i + a_i, a_i) through a column of binomials per
    count a_i, built once for the counts n that occur.  The amplitude of an
    integer weight is computed once per sector.
    """

    __slots__ = ("modes", "kept", "bases", "columns", "binomials", "amplitudes", "pack")

    def __init__(self, photons: int, modes: int, lost: int):
        kept = photons - lost
        check_pair_state_size(kept, modes)
        self.modes, self.kept = modes, kept
        self.pack = struct.Struct(f">{2 * modes}H").pack
        arrangements = list(compositions(kept, modes))
        self.bases = [int.from_bytes(self.pack(*n, *n), "big") for n in arrangements]
        self.columns = list(zip(*arrangements))
        # every mode holds the same counts: each of 0..N-k, or N-k alone at one mode
        counts = set(self.columns[0])
        self.binomials = _Memo(lambda a: {n: math.comb(n + a, a) for n in counts})
        multiplicity = math.comb(photons + modes - 1, kept)
        self.amplitudes = _Memo(lambda weight: complex(math.sqrt(weight / multiplicity)))

    def state(self, absorbed: tuple[int, ...]) -> SparseState:
        """The normalized state left when the arrangement `absorbed` of the k photons is absorbed."""
        if self.kept + max(absorbed) > MAX_MODE_COUNT:
            raise ValueError(f"mode counts must be integers in [0, {MAX_MODE_COUNT}]")
        shift = int.from_bytes(self.pack(*absorbed, *(0,) * self.modes), "big")
        factors = [map(self.binomials[a].__getitem__, column)
                   for column, a in zip(self.columns, absorbed) if a]
        weights = itertools.repeat(1)
        if factors:
            weights = functools.reduce(functools.partial(map, operator.mul), factors)
        amplitude, width = self.amplitudes.__getitem__, 4 * self.modes
        return SparseState._adopt(self.modes, (IDLER, SIGNAL), {
            (base + shift).to_bytes(width, "big"): amplitude(weight)
            for base, weight in zip(self.bases, weights)})


def conditional_state(photons: int, modes: int, absorbed) -> SparseState:
    """Normalized idler/signal state left when the given arrangement is absorbed.

    Holds |n + a, n> for every arrangement n of the N - k kept photons, with
    amplitude sqrt(prod_i C(n_i + a_i, a_i) / C(N+M-1, N-k)); it does not
    depend on eta.  Refuses, as pair_state_direct(N - k, M) does, a kept
    sector too large to materialize.
    """
    absorbed = tuple(absorbed)
    lost = _check_arrangement(photons, modes, absorbed)
    return _KeptSector(photons, modes, lost).state(absorbed)


def conditional_states(photons: int, modes: int) -> Iterator[tuple[tuple[int, ...], SparseState]]:
    """Lazily yield (absorbed, conditional_state) for every absorbed arrangement.

    The canonical order: total absorbed count ascending, then descending-lex
    arrangement.  Each kept sector is enumerated once, when its first state
    is asked for.  The states carry no eta, and no weight is computed.
    """
    check_counts(photons, modes)
    for lost in range(photons + 1):
        sector = _KeptSector(photons, modes, lost)
        for absorbed in compositions(lost, modes):
            yield absorbed, sector.state(absorbed)


def returned_mixture(photons: int, modes: int, eta: float) -> list[LossComponent]:
    """All components of the returned state: conditional_states with their weights, which sum to one.

    eta and the total size, C(N + 2M - 1, N) amplitudes over all the
    components, are checked before any state is built.
    """
    _check_eta(eta)
    check_sector_size(f"returned mixture with N={photons}, M={modes}", photons, 2 * modes, modes, 2)
    weights = [absorption_weight(photons, modes, eta, lost) for lost in range(photons + 1)]
    return [LossComponent(absorbed, weights[sum(absorbed)], state)
            for absorbed, state in conditional_states(photons, modes)]


def check_oracle_size(photons: int, modes: int) -> int:
    """Amplitudes of beamsplitter_oracle(photons, modes, eta); AmplitudeCapError past the caps."""
    label = f"beamsplitter oracle with N={photons}, M={modes}"
    return check_sector_size(label, photons, 2 * modes, modes, 3)


def _one_mode_outputs(photons: int, eta: float) -> list[list[float]]:
    """Amplitudes of (sqrt(eta) a+_S + sqrt(1-eta) a+_B)^c / sqrt(c!) |0> over s = 0..c kept
    photons, for c = 0..N.  The c-th photon routed is weighted by step = 1/sqrt(c), so each
    output is a normalized state: out_c[s] = (keep step)(out_{c-1}[s-1] sqrt(s)) +
    (leak step)(out_{c-1}[s] sqrt(c-s)), the products and sum that combine forms from
    create(S, 0) and then create(B, 0), with a term past either end an exact zero."""
    keep, leak = math.sqrt(eta), math.sqrt(1.0 - eta)
    roots = list(map(math.sqrt, range(photons + 1)))
    outputs = [[1.0]]
    for c in range(1, photons + 1):
        step, padded = 1.0 / roots[c], [0.0, *outputs[-1], 0.0]
        kept, leaked = keep * step, leak * step
        outputs.append([kept * (padded[s] * roots[s]) + leaked * (padded[s + 1] * roots[c - s])
                        for s in range(c + 1)])
    return outputs


def beamsplitter_oracle(photons: int, modes: int, eta: float) -> SparseState:
    """Exact tripartite state after the beamsplitter, built by ladder operators.

    Each signal mode holding c photons leaves the splitter as the c-photon
    output of _one_mode_outputs, built once for c = 0..N; each is a normalized
    state, so no amplitude exceeds one, and neither does a product of them.
    Each idler arrangement's product is expanded mode by mode into prefix
    products under integer keys, multiplied left to right as math.prod
    multiplies them, and each amplitude is written once unless it is exactly
    zero.  Intended for small instances; the result holds C(N + 2M - 1, N) amplitudes.
    """
    _check_eta(eta)
    check_oracle_size(photons, modes)
    outputs = _one_mode_outputs(photons, eta)
    # word w of a key of 3M words carries weight 2^(16 (3M - 1 - w)); offsets[i][c] holds
    # (the signal and background counts of mode i at their words, amplitude) for each
    # nonzero amplitude of the c-photon output, most photons kept first
    offsets = [[[((s << 16 * (2 * modes - 1 - mode)) + ((c - s) << 16 * (modes - 1 - mode)), amp)
                 for s, amp in reversed(list(enumerate(output))) if amp != 0]
                for c, output in enumerate(outputs)]
               for mode in range(modes)]
    scale = 1.0 / math.sqrt(count_compositions(photons, modes))
    pack, width = struct.Struct(f">{modes}H").pack, 6 * modes
    amplitudes = {}
    for arrangement in compositions(photons, modes):
        # prefix products, multiplied left to right from 1 as math.prod does; an empty
        # mode's output is the vacuum, amplitude 1.0, and multiplying by it is exact, as
        # every amplitude here is a non-negative real
        products = [(int.from_bytes(pack(*arrangement), "big") << 32 * modes, 1 + 0j)]
        for mode, count in enumerate(arrangement):
            if count:
                products = [(key + offset, amp * factor) for key, amp in products
                            for offset, factor in offsets[mode][count]]
        for key, amp in products:
            amp = scale * amp
            if amp != 0:
                amplitudes[key.to_bytes(width, "big")] = amp
    return SparseState._adopt(modes, (IDLER, SIGNAL, BACKGROUND), amplitudes)


def split_by_environment(state: SparseState) -> list[LossComponent]:
    """Group a tripartite state by its environment-register content.

    Returns one component per occurring arrangement: the squared-norm weight
    and the normalized idler/signal remainder, ordered as returned_mixture
    orders its components.  A remainder whose squared norm is below the
    normal float range is scaled by 2^600 first, so it is normalized to full
    precision even where its weight underflows to zero.  The groups that
    split_last_register builds are scaled in place; the input is left as it was.
    """
    if state.registers != (IDLER, SIGNAL, BACKGROUND):
        raise ValueError("expected a state over the idler, signal and background registers")
    groups = state.split_last_register()
    components = []
    for environment in sorted(groups, key=lambda e: (sum(e), tuple(-c for c in e))):
        sub, shift = groups[environment], 0
        if (weight := sub.norm_sq()) < sys.float_info.min:
            sub, shift = sub._scale_in_place(2.0 ** 600), -1200  # exact: a power of two
            weight = sub.norm_sq()
        components.append(LossComponent(environment, math.ldexp(weight, shift),
                                        sub._scale_in_place(1.0 / math.sqrt(weight))))
    return components
