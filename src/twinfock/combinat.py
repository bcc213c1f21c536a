"""Exact and log-space combinatorial kernels.

Photon-arrangement counting shows up in every closed-form probability in
this package.  Two evaluation routes are provided: exact big-integer
arithmetic, which is mandatory at desk scale (photons + modes below
EXACT_CROSSOVER), and log-space floats for instances where the binomials
dwarf the float64 range.  The test suite pins the two routes against each
other on the region where both apply.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

#: Largest photons + modes for which the exact big-integer route is used.
EXACT_CROSSOVER = 200
#: Most tail texts composition_texts builds and holds for one enumeration.
TEXT_CACHE_BOUND = 4096


def count_compositions(total: int, parts: int) -> int:
    """Count length-`parts` vectors of non-negative integers summing to `total`."""
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    return math.comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all length-`parts` vectors summing to `total`, descending-lex order.

    The sequence starts at (total, 0, ..., 0), ends at (0, ..., 0, total)
    and has exactly count_compositions(total, parts) entries.  The order is
    fixed so that serialized states and CSV sweeps are reproducible.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    counts = [total] + [0] * (parts - 1)
    while True:
        yield tuple(counts)
        # O(parts) step: move one photon right from the last occupied non-final mode,
        # gathering the final mode's photons in with it
        mode = parts - 2
        while mode >= 0 and not counts[mode]:
            mode -= 1
        if mode < 0:
            return
        counts[mode] -= 1
        tail = counts[-1] + 1
        counts[-1] = 0
        counts[mode + 1] = tail


def suffix_depth(total: int, parts: int) -> int:
    """Modes in composition_texts' tails: the largest d <= parts with C(total + d, d) <= the bound.

    C(total + d, d) is the number of d-mode tail texts over every photon count
    0..total, all of which composition_texts holds at once; the bound is
    TEXT_CACHE_BOUND.  Zero when even one-mode tails would pass it.
    """
    if total == 0:
        return parts  # every tail text is one string of zeros
    depth, cached = 0, 1
    while depth < parts:
        cached = cached * (total + depth + 1) // (depth + 1)
        if cached > TEXT_CACHE_BOUND:
            break
        depth += 1
    return depth


def composition_texts(total: int, parts: int) -> Iterator[tuple[str, list[str]]]:
    """compositions(total, parts) as comma-joined text, one (head, tails) pair per head.

    Each composition splits into a head (its first parts - d counts) and a
    tail (its last d counts), d = suffix_depth(total, parts).  The pairs come
    in descending-lex order of the heads, and head + tail for tail in tails,
    over the pairs in turn, is ",".join(map(str, c)) for c in
    compositions(total, parts), in order.  A head's text carries its trailing
    comma.  The tail texts for each photon count are built once and shared:
    the same list comes back for every head that leaves that count.
    """
    depth = suffix_depth(total, parts)
    if depth == 0:
        for counts in compositions(total, parts):
            yield ",".join(map(str, counts)), [""]
        return
    tails = [[",".join(map(str, tail)) for tail in compositions(left, depth)]
             for left in range(total + 1)]
    count_text = [f"{count}," for count in range(total + 1)].__getitem__
    # the last entry of a (parts - d + 1)-part composition is what the head leaves the tail
    for counts in compositions(total, parts - depth + 1):
        yield "".join(map(count_text, counts[:-1])), tails[counts[-1]]


@dataclass(frozen=True)
class LogProb:
    """Probability-like value carried on the natural-log scale.

    log_value == -inf encodes an exact zero, so products and sums stay
    meaningful far below the float64 underflow point near 1e-308.
    """

    log_value: float

    def __float__(self) -> float:
        """Plain float value; underflows to 0.0 when too small to represent."""
        return math.exp(self.log_value)


def sum_log_probs(logs: Iterable[float]) -> LogProb:
    """Sum of the values whose natural logs are given, via a max-shifted log-sum-exp.

    A log of -inf stands for an exact zero and drops out of the sum.
    """
    zero = -math.inf
    logs = [x for x in logs if x != zero]
    if not logs:
        return LogProb(-math.inf)
    peak = max(logs)
    exp = math.exp
    return LogProb(peak + math.log(sum([exp(x - peak) for x in logs])))


def falling_ratio_exact(photons: int, modes: int, picked: int) -> Fraction:
    """Exact value of prod_{j<picked} (photons - j) / (photons + modes - 1 - j).

    Equals C(photons - picked + modes - 1, modes - 1) over
    C(photons + modes - 1, modes - 1); the product telescopes into the
    binomial ratio, which is what gets evaluated here.
    """
    if modes < 1:
        raise ValueError("modes must be at least 1")
    if not 1 <= picked <= photons:
        raise ValueError("picked must satisfy 1 <= picked <= photons")
    return Fraction(
        math.comb(photons - picked + modes - 1, modes - 1),
        math.comb(photons + modes - 1, modes - 1),
    )


def falling_ratio_logs(photons: int, modes: int) -> list[float]:
    """Natural logs of the falling ratios for picked = 1..photons, by prefix accumulation.

    Entry k-1 is the log of prod_{j<k} (photons - j) / (photons + modes - 1 - j),
    the detector coefficient weighting the probability of picking up exactly
    k noise photons; safe at photons = 1000, modes = 1e5, where the plain
    float value underflows.  Each factor's log is taken of the rounded ratio,
    which keeps its error near one rounding, and the prefix sums are
    Neumaier-compensated so the error does not grow with the number of
    factors.
    """
    if modes < 1:
        raise ValueError("modes must be at least 1")
    if photons < 0:
        raise ValueError("photons must be non-negative")
    top = photons + modes - 1
    log = math.log
    out = []
    append = out.append
    acc = 0.0
    carry = 0.0
    for factor in [log((photons - j) / (top - j)) for j in range(photons)]:
        summed = acc + factor
        # every factor and prefix sum is <= 0, so this is abs(acc) >= abs(factor)
        if acc <= factor:
            carry += (acc - summed) + factor
        else:
            carry += (factor - summed) + acc
        acc = summed
        append(acc + carry)
    return out
