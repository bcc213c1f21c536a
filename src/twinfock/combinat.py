"""Photon-arrangement counting: compositions of a photon number over modes.

Every state in this package is a sum over the ways of spreading N photons
over M modes; this module counts them, enumerates them in a fixed order and
renders them as the text of the dump format.
"""

import math
from collections.abc import Iterator

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
    count_compositions(total, parts)  # validates the counts
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
