"""Hypothesis-test error rates for target detection with the pair states.

Target present: the receiver accepts whenever at least one signal photon
returns, so a miss requires every photon to be absorbed and the miss
probability is (1 - eta)^N regardless of the mode count.  Target absent:
the receiver sees only environment noise, and the false-alarm rate is a
noise-weighted sum of per-photon-count coefficients, every one of which
falls off as the mode count grows.  P_MD is loss's all-absorbed weight at
one mode.  Brute-force oracles over explicitly materialized states check
them: a trace for P_FA, which forms its noise probabilities in floats, and the
beamsplitter oracle's all-absorbed weight for P_MD; neither reads CONTEXT.

The closed forms run in loss.CONTEXT: 40 significant digits, rounded half-even,
over the whole exponent range of the decimal module, from the exact values
of their float inputs.  Each operation rounds once, by at most 5e-40
relative, and a value gathers the error of at most 5N + 2 such roundings,
so it stays within (5N + 2) 5e-40 of the exact value for those inputs.  A
value below that range, about 1e-999999999999999999, raises
decimal.Subnormal rather than turning into zero.

The P_FA sum stops once the products left cannot change its 40 digits, so
the count summed depends on those digits and the decay of the terms, not on
N.  loss.round_once rounds the total once: to a float for p_fa_closed, and
to 17 digits for pfa-curves.
"""

import contextlib
import decimal
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal

from .combinat import count_compositions
from .fock import SIGNAL, SparseState, check_counts
from .loss import (CONTEXT, LossComponent, _one_plus, absorption_weight, beamsplitter_oracle,
                   check_oracle_size, conditional_states, round_once, split_by_environment)


@contextlib.contextmanager
def _in_context(quantity: str):
    """Run the block in a copy of CONTEXT; a Subnormal it raises comes out naming the quantity."""
    try:
        with decimal.localcontext(CONTEXT):
            yield
    except decimal.Subnormal:
        raise decimal.Subnormal(f"{quantity} lies below 1e{CONTEXT.Emin}, the smallest "
                                f"value the closed forms hold") from None


class ThermalNoise(namedtuple("ThermalNoise", "nbar modes")):
    """Identical thermal occupation, mean nbar, of each of `modes` environment modes.

    Entry k of arrangement_series is the probability of one specific
    arrangement of k noise photons, (1 + nbar)^-M x^k with
    x = nbar / (1 + nbar); the total probability of k photons in any
    arrangement multiplies this by the number of arrangements.
    """

    __slots__ = ()

    def __new__(cls, nbar: float, modes: int):
        if not (math.isfinite(nbar) and nbar >= 0):
            raise ValueError(f"mean occupation nbar must be finite and >= 0, got {nbar}")
        if modes < 1:
            raise ValueError("modes must be at least 1")
        return super().__new__(cls, nbar, modes)

    def arrangement_series(self) -> tuple[Iterator[Decimal], Decimal]:
        """The arrangement probabilities p_0, p_1, ... without end, and x.

        p_0 = (1 + nbar)^-M and x are taken in CONTEXT from the exact value of
        nbar; 1 + nbar is exact too, so that no rounding of it is raised to the
        power M.  Each later p_k = p_{k-1} x is formed as it is read, in the
        reader's context, so each is at most x times the one before, rounded once.
        """
        with decimal.localcontext(CONTEXT):
            one_plus = _one_plus(self.nbar)
            step = Decimal(self.nbar) / one_plus
            probs = itertools.accumulate(itertools.repeat(step), operator.mul,
                                         initial=one_plus ** -self.modes)
        return probs, step

    def exact_weighted_sum(self, weights: Iterable[int]) -> tuple[int, int]:
        """sum_k weights[k-1] p_k over k = 1, 2, ..., exactly, as (numerator, denominator).

        With nbar = a / b, p_k = b^M a^k / (a + b)^(M + k); the sum over the
        common denominator (a + b)^(M + K), K the count of weights, is run as a
        Horner scheme in a + b.
        """
        a, b = self.nbar.as_integer_ratio()
        numerator, power, count = 0, 1, 0
        for count, weight in enumerate(weights, 1):
            power *= a
            numerator = numerator * (a + b) + weight * power
        return b ** self.modes * numerator, (a + b) ** (self.modes + count)


class TableNoise(namedtuple("TableNoise", "values")):
    """Arrangement probabilities supplied directly, entry i of values for i+1 photons.

    Counts beyond the table are treated as zero; the vacuum arrangement is
    not part of the table and reads as zero as well.
    """

    __slots__ = ()

    def __new__(cls, values: tuple[float, ...]):
        bad = [v for v in values if not 0.0 <= v <= 1.0]
        if bad:
            raise ValueError(f"arrangement probabilities must lie in [0, 1], got {bad[0]}")
        return super().__new__(cls, values)

    @classmethod
    def from_file(cls, path) -> "TableNoise":
        """Parse a plain-text table, one float per line, line i holding p_i.

        Blank lines are skipped.  Text that is not UTF-8, or a line that holds
        no number, raises a ValueError naming the file and the line.
        """
        with open(path, encoding="utf-8") as handle:
            try:
                lines = handle.readlines()
            except UnicodeDecodeError:
                raise ValueError(f"noise table {path} is not UTF-8 text") from None
        values = []
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if line:
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"noise table {path}, line {number}: "
                                     f"expected a number, not {line!r}") from None
        return cls(tuple(values))

    def arrangement_series(self) -> tuple[Iterator[Decimal], None]:
        """The arrangement probabilities p_0 = 0, p_1, ... up to the last entry, and None.

        The entries are read as their exact values.  The series ends with the
        table, since every count past it reads as zero; None says that no
        ratio bounds each entry by the one before.
        """
        return itertools.chain([Decimal(0)], map(Decimal, self.values)), None

    def exact_weighted_sum(self, weights: Iterable[int]) -> tuple[int, int]:
        """sum_k weights[k-1] p_k over k = 1, 2, ..., exactly, as (numerator, denominator).

        Every entry is a dyadic rational, so the largest of their denominators,
        a power of two, is a common one.
        """
        ratios = [value.as_integer_ratio() for value in self.values]
        common = max((den for _, den in ratios), default=1)
        return sum(weight * num * (common // den)
                   for weight, (num, den) in zip(weights, ratios)), common


class DetectionReport(namedtuple("DetectionReport", "photons modes eta p_fa_closed p_md_closed "
                                 "p_fa_oracle p_md_oracle", defaults=(None, None))):
    """Closed-form error rates at (photons, modes, eta), plus optional oracles, None when not run."""

    __slots__ = ()


class Baselines(namedtuple("Baselines", "single_copy repeated_copies")):
    """Single-photon protocol reference rates, Decimals in CONTEXT.

    single_copy:     one maximally mode-entangled photon, 1 / M
    repeated_copies: N sequential single-photon probes, N / M

    The repeated-copies figure N / M assumes N well below M; once the photon
    count reaches the mode count it stops being a probability.
    """

    __slots__ = ()


def _check_noise_modes(noise, modes: int) -> None:
    noise_modes = getattr(noise, "modes", None)
    if noise_modes is not None and noise_modes != modes:
        raise ValueError(f"noise model built for {noise_modes} modes, state has {modes}")


def p_md_closed(photons: int, eta: float, digits: int | None = None):
    """Missed-detection probability, the all-absorbed weight at M = 1: the exact
    (1 - eta)^N rounded once, to a float or to `digits` digits."""
    with _in_context(f"P_MD at N={photons}, eta={eta!r}"):
        return absorption_weight(photons, 1, eta, photons, digits)


def p_md_oracle(photons: int, split: Iterable[LossComponent]) -> float:
    """Missed-detection probability from an oracle's split, such as split_by_environment of
    the beamsplitter oracle at any M: the in-order sum of the weights of the components
    that absorbed all N photons, 0.0 when there are none."""
    return sum((c.weight for c in split if sum(c.absorbed) == photons), 0.0)


#: Products false_alarm_series adds before it first bounds the rest of its sum;
#: each later block of products is twice as long as the one before.
FIRST_BLOCK = 16
#: 1 + 1e-38: lifts a rounded r_{k+1} x above the ratio of a product to the
#: one before it, which the roundings of c_k, p_k and c_k p_k widen by at most 2.1e-39.
_ROUNDING_MARGIN = Decimal("1.00000000000000000000000000000000000001")
#: Most N + M at which exact_p_fa gives the exact total, whose cost grows as N^2:
#: at the bound the slowest, N = 511, M = 1, nbar = 1e308, takes about 0.6 s.
P_FA_EXACT_MAX = 512


def false_alarm_grid(photons: int, grid: Iterable[int],
                     noise_for: Callable[[int], object]) -> Iterator[tuple[int, list[Decimal], Decimal]]:
    """Closed-form false-alarm rate of each cell of one photon number's grid, in CONTEXT.

    Yields (modes, coefficients, total) for each mode count M of grid in turn,
    with noise_for(M) the cell's noise model.  Entry k-1 of coefficients is
    the falling ratio prod_{j<k} (N - j) / (N + M - 1 - j), run as the
    recurrence c_k = c_{k-1} r_k with r_k = (N - k + 1) / (N + M - k), each
    ratio a Decimal numerator over an int denominator, rounded once; the
    numerators N, ..., 1 are built once for the whole grid.  total, the sum
    of each coefficient times the noise model's k-photon arrangement
    probability, is the false-alarm probability.

    The products t_k = c_k p_k are added in order, in blocks of 16, 32, 64,
    ... products, and the sum stops where the products left cannot change it:
    at the end of the noise model's arrangement_series (a table's last entry;
    past it every product is zero), or, when the model bounds each
    probability by x times the one before, after the first block whose rest
    _rest_negligible bounds below half a unit of the total's 40th digit.
    Each skipped addition would have rounded back to the total, so it is
    the value that adding all N products gives.
    """
    check_counts(photons, 1)  # an empty grid refuses a negative N too
    numerators = list(map(Decimal, range(photons, 0, -1)))
    for modes in grid:
        check_counts(photons, modes)
        noise = noise_for(modes)
        _check_noise_modes(noise, modes)
        with _in_context(f"P_FA at N={photons}, M={modes}"):
            # the ratios (N - k + 1) / (N + M - k), k = 1..N
            ratios = map(operator.truediv, numerators, range(photons + modes - 1, modes - 1, -1))
            coefficients = list(itertools.accumulate(ratios, operator.mul))
            probs, step = noise.arrangement_series()
            next(probs)  # p_0: no photon returned, no false alarm
            products = map(operator.mul, coefficients, probs)
            total, summed, size = Decimal(0), 0, FIRST_BLOCK
            while block := list(itertools.islice(products, size)):
                total = sum(block, total)
                summed += len(block)
                if step is not None and summed < photons and _rest_negligible(
                        total, block[-1],
                        numerators[summed] / (photons + modes - 1 - summed) * step):
                    break
                size *= 2
        yield modes, coefficients, total


def false_alarm_series(photons: int, modes: int, noise) -> tuple[list[Decimal], Decimal]:
    """Closed-form false-alarm rate as (coefficients, total), in CONTEXT: the one cell
    of false_alarm_grid over [modes]."""
    _, coefficients, total = next(false_alarm_grid(photons, (modes,), lambda _: noise))
    return coefficients, total


def _rest_negligible(total: Decimal, last: Decimal, growth: Decimal) -> bool:
    """Whether the products after `last`, the k-th, can no longer change `total`.

    growth is r_{k+1} x, rounded.  The ratios r_j fall with j (rounding keeps
    their order), and the roundings of c_j, p_j and their product widen the
    ratio of a product to the one before by at most (1 + 5e-40)^3 / (1 - 5e-40),
    so each later product is at most q = growth (1 + 1e-38) times the one
    before.  When q < 1 they add up to less than last q / (1 - q).  That
    bound is compared with total 1e-41, below a tenth of a unit in total's
    40th digit: past this check's three roundings the rest still stays
    below half a unit, so each skipped addition would round back to total.
    No bound is taken at q >= 1, met only at M = 1, where r = 1, with x
    within 1e-38 of 1 (nbar above about 1e38).  The comparison is made as q / (1 - q)
    against total / last 1e-41, which is at least 1e-41, so that it cannot
    underflow.
    """
    growth *= _ROUNDING_MARGIN
    if not growth:  # x = 0: every later probability is zero
        return True
    if growth >= 1:
        return False
    return growth / (1 - growth) < (total / last).scaleb(-41)


def exact_p_fa(photons: int, modes: int, noise) -> Callable[[], tuple[int, int]] | None:
    """For round_once: the exact P_FA, sum_k C(N - k + M - 1, M - 1) p_k / C(N + M - 1, M - 1)
    for the exact noise values, as (numerator, denominator); None past P_FA_EXACT_MAX."""
    if photons + modes > P_FA_EXACT_MAX:
        return None

    def exact() -> tuple[int, int]:
        weights = (math.comb(photons - k + modes - 1, modes - 1) for k in range(1, photons + 1))
        numerator, denominator = noise.exact_weighted_sum(weights)
        return numerator, denominator * math.comb(photons + modes - 1, modes - 1)
    return exact


def p_fa_closed(photons: int, modes: int, noise) -> float:
    """Closed-form false-alarm probability: the exact value for the float inputs, rounded once
    by round_once from the 40-digit total, within (5N + 2) 5e-40 < 1e-35 of it, and exact_p_fa;
    past P_FA_EXACT_MAX it can be one ulp off."""
    total = false_alarm_series(photons, modes, noise)[1]
    return round_once(total, exact_p_fa(photons, modes, noise))


def p_fa_trace(photons: int, modes: int, noise, components: Iterable[SparseState]) -> float:
    """Trace of the noise-only ensemble against the projector onto the given components.

    The noise-only ensemble is diagonal in the photon-number basis: a
    uniformly random idler arrangement of the N photons over M modes,
    tensored with environment content carrying its arrangement probability.
    The trace is the sum of squared overlaps |<basis|component>|^2 weighted
    by each basis state's ensemble probability; basis states absent from a
    component overlap it with zero, so walking the component amplitudes
    covers the whole sum (a component term meets the ensemble state whose
    environment equals the term's returned-signal arrangement).  A term with
    no returned photon adds nothing, so the components of every absorbed
    arrangement may be passed: the all-absorbed ones leave the sum as it is.
    The noise probabilities share no arithmetic with the closed forms: a table's
    entries are read as given, and a thermal p_k is formed in floats from nbar.
    """
    check_counts(photons, modes)
    _check_noise_modes(noise, modes)
    uniform = 1.0 / count_compositions(photons, modes)
    # p_1..p_N; the vacuum term, k = 0, is no returned photon and adds nothing
    if isinstance(noise, TableNoise):
        probs = noise.values[:photons]
    else:  # (1 + nbar)^-M x^k, x = nbar / (1 + nbar); 1 - x would cancel at large nbar
        one_plus = 1.0 + noise.nbar
        vacuum, step = (1.0 / one_plus) ** modes, noise.nbar / one_plus
        probs = [vacuum * step ** k for k in range(1, photons + 1)]
    probs = dict(enumerate(probs, 1))
    total = 0.0
    for component in components:
        for returned, amp in component.register_totals(SIGNAL):
            prob = probs.get(returned, 0.0)
            if prob:
                total += uniform * prob * abs(amp) ** 2
    return total


def p_fa_oracle(photons: int, modes: int, noise) -> float:
    """Brute-force false-alarm probability: p_fa_trace over the accepting conditional_states.

    The acceptance projector spans the components with at least one returned
    photon, which conditional_states yields first; the trace stops at the
    first all-absorbed one.  Intended for small instances: the components
    hold at most C(N + 2M - 1, N) amplitudes in total, the beamsplitter
    oracle's size, so sizes past its caps raise AmplitudeCapError up front.
    """
    check_oracle_size(photons, modes)
    accepted = itertools.takewhile(lambda item: sum(item[0]) < photons,
                                   conditional_states(photons, modes))
    return p_fa_trace(photons, modes, noise, (state for _, state in accepted))


def single_photon_baselines(photons: int, modes: int) -> Baselines:
    """Reference false-alarm rates of the single-photon protocol."""
    check_counts(photons, modes)
    with decimal.localcontext(CONTEXT) as context:
        return Baselines(context.divide(1, modes), context.divide(photons, modes))


def detection_report(
    photons: int,
    modes: int,
    eta: float,
    noise,
    include_oracle: bool = False,
) -> DetectionReport:
    """Bundle the closed-form rates, optionally cross-checked by the trace oracle
    (p_fa_oracle) and the beamsplitter oracle's all-absorbed weight (p_md_oracle)."""
    report = DetectionReport(photons, modes, eta, p_fa_closed(photons, modes, noise),
                             p_md_closed(photons, eta))
    if not include_oracle:
        return report
    split = split_by_environment(beamsplitter_oracle(photons, 1, eta))  # N + 1 amplitudes
    return report._replace(p_fa_oracle=p_fa_oracle(photons, modes, noise),
                           p_md_oracle=p_md_oracle(photons, split))
