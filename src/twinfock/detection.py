"""Hypothesis-test error rates for target detection with the pair states.

Target present: the receiver accepts whenever at least one signal photon
returns, so a miss requires every photon to be absorbed and the miss
probability is (1 - eta)^N regardless of the mode count.  Target absent:
the receiver sees only environment noise, and the false-alarm rate is a
noise-weighted sum of per-photon-count coefficients, every one of which
falls off as the mode count grows.  P_MD is loss's all-absorbed weight at
one mode.  Brute-force oracles over explicitly materialized states check
them: a trace for P_FA, the beamsplitter oracle's all-absorbed weight for P_MD.

The closed forms run in loss.CONTEXT: 40 significant digits, rounded half-even,
over the whole exponent range of the decimal module, from the exact values
of their float inputs.  Each operation rounds once, by at most 5e-40
relative, and a value gathers the error of at most 5N + 2 such roundings,
so it stays within (5N + 2) 5e-40 of the exact value for those inputs.  A
value below that range, about 1e-999999999999999999, raises
decimal.Subnormal rather than turning into zero.
"""

import contextlib
import decimal
import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, NamedTuple, Optional

from .combinat import count_compositions
from .fock import SIGNAL, SparseState
from .loss import (CONTEXT, _one_plus, absorption_decimal, absorption_weight, check_oracle_size,
                   conditional_states)


@contextlib.contextmanager
def _in_context(quantity: str):
    """Run the block in a copy of CONTEXT, which it yields; a Subnormal it raises
    comes out naming the quantity."""
    try:
        with decimal.localcontext(CONTEXT) as context:
            yield context
    except decimal.Subnormal:
        raise decimal.Subnormal(f"{quantity} lies below 1e{CONTEXT.Emin}, the smallest "
                                f"value the closed forms hold") from None


@dataclass(frozen=True)
class ThermalNoise:
    """Identical thermal occupation of every environment mode.

    arrangement_probs(count)[k] is the probability of one specific
    arrangement of k noise photons, (1 + nbar)^-M x^k with
    x = nbar / (1 + nbar); the total probability of k photons in any
    arrangement multiplies this by the number of arrangements.
    """

    nbar: float
    modes: int

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"mean occupation nbar must be finite and >= 0, got {self.nbar}")
        if self.modes < 1:
            raise ValueError("modes must be at least 1")

    def arrangement_probs(self, count: int) -> list[Decimal]:
        """The arrangement probabilities for k = 0..count, in CONTEXT.

        Taken from the exact value of nbar; 1 + nbar is exact too, so that no
        rounding of it is raised to the power M.
        """
        with decimal.localcontext(CONTEXT):
            one_plus = _one_plus(self.nbar)
            step = Decimal(self.nbar) / one_plus
            return list(itertools.accumulate(itertools.repeat(step, count), operator.mul,
                                             initial=one_plus ** -self.modes))


@dataclass(frozen=True)
class TableNoise:
    """Arrangement probabilities supplied directly, entry i for i+1 photons.

    Counts beyond the table are treated as zero; the vacuum arrangement is
    not part of the table and reads as zero as well.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        bad = [v for v in self.values if not 0.0 <= v <= 1.0]
        if bad:
            raise ValueError(f"arrangement probabilities must lie in [0, 1], got {bad[0]}")

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

    def arrangement_probs(self, count: int) -> list[Decimal]:
        """The arrangement probabilities for k = 0..count: the exact values of the entries."""
        probs = [Decimal(0)] + [Decimal(v) for v in self.values[:count]]
        return probs + [Decimal(0)] * (count + 1 - len(probs))


@dataclass
class DetectionReport:
    """Closed-form error rates, plus optional oracles."""

    photons: int
    modes: int
    eta: float
    p_fa_closed: float
    p_md_closed: float
    p_fa_oracle: Optional[float] = None
    p_md_oracle: Optional[float] = None


class Baselines(NamedTuple):
    """Single-photon protocol reference rates, in CONTEXT.

    The repeated-copies figure N / M assumes N well below M; once the photon
    count reaches the mode count it stops being a probability.
    """

    single_copy: Decimal      # one maximally mode-entangled photon: 1 / M
    repeated_copies: Decimal  # N sequential single-photon probes: N / M


def _check_noise_modes(noise, modes: int) -> None:
    noise_modes = getattr(noise, "modes", None)
    if noise_modes is not None and noise_modes != modes:
        raise ValueError(f"noise model built for {noise_modes} modes, state has {modes}")


def missed_detection(photons: int, eta: float) -> Decimal:
    """Missed-detection probability (1 - eta)^N in CONTEXT: the all-absorbed weight at M = 1."""
    with _in_context(f"P_MD at N={photons}, eta={eta!r}"):
        return absorption_decimal(photons, 1, eta, photons)


def p_md_closed(photons: int, eta: float) -> float:
    """Missed-detection probability as a float: the exact (1 - eta)^N rounded once."""
    with _in_context(f"P_MD at N={photons}, eta={eta!r}"):
        return absorption_weight(photons, 1, eta, photons)


def false_alarm_series(photons: int, modes: int, noise) -> tuple[list[Decimal], Decimal]:
    """Closed-form false-alarm rate as (coefficients, total), in CONTEXT.

    Entry k-1 of coefficients is the falling ratio
    prod_{j<k} (N - j) / (N + M - 1 - j), run as the recurrence
    c_k = c_{k-1} (N - k + 1) / (N + M - k); total, the sum of each
    coefficient times the noise model's k-photon arrangement probability, is
    the false-alarm probability.
    """
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    _check_noise_modes(noise, modes)
    with _in_context(f"P_FA at N={photons}, M={modes}") as context:
        # the ratios (N - k + 1) / (N + M - k), k = 1..N, each rounded once
        ratios = map(context.divide, range(photons, 0, -1),
                     range(photons + modes - 1, modes - 1, -1))
        coefficients = list(itertools.accumulate(ratios, operator.mul))
        probs = noise.arrangement_probs(photons)[1:]
        total = sum(map(operator.mul, coefficients, probs), Decimal(0))
    return coefficients, total


def p_fa_closed(photons: int, modes: int, noise) -> float:
    """Closed-form false-alarm probability: the 40-digit total as a float, one ulp off at worst."""
    return float(false_alarm_series(photons, modes, noise)[1])


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
    """
    _check_noise_modes(noise, modes)
    uniform = 1.0 / count_compositions(photons, modes)
    # the vacuum term, k = 0, is no returned photon and adds nothing
    probs = {k: float(p) for k, p in enumerate(noise.arrangement_probs(photons)) if k}
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
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    with decimal.localcontext(CONTEXT) as context:
        return Baselines(context.divide(1, modes), context.divide(photons, modes))


def detection_report(
    photons: int,
    modes: int,
    eta: float,
    noise,
    include_oracle: bool = False,
) -> DetectionReport:
    """Bundle the closed-form rates, optionally cross-checked: p_fa_oracle by the trace
    oracle, p_md_oracle by 1 - sum_{k<N} absorption_weight(N, 1, eta, k), the returned mass."""
    report = DetectionReport(photons, modes, eta, p_fa_closed(photons, modes, noise),
                             p_md_closed(photons, eta))
    if include_oracle:
        report.p_fa_oracle = p_fa_oracle(photons, modes, noise)
        report.p_md_oracle = 1.0 - math.fsum(absorption_weight(photons, 1, eta, lost)
                                             for lost in range(photons))
    return report
