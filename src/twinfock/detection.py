"""Hypothesis-test error rates for target detection with the pair states.

Target present: the receiver accepts whenever at least one signal photon
returns, so a miss requires every photon to be absorbed and the miss
probability is (1 - eta)^N regardless of the mode count.  Target absent:
the receiver sees only environment noise, and the false-alarm rate is a
noise-weighted sum of per-photon-count coefficients, every one of which
falls off as the mode count grows.  Closed forms are paired with
brute-force trace oracles over explicitly materialized states.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .combinat import (
    EXACT_CROSSOVER,
    LogProb,
    compositions,
    count_compositions,
    falling_ratio_exact,
    falling_ratio_logs,
    sum_log_probs,
)
from .fock import SIGNAL, SparseState
from .loss import absorption_weight, check_oracle_size, conditional_states

#: Smallest positive normal float; below it a float keeps fewer than 53 bits.
_FLOAT_MIN = sys.float_info.min


@dataclass(frozen=True)
class ThermalNoise:
    """Identical thermal occupation of every environment mode.

    arrangement_prob(k) is the probability of one specific arrangement of k
    noise photons, (1 - x)^M x^k with x = nbar / (1 + nbar); the total
    probability of k photons in any arrangement multiplies this by the
    number of arrangements.
    """

    nbar: float
    modes: int

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"mean occupation nbar must be finite and >= 0, got {self.nbar}")
        if self.modes < 1:
            raise ValueError("modes must be at least 1")

    def _log_parts(self) -> tuple[float, float]:
        """(M log(1 - x), log x): the k-photon log probability is base + k * step.

        From nbar, not the rounded x: log(1 - x) = -log1p(nbar), and log x =
        -log1p(1 / nbar), or log nbar - log1p(nbar) where 1 / nbar may overflow.
        """
        nbar = self.nbar
        step = -math.log1p(1.0 / nbar) if nbar > 1 else math.log(nbar) - math.log1p(nbar)
        return -self.modes * math.log1p(nbar), step

    def arrangement_logs(self, count: int) -> list[float]:
        """Natural logs of arrangement_prob(k) for k = 1..count; -inf stands for zero."""
        if self.nbar == 0:
            return [-math.inf] * count
        base, step = self._log_parts()
        return [base + k * step for k in range(1, count + 1)]

    def arrangement_prob(self, k: int) -> float:
        if k < 0:
            raise ValueError("photon count must be non-negative")
        if self.nbar == 0:
            return 1.0 if k == 0 else 0.0
        base, step = self._log_parts()
        return math.exp(base + k * step)


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
        """Parse a plain-text table, one float per line, line i holding p_i."""
        values = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    values.append(float(line))
        return cls(tuple(values))

    def arrangement_prob(self, k: int) -> float:
        if k < 1 or k > len(self.values):
            return 0.0
        return self.values[k - 1]

    def arrangement_logs(self, count: int) -> list[float]:
        """Natural logs of arrangement_prob(k) for k = 1..count; -inf stands for zero."""
        logs = [math.log(v) if v > 0 else -math.inf for v in self.values[:count]]
        return logs + [-math.inf] * (count - len(logs))


@dataclass(frozen=True)
class FalseAlarmTerm:
    """Contribution of one detected-photon count to the false-alarm rate."""

    detected: int
    coefficient: float
    contribution: float


@dataclass
class DetectionReport:
    """Closed-form error rates with the per-count breakdown, plus optional oracles."""

    photons: int
    modes: int
    eta: float
    p_fa_closed: float
    p_fa_terms: list[FalseAlarmTerm]
    p_md_closed: float
    p_fa_oracle: Optional[float] = None
    p_md_oracle: Optional[float] = None


class Baselines(NamedTuple):
    """Single-photon protocol reference rates."""

    single_copy: float      # one maximally mode-entangled photon: 1 / M
    repeated_copies: float  # N sequential single-photon probes: N / M
    in_regime: bool         # the N / M figure assumes N well below M


def _check_noise_modes(noise, modes: int) -> None:
    noise_modes = getattr(noise, "modes", None)
    if noise_modes is not None and noise_modes != modes:
        raise ValueError(f"noise model built for {noise_modes} modes, state has {modes}")


def p_md_closed(photons: int, eta: float) -> float:
    """Missed-detection probability (1 - eta)^N; the mode count never enters."""
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return (1.0 - eta) ** photons


def false_alarm_series(photons: int, modes: int, noise) -> tuple[list, list, Fraction | LogProb]:
    """Closed-form false-alarm rate as (coefficients, contributions, total).

    Entry k-1 of coefficients is the falling ratio
    prod_{j<k} (N - j) / (N + M - 1 - j), entry k-1 of contributions is that
    coefficient times the noise model's k-photon arrangement probability,
    and total, their sum, is the false-alarm probability.  With photons +
    modes up to EXACT_CROSSOVER every value is an exact Fraction, unless a
    positive noise factor or the total lies below the normal float range.
    Otherwise the coefficients and contributions are natural-log floats
    (-inf for zero) and the total is a LogProb, so nothing underflows.
    """
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    _check_noise_modes(noise, modes)
    if photons + modes <= EXACT_CROSSOVER:
        exact = _exact_series(photons, modes, noise)
        if exact is not None:
            return exact
    coefficients = falling_ratio_logs(photons, modes)
    contributions = [c + x for c, x in zip(coefficients, noise.arrangement_logs(photons))]
    return coefficients, contributions, sum_log_probs(contributions)


def _exact_series(photons: int, modes: int, noise):
    """The exact-region series of false_alarm_series, or None where floats fail it.

    A noise factor that is positive but below the normal float range has
    lost digits, or underflowed to zero, before the exact arithmetic sees
    it, and a total below that range cannot be returned as a float with its
    digits; the log route carries both to full precision.
    """
    counts = range(1, photons + 1)
    probs = [noise.arrangement_prob(k) for k in counts]
    if any(p < _FLOAT_MIN and log != -math.inf
           for p, log in zip(probs, noise.arrangement_logs(photons))):
        return None
    coefficients = [falling_ratio_exact(photons, modes, k) for k in counts]
    contributions = [c * Fraction(p) for c, p in zip(coefficients, probs)]
    total = sum(contributions, Fraction(0))
    if 0 < total < _FLOAT_MIN:
        return None
    return coefficients, contributions, total


def _terms(coefficients, contributions, total) -> list[FalseAlarmTerm]:
    # log-region series hold natural logs; exp(-inf) reads back as 0.0
    to_float = math.exp if isinstance(total, LogProb) else float
    return [FalseAlarmTerm(k, to_float(c), to_float(x))
            for k, (c, x) in enumerate(zip(coefficients, contributions), start=1)]


def false_alarm_terms(photons: int, modes: int, noise) -> list[FalseAlarmTerm]:
    """Per-count breakdown of the closed-form false-alarm rate, as floats."""
    return _terms(*false_alarm_series(photons, modes, noise))


def p_fa_closed(photons: int, modes: int, noise) -> float:
    """Closed-form false-alarm probability under the given noise model."""
    return float(false_alarm_series(photons, modes, noise)[2])


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
    probs = {k: noise.arrangement_prob(k) for k in range(1, photons + 1)}
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


def p_md_oracle(photons: int, modes: int, eta: float) -> float:
    """Brute-force missed-detection probability from the mixture weights.

    One minus the total weight of every component with at least one
    returned photon; equals (1 - eta)^N, which the tests pin.  Walks the
    components of an oracle-sized instance, so sizes past the beamsplitter
    oracle's caps raise AmplitudeCapError before any enumeration.
    """
    check_oracle_size(photons, modes)
    accepted = 0.0
    for lost in range(photons):
        for absorbed in compositions(lost, modes):
            accepted += absorption_weight(photons, modes, eta, absorbed)
    return 1.0 - accepted


def single_photon_baselines(photons: int, modes: int) -> Baselines:
    """Reference false-alarm rates of the single-photon protocol.

    Flags the repeated-copies figure as out of regime once the photon count
    reaches the mode count, where the N / M approximation stops being a
    probability.
    """
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")
    return Baselines(1.0 / modes, photons / modes, photons < modes)


def detection_report(
    photons: int,
    modes: int,
    eta: float,
    noise,
    include_oracle: bool = False,
) -> DetectionReport:
    """Bundle the closed-form rates, optionally cross-checked by the oracles."""
    coefficients, contributions, total = false_alarm_series(photons, modes, noise)
    report = DetectionReport(
        photons=photons,
        modes=modes,
        eta=eta,
        p_fa_closed=float(total),
        p_fa_terms=_terms(coefficients, contributions, total),
        p_md_closed=p_md_closed(photons, eta),
    )
    if include_oracle:
        report.p_fa_oracle = p_fa_oracle(photons, modes, noise)
        report.p_md_oracle = p_md_oracle(photons, modes, eta)
    return report
