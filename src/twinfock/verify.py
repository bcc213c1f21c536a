"""The verify battery: every production route against its independent check.

Each (N, M) case builds the pair state both ways, the loss components, one
weight per absorbed count and the beamsplitter oracle at each eta once, and
every entry of CHECKS reads them.  Only cli's verify command imports this
module, inside the command, so the other commands never load it.

Exit codes and printing belong to the command; this module gives the
results, CheckResult per printed line, and the size estimate it refuses by.
"""

import math
from collections import namedtuple

from .combinat import count_compositions
from .detection import TableNoise, ThermalNoise, p_fa_closed, p_fa_trace, p_md_closed, p_md_oracle
from .fock import (IDLER, SIGNAL, SparseState, combine, log_sector_size, nan_max,
                   orthonormality_residual)
from .loss import absorption_weight, beamsplitter_oracle, conditional_states, split_by_environment
from .states import loss_identity_residual, pair_state_direct, pair_state_recursive


class CheckResult(namedtuple("CheckResult", "name worst tolerance")):
    """One printed line of the battery: a check's name, worst residual and tolerance."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


#: Reflectivities at which every loss and missed-detection check runs.
_VERIFY_ETAS = (0.3, 0.7)


class VerifyCase(namedtuple("VerifyCase", "photons modes probe direct recursive previous "
                                           "components weights oracles")):
    """One (N, M) point of the battery and the states that several checks read.

    probe:      random idler/signal state for the operator identities
    direct:     pair_state_direct(photons, modes)
    recursive:  pair_state_recursive(photons, modes), the ladder build
    previous:   the previous case's direct, (N-1) pairs; None at N = 0
    components: list of the (absorbed, state) pairs of conditional_states; no eta
    weights:    eta -> absorption_weight of each absorbed count k = 0..N
    oracles:    eta -> split_by_environment of the beamsplitter oracle
    """

    __slots__ = ()


def _random_state(rng: "random.Random", modes: int, registers, max_count: int) -> SparseState:
    terms = []
    for _ in range(3):
        counts = tuple(
            tuple(rng.randint(0, max_count) for _ in range(modes)) for _ in registers
        )
        terms.append((counts, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return SparseState.from_terms(modes, registers, terms)


def _commutator(case: VerifyCase, register: str, partner: str) -> float:
    """[a_{register,j}, pair creation] = a+_{partner,j}, on the random probe."""
    probe = case.probe
    raised = probe.create_pairs()
    return nan_max(
        combine([
            (1.0, raised.annihilate(register, j)),
            (-1.0, probe.annihilate(register, j).create_pairs()),
            (-1.0, probe.create(partner, j)),
        ]).max_abs()
        for j in range(case.modes)
    )


def _signal_loss(case: VerifyCase) -> float:
    if case.photons < 1:
        return 0.0
    return loss_identity_residual(case.photons, case.direct, case.previous)


def _uniformity(case: VerifyCase) -> float:
    """Ladder-built amplitudes against 1 / sqrt(C(N+M-1, N)), which the direct build copies."""
    expected = 1.0 / math.sqrt(count_compositions(case.photons, case.modes))
    return nan_max(abs(amp - expected) for _, amp in case.recursive.terms())


def _decomposition(case: VerifyCase) -> float:
    residuals = []
    for eta, weights in case.weights.items():
        by_label = {c.absorbed: c for c in case.oracles[eta]}
        for absorbed, state in case.components:
            weight = weights[sum(absorbed)]
            other = by_label.get(absorbed)
            if other is None:
                residuals.append(weight)
            else:
                residuals += [abs(weight - other.weight), state.max_abs_diff(other.state)]
    return nan_max(residuals)


def _false_alarm(case: VerifyCase) -> float:
    """Closed form against the trace over the case's own components, which carry no eta.

    They are the states p_fa_oracle traces plus the all-absorbed ones, in the
    same order; those add exactly zero, so the trace equals p_fa_oracle bit for bit.
    """
    photons, modes = case.photons, case.modes
    states = [state for _, state in case.components]
    table = TableNoise(tuple(0.12 / (k + 1) for k in range(photons)))
    return nan_max(
        abs(p_fa_closed(photons, modes, noise) - p_fa_trace(photons, modes, noise, states))
        for noise in (ThermalNoise(0.5, modes), table)
    )


#: The battery, one (name, tolerance, residual of one case) entry per printed
#: line, in print order; a check passes when its worst residual is within tolerance.
CHECKS = (
    ("pair-creation commutator (signal)", 1e-12, lambda c: _commutator(c, SIGNAL, IDLER)),
    ("pair-creation commutator (idler)", 1e-12, lambda c: _commutator(c, IDLER, SIGNAL)),
    ("signal-loss identity", 1e-12, _signal_loss),
    ("direct vs recursive build", 1e-12, lambda c: c.direct.max_abs_diff(c.recursive)),
    ("amplitude uniformity", 1e-12, _uniformity),
    ("mixture completeness", 1e-10,
     lambda c: nan_max(abs(sum(weights[sum(absorbed)] for absorbed, _ in c.components) - 1.0)
                       for weights in c.weights.values())),
    ("component orthonormality", 1e-12,
     lambda c: orthonormality_residual([state for _, state in c.components])),
    ("beamsplitter decomposition", 1e-12, _decomposition),
    ("false alarm: closed vs oracle", 1e-10, _false_alarm),
    ("missed detection: closed vs oracle", 1e-10,
     lambda c: nan_max(abs(p_md_oracle(c.photons, split) - p_md_closed(c.photons, eta))
                       for eta, split in c.oracles.items())),
)


def run_verification(max_n: int, max_m: int) -> list[CheckResult]:
    """Run every entry of CHECKS on each case N <= max_n, 1 <= M <= max_m."""
    import random

    rng = random.Random(20240901)
    worst = [0.0] * len(CHECKS)
    for modes in range(1, max_m + 1):
        previous = None
        for photons in range(0, max_n + 1):
            case = VerifyCase(
                photons, modes,
                probe=_random_state(rng, modes, (IDLER, SIGNAL), max_count=2),
                direct=pair_state_direct(photons, modes),
                recursive=pair_state_recursive(photons, modes),
                previous=previous,
                components=list(conditional_states(photons, modes)),
                weights={eta: [absorption_weight(photons, modes, eta, lost)
                               for lost in range(photons + 1)] for eta in _VERIFY_ETAS},
                oracles={eta: split_by_environment(beamsplitter_oracle(photons, modes, eta))
                         for eta in _VERIFY_ETAS},
            )
            previous = case.direct
            for index, (_, _, residual) in enumerate(CHECKS):
                # a NaN residual stays the worst, so that its check fails
                worst[index] = nan_max((worst[index], residual(case)))
            del case  # its states go before the next case's are built; previous keeps direct
    return [
        CheckResult(name, value, tolerance)
        for (name, tolerance, _), value in zip(CHECKS, worst)
    ]


#: Ceiling on the battery's estimated ladder steps: at most about three minutes of
#: battery on a 2-core x86-64 VM, as (0, 292), the widest battery under it, takes 170 s.
#: Time per estimated step depends on the corner (whole process, Python 3.11.7): (6, 5)
#: is estimated at 1.2e6 steps and runs 0.16 s, (8, 6) at 3.7e7 steps 1.3 s, (0, 250)
#: at 6.3e7 steps 104-118 s and (300, 1) at 2.7e7 steps 6.7 s.  The estimate is a
#: conservative bound: the beamsplitter oracle builds its (N + 1)(N + 2) / 2 one-mode
#: amplitudes once and makes one write per amplitude, not N + 1 steps per amplitude.
VERIFY_WORK_CAP = 10 ** 8


def log_work(max_n: int, max_m: int) -> float:
    """Natural log of the battery's estimated ladder steps: each case is charged as the top
    corner, the commutator loops' 4 M^2 ladder calls or N + 1 steps per oracle amplitude,
    whichever is more; logs keep hostile sizes cheap."""
    return math.log((max_n + 1) * max_m) + max(
        math.log(4 * max_m ** 2), math.log(max_n + 1) + log_sector_size(max_n, 2 * max_m))
