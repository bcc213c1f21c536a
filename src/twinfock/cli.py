"""Command-line interface: verification suites and detection-rate sweeps.

Subcommands
-----------
verify       run the cross-check suites (identities, decompositions, oracles)
pfa-curves   emit false-alarm coefficient curves over a mode-count grid (CSV)
pmd-curve    emit missed-detection probabilities over a reflectivity grid (CSV)
state-dump   serialize a pair state in the line-per-term dump format

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 size cap
exceeded or a printed value below the range of the closed forms.
"""

import contextlib
import decimal
import functools
import itertools
import math
import operator
import os
import stat
import sys
from collections import namedtuple
from decimal import Decimal

from .combinat import composition_texts, count_compositions
from .detection import (
    TableNoise,
    ThermalNoise,
    exact_p_fa,
    false_alarm_grid,
    p_fa_closed,
    p_fa_trace,
    p_md_closed,
    single_photon_baselines,
)
from .fock import (
    IDLER,
    SIGNAL,
    AmplitudeCapError,
    SparseState,
    combine,
    log_sector_size,
    nan_max,
    orthonormality_residual,
)
from .loss import (
    absorption_weight,
    beamsplitter_oracle,
    conditional_states,
    round_once,
    split_by_environment,
)
from .states import (
    loss_identity_residual,
    pair_amplitude,
    pair_state_direct,
    pair_state_recursive,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_CAP = 3

DEFAULT_N_VALUES = [10, 100, 1000]
#: Ceiling on the rows one pfa-curves or pmd-curve run writes: a million
#: pfa-curves rows (--n 19990) take 0.8-1.0 s and 29 MiB peak RSS, whole
#: process with stdout to /dev/null, on a 2-core x86-64 VM with Python 3.11.7.
SWEEP_ROW_CAP = 10 ** 6
#: Largest mode count of pfa-curves and photon number of pmd-curve: the counts
#: are read and gridded through floats, which hold none past about 1.8e308.
SWEEP_COUNT_MAX = 10 ** 308

#: Kinds of sweep setting: (type of each value, whether it takes many values).  A
#: many-valued setting is given as a number, a list of numbers or a comma-separated
#: string, or by repeating its flag, and arrives sorted and deduplicated.
TEXT, COUNT, NUMBER = (str, False), (int, False), (float, False)
COUNTS, NUMBERS = (int, True), (float, True)

#: Each sweep subcommand's settings, key -> (kind, default, help): a key is both a
#: config key and, with dashes for underscores, a flag; None means unset.
PFA_SETTINGS = {
    "n": (COUNTS, DEFAULT_N_VALUES, "photon numbers"),
    "m_min": (COUNT, None, "grid lower bound (default: N)"),
    "m_max": (COUNT, 100_000, "grid upper bound"),
    "m_points": (COUNT, 50, "log-spaced point count"),
    "m_list": (COUNTS, None, "mode counts that replace the grid"),
    "noise": (TEXT, "thermal:1", "thermal:<nbar> or table:<path>"),
    "csv": (TEXT, None, "CSV output path (default stdout)"),
    "svg": (TEXT, None, "optional SVG chart path"),
}
PMD_SETTINGS = {
    "n": (COUNTS, DEFAULT_N_VALUES, "photon numbers"),
    "eta": (NUMBERS, None, "reflectivity values that replace the grid"),
    "eta_min": (NUMBER, 0.0, "grid lower bound"),
    "eta_max": (NUMBER, 1.0, "grid upper bound"),
    "eta_points": (COUNT, 101, "linear grid point count"),
    "csv": (TEXT, None, "CSV output path (default stdout)"),
}


# ---------------------------------------------------------------------------
# formatting

def fmt_float(value) -> str:
    """A float or a Decimal rounded half-even to 17 significant digits, laid out as
    format(float, ".17g") lays out a float: fixed notation from 1e-4 up to 1e17,
    trailing zeros stripped, at least two exponent digits.  Not for negative values
    other than -0.
    """
    if not value:
        return format(value, ".17g")
    mantissa, _, exponent = format(value, ".16e").partition("e")
    digits, exp10 = mantissa.replace(".", ""), int(exponent)
    if not -4 <= exp10 < 17:
        return f"{mantissa.rstrip('0').rstrip('.')}e{exp10:+03d}"
    if exp10 < 0:
        digits, exp10 = "0" * -exp10 + digits, 0
    return f"{digits[:exp10 + 1]}.{digits[exp10 + 1:]}".rstrip("0").rstrip(".")


# ---------------------------------------------------------------------------
# config and grids

def load_config(path, table: dict) -> dict:
    """The JSON object at path, whose keys must all belong to one settings table."""
    import json

    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = json.loads(raw)
    except UnicodeDecodeError:
        raise ValueError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc.msg} "
                         f"at line {exc.lineno} column {exc.colno}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(table)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _flag(key: str) -> str:
    """The sweep flag of a settings key."""
    return "--" + key.replace("_", "-")


def merge_settings(args, table: dict) -> dict:
    """Defaults, overridden by the config file (each value checked), overridden by flags."""
    config = load_config(args.config, table) if args.config else {}
    settings = {key: setting_value(f"config key {key!r}", value, table[key][0], from_json=True)
                for key, value in config.items()}
    for key, (kind, default, _) in table.items():
        flag = getattr(args, key)
        settings[key] = (settings.get(key, default) if flag is None
                         else setting_value(_flag(key), flag, kind))
    return settings


def setting_value(name: str, value, kind, from_json: bool = False):
    """One setting's value, checked and converted to its kind; name is its flag or config key.

    A flag gives text, a list of texts for a many-valued setting; a config file
    gives JSON, which must first be of a type the kind takes.  Numbers are then
    read back from their text, so that both sources take the same forms.
    """
    type_, many = kind
    if from_json:
        if type_ is str:
            valid, wanted = isinstance(value, str), "a string"
        elif many:
            valid = (_is_number(value) or isinstance(value, str)
                     or isinstance(value, list) and all(map(_is_number, value)))
            wanted = "a number, a list of numbers or a comma-separated string"
        else:
            valid, wanted = _is_number(value), "a number"
        if not valid:
            import json

            raise ValueError(f"{name} must be {wanted}, not {json.dumps(value)}")
    if type_ is str:
        return value
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    parts = [part for part in text.split(",") if part.strip()] if many else [text]
    if not parts:
        raise ValueError(f"{name} needs at least one value")
    try:
        # integer text reads exactly, so that a huge count stays a count for the size caps
        values = [int(part) if type_ is int and part.strip().lstrip("+-").isdigit()
                  else float(part) for part in parts]
    except ValueError:
        raise ValueError(f"{name} must hold numbers, not {text!r}") from None
    infinite = [v for v in values if isinstance(v, float) and not math.isfinite(v)]
    if infinite and many:
        raise ValueError(f"list values must be finite numbers, not {infinite[0]!r} in {name}")
    if infinite:
        raise ValueError(f"{name} must be a finite number, not {infinite[0]!r}")
    if type_ is int:
        # other count text, such as 1e23, reads exactly too; finite as a float, it
        # stays below 2 * 10^308, so no larger integer is built from it
        values = [v if isinstance(v, int) else decimal.Decimal(part)
                  for v, part in zip(values, parts)]
        fractional = [part.strip() for v, part in zip(values, parts) if v != int(v)]
        if fractional:
            raise ValueError(f"{name} must hold integers, not {fractional[0]}")
    return sorted({type_(v) for v in values}) if many else type_(values[0])


def _is_number(value) -> bool:
    """A JSON number within the float range; true, false and nan do not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def log_grid(m_min: int, m_max: int, points: int) -> list[int]:
    """Log-spaced integer grid, ascending, deduplicated after rounding.

    The ends are m_min and m_max themselves; each interior point is rounded
    from a float and clamped into [m_min, m_max], which at large counts
    the float's error may leave.
    """
    if m_min < 1:
        raise ValueError("m_min must be at least 1")
    if not m_min <= m_max <= SWEEP_COUNT_MAX:
        raise ValueError("m_max must lie in [m_min, 10^308]")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if m_min == m_max:
        return [m_min]
    lo, hi = math.log(m_min), math.log(m_max)
    inner = (round(math.exp(lo + i * (hi - lo) / (points - 1))) for i in range(1, points - 1))
    return sorted({m_min, m_max, *(min(max(value, m_min), m_max) for value in inner)})


def linear_grid(low: float, high: float, points: int) -> list[float]:
    """Linearly spaced grid, ascending, of `points` floats.

    The ends are low and high themselves; each interior point low + i step is
    capped at high, which its rounding may pass (with step >= 0 it cannot fall below low).
    """
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if high < low:
        raise ValueError("grid upper bound below lower bound")
    step = (high - low) / (points - 1)
    return [low, *(min(low + i * step, high) for i in range(1, points - 1)), high]


def parse_noise_spec(text: str):
    """Parse 'thermal:<nbar>' or 'table:<path>' into a validated modes -> noise model factory."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"noise spec {text!r} needs the form thermal:<nbar> or table:<path>")
    if kind == "thermal":
        try:
            nbar = float(rest)
        except ValueError:
            raise ValueError(f"noise spec {text!r} needs a number after thermal:") from None
        ThermalNoise(nbar, 1)  # the model validates nbar; M comes per cell
        return lambda modes: ThermalNoise(nbar, modes)
    if kind == "table":
        table = TableNoise.from_file(rest)
        return lambda modes: table
    raise ValueError(f"unknown noise kind {kind!r}")


# ---------------------------------------------------------------------------
# verification

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
    ("missed detection: closed vs oracle", 1e-10,  # the oracle's all-absorbed mass
     lambda c: nan_max(abs(sum(part.weight for part in split if sum(part.absorbed) == c.photons)
                           - p_md_closed(c.photons, eta)) for eta, split in c.oracles.items())),
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
#: Time per estimated step depends on the corner: (6, 5) is estimated at 1.2e6 steps
#: and runs 0.19 s, (8, 6) at 3.7e7 steps 1.4 s, (0, 250) at 6.3e7 steps 100 s and
#: (300, 1) at 2.7e7 steps 6.8 s.  The estimate is a conservative bound: the
#: beamsplitter oracle builds its (N + 1)(N + 2) / 2 one-mode amplitudes once and
#: makes one write per amplitude, not N + 1 steps per amplitude.
VERIFY_WORK_CAP = 10 ** 8


def cmd_verify(args) -> int:
    max_n, max_m = args.max_n, args.max_m
    if max_n < 0 or max_m < 1:
        raise ValueError("verify needs --max-n >= 0 and --max-m >= 1")
    # each case is charged as the top corner: the commutator loops' 4 M^2 ladder calls
    # or N + 1 steps per oracle amplitude, whichever is more; logs keep hostile sizes cheap
    log_work = math.log((max_n + 1) * max_m) + max(
        math.log(4 * max_m ** 2), math.log(max_n + 1) + log_sector_size(max_n, 2 * max_m))
    if log_work > math.log(VERIFY_WORK_CAP):
        print(f"refusing verification: the battery up to N={max_n}, M={max_m} needs about "
              f"10^{log_work / math.log(10):.1f} ladder steps (cap {VERIFY_WORK_CAP}); "
              f"lower --max-n/--max-m", file=sys.stderr)
        return EXIT_CAP
    results = run_verification(max_n, max_m)
    width = max(len(r.name) for r in results)
    print(f"verification up to N={max_n}, M={max_m}")
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<{width}}  worst={result.worst:.3e}  "
              f"tol={result.tolerance:.0e}  {status}")
    if all(r.passed for r in results):
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# curve sweeps

def pfa_lines(grids: dict, noise_for):
    """The pfa-curves CSV: the header, then one string per (N, M) cell of grids, N -> Ms.

    Rows are ordered by (N, M, series).  The series sort as the two baselines,
    the terms by the text of k, then the total; that order depends on N alone,
    so it and each row's head, a newline and the series name, are worked out
    once per N, and each cell is one join of value + next head.  Every value
    prints from its Decimal, rounded half-even to 17 significant digits; zeros
    print as 0.  Up to P_FA_EXACT_MAX, round_once rounds the total from the
    exact total.
    """
    yield "series,N,M,value\n"
    for photons, grid in grids.items():
        order = sorted(range(photons), key=lambda i: str(i + 1))  # coefficient indices
        heads = ["baseline:1_over_M", "\nbaseline:N_over_M",
                 *[f"\nterm:{i + 1}" for i in order], "\ntotal", "\n"]
        for modes, coefficients, total in false_alarm_grid(photons, grid, noise_for):
            total = round_once(total, exact_p_fa(photons, modes, noise_for(modes)), 17)
            # CONTEXT traps Subnormal, so no coefficient is zero; N / M is zero at N = 0
            single, repeated = (format(v, ".16e") if v else "0"
                                for v in single_photon_baselines(photons, modes))
            values = ["", single, repeated,
                      *map(Decimal.__format__, map(coefficients.__getitem__, order),
                           itertools.repeat(".16e")),
                      format(total, ".16e") if total else "0"]
            yield f",{photons},{modes},".join(map(operator.add, values, heads))


def _sweep_refused(command: str, rows: int, lower: str) -> bool:
    """Print a refusal and return True when a sweep of `rows` rows passes SWEEP_ROW_CAP."""
    if rows <= SWEEP_ROW_CAP:
        return False
    print(f"refusing {command}: the sweep needs about 10^{math.log10(rows):.1f} rows "
          f"(cap {SWEEP_ROW_CAP}); lower {lower}", file=sys.stderr)
    return True


def _write_text(path, chunks) -> None:
    """Write the strings of chunks in turn to path, or to stdout when path is None.

    When anything raises after path is opened, the regular file written is
    deleted before the exception goes on, so a failed run leaves no partial
    output; a symlink to it is left dangling, and stdout, pipes and device
    files keep what reached them.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    regular = False
    try:
        with open(path, "w", newline="") as handle:
            regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
            handle.writelines(chunks)
    except BaseException:
        if regular:
            with contextlib.suppress(OSError):  # the first error is the one to report
                os.remove(os.path.realpath(path))
        raise


def cmd_pfa_curves(args) -> int:
    settings = merge_settings(args, PFA_SETTINGS)
    n_values = settings["n"]
    if any(n < 0 for n in n_values):
        raise ValueError("photon numbers must be non-negative")
    noise_for = parse_noise_spec(settings["noise"])

    explicit = settings["m_list"]
    if explicit is not None and not 1 <= explicit[0] <= explicit[-1] <= SWEEP_COUNT_MAX:
        raise ValueError("m_list needs mode counts in [1, 10^308]")
    points = len(explicit) if explicit else settings["m_points"]

    # each cell writes N terms, the total and two baselines
    if _sweep_refused("pfa-curves", sum((n + 3) * points for n in n_values),
                      "--n or --m-points, or shorten --m-list"):
        return EXIT_CAP
    m_min, m_max = settings["m_min"], settings["m_max"]
    # every grid is built before the first byte, so that a bad one writes nothing
    grids = {n: explicit or log_grid(max(n, 1) if m_min is None else m_min, m_max, points)
             for n in n_values}
    lines = pfa_lines(grids, noise_for)
    lines = list(lines) if settings["svg"] else lines  # only the chart needs the whole sweep
    _write_text(settings["csv"], lines)
    if settings["svg"]:
        render_svg(settings["svg"], lines)
    return EXIT_OK


def cmd_pmd_curve(args) -> int:
    settings = merge_settings(args, PMD_SETTINGS)
    n_values, etas = settings["n"], settings["eta"]
    if any(not 0 <= n <= SWEEP_COUNT_MAX for n in n_values):
        raise ValueError("photon numbers must lie in [0, 10^308]")
    points = len(etas) if etas is not None else settings["eta_points"]
    if _sweep_refused("pmd-curve", len(n_values) * points,
                      "--eta-points or the number of --n and --eta values"):
        return EXIT_CAP
    if etas is None:
        etas = linear_grid(settings["eta_min"], settings["eta_max"], points)
    if any(not 0.0 <= eta <= 1.0 for eta in etas):
        raise ValueError("eta values must lie in [0, 1]")
    rows = (f"{photons},{fmt_float(eta)},{fmt_float(p_md_closed(photons, eta, 17))}\n"
            for photons in n_values for eta in etas)
    _write_text(settings["csv"], itertools.chain(["N,eta,p_md\n"], rows))
    return EXIT_OK


def cmd_state_dump(args) -> int:
    """Write the N-pair state one line per term |n, n> as it is generated, heaviest first.

    Tab-separated fields: the comma-joined per-mode counts of the idler and of
    the signal register, then the real and imaginary amplitude with 17 digits.
    The lines go out in one chunk per head of composition_texts.
    """
    amp = pair_amplitude(args.n, args.m)
    # every term has the same, real amplitude
    end = f"\t{amp:.17g}\t0\n"
    chunks = ("".join([f"{head}{tail}\t{head}{tail}{end}" for tail in tails])
              for head, tails in composition_texts(args.n, args.m))
    _write_text(args.out, chunks)
    return EXIT_OK


# ---------------------------------------------------------------------------
# svg rendering

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def render_svg(path, csv_text) -> None:
    """Minimal static log-log chart of a pfa-curves CSV, given as strings of whole lines."""
    rows = (line.split(",") for chunk in csv_text for line in chunk.splitlines())
    next(rows)  # the header
    series: dict[str, list[tuple[int, float]]] = {}
    for name, photons, modes, value in rows:
        if value == "0":
            continue
        mantissa, _, exponent = value.partition("e")
        log10 = float(exponent) + math.log10(float(mantissa))
        series.setdefault(f"N={photons} {name}", []).append((int(modes), log10))
    points = [p for pts in series.values() for p in pts]
    if not points:
        _write_text(path, ("<svg xmlns='http://www.w3.org/2000/svg'/>\n",))
        return
    x_lo = min(math.log10(m) for m, _ in points)
    x_hi = max(math.log10(m) for m, _ in points)
    y_lo = min(v for _, v in points)
    y_hi = max(v for _, v in points)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0
    width, height, margin = 880, 560, 70

    def to_xy(modes, log10v):
        x = margin + (math.log10(modes) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        y = height - margin - (log10v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return x, y

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect x='{margin}' y='{margin}' width='{width - 2 * margin}' "
        f"height='{height - 2 * margin}' fill='none' stroke='#333'/>",
        f"<text x='{width // 2}' y='{height - 20}' text-anchor='middle' "
        f"font-size='13'>log10 modes</text>",
        f"<text x='18' y='{height // 2}' font-size='13' "
        f"transform='rotate(-90 18 {height // 2})' text-anchor='middle'>log10 value</text>",
    ]
    for tick in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x, _ = to_xy(10 ** tick, y_lo)
        parts.append(f"<line x1='{x:.1f}' y1='{height - margin}' x2='{x:.1f}' "
                     f"y2='{height - margin + 6}' stroke='#333'/>")
        parts.append(f"<text x='{x:.1f}' y='{height - margin + 20}' text-anchor='middle' "
                     f"font-size='11'>1e{tick}</text>")
    for index, (label, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in (to_xy(m, v) for m, v in sorted(pts)))
        parts.append(f"<polyline points='{coords}' fill='none' stroke='{color}' "
                     f"stroke-width='1.2'><title>{label}</title></polyline>")
    parts.append("</svg>")
    _write_text(path, ("\n".join(parts) + "\n",))


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _parser_type() -> type:
    """_Parser, defined once per process on first use, so that argparse and re are
    imported only by a run that parses arguments."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser that reads every argument led by a negative number as a value.

        argparse takes an argument that starts with '-' for an option unless it
        matches its own negative-number pattern, which differs between Python
        versions and matches no comma-separated list such as -0.1,0.5; no option
        here starts with a digit, so such an argument is always a value.
        """

        _NUMBER_LED = re.compile(r"-\.?\d")

        def _parse_optional(self, arg_string):
            if self._NUMBER_LED.match(arg_string):
                return None
            return super()._parse_optional(arg_string)

    return _Parser


def build_parser() -> "argparse.ArgumentParser":
    parser = _parser_type()(
        prog="twinfock",
        description="Loss-resilient photon-pair states: verification and detection sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the cross-check suites")
    p_verify.add_argument("--max-n", type=int, default=3, help="largest photon number")
    p_verify.add_argument("--max-m", type=int, default=3, help="largest mode count")
    p_verify.set_defaults(func=cmd_verify)

    sweeps = (
        ("pfa-curves", "false-alarm curves over a mode grid (CSV)", PFA_SETTINGS, cmd_pfa_curves),
        ("pmd-curve", "missed-detection curve over reflectivity (CSV)", PMD_SETTINGS,
         cmd_pmd_curve),
    )
    for command, help_text, table, handler in sweeps:
        p_sweep = sub.add_parser(command, help=help_text)
        for key, ((_, many), default, text) in table.items():
            if many:
                text += ", repeatable and comma-separated"
            if default is not None:
                text += f" (default {','.join(map(str, default)) if many else default})"
            p_sweep.add_argument(_flag(key), dest=key, action="append" if many else "store",
                                 help=text)
        p_sweep.add_argument("--config", help="JSON config file; flags override its values")
        p_sweep.set_defaults(func=handler)

    p_dump = sub.add_parser("state-dump", help="serialize a pair state")
    p_dump.add_argument("--n", type=int, required=True, help="photon number")
    p_dump.add_argument("--m", type=int, required=True, help="mode count")
    p_dump.add_argument("--out", help="output path (default stdout)")
    p_dump.set_defaults(func=cmd_state_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except (AmplitudeCapError, decimal.Subnormal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # the reader wants no more; devnull takes the rest, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
