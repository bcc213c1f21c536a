import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from twinfock import cli, states
from twinfock.combinat import LogProb
from twinfock.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    fmt_log,
    fmt_sci,
    log_grid,
    main,
    parse_noise_spec,
    pfa_lines,
)
from twinfock.detection import (
    TableNoise,
    ThermalNoise,
    false_alarm_series,
    p_fa_closed,
    p_fa_oracle,
    single_photon_baselines,
)
from twinfock.fock import IDLER, SIGNAL, SparseState
from twinfock.loss import conditional_states
from twinfock.states import pair_state_direct


HUGE = str(10**400)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header, rows = lines[0], lines[1:]
    return header, [line.split(",") for line in rows]


# -- helpers ----------------------------------------------------------------

def test_fmt_log_matches_plain_floats():
    for value in (0.5, 1.0, 2.0, 1e-5, 0.123456789, 3.0):
        rendered = Decimal(fmt_log(LogProb(math.log(value))))
        assert abs(rendered - Decimal(repr(value))) <= Decimal(repr(value)) * Decimal("1e-14")


def test_fmt_log_survives_underflow():
    tiny = LogProb(-2000.0)  # value far below the float64 range
    rendered = fmt_log(tiny)
    parsed = Decimal(rendered)
    assert parsed > 0
    expected_log10 = Decimal(-2000) / Decimal(repr(math.log(10)))
    assert abs(parsed.log10() - expected_log10) < Decimal("1e-10")
    assert fmt_log(LogProb(-math.inf)) == "0"


def reference_fmt_logs(logs):
    """_fmt_logs written with f-strings and a carry guard for a mantissa printed as "10."."""
    out = []
    ln10 = math.log(10.0)
    for log_value in logs:
        if log_value == -math.inf:
            out.append("0")
            continue
        exp10 = math.floor(log_value / ln10)
        mantissa = math.exp((log_value - exp10 * cli._LN10_HI) - exp10 * cli._LN10_LO)
        if mantissa >= 10.0:
            mantissa /= 10.0
            exp10 += 1
        if mantissa < 1.0:
            mantissa *= 10.0
            exp10 -= 1
        text = f"{mantissa:.16f}"
        if text.startswith("10"):
            text = "1.0000000000000000"
            exp10 += 1
        out.append(f"{text}e{exp10:+d}")
    return out


LN10 = math.log(10.0)


def decade_edges(decades):
    """k ln 10 for each k in decades, with the float on either side of it."""
    return [edge for k in decades for x in (k * LN10,)
            for edge in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def test_fmt_logs_equals_reference_at_decade_edges():
    logs = decade_edges(range(-400, 401)) + [-math.inf]
    assert cli._fmt_logs(logs) == reference_fmt_logs(logs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 709.0), max_size=20))
def test_fmt_logs_equals_reference_exactly(logs):
    assert cli._fmt_logs(logs) == reference_fmt_logs(logs)


def assert_fmt_log_reads_as_exp(x):
    """fmt_log(LogProb(x)) parses to exp(x) within (|x| + 2) 2^-51, with a mantissa in [1, 10).

    Near x = 0 the constant term is reached: the remainder below ln 10 takes
    two roundings of up to 2^-52, exp one more, and the normalization and the
    17-digit text less than 2^-52 between them (-0.153 reads 1.21 2^-51 off).
    """
    text = fmt_log(LogProb(x))
    assert 1 <= Decimal(text.partition("e")[0]) < 10
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.Emin = MIN_EMIN  # exp(x) reaches about 1e-4194304, far past the default range
        error = abs(Decimal(text) / Decimal(x).exp() - 1)
        assert error <= (abs(Decimal(x)) + 2) * Decimal(2) ** -51


#: the two-part ln 10 reduction is exact while the decimal exponent stays within +-2^22
FORMATTER_LOGS = st.floats(-2**22 * LN10, 709.0)


@settings(max_examples=300, deadline=None)
@given(FORMATTER_LOGS)
@example(-2**22 * LN10)
@example(709.0)
@example(0.0)
@example(-7.785734120351522e-10)
@example(-0.15319238499614962)
def test_fmt_log_reads_as_decimal_exp(x):
    # checked against Decimal, not against the formatter that pfa_lines shares
    assert_fmt_log_reads_as_exp(x)


def test_fmt_log_mantissa_never_prints_ten():
    # the largest double below 10 keeps 16 decimals short of 10, so no rounding carries
    assert f"{math.nextafter(10.0, 0.0):.16f}" == "9.9999999999999982"
    top = 2**22 - 1
    for x in decade_edges([-top, -top + 1, -100_000, -1, 0, 1, 307]):
        assert_fmt_log_reads_as_exp(x)


def test_log_grid_properties():
    grid = log_grid(10, 100_000, 49)
    assert grid[0] == 10 and grid[-1] == 100_000
    assert grid == sorted(set(grid))
    assert 10_000 in grid
    with pytest.raises(ValueError):
        log_grid(0, 10, 5)
    with pytest.raises(ValueError):
        log_grid(10, 5, 5)
    assert log_grid(7, 7, 5) == [7]


def test_parse_noise_spec(tmp_path):
    assert parse_noise_spec("thermal:0.5")(7) == ThermalNoise(0.5, 7)
    table = tmp_path / "noise.txt"
    table.write_text("0.2\n0.1\n")
    noise_for = parse_noise_spec(f"table:{table}")
    assert noise_for(3) == noise_for(40) == TableNoise((0.2, 0.1))
    for bad in ("thermal:-1", "thermal:nan", "thermal:inf"):
        with pytest.raises(ValueError):
            parse_noise_spec(bad)
    with pytest.raises(ValueError):
        parse_noise_spec("gaussian:1")
    with pytest.raises(ValueError):
        parse_noise_spec("thermal")


# -- verify -------------------------------------------------------------------

VERIFY_CHECKS = [
    "pair-creation commutator (signal)",
    "pair-creation commutator (idler)",
    "signal-loss identity",
    "direct vs recursive build",
    "amplitude uniformity",
    "mixture completeness",
    "component orthonormality",
    "beamsplitter decomposition",
    "false alarm: closed vs oracle",
    "missed detection: closed vs oracle",
]


def test_verify_passes(capsys):
    code, out, err = run(["verify", "--max-n", "4", "--max-m", "3"], capsys)
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0] == "verification up to N=4, M=3"
    assert lines[-1] == "all checks passed"
    checks = lines[1:-1]
    assert [line.split("  worst=")[0].rstrip() for line in checks] == VERIFY_CHECKS
    assert all(line.endswith("  PASS") for line in checks)


def test_verify_degenerate_vacuum_run(capsys):
    code, out, _ = run(["verify", "--max-n", "0", "--max-m", "1"], capsys)
    assert code == EXIT_OK


def test_verify_cap_refusal(capsys):
    code, _, err = run(["verify", "--max-n", "50", "--max-m", "50"], capsys)
    assert code == EXIT_CAP
    assert "N=50" in err and "M=50" in err
    # refused from an estimate, before any binomial of this size is built
    code, _, err = run(["verify", "--max-n", "200000", "--max-m", "200000"], capsys)
    assert code == EXIT_CAP
    assert "N=200000" in err and "cap" in err
    # every state of these batteries is small; the number of cases or the key width is not
    for max_n, max_m in (("0", "100000"), ("100000", "1"), ("0", "2000"), ("2000", "1"),
                         (HUGE, "1"), (HUGE, HUGE)):
        code, out, err = run(["verify", "--max-n", max_n, "--max-m", max_m], capsys)
        assert code == EXIT_CAP and out == ""
        assert err.startswith("refusing verification:") and f"N={max_n}, M={max_m}" in err


def test_verify_invalid_bounds(capsys):
    code, _, _ = run(["verify", "--max-n", "-1", "--max-m", "2"], capsys)
    assert code == EXIT_INVALID


@pytest.mark.parametrize("excess", [10.0, math.nan])
def test_verify_failure_marks_only_the_failing_check(capsys, monkeypatch, excess):
    failing = VERIFY_CHECKS.index("component orthonormality")
    checks = list(cli.CHECKS)
    name, tolerance, _ = checks[failing]
    checks[failing] = (name, tolerance, lambda case: excess * tolerance)
    monkeypatch.setattr(cli, "CHECKS", tuple(checks))
    code, out, err = run(["verify", "--max-n", "1", "--max-m", "2"], capsys)
    assert code == EXIT_VERIFY_FAILED
    assert err == "verification FAILED\n"
    lines = out.splitlines()
    assert lines[0] == "verification up to N=1, M=2"
    statuses = [line.rsplit("  ", 1)[1] for line in lines[1:]]
    assert statuses == ["FAIL" if i == failing else "PASS" for i in range(len(VERIFY_CHECKS))]


def test_nan_amplitude_makes_amplitude_residuals_nan():
    nan_state = SparseState.from_terms(
        2, (IDLER, SIGNAL), [(((1, 0), (1, 0)), complex(math.nan)), (((0, 1), (0, 1)), 0.5)])
    finite = SparseState.from_terms(2, (IDLER, SIGNAL), [(((0, 1), (0, 1)), 0.5)])
    assert math.isnan(nan_state.max_abs_diff(finite))
    assert math.isnan(finite.max_abs_diff(nan_state))
    case = cli.VerifyCase(1, 2, probe=nan_state, direct=finite, previous=None,
                          components=[], weights={})
    assert math.isnan(cli._commutator(case, SIGNAL, IDLER))
    assert math.isnan(cli._commutator(case, IDLER, SIGNAL))

    # the first term of the 2-pair state, (2, 0), holds both photons in mode 0
    poisoned = _poison(pair_state_direct(2, 2), lambda arrangement: arrangement == (2, 0))
    assert math.isnan(states.loss_identity_residual(2, poisoned, pair_state_direct(1, 2)))


def _poison(state, where):
    """The pair state with a NaN amplitude on each term |n, n> whose n satisfies where."""
    terms = [(counts, complex(math.nan) if where(counts[0]) else amp)
             for counts, amp in state.terms()]
    return SparseState.from_terms(state.modes, (IDLER, SIGNAL), terms)


def test_verify_residual_maxima_keep_a_nan_in_any_position():
    # max() keeps a NaN only when it comes first; here only the last mode's residual
    # is NaN: the poisoned term holds both photons in mode 2, which the other
    # modes' annihilators send to zero
    direct = _poison(pair_state_direct(2, 3), lambda arrangement: arrangement == (0, 0, 2))
    case = cli.VerifyCase(2, 3, probe=SparseState.vacuum(3, (IDLER, SIGNAL)), direct=direct,
                          previous=pair_state_direct(1, 3), components=[], weights={})
    assert not any(math.isnan(direct.annihilate(SIGNAL, j).max_abs()) for j in (0, 1))
    assert math.isnan(cli._signal_loss(case))


def test_verify_builds_each_pair_state_once(monkeypatch):
    built = []
    build = states.pair_state_direct

    def counting(photons, modes):
        built.append((photons, modes))
        return build(photons, modes)

    monkeypatch.setattr(cli, "pair_state_direct", counting)
    monkeypatch.setattr(states, "pair_state_direct", counting)
    cli.run_verification(6, 5)
    assert len(built) == 35
    assert len(set(built)) == 35


def test_verify_false_alarm_check_equals_the_oracle_residual():
    for photons in range(0, 5):
        for modes in range(1, 4):
            case = cli.VerifyCase(photons, modes, probe=SparseState.vacuum(modes, (IDLER, SIGNAL)),
                                  direct=pair_state_direct(photons, modes), previous=None,
                                  components=list(conditional_states(photons, modes)),
                                  weights={})
            table = TableNoise(tuple(0.12 / (k + 1) for k in range(photons)))
            expected = max(abs(p_fa_closed(photons, modes, noise) - p_fa_oracle(photons, modes, noise))
                           for noise in (ThermalNoise(0.5, modes), table))
            assert cli._false_alarm(case) == expected


# -- state-dump ---------------------------------------------------------------

def test_state_dump_single_pair(capsys):
    code, out, _ = run(["state-dump", "--n", "1", "--m", "2"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines == [
        "1,0\t1,0\t0.70710678118654746\t0",
        "0,1\t0,1\t0.70710678118654746\t0",
    ]


def test_state_dump_vacuum(capsys):
    code, out, _ = run(["state-dump", "--n", "0", "--m", "5"], capsys)
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["0,0,0,0,0\t0,0,0,0,0\t1\t0"]


def test_state_dump_term_count(capsys, tmp_path):
    path = tmp_path / "dump.tsv"
    code, _, _ = run(["state-dump", "--n", "2", "--m", "3", "--out", str(path)], capsys)
    assert code == EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6  # C(4, 2) arrangements
    amplitudes = {line.split("\t")[2] for line in lines}
    assert len(amplitudes) == 1


def test_state_dump_cap(capsys, tmp_path):
    path = tmp_path / "refused.tsv"
    for n, m in (("40", "12"), ("200000", "200000"), (HUGE, "2"), ("1", HUGE)):
        code, out, err = run(["state-dump", "--n", n, "--m", m], capsys)
        assert code == EXIT_CAP and out == ""
        assert "cap" in err
        code, out, err = run(["state-dump", "--n", n, "--m", m, "--out", str(path)], capsys)
        assert code == EXIT_CAP and out == ""
        assert "cap" in err
        assert not path.exists()


def test_state_dump_photon_bound(capsys):
    # all photons may share the one mode, past a key's per-mode count
    for n in ("70000", HUGE):
        code, out, err = run(["state-dump", "--n", n, "--m", "1"], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: pair state with N=") and err.count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(photons=st.integers(0, 5), modes=st.integers(1, 9))
def test_state_dump_matches_sorted_pair_state(photons, modes):
    terms = sorted(pair_state_direct(photons, modes).terms(), key=lambda t: t[0], reverse=True)
    expected = "".join(
        "\t".join([",".join(map(str, idler)), ",".join(map(str, signal)),
                   f"{amp.real:.17g}", f"{amp.imag:.17g}"]) + "\n"
        for (idler, signal), amp in terms
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["state-dump", "--n", str(photons), "--m", str(modes)]) == EXIT_OK
    assert out.getvalue() == expected
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "dump.tsv")
        code = main(["state-dump", "--n", str(photons), "--m", str(modes), "--out", path])
        assert code == EXIT_OK
        with open(path, newline="") as handle:
            assert handle.read() == expected


@pytest.mark.parametrize("photons, modes", [(14, 8), (16, 10)])
def test_state_dump_streams_chunk_by_chunk(tmp_path, photons, modes):
    # 116,280 and 2,042,975 lines: one head's chunk and the cached tail texts are held, never the dump
    argv = ["state-dump", "--n", str(photons), "--m", str(modes), "--out", str(tmp_path / "d.tsv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2 * 2 ** 20


def _failing_after_one(items):
    def fail(*args, **kwargs):
        yield from items
        raise ValueError("failed part way")
    return fail


@pytest.mark.parametrize("argv, name, items", [
    (["pfa-curves", "--n", "2", "--m-list", "3", "--csv"], "pfa_lines", ["series,N,M,value\n"]),
    (["state-dump", "--n", "2", "--m", "3", "--out"], "composition_texts", [("2,", ["0,0"])]),
])
def test_failed_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch, argv, name, items):
    monkeypatch.setattr(cli, name, _failing_after_one(items))
    path = tmp_path / "out.txt"
    code, out, err = run(argv + [str(path)], capsys)
    assert code == EXIT_INVALID and out == ""
    assert err == "error: failed part way\n"
    assert not path.exists()
    # through a symlink, the file written is deleted and the link is left dangling
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("earlier output\n")
    link.symlink_to(target)
    code, out, err = run(argv + [str(link)], capsys)
    assert code == EXIT_INVALID and err == "error: failed part way\n"
    assert not target.exists() and link.is_symlink()
    # a special file is left alone: a FIFO keeps its reader's bytes and stays in place
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code, _, _ = run(argv + [str(fifo)], capsys)
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == EXIT_INVALID
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and received[0]


# -- pfa-curves -----------------------------------------------------------------

def test_pfa_structure_and_order(capsys):
    code, out, _ = run(["pfa-curves", "--n", "2", "--m-list", "2,10,7"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == "series,N,M,value"
    # list is sorted ascending, series sorted per cell
    ms = [int(row[2]) for row in rows]
    assert ms == sorted(ms)
    per_cell = [row[0] for row in rows if row[2] == "2"]
    assert per_cell == sorted(per_cell)
    assert set(per_cell) == {
        "baseline:1_over_M", "baseline:N_over_M", "term:1", "term:2", "total",
    }


def test_pfa_single_photon_term_equals_baseline(capsys):
    # both sides of the exact/log crossover at N + M = 200
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", "2,3,7,50,199,200,1000,99991"],
                       capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    term = {row[2]: row[3] for row in rows if row[0] == "term:1"}
    base = {row[2]: row[3] for row in rows if row[0] == "baseline:1_over_M"}
    assert term == base  # byte-identical values


def test_pfa_term_values_positive_and_bounded(capsys):
    code, out, _ = run(["pfa-curves", "--n", "3", "--m-list", "3,30,300"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    for row in rows:
        if row[0].startswith("term:"):
            value = Decimal(row[3])
            assert 0 < value <= 1


def test_pfa_exact_region_prints_library_floats(capsys):
    code, out, _ = run(["pfa-curves", "--n", "3", "--m-list", "4"], capsys)
    assert code == EXIT_OK
    values = {row[0]: row[3] for row in parse_csv(out)[1]}
    assert values["baseline:1_over_M"] == "2.5000000000000000e-1"
    assert values["term:1"] == "5.0000000000000000e-1"
    code, out, _ = run(["pfa-curves", "--n", "2", "--n", "30", "--m-list", "1,7,150,170",
                        "--noise", "thermal:0.3"], capsys)
    assert code == EXIT_OK
    totals = {(int(row[1]), int(row[2])): row[3] for row in parse_csv(out)[1]
              if row[0] == "total"}
    for (photons, modes), text in totals.items():
        if photons + modes <= 200:
            assert float(text) == p_fa_closed(photons, modes, ThermalNoise(0.3, modes))


def test_pfa_exact_region_below_float_range(capsys):
    # thermal:100 noise factors underflow at M = 190, and at M = 154 the
    # exact total is subnormal: both cells print from the log scale
    photons = 10
    code, out, _ = run(["pfa-curves", "--n", str(photons), "--m-list", "154,190",
                        "--noise", "thermal:100"], capsys)
    assert code == EXIT_OK
    totals = {int(row[2]): Decimal(row[3]) for row in parse_csv(out)[1] if row[0] == "total"}
    assert sorted(totals) == [154, 190]
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(100) / Decimal(101)
        for modes, printed in totals.items():
            exact = sum(Decimal(math.comb(photons - k + modes - 1, modes - 1))
                        * (1 - x) ** modes * x ** k for k in range(1, photons + 1))
            exact /= math.comb(photons + modes - 1, modes - 1)
            assert abs(printed / exact - 1) < Decimal("1e-12")


def test_pfa_log_region_term_accuracy(capsys):
    photons, modes = 1000, 100_000
    code, out, _ = run(["pfa-curves", "--n", str(photons), "--m-list", str(modes)], capsys)
    assert code == EXIT_OK
    printed = {row[0]: Decimal(row[3]) for row in parse_csv(out)[1]}
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(1)
        for k in range(1, photons + 1):
            exact *= Decimal(photons - k + 1) / Decimal(photons + modes - k)
            assert abs(printed[f"term:{k}"] / exact - 1) < Decimal("6e-13")


@pytest.mark.xfail(strict=True, reason="a decimal exponent past 2^22 leaves the log route "
                                       "no digits for the mantissa")
def test_pfa_total_past_the_formatter_range(capsys):
    modes = 10**18
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", str(modes),
                        "--noise", "thermal:1"], capsys)
    assert code == EXIT_OK
    printed = {row[0]: Decimal(row[3]) for row in parse_csv(out)[1]}
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX
        # thermal:1 puts x = 1/2, so P_FA(1, M) = (1/M) (1 - x)^M x = 2^-(M + 1) / M
        exact = Decimal(2) ** -(modes + 1) / modes
        assert abs(printed["total"] / exact - 1) <= Decimal("1e-12")


def reference_cell(photons, modes, noise_for):
    """One cell's rows rendered value by value, with the series sorted per cell."""
    coefficients, _, total = false_alarm_series(photons, modes, noise_for(modes))
    log_region = isinstance(total, LogProb)
    entries = {f"term:{k}": LogProb(c) if log_region else c
               for k, c in enumerate(coefficients, start=1)}
    entries["total"] = total
    baselines = single_photon_baselines(photons, modes)
    entries["baseline:1_over_M"] = baselines.single_copy
    entries["baseline:N_over_M"] = baselines.repeated_copies
    if log_region:
        render = lambda v: fmt_log(
            v if isinstance(v, LogProb) else LogProb(math.log(v) if v else -math.inf))
    else:
        render = lambda v: fmt_sci(float(v))
    return "".join(f"{name},{photons},{modes},{render(entries[name])}\n"
                   for name in sorted(entries))


def table_factory(values):
    table = TableNoise(values)
    return lambda modes: table


noise_factories = st.one_of(
    st.floats(0.0, 1e3).map(lambda nbar: parse_noise_spec(f"thermal:{nbar!r}")),
    st.lists(st.floats(0.0, 1.0), max_size=45).map(tuple).map(table_factory),
)


@settings(max_examples=60, deadline=None)
@given(photons=st.integers(0, 40), modes=st.lists(st.integers(1, 400), min_size=1, max_size=3),
       noise_for=noise_factories)
def test_pfa_rows_match_per_value_rendering(photons, modes, noise_for):
    # mode counts up to 400 put cells on both sides of the N + M = 200 crossover
    grid = sorted(set(modes))
    expected = ["series,N,M,value\n"] + [reference_cell(photons, m, noise_for) for m in grid]
    assert list(pfa_lines({photons: grid}, noise_for)) == expected


def test_pfa_rejects_bad_noise_values(capsys, tmp_path):
    specs = ["thermal:nan", "thermal:inf"]
    for index, content in enumerate(("0.1\nnan\n", "0.1\n2.5\n")):
        table = tmp_path / f"table{index}.txt"
        table.write_text(content)
        specs.append(f"table:{table}")
    for spec in specs:
        code, out, err = run(["pfa-curves", "--n", "2", "--m-list", "3", "--noise", spec],
                             capsys)
        assert code == EXIT_INVALID and out == ""
        assert "error:" in err


def test_pfa_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["pfa-curves", "--n", "10", "--m-points", "20", "--csv"]
    assert run(args + [str(first)], capsys)[0] == EXIT_OK
    assert run(args + [str(second)], capsys)[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_pfa_invalid_grid(capsys, tmp_path):
    code, _, err = run(["pfa-curves", "--n", "2", "--m-min", "0"], capsys)
    assert code == EXIT_INVALID
    code, _, _ = run(["pfa-curves", "--n", "2", "--m-points", "1"], capsys)
    assert code == EXIT_INVALID
    # mode counts past the float range, and a grid too short for any photon number
    for grid in (["--m-max", HUGE, "--m-points", "3"], ["--m-list", HUGE]):
        code, out, err = run(["pfa-curves", "--n", "1", *grid], capsys)
        assert code == EXIT_INVALID and out == "" and err.count("\n") == 1
    assert run(["pfa-curves", "--n", HUGE, "--m-points", "0"], capsys)[0] == EXIT_INVALID
    # the second photon number's default grid starts past --m-max: nothing is written;
    # two points keep the sweep under the row cap, which 50 would pass
    path = tmp_path / "out.csv"
    code, out, err = run(["pfa-curves", "--n", "10", "--n", "200000", "--m-points", "2",
                          "--csv", str(path)], capsys)
    assert code == EXIT_INVALID and out == "" and err.count("\n") == 1
    assert not path.exists()


def test_pfa_streams_cell_by_cell(capsys, tmp_path):
    # 20 cells of 1003 rows each: only one cell is held at a time, never the sweep
    argv = ["pfa-curves", "--n", "1000", "--m-points", "20", "--csv", str(tmp_path / "a.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2 * 2 ** 20


def test_pfa_thermal_noise_past_float_occupations(capsys):
    # 1 / (1 + nbar) is below a float's epsilon here; the logs are taken from nbar
    code, out, err = run(["pfa-curves", "--n", "2", "--m-list", "3", "--noise", "thermal:1e300"],
                         capsys)
    assert code == EXIT_OK and err == ""
    total = next(Decimal(row[3]) for row in parse_csv(out)[1] if row[0] == "total")
    with localcontext() as ctx:
        ctx.prec = 40
        # (1 - x)^3 (x / 2 + x^2 / 6) with 1 - x = 1 / (1 + 1e300) and x = 1 to 1e-300
        expected = (Decimal(1) / 2 + Decimal(1) / 6) / (1 + Decimal(10) ** 300) ** 3
        assert abs(total / expected - 1) < Decimal("1e-12")


def test_pfa_table_noise(capsys, tmp_path):
    table = tmp_path / "noise.txt"
    table.write_text("0.2\n0.1\n")
    code, out, _ = run(
        ["pfa-curves", "--n", "2", "--m-list", "2", "--noise", f"table:{table}"],
        capsys,
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    total = next(Decimal(row[3]) for row in rows if row[0] == "total")
    # 0.2 * 2/3 + 0.1 * 1/3
    assert abs(total - Decimal("0.1666666666666666")) < Decimal("1e-14")


def test_pfa_missing_table_file(capsys, tmp_path):
    code, _, _ = run(
        ["pfa-curves", "--n", "2", "--noise", f"table:{tmp_path}/absent.txt"], capsys)
    assert code == EXIT_INVALID


def test_pfa_svg_written(capsys, tmp_path):
    svg = tmp_path / "chart.svg"
    code, _, _ = run(
        ["pfa-curves", "--n", "2", "--m-list", "2,20,200",
         "--csv", str(tmp_path / "out.csv"), "--svg", str(svg)],
        capsys,
    )
    assert code == EXIT_OK
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "polyline" in content


def test_pfa_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n": [1], "m_list": [2, 4], "noise": "thermal:0.5"}))
    code, out, _ = run(["pfa-curves", "--config", str(config)], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert {row[2] for row in rows} == {"2", "4"}
    assert {row[1] for row in rows} == {"1"}
    # a flag beats the config value
    code, out, _ = run(
        ["pfa-curves", "--config", str(config), "--m-list", "8"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert {row[2] for row in rows} == {"8"}


def test_config_accepts_scalar_values(capsys, tmp_path):
    config = tmp_path / "scalar.json"
    config.write_text(json.dumps({"n": 1, "m_list": "3,9"}))
    code, out, _ = run(["pfa-curves", "--config", str(config)], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert {row[2] for row in rows} == {"3", "9"}
    config.write_text(json.dumps({"n": 2, "eta": 0.5}))
    code, out, _ = run(["pmd-curve", "--config", str(config)], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert rows == [["2", "0.5", "0.25"]]
    # integral floats are counts
    config.write_text(json.dumps({"n": [1.0], "m_min": 2.0, "m_max": 8.0, "m_points": 2.0}))
    code, out, _ = run(["pfa-curves", "--config", str(config)], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert {(row[1], row[2]) for row in rows} == {("1", "2"), ("1", "8")}


def test_pfa_rejects_unknown_config_keys(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"modes": [2]}))
    code, _, err = run(["pfa-curves", "--config", str(config)], capsys)
    assert code == EXIT_INVALID
    assert "unknown config keys" in err


@pytest.mark.parametrize("command, config, unknown", [
    ("pmd-curve", {"noise": "bogus", "m_list": [4]}, "['m_list', 'noise']"),
    ("pmd-curve", {"n": 2, "svg": "chart.svg"}, "['svg']"),
    ("pfa-curves", {"n": 1, "eta_points": 3}, "['eta_points']"),
])
def test_config_rejects_the_other_sweeps_keys(capsys, tmp_path, command, config, unknown):
    # each sweep takes only the keys of its own settings table
    path = tmp_path / "other.json"
    path.write_text(json.dumps(config))
    code, out, err = run([command, "--config", str(path)], capsys)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: unknown config keys: {unknown}\n"


@pytest.mark.parametrize("config, message", [
    ({"noise": 5}, "config key 'noise' must be a string, not 5"),
    ({"csv": 2}, "config key 'csv' must be a string, not 2"),
    ({"svg": True}, "config key 'svg' must be a string, not true"),
    ({"m_points": True}, "config key 'm_points' must be a number, not true"),
    ({"m_max": math.inf}, "config key 'm_max' must be a number, not Infinity"),
    ({"n": [1, None]}, "config key 'n' must be a number, a list of numbers"),
    ({"n": "inf"}, "list values must be finite numbers"),
    ({"n": 10**400}, "config key 'n' must be a number, a list of numbers"),
    ({"n": 2.7}, "config key 'n' must hold integers, not 2.7"),
    ({"n": "3,2.5"}, "config key 'n' must hold integers, not 2.5"),
    ({"m_list": [4.5]}, "config key 'm_list' must hold integers, not 4.5"),
    ({"m_min": 1.5}, "config key 'm_min' must hold integers, not 1.5"),
    ({"m_max": 99.9}, "config key 'm_max' must hold integers, not 99.9"),
    ({"m_points": 2.5}, "config key 'm_points' must hold integers, not 2.5"),
    ({"eta_points": 3.25}, "config key 'eta_points' must hold integers, not 3.25"),
])
def test_config_rejects_wrong_value_types(capsys, tmp_path, config, message):
    # on each sweep that takes the key
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    sweeps = [argv for argv, table in ((["pfa-curves", "--m-list", "2"], cli.PFA_SETTINGS),
                                       (["pmd-curve", "--eta", "0.5"], cli.PMD_SETTINGS))
              if config.keys() <= table.keys()]
    assert sweeps
    for argv in sweeps:
        code, out, err = run(argv + ["--config", str(path)], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command, key, values, column, rest", [
    ("pfa-curves", "n", [3, 1, 3], 1, ["--m-list", "5"]),
    ("pfa-curves", "m_list", [9, 2, 4], 2, ["--n", "2"]),
    ("pmd-curve", "n", [7, 2, 7], 0, ["--eta", "0.5"]),
    ("pmd-curve", "eta", [0.75, 0.25], 1, ["--n", "3"]),
])
def test_flags_and_config_take_the_same_forms(capsys, tmp_path, command, key, values, column,
                                              rest):
    # a repeated flag, one comma-separated flag, a config list and a config string
    flag, text = "--" + key.replace("_", "-"), ",".join(map(str, values))
    config = tmp_path / "forms.json"
    outputs = set()
    for form in ([arg for v in values for arg in (flag, str(v))], [flag, text],
                 {key: values}, {key: text}):
        if isinstance(form, dict):
            config.write_text(json.dumps(form))
            form = ["--config", str(config)]
        code, out, err = run([command, *rest, *form], capsys)
        assert code == EXIT_OK and err == ""
        outputs.add(out)
    (out,) = outputs
    _, rows = parse_csv(out)
    assert {row[column] for row in rows} == {str(v) for v in values}
    # a flag still beats the config
    code, out, _ = run([command, *rest, "--config", str(config), flag, str(values[1])], capsys)
    flag_only = run([command, *rest, flag, str(values[1])], capsys)[1]
    assert code == EXIT_OK and out == flag_only and flag_only not in outputs


@pytest.mark.parametrize("command, key", [
    ("pfa-curves", "n"), ("pfa-curves", "m_list"), ("pmd-curve", "n"), ("pmd-curve", "eta"),
])
def test_empty_many_valued_setting_is_refused(capsys, tmp_path, command, key):
    path, config = tmp_path / "out.csv", tmp_path / "empty.json"
    flag = "--" + key.replace("_", "-")
    for value in ([], "", " , "):
        config.write_text(json.dumps({key: value}))
        code, out, err = run([command, "--config", str(config), "--csv", str(path)], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: config key {key!r} needs at least one value\n"
    for text in ("", ",", " , "):
        code, out, err = run([command, flag, text, "--csv", str(path)], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: {flag} needs at least one value\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (["pfa-curves", "--n", "2.5"], "--n must hold integers, not 2.5"),
    (["pfa-curves", "--n", "1", "--m-list", "3,x"], "--m-list must hold numbers, not '3,x'"),
    (["pfa-curves", "--m-points", "1,2"], "--m-points must hold numbers, not '1,2'"),
    (["pmd-curve", "--eta-min", "inf"],
     "list values must be finite numbers, not inf in --eta-min"),
    (["pmd-curve", "--n", "1", "--eta", HUGE],
     "list values must be finite numbers, not inf in --eta"),
])
def test_bad_flag_values_name_their_flag(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: {message}\n"


def test_sweep_row_refusal(capsys, tmp_path):
    # pfa-curves writes N + 3 rows per cell, pmd-curve one per (N, eta); both count first
    cap = cli.SWEEP_ROW_CAP
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"n": 1e300, "m_list": 5}))
    for argv in (["pfa-curves", "--n", str(cap - 2), "--m-list", "1"],
                 ["pfa-curves", "--n", HUGE, "--m-list", "1"],
                 ["pfa-curves", "--n", "20000000", "--m-list", "1"],
                 ["pfa-curves", "--n", "1", "--m-points", "1000000000"],
                 ["pfa-curves", "--m-points", HUGE],
                 ["pfa-curves", "--config", str(config)],
                 ["pmd-curve", "--n", "1", "--n", "2", "--eta-points", str(cap // 2 + 1)],
                 ["pmd-curve", "--n", "1", "--eta-points", "1000000000"],
                 ["pmd-curve", "--eta-points", HUGE]):
        code, out, err = run(argv, capsys)
        assert code == EXIT_CAP and out == ""
        assert err.startswith(f"refusing {argv[0]}: the sweep needs about 10^")
        assert f"rows (cap {cap})" in err and err.count("\n") == 1


# -- any arguments --------------------------------------------------------------

small_n = st.integers(-1, 3).map(str)
hostile = (st.integers(100_000, 10**12) | st.just(10**400)).map(str)
# past the row cap on a single mode count or eta value, so refused whatever else is drawn
sweep_hostile = (st.integers(cli.SWEEP_ROW_CAP, 10**12) | st.just(10**400)).map(str)
text_values = st.sampled_from(["", "thermal:0.5", "thermal:-1", "table:absent.txt", "x"]) | \
    st.text(alphabet="0123456789,.-", max_size=2)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3.0, 40.0)
    | st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 10**400]) | text_values,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text_values, inner, max_size=2),
    max_leaves=6,
)
config_keys = st.sampled_from(sorted(cli.PFA_SETTINGS.keys() | cli.PMD_SETTINGS.keys()) + ["modes"])
config_texts = (st.dictionaries(config_keys, json_values, min_size=1, max_size=4).map(json.dumps)
                | st.sampled_from(["{", "[]", "3", "{}"]))


@st.composite
def cli_arguments(draw):
    """A subcommand and flags whose sizes run in milliseconds or are refused up front."""
    command = draw(st.sampled_from(["verify", "pfa-curves", "pmd-curve", "state-dump", "nope"]))
    if command == "verify":
        n, m = draw(st.tuples(small_n, small_n) | st.tuples(hostile, hostile)
                    | st.tuples(small_n, hostile) | st.tuples(hostile, small_n))
        return [command, "--max-n", n, "--max-m", m]
    if command == "state-dump":
        n, m = draw(st.tuples(small_n, small_n) | st.tuples(hostile, hostile)
                    | st.tuples(hostile, small_n))
        return [command, "--n", n, "--m", m]
    if command == "nope":
        return [command]
    args = [command]

    def repeated(flag, values):
        # the flag 0-2 times, each with one value or several comma-separated ones
        for _ in range(draw(st.integers(0, 2))):
            args.extend([flag, ",".join(draw(st.lists(values, min_size=1, max_size=3)))])

    # P_MD is O(1) in N, so pmd-curve takes hostile photon numbers in milliseconds
    repeated("--n", small_n | (hostile if command == "pmd-curve" else sweep_hostile))
    if command == "pfa-curves":
        # a small upper bound keeps the default photon numbers' grids short or invalid
        args += ["--m-max", draw((st.integers(-1, 50) | st.just(10**400)).map(str))]
        repeated("--m-list", st.sampled_from(["1", "2", "40", "0", "x", "", HUGE]))
        options = {"--m-min": small_n | hostile,
                   "--m-points": st.integers(-1, 30).map(str) | sweep_hostile,
                   "--noise": text_values}
    else:
        numbers = st.sampled_from(["0", "0.5", "1", "-0.1", "2", "nan", "inf", HUGE])
        repeated("--eta", numbers)
        options = {"--eta-min": numbers, "--eta-max": numbers,
                   "--eta-points": st.integers(-1, 30).map(str) | sweep_hostile}
    for flag, values in options.items():
        if draw(st.booleans()):
            args += [flag, draw(values)]
    return args


@settings(max_examples=200, deadline=None)
@given(argv=cli_arguments(), config=st.none() | config_texts)
@example(argv=["pfa-curves", "--n", "1"], config='{"noise": 5}')
def test_any_arguments_exit_with_a_documented_code(argv, config):
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            if config is not None:
                with open("config.json", "w") as handle:
                    handle.write(config)
                argv = argv + ["--config", "config.json"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(previous)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_CAP)
    assert "Traceback" not in err.getvalue()


# -- pmd-curve -------------------------------------------------------------------

def test_pmd_values(capsys):
    code, out, _ = run(
        ["pmd-curve", "--n", "10", "--n", "1", "--eta", "0", "--eta", "0.5"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == "N,eta,p_md"
    values = {(row[0], row[1]): row[2] for row in rows}
    assert values[("1", "0")] == "1"
    assert values[("10", "0.5")] == "0.0009765625"


def test_pmd_large_photon_number(capsys):
    code, out, _ = run(["pmd-curve", "--n", "100", "--eta", "0.1"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(math.exp(100 * math.log(0.9)), rel=1e-12)
    code, out, _ = run(["pmd-curve", "--n", str(10**12), "--eta", "0.5"], capsys)
    assert code == EXIT_OK and out == f"N,eta,p_md\n{10**12},0.5,0\n"
    # a float holds no larger photon number
    code, out, err = run(["pmd-curve", "--n", HUGE, "--eta", "0.5"], capsys)
    assert code == EXIT_INVALID and out == "" and err.count("\n") == 1


def test_pmd_eta_out_of_range(capsys):
    code, _, _ = run(["pmd-curve", "--n", "2", "--eta", "1.5"], capsys)
    assert code == EXIT_INVALID


def test_pmd_grid(capsys):
    code, out, _ = run(
        ["pmd-curve", "--n", "2", "--eta-min", "0", "--eta-max", "1",
         "--eta-points", "5"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]


# -- top-level parsing --------------------------------------------------------------

def test_unknown_subcommand_exits_invalid(capsys):
    assert main(["frobnicate"]) == EXIT_INVALID


def test_missing_subcommand_exits_invalid(capsys):
    assert main([]) == EXIT_INVALID


@pytest.mark.parametrize("argv", [["state-dump", "--n", "14", "--m", "8"],
                                  ["pfa-curves", "--n", "1000", "--m-points", "20"]])
def test_reader_closing_stdout_early_is_not_an_error(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-m", "twinfock.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == EXIT_OK and err == b""
