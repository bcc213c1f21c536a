import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings, strategies as st

from twinfock import cli, states, verify
from twinfock.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    fmt_float,
    linear_grid,
    log_grid,
    main,
    parse_noise_spec,
    pfa_lines,
    render_svg,
)
from twinfock.detection import (
    TableNoise,
    ThermalNoise,
    false_alarm_series,
    p_fa_closed,
    p_fa_oracle,
)
from twinfock.fock import IDLER, SIGNAL, SparseState
from twinfock.loss import (
    absorption_weight,
    beamsplitter_oracle,
    conditional_states,
    split_by_environment,
)
from twinfock.states import pair_state_direct, pair_state_recursive

from references import fraction17, pfa_cell, sci17


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

@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, allow_infinity=False, allow_nan=False) | st.sampled_from(
    [-0.0, 1e-4, math.nextafter(1e-4, 0.0), 1e17, math.nextafter(1e17, 0.0), 5e-324, 1.0]))
def test_fmt_float_lays_out_values_as_float_g17(value):
    # pmd-curve prints Decimals through fmt_float; on doubles it is format(float, ".17g")
    assert fmt_float(value) == fmt_float(Decimal(value)) == format(value, ".17g")


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
    # at large counts the rounded points may leave the range; the ends are the bounds themselves
    assert log_grid(10**18 - 10, 10**18, 5) == [10**18 - 10, 10**18]
    assert log_grid(10**16, 10**16 + 100, 4) == [10**16, 10**16 + 34, 10**16 + 100]
    assert log_grid(10**15, 10**18, 2) == [10**15, 10**18]
    for exponent in range(1, 309):
        grid = log_grid(1, 10**exponent, 3)
        assert grid[0] == 1 and grid[-1] == 10**exponent and len(grid) == 3
    for m_min, m_max, points in ((88776869188792, 88776869188792 * 3, 7),
                                 (10**16 + 1, 10**16 + 2, 9), (3, 10**308, 50)):
        grid = log_grid(m_min, m_max, points)
        assert grid[0] == m_min and grid[-1] == m_max and grid == sorted(set(grid))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(sorted),
       st.integers(2, 300))
@example([0.059, 1.0], 14)
@example([0.0, 1.0], 50)
def test_linear_grid_runs_from_low_to_high(bounds, points):
    low, high = bounds
    grid = linear_grid(low, high, points)
    assert len(grid) == points
    assert grid[0] == low and grid[-1] == high
    assert all(low <= value <= high for value in grid)
    assert grid == sorted(grid)


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
    checks = list(verify.CHECKS)
    name, tolerance, _ = checks[failing]
    checks[failing] = (name, tolerance, lambda case: excess * tolerance)
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
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
    case = verify.VerifyCase(1, 2, probe=nan_state, direct=finite, recursive=finite, previous=None,
                             components=[], weights={}, oracles={})
    assert math.isnan(verify._commutator(case, SIGNAL, IDLER))
    assert math.isnan(verify._commutator(case, IDLER, SIGNAL))

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
    case = verify.VerifyCase(2, 3, probe=SparseState.vacuum(3, (IDLER, SIGNAL)), direct=direct,
                             recursive=direct, previous=pair_state_direct(1, 3), components=[],
                             weights={}, oracles={})
    assert not any(math.isnan(direct.annihilate(SIGNAL, j).max_abs()) for j in (0, 1))
    assert math.isnan(verify._signal_loss(case))


def test_verify_builds_each_pair_state_once(monkeypatch):
    built = {"pair_state_direct": [], "pair_state_recursive": []}

    def counting(name):
        build = getattr(states, name)

        def wrapper(photons, modes):
            built[name].append((photons, modes))
            return build(photons, modes)
        return wrapper

    for name in built:
        wrapper = counting(name)
        monkeypatch.setattr(verify, name, wrapper)
        monkeypatch.setattr(states, name, wrapper)
    verify.run_verification(6, 5)
    for calls in built.values():
        assert len(calls) == 35
        assert len(set(calls)) == 35


def test_verify_releases_each_case_before_building_the_next():
    # 4.33 MiB traced when the (6, 5) case was built beside all of (5, 5)'s states
    # and oracle splits, 3.36 MiB when only its direct state is kept (Python 3.11)
    tracemalloc.start()
    try:
        verify.run_verification(6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.85 * 2 ** 20


def test_verify_builds_one_oracle_per_case_and_eta_and_one_weight_per_count(monkeypatch):
    calls = {"beamsplitter_oracle": [], "absorption_weight": []}
    for name, log in calls.items():
        build = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, build=build, log=log:
                            log.append(args) or build(*args))
    verify.run_verification(6, 5)
    # 35 cases at 2 etas; 2 (N + 1) weights per case, N = 0..6 at each of 5 mode counts
    oracles = calls["beamsplitter_oracle"]
    assert len(oracles) == len(set(oracles)) == 70
    assert len(calls["absorption_weight"]) == 5 * 2 * sum(range(1, 8)) == 280


def full_case(photons, modes, eta):
    """A battery case at one eta, built as run_verification builds it, for photons >= 1."""
    return verify.VerifyCase(
        photons, modes, probe=SparseState.vacuum(modes, (IDLER, SIGNAL)),
        direct=pair_state_direct(photons, modes), recursive=pair_state_recursive(photons, modes),
        previous=pair_state_direct(photons - 1, modes),
        components=list(conditional_states(photons, modes)),
        weights={eta: [absorption_weight(photons, modes, eta, lost) for lost in range(photons + 1)]},
        oracles={eta: split_by_environment(beamsplitter_oracle(photons, modes, eta))})


def failing_checks(case):
    return [name for name, tolerance, residual in verify.CHECKS if not residual(case) <= tolerance]


def with_all_absorbed_weights_moved(case, shift):
    """The case with shift(index) added to the oracle weight of each all-absorbed component."""
    (eta, split), = case.oracles.items()
    moved = list(split)
    absorbed_all = [i for i, c in enumerate(split) if sum(c.absorbed) == case.photons]
    for rank, i in enumerate(absorbed_all):
        moved[i] = split[i]._replace(weight=split[i].weight + shift(rank))
    return case._replace(oracles={eta: moved})


def test_missed_detection_check_reads_the_oracle_all_absorbed_mass():
    # C(47, 2) = 1,081 arrangements absorb both photons over 46 modes; moving each of
    # their oracle weights by 1e-9 / 1,081 < 1e-12 stays inside the per-component
    # tolerance of "beamsplitter decomposition" and moves the all-absorbed mass by 1e-9
    case = full_case(2, 46, 0.3)
    assert failing_checks(case) == []
    spread = with_all_absorbed_weights_moved(case, lambda rank: 1e-9 / math.comb(47, 2))
    assert failing_checks(spread) == ["missed detection: closed vs oracle"]
    # one weight off by 1e-9 fails that check too, beside the per-component one
    single = with_all_absorbed_weights_moved(case, lambda rank: 1e-9 if rank == 0 else 0.0)
    assert failing_checks(single) == ["beamsplitter decomposition",
                                      "missed detection: closed vs oracle"]


def test_decomposition_charges_a_component_the_oracle_lacks_its_closed_weight():
    case = full_case(2, 2, 0.3)
    (eta, split), = case.oracles.items()
    # the heaviest, one photon absorbed in the first mode: C(2, 1) 0.3 0.7 / 2 = 0.21
    dropped = max(split, key=lambda c: c.weight)
    lacking = case._replace(oracles={eta: [c for c in split if c is not dropped]})
    residual = next(r for name, _, r in verify.CHECKS if name == "beamsplitter decomposition")
    assert residual(case) < 1e-15
    assert residual(lacking) == case.weights[eta][sum(dropped.absorbed)]
    assert failing_checks(lacking) == ["beamsplitter decomposition"]


def test_amplitude_uniformity_reads_the_ladder_build():
    name, tolerance, residual = next(c for c in verify.CHECKS if c[0] == "amplitude uniformity")
    direct, recursive = pair_state_direct(2, 3), pair_state_recursive(2, 3)
    (first, amp), *rest = recursive.terms()
    wrong = SparseState.from_terms(3, (IDLER, SIGNAL), [(first, amp * (1 + 1e-9)), *rest])

    def case(ladder):
        return verify.VerifyCase(2, 3, probe=SparseState.vacuum(3, (IDLER, SIGNAL)), direct=direct,
                                 recursive=ladder, previous=None, components=[], weights={},
                                 oracles={})

    assert residual(case(recursive)) <= tolerance
    assert residual(case(wrong)) > tolerance


def test_direct_vs_recursive_build_reports_a_gap_of_1e_16():
    name, tolerance, residual = next(c for c in verify.CHECKS if c[0] == "direct vs recursive build")
    # the two (2, 2) builds agree bit for bit, so the nudged amplitude makes the whole gap
    direct, recursive = pair_state_direct(2, 2), pair_state_recursive(2, 2)
    assert direct.max_abs_diff(recursive) == 0.0
    (first, amp), *rest = recursive.terms()
    nudged = SparseState.from_terms(2, (IDLER, SIGNAL), [(first, amp + 1e-16), *rest])
    case = verify.VerifyCase(2, 2, probe=SparseState.vacuum(2, (IDLER, SIGNAL)), direct=direct,
                             recursive=nudged, previous=None, components=[], weights={}, oracles={})
    assert 0 < residual(case) == abs(amp + 1e-16 - amp) < 1e-15


def test_verify_prints_residuals_below_1e_15(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == EXIT_OK
    worst = {line.split("  worst=")[0].rstrip(): float(line.split("worst=")[1].split()[0])
             for line in out.splitlines()[1:-1]}
    for name in ("signal-loss identity", "direct vs recursive build"):
        assert 0 < worst[name] < 1e-15


def test_verify_false_alarm_check_equals_the_oracle_residual():
    for photons in range(0, 5):
        for modes in range(1, 4):
            case = verify.VerifyCase(photons, modes,
                                     probe=SparseState.vacuum(modes, (IDLER, SIGNAL)),
                                     direct=pair_state_direct(photons, modes),
                                     recursive=pair_state_recursive(photons, modes), previous=None,
                                     components=list(conditional_states(photons, modes)),
                                     weights={}, oracles={})
            table = TableNoise(tuple(0.12 / (k + 1) for k in range(photons)))
            expected = max(abs(p_fa_closed(photons, modes, noise) - p_fa_oracle(photons, modes, noise))
                           for noise in (ThermalNoise(0.5, modes), table))
            assert verify._false_alarm(case) == expected


def test_verify_false_alarm_check_is_independent_of_the_closed_form_series(capsys, monkeypatch):
    # the trace forms its thermal probabilities from nbar itself, so a series scaled
    # by (1 + 1e-6) moves the closed form alone, and only the false-alarm check fails
    series = ThermalNoise.arrangement_series

    def scaled(noise):
        probs, step = series(noise)
        return (prob * Decimal("1.000001") for prob in probs), step

    monkeypatch.setattr(ThermalNoise, "arrangement_series", scaled)
    code, out, err = run(["verify", "--max-n", "3", "--max-m", "3"], capsys)
    assert code == EXIT_VERIFY_FAILED and err == "verification FAILED\n"
    failed = [line.split("  worst=")[0].rstrip() for line in out.splitlines()
              if line.endswith("  FAIL")]
    assert failed == ["false alarm: closed vs oracle"]


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


#: A child that runs the CLI on its arguments, then prints its exit code and
#: its own peak RSS in KiB, interpreter included.  VmHWM starts afresh at exec,
#: where ru_maxrss carries over the peak of the process that forked the child.
_PEAK_RSS_CHILD = """
import sys
from twinfock.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.parametrize("photons, modes", [(14, 8), (16, 10)])
def test_state_dump_streams_chunk_by_chunk(tmp_path, photons, modes):
    # 116,280 and 2,042,975 lines: one head's chunk and the cached tail texts are held, never the dump
    argv = ["state-dump", "--n", str(photons), "--m", str(modes), "--out", str(tmp_path / "d.tsv")]
    if (photons, modes) == (14, 8):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2 * 2 ** 20
        return
    # tracemalloc slows this dump about tenfold, so a child measures its whole peak RSS
    # instead: about 16 MiB when the dump streams, about 160 MiB when it is held
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    code, peak_kib = map(int, result.stdout.split())
    assert code == EXIT_OK
    assert peak_kib < 64 * 2 ** 10


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
    # both are 1 / M rounded once, below and far above N + M = 200
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


def cells(out):
    """The values of a pfa-curves CSV, by (N, M) and then series name."""
    table = {}
    for series, photons, modes, value in parse_csv(out)[1]:
        table.setdefault((int(photons), int(modes)), {})[series] = value
    return table


def test_pfa_exact_region_prints_library_floats(capsys):
    # every printed value is the exact one rounded half-even to 17 digits, and the
    # library's float is the printed total's Decimal rounded once
    code, out, _ = run(["pfa-curves", "--n", "3", "--m-list", "4"], capsys)
    assert code == EXIT_OK
    values = cells(out)[(3, 4)]
    assert values["baseline:1_over_M"] == "2.5000000000000000e-1"
    assert values["term:1"] == "5.0000000000000000e-1"
    code, out, _ = run(["pfa-curves", "--n", "2", "--n", "30", "--m-list", "1,7,150,170",
                        "--noise", "thermal:0.3"], capsys)
    assert code == EXIT_OK
    for (photons, modes), values in cells(out).items():
        noise = ThermalNoise(0.3, modes)
        assert values == pfa_cell(photons, modes, noise)
        total = false_alarm_series(photons, modes, noise)[1]
        assert p_fa_closed(photons, modes, noise) == float(total)
    # 1/15 prints the exact value's 17th digit, not the nearest double's
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", "15"], capsys)
    assert cells(out)[(1, 15)]["term:1"] == "6.6666666666666667e-2"


def test_pfa_exact_region_below_float_range(capsys):
    # thermal:100 noise factors underflow a float at M = 190, and at M = 154 the
    # total is subnormal as a float: both print all 17 digits
    photons = 10
    code, out, _ = run(["pfa-curves", "--n", str(photons), "--m-list", "154,190",
                        "--noise", "thermal:100"], capsys)
    assert code == EXIT_OK
    assert sorted(cells(out)) == [(photons, 154), (photons, 190)]
    for (_, modes), values in cells(out).items():
        assert values == pfa_cell(photons, modes, ThermalNoise(100.0, modes))


@settings(max_examples=150, deadline=None)
@given(photons=st.integers(0, 199), data=st.data(),
       table=st.none() | st.lists(st.integers(0, 2**20).map(lambda n: n / 2**20), max_size=40))
def test_pfa_exact_region_rounds_exact_values(photons, data, table):
    # N + M <= 200 under thermal:1 (table None) or a dyadic table: every term, the
    # total and the baselines print as their exact values rounded half-even
    modes = data.draw(st.integers(1, 200 - photons))
    noise_for = (lambda m: ThermalNoise(1.0, m)) if table is None else table_factory(tuple(table))
    lines = "".join(pfa_lines({photons: [modes]}, noise_for))
    assert cells(lines)[(photons, modes)] == pfa_cell(photons, modes, noise_for(modes))


def test_pfa_large_cells_round_exact_values():
    # seeded cells up to N = 3000, M = 1e5, the benchmark sweep's range
    rng = random.Random(19)
    table = tuple(rng.uniform(0.2, 1.0) * 0.5 ** k for k in range(1, 65))
    # the corner's references take seconds under thermal:0.3 and thermal:1e6, whose
    # 1 + nbar has a long numerator, and milliseconds under the other two
    for noise_for, corner in ((lambda m: ThermalNoise(1.0, m), True),
                              (lambda m: ThermalNoise(0.3, m), False),
                              (lambda m: ThermalNoise(1e6, m), False),
                              (table_factory(table), True)):
        sizes = [(rng.randrange(1, 3001), round(10 ** rng.uniform(0, 5))) for _ in range(2)]
        for photons, modes in sizes + [(3000, 10**5)] * corner:
            lines = "".join(pfa_lines({photons: [modes]}, noise_for))
            assert cells(lines)[(photons, modes)] == pfa_cell(photons, modes, noise_for(modes))


def test_pfa_total_rounds_a_17_digit_midpoint_half_even(capsys, tmp_path):
    # (2 p_1 + p_2) / 3 = 100001 / 2^18 = 0.381473541259765625 exactly, a 17-digit
    # midpoint that half-even rounds down; the 40 digits lie above it, as 2/3 is rounded
    path = tmp_path / "table.txt"
    path.write_text("0.3814697265625\n0.3814811706542969\n")
    code, out, _ = run(["pfa-curves", "--n", "2", "--m-list", "2", "--noise", f"table:{path}"],
                       capsys)
    assert code == EXIT_OK
    assert "total,2,2,3.8147354125976562e-1\n" in out.splitlines(keepends=True)
    # p_1 = 100000 / 2^18 and p_2 = (3m - 200000) / 2^18 make the total m / 2^18, a
    # midpoint for every odd m; at 40 digits half of these printed the other neighbour
    for m in range(100001, 100400, 2):
        noise_for = table_factory((100000 / 2**18, (3 * m - 200000) / 2**18))
        assert cells("".join(pfa_lines({2: [2]}, noise_for)))[(2, 2)]["total"] == sci17(m, 2**18)


def test_pfa_baselines_are_exact_quotients(capsys):
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", f"1000,{10**23}",
                        "--noise", "thermal:0"], capsys)
    assert code == EXIT_OK
    values = cells(out)
    assert values[(1, 1000)]["baseline:1_over_M"] == "1.0000000000000000e-3"
    assert values[(1, 10**23)]["baseline:1_over_M"] == "1.0000000000000000e-23"
    assert values[(1, 10**23)]["baseline:N_over_M"] == "1.0000000000000000e-23"


def test_pfa_log_region_term_accuracy(capsys):
    # a large cell of the sweep: every term and the total, exact to 17 digits
    photons, modes = 1000, 100_000
    code, out, _ = run(["pfa-curves", "--n", str(photons), "--m-list", str(modes)], capsys)
    assert code == EXIT_OK
    assert cells(out)[(photons, modes)] == pfa_cell(photons, modes, ThermalNoise(1.0, modes))


def test_pfa_total_past_the_formatter_range(capsys):
    modes = 10**18
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", str(modes),
                        "--noise", "thermal:1"], capsys)
    assert code == EXIT_OK
    printed = cells(out)[(1, modes)]["total"]
    assert printed == "3.0565472207278501e-301029995663981214"
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX
        # thermal:1 puts x = 1/2, so P_FA(1, M) = (1/M) (1 - x)^M x = 2^-(M + 1) / M,
        # here through ln and exp rather than the power the kernel takes
        reference = (-(modes + 1) * Decimal(2).ln()).exp() / modes
    assert printed == format(reference, ".16e")
    code, out, _ = run(["pfa-curves", "--n", "1", "--m-list", "1000",
                        "--noise", "thermal:1"], capsys)
    assert cells(out)[(1, 1000)]["total"] == "4.6663180925160944e-305" == sci17(1, 1000 * 2**1001)


@pytest.mark.parametrize("argv, cell", [
    (["pfa-curves", "--n", "1", "--m-list", str(10**23), "--noise", "thermal:1"],
     f"P_FA at N=1, M={10**23} "),
    (["pmd-curve", "--n", str(10**308), "--eta", "0.5"], f"P_MD at N={10**308}, eta=0.5 "),
])
def test_values_below_the_decimal_range_are_refused(capsys, argv, cell):
    # 2^-(10^23) and 2^-(10^308) lie below 1e-999999999999999999: no row prints 0
    code, out, err = run(argv, capsys)
    assert code == EXIT_CAP
    assert out.count("\n") == 1  # the header alone
    assert err.startswith(f"error: {cell}lies below") and err.count("\n") == 1


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
    # one string per cell, each value rendered from its own exact reference
    grid = sorted(set(modes))
    expected = ["series,N,M,value\n"] + [
        "".join(f"{name},{photons},{m},{value}\n"
                for name, value in sorted(pfa_cell(photons, m, noise_for(m)).items()))
        for m in grid]
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


@pytest.mark.parametrize("option, content, message", [
    ("--noise=thermal:abc", None, "noise spec 'thermal:abc' needs a number after thermal:"),
    ("--noise=table:{path}", b"0.1\n\nabc\n",
     "noise table {path}, line 3: expected a number, not 'abc'"),
    ("--noise=table:{path}", b"0.1\n\xff\n", "noise table {path} is not UTF-8 text"),
    # the json module's own reason and column differ between Python versions
    ("--config={path}", b'{"n": 1,}',
     "config file {path} is not valid JSON: ... at line 1 column ..."),
    ("--config={path}", b"\xff{}", "config file {path} is not UTF-8 text"),
], ids=["thermal-nbar", "table-line", "table-encoding", "config-syntax", "config-encoding"])
def test_input_errors_name_their_source(capsys, tmp_path, option, content, message):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(["pfa-curves", "--n", "1", "--m-list", "2", option.format(path=path)],
                         capsys)
    assert code == EXIT_INVALID and out == ""
    pattern = re.escape(f"error: {message.format(path=path)}\n").replace(re.escape("..."), ".+")
    assert re.fullmatch(pattern, err)


def test_counts_in_exponent_form_read_exactly(capsys, tmp_path):
    # through a float, 1e23 would be 99999999999999991611392; noise-free, since
    # thermal noise over 10^23 modes lies below the range of the closed forms
    config = tmp_path / "counts.json"
    config.write_text(json.dumps({"n": 1, "m_list": [1e23]}))
    for form in (["--n", "1", "--m-list", "1e23"], ["--n", "1e0", "--m-list", "1E+23"],
                 ["--config", str(config)]):
        code, out, err = run(["pfa-curves", *form, "--noise", "thermal:0"], capsys)
        assert code == EXIT_OK and err == ""
        assert {(row[1], row[2]) for row in parse_csv(out)[1]} == {("1", str(10**23))}
    code, out, _ = run(["pmd-curve", "--n", "2.5e1,3e0", "--eta", "0.5"], capsys)
    assert code == EXIT_OK and [row[0] for row in parse_csv(out)[1]] == ["3", "25"]
    for argv, message in ((["pfa-curves", "--n", "1.5e0"], "--n must hold integers, not 1.5e0"),
                          # past the float range: refused before any integer is built from it
                          (["pfa-curves", "--n", "1e999999999"],
                           "list values must be finite numbers, not inf in --n")):
        code, out, err = run(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: {message}\n"


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


#: sha256 of pfa-curves stdout, recorded before the total stopped at the last
#: product that can change it: at the defaults, and on the 64-entry table below
PFA_DEFAULT_SHA256 = "3cf9183fe8c4e687dabafcf15ec4347ea93863516ca2220ff46c8d37b1d8fe49"
PFA_TABLE_SWEEP_SHA256 = "cf44add1151b90d7664c69aa6e009614ca2957a70555f1ceb82fc797846dc98b"


def test_pfa_defaults_print_the_recorded_bytes(capsys):
    code, out, _ = run(["pfa-curves"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PFA_DEFAULT_SHA256


def test_pfa_table_sweep_prints_the_recorded_bytes(capsys, tmp_path):
    # the benchmark's sweep table at seed 1: 64 entries falling as 2^-k, so 2,936
    # of the 3,000 products at N = 3000 are past its end
    rng = random.Random(1)
    table = [rng.uniform(0.2, 1.0) * 0.5 ** k for k in range(1, 65)]
    path = tmp_path / "noise_table.txt"
    path.write_text("".join(f"{value!r}\n" for value in table))
    code, out, _ = run(["pfa-curves", "--n", "10", "--n", "100", "--n", "1000", "--n", "3000",
                        "--m-max", "100000", "--m-points", "50", "--noise", f"table:{path}"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PFA_TABLE_SWEEP_SHA256


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


@pytest.mark.parametrize("n, m_list", [("2", "20"), ("0", "5")])
def test_pfa_svg_with_collapsed_axes(capsys, tmp_path, n, m_list):
    # one mode count leaves the x axis a single value; N = 0 leaves a single point,
    # the 1/M baseline, so that the y axis collapses as well
    svg = tmp_path / "chart.svg"
    code, _, _ = run(["pfa-curves", "--n", n, "--m-list", m_list,
                      "--csv", str(tmp_path / "out.csv"), "--svg", str(svg)], capsys)
    assert code == EXIT_OK
    root = ElementTree.parse(svg).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.findall("{http://www.w3.org/2000/svg}polyline")


def test_svg_of_a_csv_without_rows_is_an_empty_chart(tmp_path):
    svg = tmp_path / "chart.svg"
    render_svg(svg, ["series,N,M,value\n"])
    assert svg.read_text() == "<svg xmlns='http://www.w3.org/2000/svg'/>\n"


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
    (["pmd-curve", "--eta-min", "inf"], "--eta-min must be a finite number, not inf"),
    (["pmd-curve", "--n", "1", "--eta", HUGE],
     "list values must be finite numbers, not inf in --eta"),
    (["pmd-curve", "--eta-min", "nan"], "--eta-min must be a finite number, not nan"),
    (["pfa-curves", "--m-max", "1e400"], "--m-max must be a finite number, not inf"),
])
def test_bad_flag_values_name_their_flag(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, flag, value, message", [
    (["pmd-curve", "--n", "1"], "--eta", "-0.1,0.5", "eta values must lie in [0, 1]"),
    (["pfa-curves"], "--n", "-1,2", "photon numbers must be non-negative"),
    (["pfa-curves"], "--m-list", "-1,5", "m_list needs mode counts in [1, 10^308]"),
])
def test_negative_led_value_lists_read_as_values(capsys, argv, flag, value, message):
    # a list led by a negative number reads as the --flag=value form does
    for form in ([flag, value], [f"{flag}={value}"]):
        code, out, err = run(argv + form, capsys)
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


def pmd_reference(photons, eta):
    """(1 - eta)^N for the exact float eta in 17 digits, through ln and exp at 80 digits.

    Not the power the program takes.  1 - eta is exact (a float has at most
    1,074 fractional binary digits), and 80 digits leave the 17 printed ones
    exact while N ln(1 - eta) stays below about 10^60 in size.
    """
    with localcontext() as ctx:
        ctx.prec = 1100
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX
        one_minus = 1 - Decimal(eta)
        ctx.prec = 80
        return fmt_float(Decimal(format((photons * one_minus.ln()).exp(), ".16e")))


def test_pmd_large_photon_number(capsys):
    code, out, _ = run(["pmd-curve", "--n", "100", "--eta", "0.1"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert rows[0][2] == fmt_float(Decimal(fraction17((1 - Fraction(0.1)) ** 100)))
    code, out, _ = run(["pmd-curve", "--n", str(10**12), "--eta", "0.5"], capsys)
    assert code == EXIT_OK and out == f"N,eta,p_md\n{10**12},0.5,1.0442507269304682e-301029995664\n"
    assert pmd_reference(10**12, 0.5) == "1.0442507269304682e-301029995664"
    # a float holds no larger photon number
    code, out, err = run(["pmd-curve", "--n", HUGE, "--eta", "0.5"], capsys)
    assert code == EXIT_INVALID and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("photons, eta, printed", [
    (10**9, "1e-9", "0.36787944098750258"),
    (10**17, "1e-17", "0.36787944117144229"),
    (10**5, "0.01", "3.3071946367460803e-437"),
    # 1 - 1e-300 rounded to 40 digits would be 1
    (10**300, "1e-300", "0.36787944117144231"),
])
def test_pmd_prints_the_power_of_the_exact_reflectivity(capsys, photons, eta, printed):
    # 1 - eta is not rounded before the power: the first three rows once
    # printed 0.36787945139184391, 1 and 0
    code, out, _ = run(["pmd-curve", "--n", str(photons), "--eta", eta], capsys)
    assert code == EXIT_OK
    assert parse_csv(out)[1] == [[str(photons), fmt_float(float(eta)), printed]]
    assert pmd_reference(photons, float(eta)) == printed


def test_pmd_eta_out_of_range(capsys):
    code, _, _ = run(["pmd-curve", "--n", "2", "--eta", "1.5"], capsys)
    assert code == EXIT_INVALID


@pytest.mark.parametrize("grid, message", [
    (["--eta-points", "1"], "need at least 2 grid points"),
    (["--eta-min", "0.9", "--eta-max", "0.1"], "grid upper bound below lower bound"),
])
def test_pmd_invalid_grid(capsys, tmp_path, grid, message):
    path = tmp_path / "out.csv"
    code, out, err = run(["pmd-curve", *grid, "--csv", str(path)], capsys)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: {message}\n"
    assert not path.exists()


def test_pmd_grid(capsys):
    code, out, _ = run(
        ["pmd-curve", "--n", "2", "--eta-min", "0", "--eta-max", "1",
         "--eta-points", "5"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]


@pytest.mark.parametrize("grid", [
    # the 14th point, 0.059 + 13 step, once rounded to 1.0000000000000002 and was refused
    ["--eta-min", "0.059", "--eta-max", "1", "--eta-points", "14"],
    # the 50th point, 49 step, once rounded to 0.99999999999999989
    ["--eta-points", "50"],
])
def test_pmd_grid_ends_at_its_upper_bound(capsys, grid):
    code, out, err = run(["pmd-curve", "--n", "3", *grid], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("\n3,1,0\n")


#: sha256 of pmd-curve stdout at the defaults, recorded before the last grid
#: point became eta_max itself
PMD_DEFAULT_SHA256 = "14e03ac570177cda6df1a63ae6a687c10c7acb81114034204be9ce317d32477c"


def test_pmd_defaults_print_the_recorded_bytes(capsys):
    code, out, _ = run(["pmd-curve"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PMD_DEFAULT_SHA256


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


_STDLIB_CHILD = """\
import contextlib, io, sys
from twinfock import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["pfa-curves", "--n", "3", "--m-list", "7"]),
             cli.main(["pmd-curve", "--n", "3", "--eta", "0.5"])]
print(*codes)
print(*sorted({name.partition(".")[0] for name in sys.modules}))
"""


def test_the_console_script_resolves_to_cli_main():
    # tests call main in-process or run python -m twinfock.cli; the installed
    # twinfock command goes through this entry instead (3.10 has no tomllib)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^twinfock\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.MULTILINE)
    assert target, scripts
    module, attribute = target.groups()
    assert getattr(importlib.import_module(module), attribute) is cli.main


def _fresh_child(code):
    """Run code in a fresh interpreter that imports twinfock from this source tree; -S
    keeps the .pth files of site-packages from importing their modules."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_the_runtime_imports_only_the_standard_library():
    # no runtime dependencies: a fresh interpreter that runs both sweeps holds no
    # module from outside the standard library but twinfock itself (and its own
    # __main__)
    result = _fresh_child(_STDLIB_CHILD)
    assert result.returncode == 0, result.stderr
    codes, modules = result.stdout.splitlines()
    assert codes == "0 0"
    foreign = [name for name in modules.split() if name not in
               ("__main__", "twinfock") and name not in sys.stdlib_module_names]
    assert foreign == []


def test_importing_the_cli_leaves_the_deferred_modules_unloaded():
    # every command pays for `import twinfock.cli`, so the modules only some paths use
    # are imported where they are used: argparse and re when arguments are parsed, json
    # by the config readers and random by the verify battery; the record types are
    # named tuples, so neither dataclasses nor its inspect is needed
    result = _fresh_child("import sys, twinfock.cli\nprint(*sorted(sys.modules))")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "twinfock.cli" in loaded
    assert loaded.isdisjoint({"argparse", "json", "dataclasses", "inspect", "random", "re"})


def test_only_the_verify_command_loads_the_battery():
    # python -I ignores PYTHONPATH, so the child puts this source tree on its path itself
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import contextlib, io, sys\nsys.path.insert(0, {src!r})\nimport twinfock.cli\n"
            "loaded = 'twinfock.verify' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = twinfock.cli.main(['verify', '--max-n', '1', '--max-m', '1'])\n"
            "print(loaded, code, 'twinfock.verify' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False 0 True\n"


def test_a_fresh_interpreter_parses_and_runs_a_sweep():
    # the parser type is defined on first use; a process that has built none runs main
    result = _fresh_child("import sys\nfrom twinfock import cli\n"
                          "sys.exit(cli.main(['pmd-curve', '--n', '3', '--eta', '0.5']))")
    assert result.returncode == EXIT_OK and result.stderr == ""
    assert result.stdout == "N,eta,p_md\n3,0.5,0.125\n"
