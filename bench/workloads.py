"""Seeded workloads of the twinfock benchmark: inputs, operations and output checks.

A workload turns a seed into its inputs.  The seed picks values only (eta,
nbar, noise tables, mode lists), never sizes, so the cost of a pass does not
depend on it.  A pass is a list of operations, each one call into the
program; every operation's output is checked against references computed
here with `math`, `fractions` and `decimal`, never by calling the package.

Operations are called through module attributes (`cli.main`, not a saved
reference) so that the tracing wrappers, when installed, see every call.
"""

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable

from twinfock import cli, detection, loss, states

#: Photons + modes up to which references are exact rationals (the README's exact region).
EXACT_REGION = 200
#: Relative tolerance of a printed or returned value against an exact reference.
EXACT_TOL = 1e-11
#: Tolerance `twinfock verify` itself applies between closed forms and oracles.
ORACLE_TOL = 1e-10
EPS = 2.0 ** -52


@dataclass
class Outcome:
    """What one operation's output check found."""

    problems: list[str] = field(default_factory=list)
    work: int = 0      # throughput units completed: cases, cells or amplitudes
    rows: int = 0      # lines the CLI wrote
    bytes: int = 0     # bytes the CLI wrote


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call `twinfock` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# independent references


def log_grid(low: int, high: int, points: int) -> list[int]:
    """Log-spaced integer mode grid as the README specifies it."""
    a, b = math.log(low), math.log(high)
    return sorted({max(1, round(math.exp(a + i * (b - a) / (points - 1)))) for i in range(points)})


def term_exact(n: int, m: int, k: int) -> Fraction:
    """k-photon false-alarm coefficient C(N-k+M-1, M-1) / C(N+M-1, M-1)."""
    return Fraction(math.comb(n - k + m - 1, m - 1), math.comb(n + m - 1, m - 1))


def term_log(n: int, m: int, k: int) -> float:
    return math.lgamma(n - k + m) + math.lgamma(n + 1) - math.lgamma(n - k + 1) - math.lgamma(n + m)


def log_tol(n: int, m: int, value_log: float) -> float:
    """Error bound of an lgamma-based reference plus the printed 17 digits."""
    return 1e-12 + 16 * EPS * (4 * math.lgamma(n + m + 1) + abs(value_log))


@dataclass(frozen=True)
class NoiseRef:
    """Arrangement probability p_k, as the README defines each noise model."""

    nbar: float | None = None
    table: tuple[float, ...] = ()

    def log(self, m: int, k: int) -> float:
        if self.nbar is None:
            p = self.table[k - 1] if k <= len(self.table) else 0.0
            return math.log(p) if p > 0 else -math.inf
        x = self.nbar / (1.0 + self.nbar)
        return m * math.log1p(-x) + k * math.log(x)

    def exact(self, m: int, k: int) -> Decimal:
        if self.nbar is None:
            return Decimal(self.table[k - 1]) if k <= len(self.table) else Decimal(0)
        x = Decimal(self.nbar) / (1 + Decimal(self.nbar))
        return (1 - x) ** m * x ** k

    def program_noise(self, m: int):
        if self.nbar is None:
            return detection.TableNoise(self.table)
        return detection.ThermalNoise(self.nbar, m)


def total_exact(n: int, m: int, noise: NoiseRef) -> Decimal:
    """P_FA = sum_k coefficient_k p_k to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        den = math.comb(n + m - 1, m - 1)
        acc = sum(Decimal(math.comb(n - k + m - 1, m - 1)) * noise.exact(m, k) for k in range(1, n + 1))
        return acc / den


def total_log(n: int, m: int, noise: NoiseRef) -> float:
    logs = [term_log(n, m, k) + noise.log(m, k) for k in range(1, n + 1)]
    logs = [x for x in logs if x != -math.inf]
    if not logs:
        return -math.inf
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(x - peak) for x in logs))


def rel_err(value, ref) -> float:
    """Relative error of a number or printed decimal against an exact reference."""
    ref = Fraction(ref)
    got = Fraction(Decimal(value)) if isinstance(value, str) else Fraction(value)
    if ref == 0:
        return 0.0 if got == 0 else math.inf
    return float(abs(got - ref) / ref)


def printed_log(text: str) -> float:
    """Natural log of a 'mantissa e exponent' value, valid far below float range."""
    if text == "0":
        return -math.inf
    mantissa, _, exponent = text.partition("e")
    return math.log(float(mantissa)) + int(exponent or 0) * math.log(10.0)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs, one pass of operations, and the checks of their outputs."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, size: str = "full"):
        self.size = self.sizes[size]
        self.max_rel_err = 0.0
        self._digests: dict[str, str] = {}

    def make_inputs(self, seed: int, directory: Path) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict) -> list[Op]:
        raise NotImplementedError

    def _record(self, err: float) -> None:
        self.max_rel_err = max(self.max_rel_err, err)

    def _scan(self, key: str, path, outcome: "Outcome") -> bool | None:
        """Count a CLI output file's lines and bytes into outcome, in small chunks.

        Returns None on the first sight of `key` (the caller checks every
        line), afterwards whether the file is byte-identical to that first one.
        """
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
                outcome.rows += chunk.count(b"\n")
                outcome.bytes += len(chunk)
        if key not in self._digests:
            self._digests[key] = digest.hexdigest()
            return None
        return self._digests[key] == digest.hexdigest()


class Verify(Workload):
    """`twinfock verify` plus seeded library reports with oracles, small states only."""

    name = "verify"
    sizes = {"full": {"max_n": 6, "max_m": 5}, "smoke": {"max_n": 2, "max_m": 2}}

    def make_inputs(self, seed: int, directory: Path) -> dict:
        rng = random.Random(seed)
        cases = []
        for n in range(1, self.size["max_n"] + 1):
            for m in range(1, self.size["max_m"] + 1):
                eta = rng.uniform(0.05, 0.95)
                if (n + m) % 2:
                    noise = NoiseRef(table=tuple(rng.uniform(0.0, 0.2) for _ in range(n)))
                else:
                    noise = NoiseRef(nbar=rng.uniform(0.1, 2.0))
                cases.append((n, m, eta, noise))
        argv = ["verify", "--max-n", str(self.size["max_n"]), "--max-m", str(self.size["max_m"])]
        return {"argv": argv, "cases": cases}

    def ops(self, inputs: dict) -> list[Op]:
        out = [Op("cli.verify", lambda: run_cli(inputs["argv"]), self._check_verify)]
        for n, m, eta, noise in inputs["cases"]:
            out.append(Op(
                f"detection_report({n},{m})",
                lambda n=n, m=m, eta=eta, noise=noise: detection.detection_report(
                    n, m, eta, noise.program_noise(m), include_oracle=True),
                lambda report, n=n, m=m, eta=eta, noise=noise: self._check_report(
                    report, n, m, eta, noise),
            ))
        return out

    def _check_verify(self, result) -> Outcome:
        code, out, err = result
        lines = out.splitlines()
        checks = [line for line in lines if "worst=" in line]
        problems = []
        if code != 0:
            problems.append(f"verify exited {code}: {err.strip()}")
        if not checks or not all(line.endswith("PASS") for line in checks):
            problems.append(f"verify check lines not all PASS: {checks}")
        if not lines or lines[-1] != "all checks passed":
            problems.append("verify did not report all checks passed")
        cases = (self.size["max_n"] + 1) * self.size["max_m"]
        return Outcome(problems, work=cases, rows=len(lines), bytes=len(out.encode()))

    def _check_report(self, report, n, m, eta, noise) -> Outcome:
        problems = []
        if abs(report.p_fa_oracle - report.p_fa_closed) > ORACLE_TOL:
            problems.append(f"P_FA closed {report.p_fa_closed} vs oracle {report.p_fa_oracle}")
        if abs(report.p_md_oracle - report.p_md_closed) > ORACLE_TOL:
            problems.append(f"P_MD closed {report.p_md_closed} vs oracle {report.p_md_oracle}")
        if rel_err(report.p_md_closed, (1 - Fraction(eta)) ** n) > 1e-12:
            problems.append(f"P_MD {report.p_md_closed} is not (1-eta)^N")
        err = rel_err(report.p_fa_closed, total_exact(n, m, noise))
        self._record(err)
        if err > EXACT_TOL:
            problems.append(f"P_FA closed off the exact value by {err:.3e}")
        return Outcome([f"N={n} M={m}: {p}" for p in problems], work=1)


class Sweep(Workload):
    """Closed-form curves: `pfa-curves`, `pmd-curve` and library reports, no states."""

    name = "sweep"
    #: CLI `total` values of the thermal sweep by (N, M), for the library check
    cli_totals: dict[tuple[int, int], str] = {}
    sizes = {
        "full": {"grid_n": (10, 100, 1000, 3000), "m_max": 100_000, "m_points": 50,
                 "exact_n": (5, 20, 60), "exact_m": 8, "library_n": (10, 100, 1000),
                 "library_every": 10, "table_len": 64},
        "smoke": {"grid_n": (10, 100), "m_max": 1000, "m_points": 10,
                  "exact_n": (5,), "exact_m": 3, "library_n": (10,),
                  "library_every": 5, "table_len": 8},
    }

    def make_inputs(self, seed: int, directory: Path) -> dict:
        rng = random.Random(seed)
        size = self.size
        table = tuple(rng.uniform(0.2, 1.0) * 0.5 ** k for k in range(1, size["table_len"] + 1))
        table_path = directory / "noise_table.txt"
        table_path.write_text("".join(f"{v!r}\n" for v in table))
        exact_m = sorted(rng.sample(range(1, EXACT_REGION - max(size["exact_n"]) + 1), size["exact_m"]))
        exact_nbar = rng.uniform(0.1, 2.0)
        grid = ["--m-max", str(size["m_max"]), "--m-points", str(size["m_points"])]
        n_flags = [arg for n in size["grid_n"] for arg in ("--n", str(n))]
        return {
            "thermal": NoiseRef(nbar=1.0),
            "table": NoiseRef(table=table),
            "exact_noise": NoiseRef(nbar=exact_nbar),
            "exact_m": exact_m,
            "argv_thermal": ["pfa-curves", *n_flags, *grid, "--noise", "thermal:1",
                             "--csv", str(directory / "pfa_thermal.csv")],
            "argv_table": ["pfa-curves", *n_flags, *grid, "--noise", f"table:{table_path}",
                           "--csv", str(directory / "pfa_table.csv")],
            "argv_exact": ["pfa-curves", *[a for n in size["exact_n"] for a in ("--n", str(n))],
                           "--m-list", ",".join(map(str, exact_m)),
                           "--noise", f"thermal:{exact_nbar!r}",
                           "--csv", str(directory / "pfa_exact.csv")],
            "argv_pmd": ["pmd-curve", "--csv", str(directory / "pmd.csv")],
            "library_eta": [rng.uniform(0.05, 0.95) for _ in size["library_n"]],
        }

    def _grid(self, n: int) -> list[int]:
        return log_grid(max(n, 1), self.size["m_max"], self.size["m_points"])

    def ops(self, inputs: dict) -> list[Op]:
        size = self.size
        exact_grid = lambda n: inputs["exact_m"]
        out = [
            Op("cli.pfa-curves thermal", lambda: run_cli(inputs["argv_thermal"]),
               lambda r: self._check_pfa(r, inputs["argv_thermal"][-1], size["grid_n"],
                                         self._grid, inputs["thermal"], "thermal")),
            Op("cli.pfa-curves table", lambda: run_cli(inputs["argv_table"]),
               lambda r: self._check_pfa(r, inputs["argv_table"][-1], size["grid_n"],
                                         self._grid, inputs["table"], "table")),
            Op("cli.pfa-curves exact", lambda: run_cli(inputs["argv_exact"]),
               lambda r: self._check_pfa(r, inputs["argv_exact"][-1], size["exact_n"],
                                         exact_grid, inputs["exact_noise"], "exact")),
            Op("cli.pmd-curve", lambda: run_cli(inputs["argv_pmd"]),
               lambda r: self._check_pmd(r, inputs["argv_pmd"][-1])),
        ]
        thermal = inputs["thermal"]
        for n, eta in zip(size["library_n"], inputs["library_eta"]):
            cells = self._grid(n)[::size["library_every"]]
            out.append(Op(
                f"detection_report N={n}",
                lambda n=n, eta=eta, cells=cells: [
                    detection.detection_report(n, m, eta, thermal.program_noise(m)) for m in cells],
                lambda reports, n=n, eta=eta, cells=cells: self._check_library(
                    reports, n, eta, cells, thermal),
            ))
        return out

    def _check_pfa(self, result, path, n_values, grid_for, noise: NoiseRef, key) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome([f"pfa-curves {key} exited {code}: {err.strip()}"])
        outcome = Outcome(work=sum(len(grid_for(n)) for n in set(n_values)))
        same = self._scan(key, path, outcome)
        if same is False:
            outcome.problems.append(f"pfa-curves {key} output differs from the first pass")
        elif same is None:
            with open(path) as handle:
                outcome.problems.extend(self._check_pfa_rows(handle, n_values, grid_for, noise, key))
        return outcome

    def _check_pfa_rows(self, handle, n_values, grid_for, noise: NoiseRef, key) -> list[str]:
        if handle.readline() != "series,N,M,value\n":
            return [f"pfa-curves {key}: bad header"]
        expected_rows = 0
        totals = {}
        for n in sorted(set(n_values)):
            for m in grid_for(n):
                series = sorted([f"term:{k}" for k in range(1, n + 1)]
                                + ["baseline:1_over_M", "baseline:N_over_M", "total"])
                expected_rows += len(series)
                exact = n + m <= EXACT_REGION
                for name in series:
                    row = handle.readline()
                    if not row.endswith("\n"):
                        return [f"pfa-curves {key}: output ends early at N={n} M={m}"]
                    got_name, got_n, got_m, value = row[:-1].split(",")
                    if (got_name, int(got_n), int(got_m)) != (name, n, m):
                        return [f"pfa-curves {key}: row {row!r} where {name},{n},{m} belongs"]
                    problem = self._check_value(name, n, m, value, exact, noise)
                    if problem:
                        return [f"pfa-curves {key} N={n} M={m} {name}: {problem}"]
                    if name == "total":
                        totals[(n, m)] = value
        extra = sum(1 for _ in handle)
        if extra:
            return [f"pfa-curves {key}: {extra} rows beyond the {expected_rows} expected"]
        if key == "thermal":
            self.cli_totals = totals
        return []

    def _check_value(self, name, n, m, value, exact, noise: NoiseRef) -> str | None:
        if name.startswith("baseline:"):
            ref = Fraction(1 if name == "baseline:1_over_M" else n, m)
            err = rel_err(value, ref)
            return None if err <= EXACT_TOL else f"{value} vs {float(ref)!r}"
        if exact:
            ref = total_exact(n, m, noise) if name == "total" else term_exact(n, m, int(name[5:]))
            err = rel_err(value, ref)
            if name == "total":
                self._record(err)
            return None if err <= EXACT_TOL else f"relative error {err:.3e}"
        ref_log = total_log(n, m, noise) if name == "total" else term_log(n, m, int(name[5:]))
        gap = abs(printed_log(value) - ref_log)
        return None if gap <= log_tol(n, m, ref_log) else f"log gap {gap:.3e}"

    def _check_pmd(self, result, path) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome([f"pmd-curve exited {code}: {err.strip()}"])
        outcome = Outcome()
        same = self._scan("pmd", path, outcome)
        if same is False:
            outcome.problems.append("pmd-curve output differs from the first pass")
        elif same is None:
            lines = Path(path).read_text().splitlines()
            expected = [(n, i) for n in (10, 100, 1000) for i in range(101)]
            if lines[0] != "N,eta,p_md" or len(lines) != len(expected) + 1:
                outcome.problems.append("pmd-curve: bad header or row count")
                return outcome
            for line, (n, i) in zip(lines[1:], expected):
                got_n, eta, p_md = line.split(",")
                eta, p_md = float(eta), float(p_md)
                if int(got_n) != n or abs(eta - i / 100) > 1e-12 or not math.isclose(
                        p_md, (1.0 - eta) ** n, rel_tol=1e-9, abs_tol=1e-300):
                    outcome.problems.append(f"pmd-curve: bad row {line!r}")
                    break
        return outcome

    def _check_library(self, reports, n, eta, cells, noise: NoiseRef) -> Outcome:
        problems = []
        for report, m in zip(reports, cells):
            p = report.p_fa_closed
            if n + m <= EXACT_REGION:
                err = rel_err(p, total_exact(n, m, noise))
                self._record(err)
                if err > EXACT_TOL:
                    problems.append(f"N={n} M={m}: P_FA {p!r} off the exact value by {err:.3e}")
            ref_log = total_log(n, m, noise)
            if ref_log > math.log(1e-290):
                gap = abs(math.log(p) - ref_log) if p > 0 else math.inf
                if gap > log_tol(n, m, ref_log):
                    problems.append(f"N={n} M={m}: P_FA {p!r} off the reference, log gap {gap:.3e}")
                cli = self.cli_totals.get((n, m))
                if cli is not None and abs(math.log(p) - printed_log(cli)) > log_tol(n, m, ref_log):
                    problems.append(f"N={n} M={m}: P_FA {p!r} does not match the CLI total {cli}")
            elif p > 1e-280:
                problems.append(f"N={n} M={m}: P_FA {p!r} where the reference is below 1e-290")
            if not math.isclose(report.p_md_closed, (1.0 - eta) ** n, rel_tol=1e-9, abs_tol=1e-300):
                problems.append(f"N={n}: P_MD {report.p_md_closed!r} is not (1-eta)^N")
        if len(reports) != len(cells):
            problems.append(f"N={n}: {len(reports)} reports for {len(cells)} cells")
        return Outcome(problems, work=len(cells))


class Bigstate(Workload):
    """A few states of about 10^5 amplitudes: dump, recursive build, loss mixture, oracles."""

    name = "bigstate"
    sizes = {
        "full": {"dump": (14, 8), "recursive": (11, 8), "loss": (7, 6)},
        "smoke": {"dump": (4, 3), "recursive": (3, 3), "loss": (3, 3)},
    }

    def make_inputs(self, seed: int, directory: Path) -> dict:
        rng = random.Random(seed)
        n, m = self.size["dump"]
        # eta away from 0 and 1 keeps every amplitude above the prune threshold,
        # so state sizes, and the cost of a pass, do not depend on the seed
        return {
            "argv_dump": ["state-dump", "--n", str(n), "--m", str(m),
                          "--out", str(directory / "state.dump")],
            "eta": rng.uniform(0.2, 0.8),
            "noise": NoiseRef(nbar=rng.uniform(0.1, 2.0)),
        }

    def ops(self, inputs: dict) -> list[Op]:
        rn, rm = self.size["recursive"]
        ln, lm = self.size["loss"]
        eta, noise = inputs["eta"], inputs["noise"]
        self._mixture = None

        def oracle_and_split():
            oracle = loss.beamsplitter_oracle(ln, lm, eta)
            return oracle, loss.split_by_environment(oracle)

        def pfa_pair():
            model = noise.program_noise(lm)
            return detection.p_fa_oracle(ln, lm, model), detection.p_fa_closed(ln, lm, model)

        return [
            Op("cli.state-dump", lambda: run_cli(inputs["argv_dump"]),
               lambda r: self._check_dump(r, inputs["argv_dump"][-1])),
            Op("pair_state_recursive", lambda: states.pair_state_recursive(rn, rm),
               lambda s: self._check_recursive(s, rn, rm)),
            Op("returned_mixture", lambda: loss.returned_mixture(ln, lm, eta),
               lambda mix: self._check_mixture(mix, ln, lm)),
            Op("split_by_environment", oracle_and_split,
               lambda r: self._check_split(r, ln, lm)),
            Op("p_fa_oracle", pfa_pair, lambda r: self._check_pfa(r, ln, lm, noise)),
        ]

    def _check_dump(self, result, path) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome([f"state-dump exited {code}: {err.strip()}"])
        n, m = self.size["dump"]
        outcome = Outcome()
        same = self._scan("dump", path, outcome)
        outcome.work = outcome.rows
        expected = math.comb(n + m - 1, n)
        if outcome.rows != expected:
            outcome.problems.append(f"state-dump wrote {outcome.rows} lines, expected {expected}")
        elif same is False:
            outcome.problems.append("state-dump output differs from the first pass")
        elif same is None:
            squares = []
            previous = None
            with open(path) as handle:
                for line in handle:
                    idler, signal, real, imag = line.rstrip("\n").split("\t")
                    counts = tuple(int(c) for c in idler.split(","))
                    if idler != signal or sum(counts) != n or len(counts) != m:
                        outcome.problems.append(f"state-dump: bad term {line!r}")
                        break
                    if previous is not None and counts >= previous:
                        outcome.problems.append("state-dump: terms not heaviest-first")
                        break
                    previous = counts
                    squares.append(float(real) ** 2 + float(imag) ** 2)
            norm = math.fsum(squares)
            if abs(norm - 1.0) > 1e-9:
                outcome.problems.append(f"state-dump: squared amplitudes sum to {norm!r}")
        return outcome

    def _check_recursive(self, state, n, m) -> Outcome:
        expected = math.comb(n + m - 1, n)
        problems = []
        if len(state) != expected:
            problems.append(f"pair_state_recursive has {len(state)} terms, expected {expected}")
        return Outcome(problems, work=len(state))

    def _check_mixture(self, mixture, n, m) -> Outcome:
        problems = []
        expected = math.comb(n + m, m)
        total = math.fsum(c.weight for c in mixture)
        if len(mixture) != expected:
            problems.append(f"returned_mixture has {len(mixture)} components, expected {expected}")
        if abs(total - 1.0) > ORACLE_TOL:
            problems.append(f"mixture weights sum to {total!r}")
        self._mixture = [(c.absorbed, c.weight) for c in mixture]
        return Outcome(problems, work=sum(len(c.state) for c in mixture))

    def _check_split(self, result, n, m) -> Outcome:
        oracle, split = result
        problems = []
        expected = math.comb(n + 2 * m - 1, n)
        if len(oracle) != expected:
            problems.append(f"beamsplitter oracle has {len(oracle)} terms, expected {expected}")
        mixture = self._mixture or []
        if [c.absorbed for c in split] != [label for label, _ in mixture]:
            problems.append("split_by_environment labels differ from returned_mixture")
        else:
            gap = max((abs(c.weight - w) for c, (_, w) in zip(split, mixture)), default=0.0)
            if gap > ORACLE_TOL:
                problems.append(f"split weights differ from mixture weights by {gap:.3e}")
        return Outcome(problems, work=len(oracle) + sum(len(c.state) for c in split))

    def _check_pfa(self, result, n, m, noise: NoiseRef) -> Outcome:
        oracle, closed = result
        problems = []
        if abs(oracle - closed) > ORACLE_TOL:
            problems.append(f"p_fa_oracle {oracle!r} vs p_fa_closed {closed!r}")
        exact = total_exact(n, m, noise)
        err = rel_err(oracle, exact)
        self._record(max(err, rel_err(closed, exact)))
        if err > EXACT_TOL:
            problems.append(f"p_fa_oracle off the exact value by {err:.3e}")
        return Outcome(problems)


WORKLOADS = {cls.name: cls for cls in (Verify, Sweep, Bigstate)}


def make_inputs(name: str, seed: int, directory, size: str = "full") -> dict:
    """Generate a workload's seeded inputs into `directory` (set-up work)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](size).make_inputs(seed, directory)
