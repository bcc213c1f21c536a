"""Sparse photon-number states over labeled mode registers.

States live on one to three registers (idler, signal, background), each
holding the same number of modes.  Amplitudes sit in a dict keyed by the
packed per-mode counts, so memory follows the number of occupied basis
arrangements rather than the Hilbert-space dimension.  Ladder operators,
pair creation and linear combinations return new states; a constructed state
is treated as immutable, which makes concurrent use of distinct states safe.

The public constructors validate their registers and counts: SparseState(...)
makes an empty state, from_terms packs given terms.  The operations here
build their results through SparseState._adopt instead, which takes
ownership of a freshly built dict without copying it or validating again;
the caller must never touch that dict afterwards, except to scale the new
state in place (_scale_in_place) before handing it out.
"""

import itertools
import math
import struct
from collections.abc import Iterable, Iterator, Sequence

IDLER = "I"
SIGNAL = "S"
BACKGROUND = "B"
REGISTER_ORDER = (IDLER, SIGNAL, BACKGROUND)

#: Hard ceiling on the number of stored amplitudes in any single state.
AMPLITUDE_CAP = 10_000_000
#: Ceiling on total packed key bytes for a materialized state.  Catches
#: states that respect the amplitude cap but would exhaust memory through
#: very wide keys (many modes per register).
KEY_BYTES_BUDGET = 200_000_000

#: The most photons one mode of a packed key holds.
MAX_MODE_COUNT = 0xFFFF


class AmplitudeCapError(RuntimeError):
    """An operation would materialize more state than the configured caps allow."""


def _check_size(label: str, terms: int, modes: int, registers: int) -> None:
    if terms > AMPLITUDE_CAP:
        raise AmplitudeCapError(f"{label} needs {terms} amplitudes (cap {AMPLITUDE_CAP})")
    if terms * registers * modes * 2 > KEY_BYTES_BUDGET:
        raise AmplitudeCapError(
            f"{label} of {terms} terms x {modes} modes x {registers} "
            f"registers exceeds the key storage budget"
        )


def log_sector_size(photons: int, parts: int) -> float:
    """Natural log of C(photons + parts - 1, photons), from lgamma below 2^53 photons + parts.

    Past that, where lgamma's operands lose digits or overflow, it is the lower
    bound k log(top / k) of log C(top, k), at least 36 and so past every cap;
    math.log takes integers of any size.  Inf when even the bound overflows.
    """
    top = photons + parts - 1
    smaller = min(photons, parts - 1)
    if smaller == 0:
        return 0.0
    if top < 2 ** 53:
        return math.lgamma(photons + parts) - math.lgamma(photons + 1) - math.lgamma(parts)
    try:
        return float(smaller) * (math.log(top) - math.log(smaller))
    except OverflowError:
        return math.inf


def check_counts(photons: int, modes: int) -> None:
    """ValueError unless photons >= 0 and modes >= 1, checked in that order."""
    if photons < 0:
        raise ValueError("photons must be non-negative")
    if modes < 1:
        raise ValueError("modes must be at least 1")


def check_sector_size(label: str, photons: int, parts: int, modes: int, registers: int) -> int:
    """Term count C(photons + parts - 1, photons) of photons spread over parts modes.

    Raises AmplitudeCapError when a state with that many terms, each over
    `registers` registers of `modes` modes, would break the caps, and
    ValueError on counts that check_counts refuses or past a key's per-mode
    count.  The log_sector_size estimate refuses hostile sizes before the
    exact binomial is built, so a refusal stays cheap however large the request.
    """
    check_counts(photons, parts)
    log_terms = log_sector_size(photons, parts)
    # the margin of one covers lgamma's rounding; sizes within it get the exact test
    if log_terms > math.log(AMPLITUDE_CAP) + 1.0:
        raise AmplitudeCapError(
            f"{label} needs about 10^{log_terms / math.log(10):.1f} amplitudes "
            f"(cap {AMPLITUDE_CAP})"
        )
    terms = math.comb(photons + parts - 1, photons)
    _check_size(label, terms, modes, registers)
    if photons > MAX_MODE_COUNT:  # all of them may share one mode
        raise ValueError(f"{label} may put {photons} photons in one mode "
                         f"(at most {MAX_MODE_COUNT})")
    return terms


class SparseState:
    """Sparse state vector over one or more equally sized mode registers.

    Basis keys pack the per-mode counts of every register as big-endian
    uint16 words, idler register first, so byte order of keys matches
    lexicographic order of the concatenated count vectors.  Per-mode counts
    are limited to 65535, far above anything reachable at desk scale.
    Keys stay bytes: an int hashes as its value mod 2^61 - 1, which folds
    the 16-bit words onto each other, so the 80,200 keys of
    pair_state_direct(2, 400) would share 1,891 hashes.

    SparseState(...) validates the layout of an empty state; _adopt trusts a
    layout taken from a valid state and owns the dict it is handed, which
    nothing else may mutate afterwards.
    """

    __slots__ = ("modes", "registers", "_amps")

    def __init__(self, modes: int, registers: Sequence[str]):
        registers = tuple(registers)
        if modes < 1:
            raise ValueError("modes must be at least 1")
        canonical = tuple(r for r in REGISTER_ORDER if r in registers)
        if not registers or registers != canonical or len(set(registers)) != len(registers):
            raise ValueError(f"registers must be a non-empty ordered subset of {REGISTER_ORDER}")
        self.modes = modes
        self.registers = registers
        self._amps = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _adopt(cls, modes: int, registers: tuple, amplitudes: dict) -> "SparseState":
        """Trusted constructor: keeps the given dict as the state's own, unchecked and uncopied.

        For a layout already validated and a dict that no one else holds or
        will mutate; caps are the caller's to check.
        """
        state = cls.__new__(cls)
        state.modes = modes
        state.registers = registers
        state._amps = amplitudes
        return state

    @classmethod
    def _from_flat(cls, modes: int, registers: tuple, terms: Iterable) -> "SparseState":
        """Trusted build from (every register's counts in one tuple, complex amplitude) pairs.

        One precompiled Struct packs all the keys; a count outside [0, 65535]
        raises ValueError and a state past the caps AmplitudeCapError.
        """
        pack = struct.Struct(f">{modes * len(registers)}H").pack
        try:
            amplitudes = {pack(*counts): amp for counts, amp in terms}
        except struct.error:
            raise ValueError(f"mode counts must be integers in [0, {MAX_MODE_COUNT}]") from None
        state = cls._adopt(modes, registers, amplitudes)
        state._check_caps()
        return state

    @classmethod
    def vacuum(cls, modes: int, registers: Sequence[str]) -> "SparseState":
        """All-zero occupation with amplitude one; its key of zero words is written directly,
        after the caps are checked."""
        registers = cls(modes, registers).registers  # validates the layout
        _check_size("state", 1, modes, len(registers))
        return cls._adopt(modes, registers, {bytes(2 * modes * len(registers)): 1 + 0j})

    @classmethod
    def basis(cls, modes: int, registers: Sequence[str], counts) -> "SparseState":
        """Single basis arrangement with amplitude one."""
        return cls.from_terms(modes, registers, [(counts, 1.0)])

    @classmethod
    def from_terms(cls, modes: int, registers: Sequence[str], terms: Iterable) -> "SparseState":
        """Build a state from (per-register count tuples, amplitude) pairs.

        Checks that each term has one count vector of `modes` counts per
        register, then packs the keys as _from_flat does; ValueError otherwise.
        """
        registers = cls(modes, registers).registers  # validates the layout

        def flat(counts) -> tuple:
            if len(counts) != len(registers):
                raise ValueError(f"expected counts for registers {registers}")
            if any(len(vector) != modes for vector in counts):
                raise ValueError(f"each register needs {modes} mode counts")
            return tuple(itertools.chain.from_iterable(counts))

        return cls._from_flat(modes, registers, ((flat(counts), complex(amp)) for counts, amp in terms))

    # -- key packing -------------------------------------------------------

    def _unpack(self, key: bytes) -> tuple[tuple[int, ...], ...]:
        flat = struct.unpack(f">{len(key) // 2}H", key)
        m = self.modes
        return tuple(flat[i * m:(i + 1) * m] for i in range(len(self.registers)))

    def _offset(self, register: str, mode: int) -> int:
        try:
            r = self.registers.index(register)
        except ValueError:
            raise ValueError(f"register {register!r} not present in {self.registers}") from None
        if not 0 <= mode < self.modes:
            raise ValueError(f"mode index {mode} out of range for {self.modes} modes")
        return 2 * (r * self.modes + mode)

    def _check_caps(self) -> None:
        _check_size("state", len(self._amps), self.modes, len(self.registers))

    # -- ladder operators ----------------------------------------------------

    def create(self, register: str, mode: int) -> "SparseState":
        """Raise the photon count of one mode, scaling each term by sqrt(n + 1)."""
        return self._ladder(register, mode, 1)

    def annihilate(self, register: str, mode: int) -> "SparseState":
        """Lower the photon count of one mode, scaling by sqrt(n); empty modes vanish."""
        return self._ladder(register, mode, -1)

    def _ladder(self, register: str, mode: int, step: int) -> "SparseState":
        """Move one mode's count of each term by step = +-1 to n, scaling by the root of
        the larger count, n or n - step; a count 0 vanishes going down, 65535 overflows up."""
        off, back = self._offset(register, mode), max(-step, 0)  # n + back is the larger count
        edge = -1 if step < 0 else MAX_MODE_COUNT + 1  # the one count n that no key holds
        out = {}
        for key, amp in self._amps.items():
            n = int.from_bytes(key[off:off + 2], "big") + step
            if n == edge:
                if step < 0:
                    continue
                raise ValueError("mode count overflow")
            out[key[:off] + n.to_bytes(2, "big") + key[off + 2:]] = amp * math.sqrt(n + back)
        return SparseState._adopt(self.modes, self.registers, out)

    def create_pairs(self, scale: float = 1.0) -> "SparseState":
        """scale * sum_i a+_{I,i} a+_{S,i} by its definition; cap-checked as combine does.

        For each mode i in order, create(I, i).create(S, i) adds its amplitudes
        into one dict, which is then scaled in place and its exact zeros dropped,
        so for a finite nonzero scale the amplitudes and key order equal
        combine((1.0, create(I, i).create(S, i)) for i).scaled(scale).  Beside
        its input and its result it holds one mode's two ladder steps, about two
        copies of its input.  ValueError when a mode already holds 65535 photons.
        """
        acc: dict[bytes, complex] = {}
        for mode in range(self.modes):
            for key, amp in self.create(IDLER, mode).create(SIGNAL, mode)._amps.items():
                acc[key] = acc.get(key, 0j) + amp
        result = SparseState._adopt(self.modes, self.registers, acc)._scale_in_place(scale)
        result._check_caps()
        return result

    # -- linear algebra ------------------------------------------------------

    def _check_compatible(self, other: "SparseState") -> None:
        if self.modes != other.modes or self.registers != other.registers:
            raise ValueError(
                f"incompatible states: {self.registers} x {self.modes} modes vs "
                f"{other.registers} x {other.modes} modes"
            )

    def inner(self, other: "SparseState") -> complex:
        """Inner product <self|other>, conjugate-linear in self."""
        self._check_compatible(other)
        if len(self._amps) <= len(other._amps):
            return complex(sum(
                amp.conjugate() * other._amps[key]
                for key, amp in self._amps.items() if key in other._amps
            ))
        return complex(sum(
            self._amps[key].conjugate() * amp
            for key, amp in other._amps.items() if key in self._amps
        ))

    def norm_sq(self) -> float:
        return sum(abs(amp) ** 2 for amp in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def scaled(self, coeff: complex) -> "SparseState":
        """Scalar multiple: the values and key order that combine([(coeff, self)]) gives."""
        coeff = complex(coeff)
        # combine skips a zero coefficient, NaN amplitudes and all
        amplitudes = dict(self._amps) if coeff != 0 else {}
        return SparseState._adopt(self.modes, self.registers, amplitudes)._scale_in_place(coeff)

    def _scale_in_place(self, coeff: complex) -> "SparseState":
        """Multiply every amplitude by coeff in this state's own dict, dropping exact zeros.

        Only for a state its caller has just built and not yet handed out;
        the key order of the surviving terms is kept.  Returns the state.
        """
        coeff = complex(coeff)
        amplitudes, zeros = self._amps, []
        for key, amp in amplitudes.items():
            amp = coeff * amp
            if amp != 0:
                amplitudes[key] = amp
            else:
                zeros.append(key)
        for key in zeros:
            del amplitudes[key]
        return self

    def max_abs(self) -> float:
        """Largest amplitude magnitude; zero for the empty state, NaN if any amplitude is NaN."""
        return nan_max(map(abs, self._amps.values()))

    def max_abs_diff(self, other: "SparseState") -> float:
        """Largest |self - other| amplitude, compared key by key; no difference state is built.

        Returns what combine([(1, self), (-1, other)]).max_abs() returns: every
        gap counts, however small.  NaN when any compared amplitude is NaN.
        """
        self._check_compatible(other)
        mine, theirs = self._amps, other._amps
        gaps = [abs(amp - theirs.get(key, 0j)) for key, amp in mine.items()]
        gaps += [abs(amp) for key, amp in theirs.items() if key not in mine]
        return nan_max(gaps)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        return f"SparseState(modes={self.modes}, registers={self.registers}, terms={len(self._amps)})"

    def terms(self) -> Iterator[tuple[tuple[tuple[int, ...], ...], complex]]:
        """Iterate (per-register count tuples, amplitude) pairs, unordered."""
        for key, amp in self._amps.items():
            yield self._unpack(key), amp

    def register_totals(self, register: str) -> Iterator[tuple[int, complex]]:
        """Iterate (photons in the register, amplitude) pairs in storage order.

        The total is read from the register's packed words; no key is unpacked
        into per-register tuples.
        """
        start = self._offset(register, 0)
        stop = start + 2 * self.modes
        unpack = struct.Struct(f">{self.modes}H").unpack
        for key, amp in self._amps.items():
            yield sum(unpack(key[start:stop])), amp

    def amplitude(self, counts) -> complex:
        """Amplitude of one basis arrangement, its key packed as from_terms packs; zero when absent."""
        (key,) = SparseState.from_terms(self.modes, self.registers, [(counts, 0)])._amps
        return self._amps.get(key, 0j)

    def split_last_register(self) -> dict[tuple[int, ...], "SparseState"]:
        """Map each count tuple of the last register to the unnormalized state of its terms.

        The terms' keys are cut at the register boundary, not unpacked and packed
        again.  Each state is new and held by the caller alone, who may scale it
        in place.
        """
        if len(self.registers) < 2:
            raise ValueError("splitting off the last register needs at least two registers")
        cut = 2 * self.modes * (len(self.registers) - 1)
        groups: dict[bytes, dict] = {}
        for key, amp in self._amps.items():
            group = groups.get(tail := key[cut:])
            if group is None:
                group = groups[tail] = {}
            group[key[:cut]] = amp
        unpack, rest = struct.Struct(f">{self.modes}H").unpack, self.registers[:-1]
        return {unpack(tail): SparseState._adopt(self.modes, rest, amps)
                for tail, amps in groups.items()}


def nan_max(values: Iterable[float]) -> float:
    """Largest of non-negative values, 0.0 when there are none, NaN when any is NaN.

    max() alone keeps or drops a NaN depending on where it stands; the sum of
    non-negative values is NaN only when one of them is.
    """
    values = list(values)
    if math.isnan(sum(values)):
        return math.nan
    return max(values, default=0.0)


def combine(terms: Iterable[tuple[complex, SparseState]]) -> SparseState:
    """Linear combination sum_i c_i |state_i|.

    An amplitude that sums to exactly zero is dropped and every other one
    kept, NaN included; the result must respect the amplitude cap or
    AmplitudeCapError is raised.
    """
    terms = [(complex(c), s) for c, s in terms]
    if not terms:
        raise ValueError("combine needs at least one term")
    first = terms[0][1]
    acc: dict[bytes, complex] = {}
    for coeff, state in terms:
        first._check_compatible(state)
        if coeff == 0:
            continue
        for key, amp in state._amps.items():
            acc[key] = acc.get(key, 0j) + coeff * amp
    nonzero = {key: amp for key, amp in acc.items() if amp != 0}
    result = SparseState._adopt(first.modes, first.registers, nonzero)
    result._check_caps()
    return result


def orthonormality_residual(states: Sequence[SparseState]) -> float:
    """Largest |<a|b> - delta_ab| over every pair of the given states; NaN if any is NaN.

    Each basis key is indexed to the states holding it, so only pairs that
    share a key are multiplied; every other pair overlaps in an exact zero,
    which is what inner() returns for it.  Cost follows the total amplitude
    count rather than the number of pairs.
    """
    residuals = []
    # a key held by one state maps to its index; a list starts at the second holder
    holders: dict[bytes, int | list[int]] = {}
    overlaps: dict[tuple[int, int], complex] = {}
    for i, state in enumerate(states):
        states[0]._check_compatible(state)
        residuals.append(abs(state.inner(state) - 1.0))
        for key, amp in state._amps.items():
            earlier = holders.setdefault(key, i)
            if earlier == i:
                continue
            if isinstance(earlier, int):
                earlier = holders[key] = [earlier]
            for j in earlier:
                overlaps[j, i] = overlaps.get((j, i), 0j) + states[j]._amps[key].conjugate() * amp
            earlier.append(i)
    return nan_max(residuals + list(map(abs, overlaps.values())))
