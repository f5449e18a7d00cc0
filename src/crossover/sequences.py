"""Treatment sequences, crossover designs, and complete randomization.

A treatment sequence is a word over the two treatment labels A and B, one
letter per period: a ``str`` with checked letters, one key with its word.
A crossover design fixes the set of sequences actually run (with
per-sequence unit counts) together with a possibly larger scope of
sequences that estimands may reference.  Complete randomization permutes
a fixed multiset of sequence labels across units.

A seeded draw is ``np.random.default_rng(seed).permutation``; replication
r of a Monte Carlo study uses the stream ``[seed, r]``.  ``sample_code_rows``
gives a range of those streams bitwise by recomputing numpy's
``SeedSequence`` hash and PCG64 seeding on arrays, so it depends on both;
a test and a CI step compare it with ``default_rng``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import EnumerationSizeError, HorizonError

LETTERS = ("A", "B")
MAX_ENUMERATED_HORIZON = 16
MAX_ENUMERATED_ASSIGNMENTS = 1_000_000


class TreatmentSequence(str):
    """A word over {A, B}, one letter per period: a ``str`` with checked
    letters that equals, hashes and sorts as its word.

    Ordering is lexicographic with A < B, which fixes the column layout of
    every matrix in the package.  The empty word is allowed so that
    subsequence extraction can return it; design-level validation enforces
    positive length where required.
    """

    __slots__ = ()

    def __new__(cls, letters: str) -> "TreatmentSequence":
        bad = set(letters) - set(LETTERS)
        if bad:
            raise ValueError(f"sequence {letters!r} uses symbols outside {LETTERS}: {sorted(bad)}")
        return super().__new__(cls, letters)

    @property
    def letters(self) -> str:
        """The word as a plain string."""
        return str(self)

    def __repr__(self) -> str:
        return f"TreatmentSequence(letters={str(self)!r})"

    def letter(self, period: int) -> str:
        """Treatment label at a 1-based period."""
        if not 1 <= period <= len(self):
            raise IndexError(f"period {period} outside [1, {len(self)}]")
        return self[period - 1]

    def __add__(self, other: str) -> "TreatmentSequence":
        return TreatmentSequence(str(self) + other)


def as_sequence(value: "TreatmentSequence | str") -> TreatmentSequence:
    """Coerce a plain string like ``"ABA"`` into a TreatmentSequence."""
    if isinstance(value, TreatmentSequence):
        return value
    return TreatmentSequence(str(value))


def full_sequence_set(horizon: int) -> tuple[TreatmentSequence, ...]:
    """All 2^T sequences of the given length, in lexicographic order."""
    if not 1 <= horizon <= MAX_ENUMERATED_HORIZON:
        raise HorizonError(
            f"horizon {horizon} outside [1, {MAX_ENUMERATED_HORIZON}]; supply an "
            "explicit sequence scope for longer designs"
        )
    words = [""]
    for _ in range(horizon):
        words = [w + letter for w in words for letter in LETTERS]
    return tuple(TreatmentSequence(w) for w in words)


def subsequence(z: TreatmentSequence | str, t1: int, t2: int) -> TreatmentSequence:
    """Letters of ``z`` from period ``t1`` to ``t2`` inclusive (1-based).

    Returns the empty word when ``t1 > t2``.  Either index outside
    ``[1, len(z)]`` raises IndexError.
    """
    z = as_sequence(z)
    horizon = len(z)
    for t in (t1, t2):
        if not 1 <= t <= horizon:
            raise IndexError(f"period {t} outside [1, {horizon}]")
    return TreatmentSequence(z[t1 - 1 : t2])


def trailing_window(z: TreatmentSequence | str, period: int, order: int) -> TreatmentSequence:
    """The last ``order`` letters up to ``period``, clipped at the start.

    For ``period <= order`` this is the full prefix up to ``period``.
    """
    z = as_sequence(z)
    return subsequence(z, max(1, period - order + 1), period)


@dataclass(frozen=True)
class CrossoverDesign:
    """A crossover design: horizon, implemented sequences, and scope.

    ``counts`` maps each implemented sequence to its fixed unit count.
    ``scope`` is the ordered set of sequences that coefficients and
    estimands range over; it defaults to the full 2^T set and must contain
    every implemented sequence.
    """

    horizon: int
    counts: Mapping[TreatmentSequence, int]
    scope: tuple[TreatmentSequence, ...] = ()

    def __post_init__(self):
        if self.horizon < 1:
            raise HorizonError(f"horizon must be >= 1, got {self.horizon}")
        counts = {as_sequence(z): n for z, n in self.counts.items()}
        if not counts:
            raise ValueError("design implements no sequences")
        for z, n in counts.items():
            if len(z) != self.horizon:
                raise ValueError(f"sequence {z} has length {len(z)}, expected {self.horizon}")
            if not isinstance(n, numbers.Integral) and not (isinstance(n, numbers.Real) and float(n).is_integer()):
                raise ValueError(f"count for {z} must be a whole number, got {n!r}")
            if n < 1:
                raise ValueError(f"count for {z} must be positive, got {n}")
        if self.scope:
            scope = tuple(sorted(as_sequence(z) for z in set(self.scope)))
            for z in scope:
                if len(z) != self.horizon:
                    raise ValueError(f"scope sequence {z} has length {len(z)}, expected {self.horizon}")
        else:
            scope = full_sequence_set(self.horizon)
        missing = [z for z in counts if z not in set(scope)]
        if missing:
            raise ValueError(f"scope must contain implemented sequences; missing {missing}")
        object.__setattr__(self, "counts", {z: int(n) for z, n in sorted(counts.items())})
        object.__setattr__(self, "scope", scope)

    @property
    def observed(self) -> tuple[TreatmentSequence, ...]:
        return tuple(self.counts.keys())

    @property
    def n_units(self) -> int:
        return sum(self.counts.values())

    def count(self, z: TreatmentSequence | str) -> int:
        return self.counts.get(as_sequence(z), 0)


@dataclass(frozen=True)
class Assignment:
    """One realized unit-to-sequence labeling with design-fixed counts."""

    design: CrossoverDesign
    sequences: tuple[TreatmentSequence, ...]

    def __post_init__(self):
        tally: dict[TreatmentSequence, int] = {}
        for z in self.sequences:
            tally[z] = tally.get(z, 0) + 1
        if tally != self.design.counts:
            raise ValueError(
                f"assignment counts {tally} do not match design counts {self.design.counts}"
            )

    def __len__(self) -> int:
        return len(self.sequences)


def code_template(design: CrossoverDesign) -> np.ndarray:
    """Sequence codes of the design's units, listed sequence by sequence.

    Code ``i`` stands for ``design.observed[i]``; every assignment of the
    design is a permutation of this vector.
    """
    return np.repeat(np.arange(len(design.counts)), list(design.counts.values()))


def sample_codes(template: np.ndarray, seed) -> np.ndarray:
    """One complete randomization as a code vector: a uniform permutation
    of ``template`` drawn from ``np.random.default_rng(seed)``.  This is
    the reference for the ``[seed, r]`` streams ``sample_code_rows``
    draws a chunk at a time."""
    return template[np.random.default_rng(seed).permutation(template.size)]


def seed_words(seed) -> list[int]:
    """The 32-bit words numpy's ``SeedSequence`` reads from an integer
    seed, least significant first, with its errors: ValueError for a
    negative seed, TypeError for one that is not an integer."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be integer, got {seed!r}") from None
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_POOL = 4


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running constant of ``calls`` successive hashmix steps: call i
    xors in entry i and multiplies by entry i + 1."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values`` under len(constants) - 1
    successive steps, one per leading row of the result."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg_states(entropy: np.ndarray) -> tuple[list[int], list[int]]:
    """(state, inc) of ``PCG64(SeedSequence(words))`` for each column of a
    (W, C) uint32 array of entropy words: ``SeedSequence.mix_entropy`` into
    a pool of 4, ``generate_state(4, uint64)`` = [s_hi, s_lo, i_hi, i_lo],
    then ``pcg_setseq_128_srandom_r``.  Within one source word the mix
    steps into the other pool words are independent, so each runs as one
    array step."""
    tail = max(0, len(entropy) - _POOL)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * tail)
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    with np.errstate(over="ignore"):
        pool = _hashmix(pool, a[: _POOL + 1])
        step = _POOL
        for src in range(_POOL):
            others = [dst for dst in range(_POOL) if dst != src]
            pool[others] = _mix(pool[others], _hashmix(pool[src], a[step : step + _POOL]))
            step += _POOL - 1
        for word in entropy[_POOL:]:
            pool = _mix(pool, _hashmix(word, a[step : step + _POOL + 1]))
            step += _POOL
        halves = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    halves = halves.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (halves[0::2] | halves[1::2] << np.uint64(32)).tolist()
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(i_hi, i_lo)]
    states = [
        ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        for inc, hi, lo in zip(incs, s_hi, s_lo)
    ]
    return states, incs


def sample_code_rows(template: np.ndarray, seed, start: int, stop: int) -> np.ndarray:
    """Rows ``sample_codes(template, [seed, r])`` for r in
    ``range(start, stop)``, bitwise, in the template's dtype.  The
    ``SeedSequence`` hash runs once over the range on arrays; each row's
    PCG64 state is set on one reused generator, which shuffles ``arange(N)``
    as ``permutation`` does.  r must lie below 2^32, in one entropy word."""
    words = seed_words(seed)
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"stream indices r in [{start}, {stop}) must lie in [0, 2**32]")
    entropy = np.empty((len(words) + 1, stop - start), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop)
    states, incs = _pcg_states(entropy)
    bit_generator = np.random.PCG64(0)
    shuffle = np.random.Generator(bit_generator).shuffle
    pcg = {}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    perms = np.empty((stop - start, template.size), dtype=np.int64)
    perms[:] = np.arange(template.size)
    for row, pcg["state"], pcg["inc"] in zip(perms, states, incs):
        bit_generator.state = full_state
        shuffle(row)
    return template[perms]


def _sequences_of(design: CrossoverDesign, codes: np.ndarray) -> tuple[TreatmentSequence, ...]:
    return tuple(map(design.observed.__getitem__, codes.tolist()))


def sample_assignment(design: CrossoverDesign, seed) -> Assignment:
    """Draw one complete randomization: a uniform permutation of labels.

    ``seed`` may be an int, a sequence of ints, or a numpy Generator;
    the same seed always yields the same assignment.
    """
    codes = sample_codes(code_template(design), seed)
    return Assignment(design, _sequences_of(design, codes))


def n_assignments(design: CrossoverDesign) -> int:
    """Number of distinct assignments: N! / prod_z N_z!."""
    total = math.factorial(design.n_units)
    for n in design.counts.values():
        total //= math.factorial(n)
    return total


def enumeration_walk(design: CrossoverDesign) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lexicographic walk over every distinct assignment, one (prefix,
    code) step per unit: row j of the next level is row ``prefix[j]`` of the
    last extended by ``code[j]``, each prefix by every code it has units left
    for, in increasing order.  The cap is checked before the first step."""
    total = n_assignments(design)
    if total > MAX_ENUMERATED_ASSIGNMENTS:
        raise EnumerationSizeError(
            f"{total} assignments exceed the enumeration cap of {MAX_ENUMERATED_ASSIGNMENTS}"
        )
    counts = list(design.counts.values())
    return _walk(np.array([counts], dtype=np.min_scalar_type(max(counts))), design.n_units)


def _walk(remaining: np.ndarray, n_units: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for _ in range(n_units):
        prefix, code = np.divmod(np.flatnonzero(remaining), remaining.shape[1])
        yield prefix, code
        remaining = np.take(remaining, prefix, axis=0)
        remaining.reshape(-1)[np.arange(0, remaining.size, remaining.shape[1]) + code] -= 1


def enumerate_codes(design: CrossoverDesign) -> np.ndarray:
    """Every distinct assignment as one row of sequence codes, in
    lexicographic order: the (A, N) array, A = ``n_assignments``, that
    ``enumeration_walk`` builds column by column.  Refuses designs whose
    assignment count exceeds the enumeration cap."""
    dtype = np.min_scalar_type(len(design.counts))
    rows = np.zeros((1, 0), dtype=dtype)
    for prefix, code in enumeration_walk(design):
        rows = np.hstack([rows[prefix], code.astype(dtype)[:, None]])
    return rows


def enumerate_assignments(design: CrossoverDesign) -> Iterator[Assignment]:
    """Yield every distinct assignment exactly once, in lexicographic order.

    Refuses designs whose assignment count exceeds the enumeration cap.
    """
    codes = enumerate_codes(design)
    return (Assignment(design, _sequences_of(design, row)) for row in codes)


def _line_integer(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be an integer, got {text!r}") from None


def design_from_text(text: str) -> CrossoverDesign:
    """Parse a design description.

    Format: one ``T <horizon>`` line followed by ``<sequence> <count>``
    lines.  Blank lines and ``#`` comments are ignored.  ``T = 2`` is
    accepted as a synonym for ``T 2``.
    """
    horizon: int | None = None
    counts: dict[TreatmentSequence, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace("=", " ").split()
        if fields[0].upper() == "T":
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected 'T <horizon>', got {raw!r}")
            horizon = _line_integer(fields[1], lineno, "horizon")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<sequence> <count>', got {raw!r}")
        try:
            z = as_sequence(fields[0])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if z in counts:
            raise ValueError(f"line {lineno}: duplicate sequence {z}")
        counts[z] = _line_integer(fields[1], lineno, f"count of {z}")
    if horizon is None:
        raise ValueError("design file is missing the 'T <horizon>' line")
    return CrossoverDesign(horizon, counts)


def design_to_text(design: CrossoverDesign) -> str:
    lines = [f"T {design.horizon}"]
    lines.extend(f"{z} {n}" for z, n in design.counts.items())
    return "\n".join(lines) + "\n"
