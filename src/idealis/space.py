"""Cylinder algebra on Cantor space, plus the coding bijections, the
matrix coding of parameters, ``Record``: the frozen-record base of every
value class in the package, ``RowParam``: a matrix-coded parameter
whose rows are read stage by stage through one per-row state memo
(``state``), shared by the null and F_sigma parameters, and
``FsigmaParam``: the F_sigma row parameter and its one three-valued
evaluator (``member``), shared by the meager and closed-null
constructions.

Finite data stands in for infinite objects throughout: a 0/1 word denotes
the cylinder of all sequences extending it, a tuple of naturals is the
prefix of an element of Baire space, and a clopen set is a finite union of
same-level cylinders kept in canonical least-level form so that equality,
hashing and enumeration order are deterministic.  A clopen set's measure
is exact: the ``Fraction`` of its word count over 2^level, which is in
lowest terms like every ``Fraction``.  All values are immutable and every
operation is pure, so sharing across threads is unrestricted.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache
from math import isqrt
from operator import attrgetter

from .errors import IndexOutOfRange, InsufficientPrefix, LevelCapExceeded

#: Finite prefix of an element of omega^omega.
BairePrefix = tuple
#: Finite 0/1 word; "" denotes the whole space.
BitWord = str

DEFAULT_MAX_LEVEL = 12

CODING = "cantor-e1"

#: `seq_code` refuses a code longer than this; each entry roughly squares
#: the code, so the work and the answer's size are bounded too
SEQ_CODE_BITS = 1 << 20


def max_level() -> int:
    """Current working-level cap (env IDEALIS_MAX_LEVEL, default 12)."""
    return int(os.environ.get("IDEALIS_MAX_LEVEL", str(DEFAULT_MAX_LEVEL)))


def _require_level(level: int, cap: int | None = None) -> None:
    """Raise LevelCapExceeded past `cap` (default: the current max_level())."""
    if cap is None:
        cap = max_level()
    if level > cap:
        raise LevelCapExceeded(level, cap)


def _naturals(value, many: bool = False, what: str = "parameter entries"):
    """A natural read from JSON, or with `many` the tuple of an array of
    them.  A bool, float, string or null where a natural belongs raises
    TypeError, and a negative int IndexOutOfRange, "`what` are naturals"."""
    values = tuple(value) if many else (value,)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} are naturals, not {type(v).__name__}")
        if v < 0:
            raise IndexOutOfRange(f"{what} are naturals")
    return values if many else value


class Record:
    """Base of the package's immutable value classes.

    A subclass names its compared fields once, in order, in ``_fields``;
    the inherited ``__init__`` takes them positionally, and a subclass
    that checks its arguments does so in its own ``__init__`` before
    calling this one.  Equality holds only between instances of one class
    with equal fields, the hash is the hash of the field tuple, and
    ``repr`` lists the fields as ``Name(field=value, ...)``.  Every
    attribute assignment or deletion on an instance raises
    AttributeError, so a field, once set here, never changes.  An
    attribute set in ``__init__`` outside ``_fields`` takes no part in
    equality, hashing or ``repr``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # the field tuple of an instance; attrgetter answers a tuple only
        # for two or more names
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Tri(Enum):
    """Three-valued stage answer.

    Refining a stage bound may resolve UNKNOWN, but never swaps HOLDS and
    FAILS; every evaluator in this package is written against that
    contract.
    """

    HOLDS = "HoldsAtStage"
    FAILS = "FailsAtStage"
    UNKNOWN = "InsufficientData"


def tri_or(a: Tri, b: Tri) -> Tri:
    """Kleene disjunction: holds with one witness, fails only outright."""
    if a is Tri.HOLDS or b is Tri.HOLDS:
        return Tri.HOLDS
    if a is Tri.FAILS and b is Tri.FAILS:
        return Tri.FAILS
    return Tri.UNKNOWN


def word_index(word: BitWord) -> int:
    """Numeric value of a word; doubles as its lexicographic rank."""
    return int(word, 2) if word else 0


def index_word(index: int, level: int) -> BitWord:
    return format(index, f"0{level}b") if level else ""


def check_word(word: BitWord, level: int) -> None:
    """Raise ValueError unless `word` is a 0/1 word of length `level`."""
    if len(word) != level or (word and set(word) - {"0", "1"}):
        raise ValueError(f"bad word {word!r} for level {level}")


def _reducible(level: int, mask: int) -> bool:
    # A union of level-`level` cylinders drops to level-1 exactly when the
    # two children of every shorter word are jointly in or jointly out;
    # `even` holds the even-numbered bit of each pair of children.  The
    # test reads in-range bits only, so a mask out of range is left for
    # the constructor to reject.
    if level == 0 or mask < 0 or mask.bit_length() > 1 << level:
        return False
    even = ((1 << (1 << level)) - 1) // 3
    return mask & even == mask >> 1 & even


@lru_cache(maxsize=1 << 8)
def _spread_masks(level: int, lift: int) -> tuple[int, ...]:
    """Masks for moving bit i of a level-`level` mask to bit i * 2^lift.

    Entry j keeps the groups of 2^j source bits at their spread places:
    ones at [g 2^j s, g 2^j s + 2^j) for every g < 2^(level - j), with
    s = 2^lift.  Entry `level` is all ones over the 2^level source bits.
    """
    s = 1 << lift
    out = []
    for j in range(level + 1):
        width = 1 << j
        period = width * s
        # ones at the start of every period: the base-2^period repunit
        starts = ((1 << (period << (level - j))) - 1) // ((1 << period) - 1)
        out.append(((1 << width) - 1) * starts)
    return tuple(out)


def _reduce_once(level: int, mask: int) -> tuple[int, int]:
    # keep the even-numbered bit of each pair of children: bit 2i goes
    # to bit i, undoing the spread of a level - 1 mask by one level
    masks = _spread_masks(level - 1, 1)
    mask &= masks[0]
    for j in range(level - 1):
        mask = (mask | mask >> (1 << j)) & masks[j + 1]
    return level - 1, mask


class Clopen(Record):
    """Canonical finite union of same-level cylinders of Cantor space.

    ``mask`` has bit i set exactly when the word of lexicographic rank i
    at ``level`` belongs to the set.  The empty set is (0, 0) and the
    whole space is (0, 1); the constructor rejects representations that
    could be written at a smaller level.
    """

    __slots__ = _fields = ("level", "mask")

    def __init__(self, level: int, mask: int):
        if level < 0:
            raise ValueError("negative level")
        if not 0 <= mask < (1 << (1 << level)):
            raise ValueError("mask out of range for level")
        if _reducible(level, mask):
            raise ValueError("non-canonical clopen representation")
        _set_level(self, level)
        _set_mask(self, mask)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def empty() -> "Clopen":
        return Clopen(0, 0)

    @staticmethod
    def full() -> "Clopen":
        return Clopen(0, 1)

    @staticmethod
    def from_mask(level: int, mask: int) -> "Clopen":
        while level > 0 and _reducible(level, mask):
            level, mask = _reduce_once(level, mask)
        return Clopen(level, mask)

    @staticmethod
    def from_words(level: int, words: Iterable[BitWord]) -> "Clopen":
        mask = 0
        for w in words:
            check_word(w, level)
            mask |= 1 << word_index(w)
        return Clopen.from_mask(level, mask)

    @staticmethod
    def cylinder(word: BitWord) -> "Clopen":
        return Clopen.from_words(len(word), [word])

    # -- views ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def words(self) -> list[BitWord]:
        if self.level == 0:
            return [""] * self.mask
        # bit i of the mask is character i of the reversed binary string,
        # so `find` steps from one 1 bit to the next
        bits, fmt = format(self.mask, "b")[::-1], f"0{self.level}b"
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(format(i, fmt))
            i = bits.find("1", i + 1)
        return out

    def word_count(self) -> int:
        return self.mask.bit_count()

    def measure(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.mask.bit_count(), 1 << self.level)

    def mask_at(self, level: int) -> int:
        """The word mask of this set lifted to a deeper level."""
        if level < self.level:
            raise ValueError("cannot lift to a shallower level")
        if level == self.level:
            return self.mask
        # spread bit i to bit i * 2^lift, halving the groups of bits
        # moved each round, then fill each word's block of 2^lift children
        lift = level - self.level
        masks = _spread_masks(self.level, lift)
        gap = (1 << lift) - 1
        mask = self.mask
        for j in range(self.level - 1, -1, -1):
            mask = (mask | mask << (gap << j)) & masks[j]
        return mask * ((1 << (1 << lift)) - 1)

    def inside_masks(self) -> list[int]:
        """Entry l, for l = 0 .. level: the mask of the level-l cylinders
        that lie wholly inside this set.

        Entry ``level`` is the set's own mask.  A shallower cylinder is
        inside when both its children are, so each entry is one
        ``_reduce_once`` of ``mask & mask >> 1`` from the entry below it:
        the AND lands on each pair's even bit, which the reduction keeps.
        """
        out = [self.mask]
        for lvl in range(self.level, 0, -1):
            mask = out[-1]
            out.append(_reduce_once(lvl, mask & mask >> 1)[1])
        return out[::-1]

    # -- boolean algebra -------------------------------------------------

    def union(self, other: "Clopen") -> "Clopen":
        """The union; an operand that holds the other is returned as is."""
        lev = max(self.level, other.level)
        mask = self.mask_at(lev) | other.mask_at(lev)
        if lev == self.level and mask == self.mask:
            return self
        if lev == other.level and mask == other.mask:
            return other
        return Clopen.from_mask(lev, mask)

    def intersect(self, other: "Clopen") -> "Clopen":
        lev = max(self.level, other.level)
        return Clopen.from_mask(lev, self.mask_at(lev) & other.mask_at(lev))

    def complement(self) -> "Clopen":
        all_words = (1 << (1 << self.level)) - 1
        return Clopen.from_mask(self.level, self.mask ^ all_words)

    def subset(self, other: "Clopen") -> bool:
        lev = max(self.level, other.level)
        return self.mask_at(lev) & ~other.mask_at(lev) == 0

    def meets(self, other: "Clopen") -> bool:
        lev = max(self.level, other.level)
        return self.mask_at(lev) & other.mask_at(lev) != 0

    # -- cylinder queries -------------------------------------------------
    #
    # The cylinder of a 0/1 word z is read straight off the mask: at or
    # past this set's level it is one bit, int(z[:level], 2); above it, the
    # block of 2^(level - len(z)) bits at offset int(z, 2) << (level -
    # len(z)).  The cost is bounded by this set's level whatever len(z) is,
    # and no Clopen is built for z.  The word is not validated here; see
    # `check_word`.

    def _cylinder_block(self, z: BitWord) -> tuple[int, int]:
        drop = self.level - len(z)
        if drop <= 0:
            return word_index(z[: self.level]), 1
        return word_index(z) << drop, (1 << (1 << drop)) - 1

    def meets_cylinder(self, z: BitWord) -> bool:
        """Does the cylinder of `z` meet this set?"""
        at, ones = self._cylinder_block(z)
        return self.mask >> at & ones != 0

    def covers_cylinder(self, z: BitWord) -> bool:
        """Does the cylinder of `z` lie inside this set?"""
        at, ones = self._cylinder_block(z)
        return self.mask >> at & ones == ones

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"level": self.level, "words": self.words()}

    @staticmethod
    def from_json(doc: dict) -> "Clopen":
        return canonicalize(_naturals(doc["level"], what="clopen levels"), doc["words"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clopen(level={self.level}, words={self.words()})"


# the setters of Clopen's two slots; a Clopen is built on every hot path,
# and these skip the lookup of object.__setattr__ past the refusing one
_set_level, _set_mask = Clopen.level.__set__, Clopen.mask.__set__


def canonicalize(level: int, words: Iterable[BitWord]) -> Clopen:
    """Canonical representative of a union of level-`level` cylinders."""
    _require_level(level)
    return Clopen.from_words(level, words)


# -- pairing and sequence codes -------------------------------------------


def pair(m: int, n: int) -> int:
    """Cantor pairing (m + n)(m + n + 1)/2 + n of two naturals; a negative
    argument raises IndexOutOfRange."""
    if (m | n) < 0:
        raise IndexOutOfRange("pairing arguments are naturals")
    s = m + n
    return s * (s + 1) // 2 + n


def unpair(k: int) -> tuple[int, int]:
    if k < 0:
        raise IndexOutOfRange("pairing codes are naturals")
    s = (isqrt(8 * k + 1) - 1) // 2
    n = k - s * (s + 1) // 2
    return s - n, n


def seq_code(s: Sequence[int]) -> int:
    """Bijection between finite sequences of naturals and naturals.

    The empty sequence maps to 0 and appending a entry maps (code, entry)
    through the pairing function plus one, so decoding peels entries off
    the tail.  A negative entry, or a code past ``SEQ_CODE_BITS`` bits,
    raises IndexOutOfRange.
    """
    code = 0
    for a in s:
        if a < 0:
            raise IndexOutOfRange("sequence entries are naturals")
        code = pair(code, a) + 1
        if code.bit_length() > SEQ_CODE_BITS:
            raise IndexOutOfRange(f"sequence code past {SEQ_CODE_BITS} bits")
    return code


def seq_decode(k: int) -> tuple[int, ...]:
    if k < 0:
        raise IndexOutOfRange("sequence codes are naturals")
    out = []
    while k > 0:
        k, a = unpair(k - 1)
        out.append(a)
    return tuple(reversed(out))


def pack_rows(rows: Sequence[Sequence[int]]) -> tuple:
    """One prefix holding cell (r, c) of the ragged matrix `rows` at
    pair(r, c); positions no cell lands on hold 0."""
    size = 1 + max(
        (pair(r, len(row) - 1) for r, row in enumerate(rows) if row), default=-1
    )
    cells = [0] * size
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            cells[pair(r, c)] = v
    return tuple(cells)


def matrix_entry(f: Sequence[int], n: int, k: int, *, zero_past_end: bool = False) -> int:
    """Read cell (n, k) of the matrix view of a prefix.

    A cell past the end reads as 0 when `zero_past_end` is set (a finitely
    supported parameter) and raises InsufficientPrefix otherwise.
    """
    idx = pair(n, k)
    if idx >= len(f):
        if zero_past_end:
            return 0
        raise InsufficientPrefix(idx + 1)
    return f[idx]


class RowParam(Record):
    """A matrix-coded prefix read one row at a time, and the memo of each
    row's stage states; a subclass's ``_step`` says how a row's state
    grows.

    ``state(r, k, cap)`` is state k of row r under the level cap `cap`,
    where state k is ``step(state k-1, k)`` and state 0 is
    ``step(None, 0)``.  ``_states`` memoizes each row's states 0..k as one
    tuple, keyed by (row, level cap); it takes no part in equality,
    hashing, ``repr`` or JSON.
    """

    _fields = ("prefix",)

    def __init__(self, *values):
        super().__init__(*values)
        object.__setattr__(self, "_states", {})

    def _step(self, r: int, cap: int) -> Callable:
        """The step of row r's state under `cap`."""
        raise NotImplementedError

    def state(self, r: int, k: int, cap: int):
        """State `k` of row r.  A stage past the memoized ones runs
        ``self._step(r, cap)`` and grows the entry from there, storing it
        once every new step is done: a step that raises stores nothing, so
        asking again raises the same error.  An entry is only ever
        replaced whole, so threads sharing a memo at worst repeat work."""
        key = (r, cap)
        states = self._states.get(key, ())
        if k < len(states):
            return states[k]
        step = self._step(r, cap)
        state = states[-1] if states else None
        grown = []
        for i in range(len(states), k + 1):
            state = step(state, i)
            grown.append(state)
        self._states[key] = states + tuple(grown)
        return state


class FsigmaParam(RowParam):
    """Rows of open-set parameters packed into one matrix-coded prefix,
    and the F_sigma evaluator over them; a subclass's ``_row_terms`` says
    how row r becomes its terms.  State n of row r is the union of its
    terms 0..n.

    ``horizon`` is the stage depth the rows carry data for; evaluation
    never reads past it, so negative certificates issued against the
    horizon survive every admissible stage refinement.
    """

    _fields = ("prefix", "rows", "horizon")

    def _row_terms(self, r: int, cap: int) -> Callable[[int], Clopen]:
        """Read row r's cells to the horizon and return its term function."""
        raise NotImplementedError

    def _step(self, r: int, cap: int) -> Callable:
        """The step of row r's union state: the union of terms 0..k.  The
        row's cells are all read before the step is returned, so a missing
        cell is reported before any term can fail."""
        term = self._row_terms(r, cap)
        return lambda union, k: union.union(term(k)) if k else term(0)

    def member(self, z: BitWord, rows: int, n_max: int) -> Tri:
        """Membership of the cylinder of `z` in the union of the rows'
        closed sets, each the complement of a row's open stage union.

        `rows` and `n_max` are stage bounds.  HOLDS when the cylinder
        misses the horizon union of some row r < min(`rows`, ``self.rows``);
        FAILS when it lies inside the stage-`n_max` union of every one of
        the parameter's rows; UNKNOWN otherwise.  Raising either bound only
        ever resolves UNKNOWN.  An `n_max` past the horizon raises
        InsufficientPrefix, then `z` is validated, then `rows`: a negative
        count raises IndexOutOfRange.  A searched row's horizon union is
        built before its stage union.  Each test reads one bit or one block
        of a union's mask, so the length of `z` is not capped.
        """
        if n_max > self.horizon:
            raise InsufficientPrefix(n_max, what="stage horizon")
        check_word(z, len(z))
        if rows < 0:
            raise IndexOutOfRange("row counts are naturals")
        cap = max_level()
        inside_all = True
        for r in range(self.rows):
            if r < rows and not self.state(r, self.horizon, cap).meets_cylinder(z):
                return Tri.HOLDS
            # a negative stage is the union of no terms, which covers nothing
            if n_max < 0 or not self.state(r, n_max, cap).covers_cylinder(z):
                inside_all = False
        return Tri.FAILS if inside_all else Tri.UNKNOWN

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "rows": self.rows, "horizon": self.horizon}

    @classmethod
    def from_json(cls, doc: dict):
        prefix = _naturals(doc["prefix"], True)
        return cls(prefix, _naturals(doc["rows"]), _naturals(doc["horizon"]))
