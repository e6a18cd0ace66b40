"""Dense open sets, their countable intersections, and the complement view
that makes meager sets evaluable at a finite stage.

The open layer selects, for each basic open set, some nonempty basic
subset of it; because only nonempty subsets are ever selected, the union
meets every basic open set no matter what the parameter says, so every
section is dense-at-stage unconditionally.  Encoders pick those subsets
inside a given clopen target, which pins the stage union under the target
exactly.  A dense-open parameter is a plain tuple of selections.
``MeagerParam`` is a ``space.FsigmaParam``: it says only how a row
becomes its dense-open terms, and shares its format, row-union memo
(``RowParam.state``) and evaluator (``FsigmaParam.member``) with the
closed-null parameter ``EParam``.  The interval-partition
predicate used by the combinatorial meager base lives here too.
"""

from __future__ import annotations

from functools import reduce

from .errors import IndexOutOfRange, InsufficientPrefix, LevelCapExceeded, NotDense
from .space import (
    BairePrefix,
    BitWord,
    Clopen,
    FsigmaParam,
    Record,
    Tri,
    matrix_entry,
    max_level,
    pack_rows,
)
from .enumerations import basic_open_cantor, basic_word_cantor, kprime


class IntervalPartition(Record):
    """Consecutive intervals [a, b) covering an initial segment of omega."""

    _fields = ("intervals",)

    def __init__(self, intervals: tuple):
        start = 0
        for a, b in intervals:
            if a != start or b <= a:
                raise ValueError("intervals must be consecutive and nonempty")
            start = b
        super().__init__(intervals)

    @property
    def covered(self) -> int:
        return self.intervals[-1][1] if self.intervals else 0

    def to_json(self) -> dict:
        return {"intervals": [list(i) for i in self.intervals]}


def partition_from(y: BairePrefix) -> IntervalPartition:
    """Interval partition with widths y(n) + 1."""
    out = []
    a = 0
    for v in y:
        out.append((a, a + v + 1))
        a += v + 1
    return IntervalPartition(tuple(out))


def fxp_eval(x: BitWord, partition: IntervalPartition, z: BitWord, from_block: int) -> Tri:
    """Do x and z disagree on every complete block from `from_block` on?

    A block is complete when both prefixes cover it.  The answer is a
    claim about exactly this window: HOLDS when every complete block in
    range shows a disagreement, FAILS when some block agrees.  A negative
    `from_block` raises IndexOutOfRange.
    """
    if from_block < 0:
        raise IndexOutOfRange("block positions are naturals")
    avail = min(len(x), len(z))
    in_range = [
        (a, b) for a, b in partition.intervals[from_block:] if b <= avail
    ]
    if not in_range:
        needed = (
            partition.intervals[from_block][1]
            if from_block < len(partition.intervals)
            else avail + 1
        )
        raise InsufficientPrefix(needed, what="block window")
    for a, b in in_range:
        if x[a:b] == z[a:b]:
            return Tri.FAILS
    return Tri.HOLDS


# -- dense open sections -----------------------------------------------------


def _dense_terms(x: tuple, cap: int) -> Callable[[int], Clopen]:
    # term n >= 1 is the selected basic subset of basic open set n; there
    # is no basic open set 0 to select in, so stage 0 is empty
    def term(n: int) -> Clopen:
        return basic_open_cantor(kprime(n, x[n]), cap) if n else Clopen.empty()

    return term


def dense_section_stage(x: tuple, n_max: int) -> Clopen:
    """Union of the selected nonempty basic subsets for 1 <= n <= n_max,
    where `x` holds the selection of each basic open set n at x[n]."""
    if len(x) <= n_max:
        raise InsufficientPrefix(n_max + 1)
    term = _dense_terms(x, max_level())
    return reduce(Clopen.union, map(term, range(n_max + 1)), Clopen.empty())


def dense_open_encode(w: Clopen, n_max: int) -> tuple:
    """Parameter whose stage union sits inside the dense clopen `w`.

    For each basic open set the least basic subset lying inside `w` is
    selected; NotDense reports the first basic set `w` misses, read from
    one bit or one block of `w`'s mask at the basic set's word.

    The selection is read off ``w.inside_masks()``, the masks of the
    cylinders inside `w` at each level, built once per call.  Basic set
    n >= 1 is the cylinder of u, the binary digits of n after its leading
    1, and ``kprime(n, m)`` lists u's extensions by depth d, then by lex
    index i, at m = 2^d - 1 + i.  The extensions at depth d are the 2^d
    bits of the level-(len(u) + d) mask from u's index shifted by d, so
    the least m is the lowest 1 bit of the first nonzero such block: one
    shift and one AND per depth, with no ``kprime`` call.  An
    extension past the level cap raises LevelCapExceeded at length
    cap + 1, the first candidate a search in m order would refuse.  The
    cap is read once per call.
    """
    cap = max_level()
    for n in range(1, n_max + 1):
        if not w.meets_cylinder(basic_word_cantor(n, cap)):
            raise NotDense(n)
    inside = w.inside_masks()
    choices = [0]
    for n in range(1, n_max + 1):
        k = n.bit_length() - 1
        if k >= w.level:
            # one bit of w's mask decides meeting and covering alike
            choices.append(0)
            continue
        at = n - (1 << k)
        # w meets u's cylinder, so the block at w's own level is nonzero
        d = 0
        block = inside[k] >> at & 1
        while not block:
            d += 1
            block = inside[k + d] >> (at << d) & ((1 << (1 << d)) - 1)
        if k + d > cap:
            raise LevelCapExceeded(cap + 1, cap)
        choices.append((1 << d) - 1 + (block & -block).bit_length() - 1)
    return tuple(choices)


# -- meager sections ---------------------------------------------------------


class MeagerParam(FsigmaParam):
    """Rows of dense-open parameters: row r's terms are the dense-open
    terms of cells (r, 0) .. (r, horizon)."""

    def row(self, r: int, n_max: int) -> tuple:
        return tuple(matrix_entry(self.prefix, r, n) for n in range(n_max + 1))

    def _row_terms(self, r: int, cap: int) -> Callable[[int], Clopen]:
        return _dense_terms(self.row(r, self.horizon), cap)


def meager_encode(dense_opens: Sequence[Clopen], n_max: int) -> MeagerParam:
    """Pack one dense-open parameter per listed set."""
    if n_max < 0:
        raise IndexOutOfRange("stage bounds are naturals")
    rows = [dense_open_encode(w, n_max) for w in dense_opens]
    return MeagerParam(pack_rows(rows), len(rows), n_max)


def meager_eval(p: MeagerParam, z: BitWord, rows: int, n_max: int) -> Tri:
    """Membership of the cylinder of `z` in the meager section at stage.

    HOLDS when `z` avoids the union of one of the first `rows` rows over
    the parameter's whole horizon -- a certificate no later stage can
    revoke.  FAILS when `z` sits inside every one of the parameter's rows'
    unions already at `n_max`.  Raising `rows`, or `n_max` within the
    horizon, only ever resolves UNKNOWN; see ``FsigmaParam.member``.
    """
    return p.member(z, rows, n_max)
