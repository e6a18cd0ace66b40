"""Sections for the ideal generated by closed measure-zero sets, reached
through their complements: open sets of full measure, then countable
intersections of them.

A term at position n is a union of all but 2^(L-m) of the level-L
cylinders, where m grows at least linearly in n; the working level L is
lifted to max(requested level, m) whenever the requested level is too
shallow for the subset size to be an integer, so the term measure
1 - 2^-m survives arbitrary parameters and every stage union is full up
to an error of 2^-n_max unconditionally.  Membership in the union of
the rows' complements is decided through ``space.FsigmaParam``: ``EParam``
says only how a row becomes its E terms, and shares its format,
row-union memo (``RowParam.state``) and evaluator
(``FsigmaParam.member``) with the meager parameter ``MeagerParam``.
"""

from __future__ import annotations

from functools import reduce
from math import comb

from .errors import IndexOutOfRange, InsufficientPrefix, InsufficientResolution
from .space import (
    BitWord,
    Clopen,
    FsigmaParam,
    Record,
    Tri,
    _naturals,
    _require_level,
    matrix_entry,
    max_level,
    pack_rows,
    pair,
)
from .enumerations import kcomb_rank_mask, kcomb_unrank_mask_below


class ETripleParam(Record):
    """Three coordinate prefixes steering size, level and subset choice."""

    _fields = ("x0", "x1", "x2")

    def __init__(self, x0: tuple, x1: tuple, x2: tuple):
        if not len(x0) == len(x1) == len(x2):
            raise ValueError("coordinate prefixes must share a length")
        super().__init__(x0, x1, x2)

    @property
    def positions(self) -> int:
        return len(self.x0)

    def packed(self) -> tuple:
        """Single prefix carrying the three coordinates as matrix rows."""
        return pack_rows((self.x0, self.x1, self.x2))

    def to_json(self) -> dict:
        return {"prefix": list(self.packed()), "positions": self.positions}

    @staticmethod
    def from_json(doc: dict) -> "ETripleParam":
        prefix, positions = _naturals(doc["prefix"], True), _naturals(doc["positions"])
        return ETripleParam(
            *(tuple(matrix_entry(prefix, i, n) for n in range(positions)) for i in range(3))
        )


def _e_terms(p: ETripleParam, cap: int) -> Callable[[int], Clopen]:
    # the term at each position n < p.positions, under the level cap `cap`
    def term(n: int) -> Clopen:
        x0, x1, x2 = p.x0[n], p.x1[n], p.x2[n]
        if (x0 | x1 | x2) < 0:
            raise IndexOutOfRange(f"E triple cells are naturals; position {n} has a negative one")
        m = x0 + n
        lvl = max(x1, m)
        _require_level(lvl, cap)
        size = (1 << lvl) - (1 << (lvl - m)) if m else 0
        if size == 0:
            return Clopen.empty()
        total = comb(1 << lvl, size)
        return Clopen.from_mask(lvl, kcomb_unrank_mask_below(1 << lvl, size, x2 % total, total))

    return term


def e_term(p: ETripleParam, n: int) -> Clopen:
    """Union of 2^L - 2^(L-m) level-L cylinders, m = x0(n) + n; a
    negative cell at position n raises IndexOutOfRange."""
    if n < 0:
        raise IndexOutOfRange("term positions are naturals")
    if n >= p.positions:
        raise InsufficientPrefix(n + 1)
    return _e_terms(p, max_level())(n)


def e_open_stage(p: ETripleParam, n_max: int) -> Clopen:
    """Union of the first n_max + 1 terms; measure at least 1 - 2^-n_max."""
    if n_max >= p.positions:
        raise InsufficientPrefix(n_max + 1)
    term = _e_terms(p, max_level())
    return reduce(Clopen.union, map(term, range(n_max + 1)), Clopen.empty())


def _lowest_ones(mask: int, k: int) -> int:
    """The lowest k 1 bits of ``mask``, which has at least k."""
    # bisect for the shortest run of low bits that holds k ones
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < k:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


def e_open_encode(v: Clopen, m_max: int) -> ETripleParam:
    """Parameter whose terms all lie inside `v`.

    Position n needs v to contain at least 2^l - 2^(l-n) cylinders at
    some level l up to v's own; the least such level is recorded and the
    lexicographically least family of qualifying cylinders is chosen at
    the lifted level.  A lifted level past the cap raises
    LevelCapExceeded, as ``e_term`` would on reading that position.

    The cylinders inside v are read from ``Clopen.inside_masks``, one
    chain of masks built once per call; a level deeper than v's is v's
    mask lifted by ``mask_at``.  Counts are popcounts, and the chosen
    family is the lowest 1 bits of the lifted level's mask.  A negative
    `m_max` raises IndexOutOfRange.
    """
    if m_max < 0:
        raise IndexOutOfRange("stage bounds are naturals")
    cap = max_level()
    inside = v.inside_masks()
    counts = [mask.bit_count() for mask in inside]
    x0, x1, x2 = [], [], []
    for n in range(m_max + 1):
        chosen = None
        for lvl, count in enumerate(counts):
            # the bound is fractional below level n; only a full row of
            # cylinders satisfies it there
            if count == 1 << lvl or (lvl >= n and count >= (1 << lvl) - (1 << (lvl - n))):
                chosen = lvl
                break
        if chosen is None:
            raise InsufficientResolution(n)
        lifted = max(chosen, n)
        _require_level(lifted, cap)
        size = (1 << lifted) - (1 << (lifted - n)) if n else 0
        mask = inside[lifted] if lifted <= v.level else v.mask_at(lifted)
        x0.append(0)
        x1.append(chosen)
        x2.append(kcomb_rank_mask(1 << lifted, _lowest_ones(mask, size)))
    return ETripleParam(tuple(x0), tuple(x1), tuple(x2))


class EParam(FsigmaParam):
    """Rows of triple parameters: row r's terms are the E terms of the
    triple it packs."""

    def row(self, r: int) -> ETripleParam:
        """Row r, read as the packed triple it stores: coordinate i at
        position n is cell (r, pair(i, n)), so a missing cell names the
        length the whole prefix needs."""
        return ETripleParam(
            *(
                tuple(matrix_entry(self.prefix, r, pair(i, n)) for n in range(self.horizon + 1))
                for i in range(3)
            )
        )

    @staticmethod
    def from_triples(triples: Sequence[ETripleParam], horizon: int) -> "EParam":
        if horizon < 0:
            raise IndexOutOfRange("stage bounds are naturals")
        if not triples:
            return EParam((), 0, horizon)
        for t in triples:
            if t.positions <= horizon:
                raise InsufficientPrefix(horizon + 1, what="triple positions")
        cut = slice(horizon + 1)
        rows = [ETripleParam(t.x0[cut], t.x1[cut], t.x2[cut]).packed() for t in triples]
        return EParam(pack_rows(rows), len(triples), horizon)

    def _row_terms(self, r: int, cap: int) -> Callable[[int], Clopen]:
        return _e_terms(self.row(r), cap)


def e_fsigma_member(p: EParam, z: BitWord, rows: int, n_max: int) -> Tri:
    """Membership of the cylinder of `z` in the union of the rows'
    co-full complements at stage.

    HOLDS when `z` avoids the open union of one of the first `rows` rows
    over the parameter's whole horizon; FAILS when `z` sits inside every
    one of the parameter's rows' unions already at `n_max`.  Raising
    `rows`, or `n_max` within the horizon, only resolves UNKNOWN; see
    ``FsigmaParam.member``.
    """
    return p.member(z, rows, n_max)
