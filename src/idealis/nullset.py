"""Measure-zero sections: guarded stage evaluation and the cover
compression encoder.

A parameter's row n names clopen sets of measure below 2^-n through the
master enumeration.  A budget guard re-reads every row left to right and
blanks any candidate that would push the accepted total to 2^-n or
beyond, so every section has measure below 2^-n at every stage no matter
what the parameter says; the encoder's output is arranged so the guard
never fires on it.

Each parameter memoizes its guarded scans, one per (row, level cap): the
guarded terms scanned so far with the accepted total after the last, and
the stage union and accepted total at each bound asked for.  A total is
exact and kept as plain ints, a pair (words, e) standing for words / 2^e:
the count of level-e cylinders, where e starts at the row index and
deepens with the row's terms.  `null_term`,
`null_stage` and `null_member` all read from it and extend it on demand,
so each cell of a row is enumerated once per parameter and cap, and a
lowered cap never meets a scan made under another.  An extension is
published by storing a new tuple, so threads sharing a parameter at worst
repeat work.

The encoder flattens a family of covers row by row, with a few empty
slots inserted before each row so that every cut point lands ahead of the
next cover; the suffix of the flattened sequence kept by row n of the
parameter then still contains a whole cover, which is what makes every
covered point evaluate as a member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InsufficientPrefix, InvariantViolated, LevelCapExceeded
from .space import BitWord, Clopen, Tri, check_word, matrix_entry, max_level, pack_rows
from .enumerations import clopen_enum, clopen_rank

# Empty slots placed before each cover row during flattening.  Four is
# enough to keep every cut point at or before the start of the row whose
# tail sum drove it; see the encoder invariants in the test suite.
_PAD = 4


@dataclass(frozen=True)
class CoverFamily:
    """Per-n clopen covers with exact tail bound sum < 2^-(n+1)."""

    covers: tuple

    def __post_init__(self):
        for n, pieces in enumerate(self.covers):
            total = sum((c.measure() for c in pieces), Fraction(0))
            if not total < Fraction(1, 2 << n):
                exp = total.denominator.bit_length() - 1
                raise InvariantViolated(
                    f"cover {n} has total measure {total.numerator}/2^{exp},"
                    f" not below 2^-{n + 1}"
                )

    @property
    def depth(self) -> int:
        return len(self.covers)

    def to_json(self) -> dict:
        return {"covers": [[c.to_json() for c in row] for row in self.covers]}

    @staticmethod
    def from_json(doc: dict) -> "CoverFamily":
        return CoverFamily(
            tuple(
                tuple(Clopen.from_json(c) for c in row) for row in doc["covers"]
            )
        )


@dataclass(frozen=True)
class NullParam:
    """Matrix-coded parameter plus per-row stage witnesses.

    ``_scans`` is the guarded-scan memo, keyed by (row, level cap); it
    takes no part in equality, hashing, ``repr`` or JSON.
    """

    prefix: tuple
    witness: tuple
    _scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def cell(self, n: int, k: int) -> int:
        return matrix_entry(self.prefix, n, k)

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "witness": list(self.witness)}

    @staticmethod
    def from_json(doc: dict) -> "NullParam":
        return NullParam(
            tuple(int(v) for v in doc["prefix"]),
            tuple(int(v) for v in doc.get("witness", [])),
        )


def _add_words(total: tuple[int, int], c: Clopen) -> tuple[int, int]:
    """The (words, e) total plus the measure of `c`, counted at the deeper
    of e and c's level."""
    words, e = total
    if c.level > e:
        words <<= c.level - e
        e = c.level
    return words + (c.mask.bit_count() << (e - c.level)), e


def _row_scan(f: NullParam, n: int, k_hi: int, cap: int):
    """Row n's memo entry under `cap`, scanned at least to k = k_hi.

    The entry is (terms, total, stages): the guarded terms k = n+1, ...,
    the accepted total after the last of them, and for each bound asked
    for so far the stage union and the accepted total there.  A scan
    resumes where the entry stops; a cell that raises leaves the part
    before it in the entry, so asking again raises the same error at the
    same k.
    """
    key = (n, cap)
    entry = f._scans.get(key)
    if entry is not None and len(entry[0]) >= k_hi - n:
        return entry
    terms, total, stages = entry or ((), (0, n), {})
    terms = list(terms)
    try:
        for k in range(n + 1 + len(terms), k_hi + 1):
            cand = clopen_enum(n, matrix_entry(f.prefix, n, k), cap=cap)
            words, e = grown = _add_words(total, cand)
            # the budget 2^-n is 2^(e - n) words at level e
            if words < 1 << (e - n):
                terms.append(cand)
                total = grown
            else:
                terms.append(Clopen.empty())
    except (InsufficientPrefix, LevelCapExceeded):
        # Only the errors a cell raises keep the partial scan: those come
        # before the cell's append, while an interrupt could fall between
        # the append and the total.
        f._scans[key] = (tuple(terms), total, stages)
        raise
    entry = (tuple(terms), total, stages)
    f._scans[key] = entry
    return entry


def _stage(f: NullParam, n: int, k_hi: int, cap: int) -> tuple[Clopen, tuple[int, int]]:
    """Union and accepted total of row n's guarded terms up to k_hi."""
    terms, total, stages = _row_scan(f, n, k_hi, cap)
    if k_hi in stages:
        return stages[k_hi]
    start = max((j for j in stages if j < k_hi), default=n)
    union, accepted = stages[start] if start > n else (Clopen.empty(), (0, n))
    for term in terms[start - n : k_hi - n]:
        union = union.union(term)
        accepted = _add_words(accepted, term)
    f._scans[(n, cap)] = (terms, total, {**stages, k_hi: (union, accepted)})
    return union, accepted


def null_term(f: NullParam, n: int, k: int) -> Clopen:
    """The k-th guarded term of row n."""
    if k <= n:
        raise InsufficientPrefix(n + 1, what="term index")
    terms, _, _ = _row_scan(f, n, k, max_level())
    return terms[k - n - 1]


def null_stage(f: NullParam, n: int, k_hi: int) -> Clopen:
    """Union of the guarded terms of row n up to k_hi; measure < 2^-n."""
    if k_hi <= n:
        raise InsufficientPrefix(n + 1, what="stage bound")
    return _stage(f, n, k_hi, max_level())[0]


def null_member(f: NullParam, z: BitWord, n_levels: int) -> Tri:
    """Membership of the cylinder of `z` at stage `n_levels`.

    HOLDS when every row the parameter carries a witness for covers the
    cylinder at its witnessed bound -- a claim about the whole stored
    parameter, so it cannot be revoked at a deeper stage.  FAILS when
    some row up to `n_levels` misses the cylinder entirely and the guard
    budget left, 2^-n minus the accepted total, is at most the cylinder's
    measure 2^-len(z), so no continuation of that row's scan could ever
    cover it.  Raising `n_levels` only resolves UNKNOWN.

    `z` is validated after the witness list and before any scan.  Each
    cylinder test reads one bit or one block of a stage union's mask and
    the budget test compares integers, so the length of `z` is not
    capped.
    """
    if len(f.witness) <= n_levels:
        raise InsufficientPrefix(n_levels + 1, what="witness list")
    check_word(z, len(z))
    cap = max_level()
    scans = []
    for n, k_hi in enumerate(f.witness):
        if k_hi <= n:
            raise InsufficientPrefix(n + 1, what=f"witness bound for row {n}")
        scans.append(_stage(f, n, k_hi, cap))
    if all(stage.covers_cylinder(z) for stage, _ in scans):
        return Tri.HOLDS
    for n in range(n_levels + 1):
        stage, (words, e) = scans[n]
        if stage.meets_cylinder(z):
            continue
        # (2^-n - total) * 2^e <= 2^-len(z) * 2^e, with the right side
        # rounded down: the left is a natural, so rounding changes nothing
        if (1 << (e - n)) - words <= (1 << e) >> len(z):
            return Tri.FAILS
    return Tri.UNKNOWN


@dataclass(frozen=True)
class NullEncoding:
    """Encoder output plus the flattening data the laws are stated over."""

    param: NullParam
    flat: tuple          # the flattened cover pieces, pads included
    cuts: tuple          # cut points a_0 .. a_(depth)


def _flatten(family: CoverFamily):
    flat: list[Clopen] = []
    for pieces in family.covers:
        flat.extend([Clopen.empty()] * _PAD)
        flat.extend(pieces)
    return flat


def _cut_points(flat: Sequence[Clopen], depth: int) -> list[int]:
    suffix = [Fraction(0)] * (len(flat) + 1)
    for i in range(len(flat) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + flat[i].measure()

    def tail(k: int) -> Fraction:
        return suffix[k + 1] if k + 1 <= len(flat) else Fraction(0)

    cuts = [0]
    for m in range(1, depth + 1):
        k = cuts[-1] + 1
        while not tail(k) < Fraction(1, 1 << m):
            k += 1
        cuts.append(k + 1)
    return cuts


def null_encode_detail(family: CoverFamily) -> NullEncoding:
    """Full encoding: flatten, cut, rank every kept piece, pack the matrix."""
    depth = family.depth
    if depth == 0:
        return NullEncoding(NullParam((), ()), (), (0,))

    flat = _flatten(family)
    cuts = _cut_points(flat, depth)

    last_nonempty = max(
        (i for i, c in enumerate(flat) if not c.is_empty), default=-1
    )
    witness = tuple(max(last_nonempty + 1, n + 1) for n in range(depth))

    # row n reaches its witness bound and keeps the pieces from cut n+1 on
    rows = [[0] * (w + 1) for w in witness]
    for n, row in enumerate(rows):
        for k in range(cuts[n + 1], min(len(row), len(flat))):
            if not flat[k].is_empty:
                row[k] = clopen_rank(n, flat[k])
    param = NullParam(pack_rows(rows), witness)
    return NullEncoding(param, tuple(flat), tuple(cuts))


def null_encode(family: CoverFamily) -> NullParam:
    return null_encode_detail(family).param
