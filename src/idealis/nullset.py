"""Measure-zero sections: guarded stage evaluation and the cover
compression encoder.

A parameter's row n names clopen sets of measure below 2^-n through the
master enumeration.  A budget guard re-reads every row left to right and
blanks any candidate that would push the accepted total to 2^-n or
beyond, so every section has measure below 2^-n at every stage no matter
what the parameter says; the encoder's output is arranged so the guard
never fires on it.

``NullParam`` is a ``space.RowParam``, so each parameter memoizes its
guarded scans, one per (row, level cap), in ``RowParam.state``: state i
of row n holds the guarded term n+i, the stage union up to it and the
accepted total there.  A total is exact and kept as two plain ints,
words and e, standing for words / 2^e: the count of level-e cylinders,
where e starts at the row index and deepens with the row's terms.
`null_term`, `null_stage` and `null_member` read one state each, so each
cell of a row is enumerated once per parameter and cap, and a lowered cap
never meets a scan made under another.

The encoder flattens a family of covers row by row, with a few empty
slots inserted before each row so that every cut point lands ahead of the
next cover; the suffix of the flattened sequence kept by row n of the
parameter then still contains a whole cover, which is what makes every
covered point evaluate as a member.
"""

from __future__ import annotations

from .errors import InsufficientPrefix, InvariantViolated
from .space import (
    BitWord, Clopen, Record, RowParam, Tri, _naturals, check_word, matrix_entry, max_level,
    pack_rows,
)
from .enumerations import clopen_enum, clopen_rank

# Empty slots placed before each cover row during flattening.  Four is
# enough to keep every cut point at or before the start of the row whose
# tail sum drove it; see the encoder invariants in the test suite.
_PAD = 4

_EMPTY = Clopen.empty()


class CoverFamily(Record):
    """Per-n clopen covers with exact tail bound sum < 2^-(n+1)."""

    _fields = ("covers",)

    def __init__(self, covers: tuple):
        for n, pieces in enumerate(covers):
            # the total measure is words / 2^e, and 2^-(n+1) is 2^(e-n-1) words
            e = max((c.level for c in pieces), default=0) + n + 1
            words = sum(_words(c, e) for c in pieces)
            if not words < 1 << (e - n - 1):
                # the total in lowest terms; words is not 0 here
                shift = min((words & -words).bit_length() - 1, e)
                raise InvariantViolated(
                    f"cover {n} has total measure {words >> shift}/2^{e - shift},"
                    f" not below 2^-{n + 1}"
                )
        super().__init__(covers)

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


class NullParam(RowParam):
    """Matrix-coded parameter plus per-row stage witnesses; state i of row
    n is its guarded scan up to term n+i."""

    _fields = ("prefix", "witness")

    def cell(self, n: int, k: int) -> int:
        return matrix_entry(self.prefix, n, k)

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "witness": list(self.witness)}

    @staticmethod
    def from_json(doc: dict) -> "NullParam":
        return NullParam(_naturals(doc["prefix"], True), _naturals(doc.get("witness", []), True))

    def _step(self, n: int, cap: int):
        """The step of row n's guarded scan under `cap`: state i is the
        scan up to term n+i, and state 0 the scan before any term.  An
        empty or blanked term reuses the state before, or its union and
        total."""

        def step(state, i):
            if not i:
                return _EMPTY, _EMPTY, 0, n
            _, union, words, e = state
            cand = clopen_enum(n, matrix_entry(self.prefix, n, n + i), cap=cap)
            if cand.mask:
                # the total plus cand's measure, counted at the deeper level
                if cand.level > e:
                    words <<= cand.level - e
                    e = cand.level
                words += cand.mask.bit_count() << (e - cand.level)
                # the budget 2^-n is 2^(e - n) words at level e
                if words < 1 << (e - n):
                    return cand, union.union(cand), words, e
            return state if state[0] is _EMPTY else (_EMPTY, *state[1:])

        return step


def null_term(f: NullParam, n: int, k: int) -> Clopen:
    """The k-th guarded term of row n."""
    if k <= n:
        raise InsufficientPrefix(n + 1, what="term index")
    cap = max_level()
    return f.state(n, k - n, cap)[0]


def null_stage(f: NullParam, n: int, k_hi: int) -> Clopen:
    """Union of the guarded terms of row n up to k_hi; measure < 2^-n."""
    if k_hi <= n:
        raise InsufficientPrefix(n + 1, what="stage bound")
    cap = max_level()
    return f.state(n, k_hi - n, cap)[1]


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
    states = []
    for n, k_hi in enumerate(f.witness):
        if k_hi <= n:
            raise InsufficientPrefix(n + 1, what=f"witness bound for row {n}")
        states.append(f.state(n, k_hi - n, cap))
    if all(union.covers_cylinder(z) for _, union, _, _ in states):
        return Tri.HOLDS
    for n in range(n_levels + 1):
        _, union, words, e = states[n]
        if union.meets_cylinder(z):
            continue
        # (2^-n - total) * 2^e <= 2^-len(z) * 2^e, with the right side
        # rounded down: the left is a natural, so rounding changes nothing
        if (1 << (e - n)) - words <= (1 << e) >> len(z):
            return Tri.FAILS
    return Tri.UNKNOWN


class NullEncoding(Record):
    """Encoder output plus the flattening data the laws are stated over:
    ``flat``, the flattened cover pieces, pads included, and ``cuts``, the
    cut points a_0 .. a_(depth)."""

    _fields = ("param", "flat", "cuts")


def _flatten(family: CoverFamily):
    flat: list[Clopen] = []
    for pieces in family.covers:
        flat.extend([Clopen.empty()] * _PAD)
        flat.extend(pieces)
    return flat


def _words(c: Clopen, e: int) -> int:
    """The measure of `c` as a count of level-e words, for e at least c's level."""
    return c.mask.bit_count() << (e - c.level)


def _cut_points(flat: Sequence[Clopen], depth: int) -> list[int]:
    # measures counted in words at one level e, so 2^-m is 2^(e-m) words
    e = max((c.level for c in flat), default=0) + depth
    suffix = [0] * (len(flat) + 1)
    for i in range(len(flat) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + _words(flat[i], e)

    def tail(k: int) -> int:
        return suffix[k + 1] if k + 1 <= len(flat) else 0

    cuts = [0]
    for m in range(1, depth + 1):
        k = cuts[-1] + 1
        while not tail(k) < 1 << (e - m):
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
