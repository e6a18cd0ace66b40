"""Stage evaluation for the countable-set construction: a parameter packs
finitely many Baire-space points as the rows of a matrix-coded prefix, and
membership of a query point means agreement with some row.

Parameters are finitely supported: cells beyond the stored prefix read as
zero, so a parameter always denotes one definite element of Baire space
and its section always contains the all-zero sequence.  Query points stay
honest prefixes of unknown points, which is what the three-valued answers
are about.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, InsufficientPrefix
from .space import BairePrefix, Record, Tri, _naturals, matrix_entry, pack_rows, pair


class CountableParam(Record):
    _fields = ("prefix", "rows")

    def cell(self, n: int, k: int) -> int:
        return matrix_entry(self.prefix, n, k, zero_past_end=True)

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "rows": self.rows}

    @staticmethod
    def from_json(doc: dict) -> "CountableParam":
        return CountableParam(_naturals(doc["prefix"], True), _naturals(doc["rows"]))


def countable_encode(points: Sequence[BairePrefix], depth: int) -> CountableParam:
    """Pack `points` (each cut to `depth` entries) into one parameter."""
    for p in points:
        if len(p) < depth:
            raise InsufficientPrefix(depth, what="point")
    if depth < 0:
        raise IndexOutOfRange("window depths are naturals")
    return CountableParam(pack_rows([p[:depth] for p in points]), len(points))


def _support_rows(prefix_len: int) -> int:
    # rows whose first cell lies inside the stored prefix; all later rows
    # are identically zero
    n = 0
    while pair(n, 0) < prefix_len:
        n += 1
    return n


def countable_member(y: CountableParam, x: BairePrefix, rows: int, depth: int) -> Tri:
    """Three-valued membership of the point with prefix `x` in the section.

    HOLDS needs a row agreeing with all of `x`; FAILS needs every row of
    the parameter -- including the all-zero tail rows -- to disagree with
    `x` inside the window [0, depth).  Extending `rows` or `depth` can
    only resolve UNKNOWN; a negative one raises IndexOutOfRange.
    """
    if (rows | depth) < 0:
        raise IndexOutOfRange("row counts and window depths are naturals")
    if depth > len(x):
        raise InsufficientPrefix(depth, what="query point")

    def row_agrees_fully(n: int) -> bool:
        return all(y.cell(n, m) == x[m] for m in range(len(x)))

    def row_refuted(n: int) -> bool:
        return any(y.cell(n, m) != x[m] for m in range(depth))

    # rows from `support` on are all the zero row, so one of them stands
    # for the rest however many rows are asked about
    support = _support_rows(len(y.prefix))
    if any(row_agrees_fully(n) for n in range(min(rows, support + 1))):
        return Tri.HOLDS
    if all(row_refuted(n) for n in range(support + 1)):
        return Tri.FAILS
    return Tri.UNKNOWN
