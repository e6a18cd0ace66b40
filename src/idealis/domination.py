"""Domination-flavoured sections over Baire space: eventual-domination
bounds with their diagonal escape, and witness counting against a coded
tree labelling.

A labelling assigns a natural to each finite sequence; a function earns a
witness at n when its value there drops below the label of its own first
n entries.  Labellings are stored sparsely because sequence codes grow
through iterated pairing far too fast for dense prefixes; absent
sequences read as zero, the one value that never creates a witness.

A labelling keeps each labelled sequence beside its code.  The codes fix
the order of the entries and are what equality and hashing compare; the
sequences answer the queries.  ``label``, ``laver_witnesses`` and
``to_json`` look labels up by sequence and code or decode nothing, and a
witness count stops after the longest labelled length.  Only
``laver_encode``, and ``from_json`` through it, computes codes: one
``seq_code`` per entry, which also refuses codes past ``SEQ_CODE_BITS``.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, InsufficientPrefix
from .space import BairePrefix, Record, _naturals, seq_code


class KsigmaParam(Record):
    """A pointwise bound, the parameter of the eventual-domination layer."""

    _fields = ("bound",)

    def to_json(self) -> dict:
        return {"prefix": list(self.bound)}

    @staticmethod
    def from_json(doc: dict) -> "KsigmaParam":
        return KsigmaParam(_naturals(doc["prefix"], True))


def dominated_from(y: KsigmaParam, x: BairePrefix, n: int) -> bool:
    """Is x(m) <= y(m) for every m with n < m < (common length)?"""
    if n < 0:
        raise IndexOutOfRange("domination positions are naturals")
    common = min(len(y.bound), len(x))
    if common <= n + 1:
        raise InsufficientPrefix(n + 2, what="common prefix")
    return all(x[m] <= y.bound[m] for m in range(n + 1, common))


def ksigma_encode(points: Sequence[BairePrefix]) -> KsigmaParam:
    """Pointwise maximum, dominating every input from position zero."""
    if not points:
        return KsigmaParam(())
    length = min(len(p) for p in points)
    return KsigmaParam(tuple(max(p[m] for p in points) for m in range(length)))


def ksigma_diagonal(y: KsigmaParam) -> tuple:
    """A prefix exceeding the bound everywhere, so never dominated."""
    return tuple(v + 1 for v in y.bound)


class LaverParam(Record):
    """Sparse labelling of finite sequences, each kept beside its code.

    ``entries`` holds the sorted (code, value) pairs with nonzero values,
    the one compared field; ``seqs`` holds each entry's sequence.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple, seqs: tuple):
        codes = [c for c, _ in entries]
        if codes != sorted(set(codes)):
            raise ValueError("entries must be sorted by code, without repeats")
        super().__init__(entries)
        values = [v for _, v in entries]
        object.__setattr__(self, "seqs", seqs)
        object.__setattr__(self, "_by_seq", dict(zip(seqs, values)))
        object.__setattr__(self, "_depth", max(map(len, seqs), default=-1))

    def label(self, s: Sequence[int]) -> int:
        s = tuple(s)
        _require_naturals(s)
        return self._by_seq.get(s, 0)

    def to_json(self) -> dict:
        return {
            "phi": [
                {"seq": list(s), "val": v} for s, (_, v) in zip(self.seqs, self.entries)
            ]
        }

    @staticmethod
    def from_json(doc: dict) -> "LaverParam":
        phi = {
            _naturals(item["seq"], True, "sequence entries"): _naturals(item["val"])
            for item in doc["phi"]
        }
        return laver_encode(phi)


def _require_naturals(s: tuple) -> None:
    if s and min(s) < 0:
        raise IndexOutOfRange("sequence entries are naturals")


def laver_encode(phi: Mapping[tuple, int]) -> LaverParam:
    """Labelling from an explicit finite map; everything else reads zero."""
    coded = sorted((seq_code(s), tuple(s), v) for s, v in phi.items() if v != 0)
    return LaverParam(tuple((c, v) for c, _, v in coded), tuple(s for _, s, _ in coded))


def laver_witnesses(p: LaverParam, f: BairePrefix, n0: int, n1: int) -> int:
    """Count of n in [n0, n1) with f(n) below the label of f's first n
    entries.  Additive over adjacent windows.  A negative bound raises
    IndexOutOfRange, after the prefix-length check."""
    if len(f) < n1:
        raise InsufficientPrefix(n1)
    if (n0 | n1) < 0:
        raise IndexOutOfRange("window bounds are naturals")
    f = tuple(f[:n1])
    _require_naturals(f)
    # no prefix longer than the longest labelled sequence has a label
    labels, count = p._by_seq, 0
    for n in range(n0, min(n1, p._depth + 1)):
        if f[n] < labels.get(f[:n], 0):
            count += 1
    return count
