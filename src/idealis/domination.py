"""Domination-flavoured sections over Baire space: eventual-domination
bounds with their diagonal escape, and witness counting against a coded
tree labelling.

A labelling assigns a natural to each finite sequence; a function earns a
witness at n when its value there drops below the label of its own first
n entries.  Labellings are stored sparsely because sequence codes grow
through iterated pairing far too fast for dense prefixes; absent codes
read as zero, the one value that never creates a witness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InsufficientPrefix
from .space import BairePrefix, pair, seq_code, seq_decode


@dataclass(frozen=True)
class KsigmaParam:
    """A pointwise bound, the parameter of the eventual-domination layer."""

    bound: tuple

    def to_json(self) -> dict:
        return {"prefix": list(self.bound)}

    @staticmethod
    def from_json(doc: dict) -> "KsigmaParam":
        return KsigmaParam(tuple(int(v) for v in doc["prefix"]))


def dominated_from(y: KsigmaParam, x: BairePrefix, n: int) -> bool:
    """Is x(m) <= y(m) for every m with n < m < (common length)?"""
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


@dataclass(frozen=True)
class LaverParam:
    """Sparse labelling of finite sequences via their codes."""

    entries: tuple  # sorted (code, value) pairs with nonzero values

    def __post_init__(self):
        codes = [c for c, _ in self.entries]
        if codes != sorted(set(codes)):
            raise ValueError("entries must be sorted by code, without repeats")
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_values", [v for _, v in self.entries])

    def value_at_code(self, code: int) -> int:
        i = bisect_left(self._codes, code)
        if i < len(self._codes) and self._codes[i] == code:
            return self._values[i]
        return 0

    def label(self, s: Sequence[int]) -> int:
        return self.value_at_code(seq_code(s))

    def to_json(self) -> dict:
        return {
            "phi": [
                {"seq": list(seq_decode(c)), "val": v} for c, v in self.entries
            ]
        }

    @staticmethod
    def from_json(doc: dict) -> "LaverParam":
        phi = {
            tuple(int(a) for a in item["seq"]): int(item["val"])
            for item in doc["phi"]
        }
        return laver_encode(phi)


def laver_encode(phi: Mapping[tuple, int]) -> LaverParam:
    """Labelling from an explicit finite map; everything else reads zero."""
    entries = sorted(
        (seq_code(s), v) for s, v in phi.items() if v != 0
    )
    return LaverParam(tuple(entries))


def laver_witnesses(p: LaverParam, f: BairePrefix, n0: int, n1: int) -> int:
    """Count of n in [n0, n1) with f(n) below the label of f's first n
    entries.  Additive over adjacent windows."""
    if len(f) < n1:
        raise InsufficientPrefix(n1)
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    # codes of f's prefixes, built one entry at a time; they strictly
    # increase, so past the largest stored code every label is 0
    top = p.entries[-1][0] if p.entries else -1
    count, code = 0, 0
    for n in range(n1):
        if code > top:
            break
        if n >= n0 and f[n] < p.value_at_code(code):
            count += 1
        code = pair(code, f[n]) + 1
    return count
