"""Product sections built from one factor parameter and one planar
parameter, glued by bit interleaving, plus a desk-scale section
diagnostic for planar bitsets.

A product section contains a pair when the first coordinate lands in the
factor section or the interleaved pair lands in the planar section; the
evaluator is the pointwise disjunction of the component evaluators, so
its three-valued answers inherit their refinement behaviour.  The
quantifier shape of the whole evaluator nests three deep, one level of
union over the two components' two-deep shapes.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, LengthMismatch, LevelCapExceeded
from .space import BitWord, Record, Tri, check_word, tri_or
from .meager import MeagerParam, meager_encode, meager_eval
from .nullset import NullParam, null_encode, null_member

NULL_OVER_MEAGER = "nm"
MEAGER_OVER_NULL = "mn"

_DIAGNOSTIC_CAP = 12


class ProductPoint(Record):
    _fields = ("y", "z")

    def __init__(self, y: BitWord, z: BitWord):
        if len(y) != len(z):
            raise LengthMismatch("product point coordinates differ in length")
        super().__init__(y, z)


def interleave(p: ProductPoint) -> BitWord:
    """Alternate the two coordinates bit by bit."""
    return "".join(a + b for a, b in zip(p.y, p.z))


def deinterleave(w: BitWord) -> ProductPoint:
    if len(w) % 2:
        raise LengthMismatch("interleaved word must have even length")
    return ProductPoint(w[0::2], w[1::2])


def halves(variant: str) -> tuple[str, str]:
    """Which of the factor and planar halves of `variant` is null and
    which meager; an unknown variant raises ValueError."""
    if variant == NULL_OVER_MEAGER:
        return "null", "meager"
    if variant == MEAGER_OVER_NULL:
        return "meager", "null"
    raise ValueError(f"unknown variant {variant!r}")


_HALF_PARAMS = {"null": NullParam, "meager": MeagerParam}


class ProductParam(Record):
    """A product's variant, its factor parameter ``first`` and its planar
    parameter ``second``."""

    _fields = ("variant", "first", "second")

    def __init__(self, variant: str, first, second):
        halves(variant)
        super().__init__(variant, first, second)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "first": self.first.to_json(),
            "second": self.second.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "ProductParam":
        variant = doc["variant"]
        first, second = halves(variant)
        return ProductParam(
            variant,
            _HALF_PARAMS[first].from_json(doc["first"]),
            _HALF_PARAMS[second].from_json(doc["second"]),
        )


def product_encode(variant: str, x_part, plane_part) -> ProductParam:
    """Encode the factor and planar halves with their own encoders.

    For the null half supply a CoverFamily; for the meager half supply a
    (dense clopen list, stage depth) pair over the interleaved space.
    """
    first, second = (
        null_encode(part) if half == "null" else meager_encode(*part)
        for half, part in zip(halves(variant), (x_part, plane_part))
    )
    return ProductParam(variant, first, second)


def product_member(
    pp: ProductParam,
    p: ProductPoint,
    *,
    null_levels: int,
    meager_n_max: int,
    meager_rows: int | None = None,
) -> Tri:
    """Three-valued membership of a plane point in the product section."""
    answers = []
    for half, param, z in zip(halves(pp.variant), (pp.first, pp.second), (p.y, interleave(p))):
        if half == "null":
            answers.append(null_member(param, z, null_levels))
        else:
            rows = param.rows if meager_rows is None else meager_rows
            answers.append(meager_eval(param, z, rows, meager_n_max))
    return tri_or(*answers)


def quantifier_shape(variant: str):
    """Nested quantifier tree of the evaluator, for structural audits."""
    shapes = {
        "null": ("forall", ("exists", "clopen")),     # G_delta
        "meager": ("exists", ("forall", "clopen")),   # F_sigma
    }
    return ("union", *(shapes[half] for half in halves(variant)))


def quantifier_depth(shape) -> int:
    if isinstance(shape, str):
        return 0
    return 1 + max(quantifier_depth(child) for child in shape[1:])


# -- planar diagnostics ------------------------------------------------------


class DensityProxy(Record):
    """Flag sections whose density reaches the threshold num / 2^exp.

    Stands in for smallness in measure at one finite resolution; the
    output is a diagnostic, not membership in the true ideal.  The
    threshold is kept in lowest terms (num odd, or exp 0).
    """

    _fields = ("num", "exp")

    def __init__(self, num: int, exp: int):
        if num < 0 or exp < 0:
            raise ValueError("dyadic parts must be non-negative")
        # strip the factors of two num and 2^exp share: num's trailing
        # zeros, or all of exp when num is 0
        shift = min((num & -num).bit_length() - 1, exp) if num else exp
        super().__init__(num >> shift, exp - shift)

    def flags(self, row: int, d: int) -> bool:
        # count / 2^d >= num / 2^exp, times 2^max(d, exp).  Shifted by b =
        # num's bit length or more, count exceeds num when it is nonzero
        # and is 0 otherwise, so a longer shift is cut to b
        count, shift = row.bit_count(), self.exp - d
        if shift < 0:
            return count >= self.num << -shift
        return count << min(shift, self.num.bit_length()) >= self.num

    def to_json(self) -> dict:
        return {
            "kind": "null",
            "epsilon": {"num": self.num, "exp": self.exp},
            "note": "finite-stage proxy, not the true ideal",
        }


class SomewhereDenseProxy(Record):
    """Flag sections meeting every cylinder at the split level."""

    _fields = ("split",)

    def __init__(self, split: int):
        if split < 0:
            raise IndexOutOfRange("split levels are naturals")
        super().__init__(split)

    def flags(self, row: int, d: int) -> bool:
        width = 1 << (d - self.split)
        block = (1 << width) - 1
        return all(
            row >> (i * width) & block for i in range(1 << self.split)
        )

    def to_json(self) -> dict:
        return {
            "kind": "nwd",
            "split": self.split,
            "note": "finite-stage proxy, not the true ideal",
        }


def section_diagnostic(rows: Sequence[str], proxy) -> int:
    """Bitset of first-coordinate words whose section fails the proxy.

    `rows` lists, per level-d word in lexicographic order, the section's
    membership string over the level-d words of the second coordinate.
    A row of the wrong length raises LengthMismatch, and then a row that
    is not a 0/1 word ValueError.
    """
    count = len(rows)
    d = count.bit_length() - 1
    if count < 1 or count != 1 << d:
        raise LengthMismatch("row count must be a power of two")
    if d > _DIAGNOSTIC_CAP:
        raise LevelCapExceeded(d, _DIAGNOSTIC_CAP)
    if isinstance(proxy, SomewhereDenseProxy) and proxy.split > d:
        raise LevelCapExceeded(proxy.split, d)
    flagged = 0
    for i, row_bits in enumerate(rows):
        if len(row_bits) != count:
            raise LengthMismatch(f"row {i} has length {len(row_bits)}")
        check_word(row_bits, count)
        row = int(row_bits[::-1], 2)
        if proxy.flags(row, d):
            flagged |= 1 << i
    return flagged


def flagged_bits(flagged: int, d: int) -> str:
    """Render a diagnostic bitset in the same convention as the input rows."""
    return format(flagged, f"0{1 << d}b")[::-1]
