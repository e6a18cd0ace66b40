import itertools
import random

import pytest

from idealis.errors import LengthMismatch, LevelCapExceeded
from idealis.fubini import (
    DensityProxy,
    ProductParam,
    ProductPoint,
    SomewhereDenseProxy,
    deinterleave,
    flagged_bits,
    halves,
    interleave,
    product_encode,
    product_member,
    quantifier_depth,
    quantifier_shape,
    section_diagnostic,
)
from idealis.nullset import CoverFamily
from idealis.space import Clopen, Tri, tri_or


def nm_param():
    fam = CoverFamily(
        tuple((Clopen.cylinder("0" * (n + 2)),) for n in range(4))
    )
    dense = [Clopen.from_words(2, ["00", "10"]), Clopen.from_words(2, ["01", "11"])]
    return product_encode("nm", fam, (dense, 3))


class TestInterleave:
    def test_empty(self):
        assert interleave(ProductPoint("", "")) == ""

    def test_by_definition(self):
        assert interleave(ProductPoint("01", "10")) == "0110"

    def test_inverse_law(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(11)
            y = "".join(rng.choice("01") for _ in range(n))
            z = "".join(rng.choice("01") for _ in range(n))
            p = ProductPoint(y, z)
            assert deinterleave(interleave(p)) == p

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ProductPoint("01", "0")
        with pytest.raises(LengthMismatch):
            deinterleave("010")


class TestProductMember:
    def test_factor_membership_wins_regardless_of_other_coordinate(self):
        pp = nm_param()
        for zv in range(16):
            p = ProductPoint("0" * 8, format(zv * 16 + 5, "08b"))
            got = product_member(pp, p, null_levels=3, meager_n_max=3)
            assert got is Tri.HOLDS

    def test_planar_membership_wins(self):
        pp = nm_param()
        # interleave(y, z) = 01...: first plane bits 0,1 -> outside both
        # encoded dense stages, so the meager side holds
        p = ProductPoint("1111", "0000")
        assert interleave(p)[:2] == "10"
        got = product_member(pp, p, null_levels=3, meager_n_max=3)
        assert got is Tri.HOLDS

    def test_both_components_failing_fails(self):
        fam = CoverFamily(((),) * 5)  # five covers with no pieces at all
        pp = product_encode("nm", fam, ([], 3))
        # deep stage: the null side's budget certificate kicks in once the
        # level bound reaches the point depth, and the meager side has no rows
        p = ProductPoint("0101", "0011")
        got = product_member(pp, p, null_levels=4, meager_n_max=2)
        assert got is Tri.FAILS

    def test_mirror_variant(self):
        fam = CoverFamily(
            tuple((Clopen.cylinder("0" * (2 * n + 2)),) for n in range(3))
        )
        pp = product_encode("mn", ([Clopen.full()], 3), fam)
        p = ProductPoint("0000", "0000")  # interleaved: 00000000, null-covered
        got = product_member(pp, p, null_levels=2, meager_n_max=3)
        assert got is Tri.HOLDS

    def test_composition_table_exhaustive(self):
        for a, b in itertools.product(Tri, repeat=2):
            got = tri_or(a, b)
            if Tri.HOLDS in (a, b):
                assert got is Tri.HOLDS
            elif a is Tri.FAILS and b is Tri.FAILS:
                assert got is Tri.FAILS
            else:
                assert got is Tri.UNKNOWN

    def test_composition_monotone_exhaustive(self):
        refines = lambda s, t: s is t or s is Tri.UNKNOWN
        for a, b, a2, b2 in itertools.product(Tri, repeat=4):
            if refines(a, a2) and refines(b, b2):
                assert refines(tri_or(a, b), tri_or(a2, b2))

    def test_json_round_trip(self):
        pp = nm_param()
        assert ProductParam.from_json(pp.to_json()) == pp


class TestShape:
    def test_depth_three_union_of_two_deep_components(self):
        for variant in ("nm", "mn"):
            shape = quantifier_shape(variant)
            assert shape[0] == "union"
            assert quantifier_depth(shape) == 3
            assert all(quantifier_depth(child) == 2 for child in shape[1:])

    def test_every_reader_of_the_variant_refuses_an_unknown_one(self):
        assert halves("nm") == ("null", "meager") and halves("mn") == ("meager", "null")
        readers = [
            halves,
            quantifier_shape,
            lambda v: ProductParam(v, None, None),
            lambda v: product_encode(v, None, None),
            # named before either half is read
            lambda v: ProductParam.from_json({"variant": v, "first": {}, "second": {}}),
        ]
        for read in readers:
            with pytest.raises(ValueError, match="unknown variant 'xx'"):
                read("xx")

    def test_component_shapes(self):
        assert quantifier_shape("nm")[1] == ("forall", ("exists", "clopen"))
        assert quantifier_shape("nm")[2] == ("exists", ("forall", "clopen"))
        assert quantifier_shape("mn")[1:] == tuple(reversed(quantifier_shape("nm")[1:]))


class TestDiagnostic:
    def test_full_square_all_flagged(self):
        d = 3
        rows = ["1" * (1 << d)] * (1 << d)
        flagged = section_diagnostic(rows, DensityProxy(1, 1))
        assert flagged == (1 << (1 << d)) - 1

    def test_empty_square_unflagged(self):
        rows = ["0" * 8] * 8
        assert section_diagnostic(rows, DensityProxy(1, 1)) == 0
        assert section_diagnostic(rows, SomewhereDenseProxy(1)) == 0

    def test_diagonal_sections_are_thin(self):
        d = 3
        rows = []
        for i in range(1 << d):
            row = ["0"] * (1 << d)
            row[i] = "1"
            rows.append("".join(row))
        assert section_diagnostic(rows, DensityProxy(1, 1)) == 0

    def test_density_threshold_is_exact(self):
        rows = ["1100", "1110", "0000", "1111"]
        flagged = section_diagnostic(rows, DensityProxy(3, 2))
        assert flagged_bits(flagged, 2) == "0101"

    def test_somewhere_dense_proxy(self):
        # row 0 meets both halves, row 1 only the left half
        rows = ["1001", "1100", "0000", "0110"]
        flagged = section_diagnostic(rows, SomewhereDenseProxy(1))
        assert flagged_bits(flagged, 2) == "1001"

    def test_row_validation(self):
        with pytest.raises(LengthMismatch):
            section_diagnostic(["10", "01", "11"], DensityProxy(1, 1))
        with pytest.raises(LengthMismatch):
            section_diagnostic(["10", "0"], DensityProxy(1, 1))

    def test_a_row_that_is_not_a_0_1_word_is_refused(self):
        # int(_, 2) reads "_" as a digit separator and skips outer spaces,
        # so these rows used to be read as shorter words
        for rows in (["1_01", "0_10", "11_1", "0000"], [" 10 ", "0000", "0000", "0000"], ["12", "01"]):
            for proxy in (DensityProxy(1, 1), SomewhereDenseProxy(1)):
                with pytest.raises(ValueError):
                    section_diagnostic(rows, proxy)

    def test_a_square_past_the_cap_is_refused_before_any_row_is_read(self):
        with pytest.raises(LevelCapExceeded) as e:
            section_diagnostic([""] * 8192, DensityProxy(1, 1))
        assert (e.value.level, e.value.cap) == (13, 12)
