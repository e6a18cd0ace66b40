import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealis.closed_null import EParam, ETripleParam
from idealis.countable import CountableParam
from idealis.domination import KsigmaParam, LaverParam
from idealis.enumerations import BaireCylinder
from idealis.errors import IndexOutOfRange, InsufficientPrefix
from idealis.fubini import DensityProxy, ProductParam, ProductPoint, SomewhereDenseProxy
from idealis.meager import IntervalPartition, MeagerParam
from idealis.nullset import CoverFamily, NullEncoding, NullParam
from idealis.space import (
    SEQ_CODE_BITS,
    Clopen,
    FsigmaParam,
    RowParam,
    _reduce_once,
    _reducible,
    Tri,
    canonicalize,
    matrix_entry,
    pack_rows,
    pair,
    seq_code,
    seq_decode,
    tri_or,
    unpair,
)


def all_clopens(level):
    """Every clopen set expressible at `level`, as canonical values."""
    return [Clopen.from_mask(level, m) for m in range(1 << (1 << level))]


class TestMeasure:
    def test_full_space(self):
        assert Clopen.full().measure() == 1

    def test_single_cylinder(self):
        assert Clopen.from_words(3, ["010"]).measure() == Fraction(1, 8)

    def test_counting(self):
        assert Clopen.from_words(2, ["00", "01", "10"]).measure() == Fraction(3, 4)


class TestCanonicalize:
    def test_sibling_merge(self):
        assert canonicalize(1, ["0", "1"]) == Clopen(0, 1)

    def test_no_reduction(self):
        c = canonicalize(2, ["00", "01", "10"])
        assert c.level == 2 and c.words() == ["00", "01", "10"]

    def test_empty(self):
        assert canonicalize(2, []) == Clopen(0, 0)

    def test_deep_merge_to_full(self):
        words = [format(i, "03b") for i in range(8)]
        assert canonicalize(3, words) == Clopen.full()

    def test_words_list_every_set_bit_in_order(self):
        # oracle: test each of the 2^level positions of the mask
        rng = random.Random(61)
        for level in range(13):
            top = (1 << (1 << level)) - 1
            sparse = 0
            for _ in range(3):
                sparse |= 1 << rng.randrange(1 << level)
            for mask in (rng.randint(0, top), sparse, top ^ sparse):
                c = Clopen.from_mask(level, mask)
                want = [
                    format(i, f"0{c.level}b") if c.level else ""
                    for i in range(1 << c.level)
                    if c.mask >> i & 1
                ]
                assert c.words() == want

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(ValueError):
            Clopen(1, 0b11)

    def test_rejects_a_negative_level_and_a_word_not_of_bits(self):
        with pytest.raises(ValueError, match="negative level"):
            Clopen(-1, 0)
        with pytest.raises(ValueError, match="bad word '2' for level 1"):
            Clopen.from_words(1, ["2"])

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_measure_preserving(self, level, data):
        mask = data.draw(st.integers(0, (1 << (1 << level)) - 1))
        words = [format(i, f"0{level}b") if level else "" for i in range(1 << level) if mask >> i & 1]
        c = canonicalize(level, words)
        again = canonicalize(c.level, c.words())
        assert again == c
        assert c.measure() == Fraction(bin(mask).count("1"), 1 << level)

    def test_from_mask_rejects_masks_out_of_range(self):
        # only odd, out-of-range bits are set: one reduction step would
        # drop them and read the empty set
        for level, mask in ((1, 0b1000), (2, 1 << 17), (3, -1)):
            with pytest.raises(ValueError):
                Clopen.from_mask(level, mask)

    @given(st.integers(0, 12), st.sampled_from(["random", "lifted", "lifted-flip"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reducible_matches_string_definition(self, level, kind, data):
        def by_strings(level, mask):
            # the definition by string slicing that _reducible replaced
            if level == 0:
                return False
            bits = format(mask, f"0{1 << level}b")[::-1]
            return bits[0::2] == bits[1::2]

        width = 1 << level
        if kind == "random" or level == 0:
            mask = data.draw(st.integers(0, (1 << width) - 1))
        else:
            # a level-(L-1) mask lifted to level L: each word's two children
            coarse = data.draw(st.integers(0, (1 << (width // 2)) - 1))
            mask = int("".join(ch * 2 for ch in format(coarse, f"0{width // 2}b")), 2)
            assert _reducible(level, mask)
            if kind == "lifted-flip":
                mask ^= 1 << data.draw(st.integers(0, width - 1))
                assert not _reducible(level, mask)
        assert _reducible(level, mask) == by_strings(level, mask)


class TestAlgebra:
    def test_union_identity(self):
        for x in all_clopens(2):
            assert Clopen.empty().union(x) == x

    def test_lift_and_intersect(self):
        a = Clopen.from_words(1, ["0"])
        b = Clopen.from_words(2, ["01", "10"])
        assert a.intersect(b) == Clopen.from_words(2, ["01"])

    def test_prefix_containment(self):
        assert Clopen.from_words(2, ["00"]).subset(Clopen.from_words(1, ["0"]))
        assert not Clopen.from_words(1, ["0"]).subset(Clopen.from_words(2, ["00"]))

    def test_measure_additivity_exhaustive_small(self):
        # lambda(a u b) + lambda(a n b) == lambda(a) + lambda(b), exactly
        for a in all_clopens(2):
            for b in all_clopens(2):
                lhs = a.union(b).measure() + a.intersect(b).measure()
                rhs = a.measure() + b.measure()
                assert lhs == rhs

    def test_measure_additivity_randomized_level6(self):
        rng = random.Random(7)
        top = (1 << (1 << 6)) - 1
        for _ in range(200):
            a = Clopen.from_mask(6, rng.randint(0, top))
            b = Clopen.from_mask(6, rng.randint(0, top))
            lhs = a.union(b).measure() + a.intersect(b).measure()
            assert lhs == a.measure() + b.measure()

    def test_complement_involution_and_subset_law(self):
        for a in all_clopens(2):
            assert a.complement().complement() == a
            for b in all_clopens(2):
                assert a.subset(b) == a.intersect(b.complement()).is_empty

    def test_json_round_trip(self):
        c = Clopen.from_words(3, ["010", "110"])
        assert Clopen.from_json(c.to_json()) == c
        assert c.to_json() == {"level": 3, "words": ["010", "110"]}


def lift_by_strings(level, mask, to):
    """The string lift that bit spreading replaced: each bit repeated
    2^(to - level) times."""
    stretch = 1 << (to - level)
    return int("".join(ch * stretch for ch in format(mask, f"0{1 << level}b")), 2)


def reduce_by_strings(level, mask):
    """The string reduction that integer compaction replaced: keep the
    even-numbered bit of each pair."""
    kept = format(mask, f"0{1 << level}b")[::-1][0::2]
    return level - 1, int(kept[::-1], 2) if kept else 0


def canonical_by_strings(level, mask):
    while level > 0:
        bits = format(mask, f"0{1 << level}b")[::-1]
        if bits[0::2] != bits[1::2]:
            break
        level, mask = reduce_by_strings(level, mask)
    return level, mask


def random_at_level(rng, level):
    """A canonical set of exactly this level, bits drawn by rng."""
    while True:
        c = Clopen.from_mask(level, rng.getrandbits(1 << level))
        if c.level == level:
            return c


class TestLift:
    def test_mask_at_matches_string_lift(self):
        rng = random.Random(12)
        for lv in range(13):
            sets = [Clopen.empty(), Clopen.full()] + [random_at_level(rng, lv) for _ in range(3)]
            for level in range(lv, 13):
                for c in sets:
                    if c.level <= level:
                        assert c.mask_at(level) == lift_by_strings(c.level, c.mask, level)

    def test_mask_at_refuses_a_shallower_level(self):
        with pytest.raises(ValueError, match="shallower"):
            Clopen.cylinder("01").mask_at(1)

    def test_algebra_matches_string_lift(self):
        rng = random.Random(13)
        for lv in range(13):
            for level in range(lv, 13):
                a, b = random_at_level(rng, lv), random_at_level(rng, level)
                if rng.randrange(2):
                    a, b = b, a
                top = max(a.level, b.level)
                ma = lift_by_strings(a.level, a.mask, top)
                mb = lift_by_strings(b.level, b.mask, top)
                u, i = a.union(b), a.intersect(b)
                assert (u.level, u.mask) == canonical_by_strings(top, ma | mb)
                assert (i.level, i.mask) == canonical_by_strings(top, ma & mb)
                assert a.subset(b) == (ma & ~mb == 0)
                assert a.meets(b) == (ma & mb != 0)

    def test_reduce_once_matches_string_reduction(self):
        rng = random.Random(14)
        for level in range(1, 13):
            top = (1 << (1 << level)) - 1
            for mask in [0, top] + [rng.getrandbits(1 << level) for _ in range(20)]:
                assert _reduce_once(level, mask) == reduce_by_strings(level, mask)


def _clopens(data):
    """Canonical sets at levels 0..12: random, sparse, co-sparse, empty, full."""
    kind = data.draw(st.sampled_from(["random", "sparse", "co-sparse", "empty", "full"]))
    if kind == "empty":
        return Clopen.empty()
    if kind == "full":
        return Clopen.full()
    level = data.draw(st.integers(0, 12))
    top = (1 << (1 << level)) - 1
    if kind == "random":
        return Clopen.from_mask(level, data.draw(st.integers(0, top)))
    idx = st.integers(0, (1 << level) - 1)
    mask = 0
    for i in data.draw(st.lists(idx, min_size=1, max_size=4)):
        mask |= 1 << i
    return Clopen.from_mask(level, mask if kind == "sparse" else top ^ mask)


class TestCylinderQueries:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_agree_with_the_built_cylinder(self, data):
        s = _clopens(data)
        length = data.draw(st.integers(0, s.level + 4))
        z = data.draw(st.text(alphabet="01", min_size=length, max_size=length))
        cyl = Clopen.cylinder(z)  # oracle: lift both to a common level
        assert s.meets_cylinder(z) == cyl.meets(s)
        assert s.covers_cylinder(z) == cyl.subset(s)

    def test_empty_word_is_the_whole_space(self):
        s = Clopen.from_words(2, ["01"])
        assert s.meets_cylinder("") and not s.covers_cylinder("")
        assert Clopen.full().covers_cylinder("")
        assert not Clopen.empty().meets_cylinder("")

    def test_long_word_reads_one_bit(self):
        s = Clopen.from_words(3, ["010", "110"])
        assert s.covers_cylinder("010" + "1" * 10_000)
        assert not s.meets_cylinder("011" + "0" * 10_000)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inside_masks_list_the_covered_cylinders(self, data):
        s = _clopens(data)
        masks = s.inside_masks()
        assert len(masks) == s.level + 1 and masks[-1] == s.mask
        for level, mask in enumerate(masks):
            for i in range(1 << level):
                word = format(i, f"0{level}b") if level else ""
                assert (mask >> i & 1) == s.covers_cylinder(word)


class TestPairing:
    def test_base_case(self):
        assert pair(0, 0) == 0

    def test_closed_form_values(self):
        assert pair(1, 0) == 1
        assert pair(0, 1) == 2

    def test_inverse_law(self):
        for m in range(100):
            for n in range(100):
                assert unpair(pair(m, n)) == (m, n)

    def test_negative_arguments_are_refused(self):
        # pair(-5, 2) used to be 5 = pair(0, 2)
        for m, n in [(-5, 2), (2, -5), (-1, -1), (-(10**30), 0)]:
            with pytest.raises(IndexOutOfRange):
                pair(m, n)

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_unpair_total(self, k):
        m, n = unpair(k)
        assert pair(m, n) == k


class TestSeqCode:
    def test_defining_clause(self):
        assert seq_code(()) == 0

    def test_decode_small(self):
        assert seq_decode(1) == (0,)
        assert seq_decode(2) == (0, 0)

    def test_mutually_inverse_exhaustive(self):
        # all sequences of length <= 4 with entries < 8
        seqs = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [s + (a,) for s in frontier for a in range(8)]
            seqs.extend(frontier)
        codes = set()
        for s in seqs:
            k = seq_code(s)
            assert seq_decode(k) == s
            codes.add(k)
        assert len(codes) == len(seqs)

    def test_code_past_the_bit_bound_is_refused(self):
        # each entry roughly squares the code: [2] * 19 has 574,036 bits,
        # [2] * 20 would have 1,148,070
        assert seq_code([2] * 19).bit_length() == 574036 <= SEQ_CODE_BITS
        for s in ([2] * 20, [1] * 26, [2] * 19 + [0] * 5):
            with pytest.raises(IndexOutOfRange):
                seq_code(s)
        with pytest.raises(IndexOutOfRange):
            seq_code([1 << SEQ_CODE_BITS])

    def test_negative_entries_and_codes_are_refused(self):
        # seq_code((-1,)) used to alias the code 0 of the empty sequence,
        # and seq_decode of a negative code to answer the empty sequence
        for s in ((-1,), (0, -1), (3, 1, -5)):
            with pytest.raises(IndexOutOfRange):
                seq_code(s)
        for k in (-1, -5):
            with pytest.raises(IndexOutOfRange):
                seq_decode(k)


class TestFsigmaParam:
    def test_subclasses_share_the_format_but_not_equality(self):
        fields = ((1, 2, 3), 1, 0)
        m, e = MeagerParam(*fields), EParam(*fields)
        assert m != e and e != m
        assert m == MeagerParam(*fields) and e == EParam(*fields)
        assert m.to_json() == e.to_json()
        assert hash(m) == hash(e) == hash(fields)
        assert type(MeagerParam.from_json(e.to_json())) is MeagerParam
        assert type(EParam.from_json(m.to_json())) is EParam
        assert MeagerParam.from_json(m.to_json()) == m
        assert repr(m) == "MeagerParam(prefix=(1, 2, 3), rows=1, horizon=0)"
        assert repr(e) == "EParam(prefix=(1, 2, 3), rows=1, horizon=0)"

    def test_subclasses_declare_no_fields_and_stay_frozen(self):
        names = FsigmaParam._fields
        assert names == ("prefix", "rows", "horizon")
        for kind in (MeagerParam, EParam):
            assert kind._fields == names and "_fields" not in vars(kind)
            p = kind((), 0, 0)
            for name in ("rows", "extra"):
                with pytest.raises(AttributeError):
                    setattr(p, name, 1)
                assert getattr(p, name, None) == (0 if name == "rows" else None)


# one sample of each immutable value class: the constructor arguments,
# the compared fields and the repr
RECORDS = [
    (Clopen, (2, 6), (2, 6), "Clopen(level=2, words=['01', '10'])"),
    (RowParam, ((1, 2),), ((1, 2),), "RowParam(prefix=(1, 2))"),
    (FsigmaParam, ((1, 2, 3), 1, 0), ((1, 2, 3), 1, 0),
     "FsigmaParam(prefix=(1, 2, 3), rows=1, horizon=0)"),
    (BaireCylinder, ((0, 2),), ((0, 2),), "BaireCylinder(stem=(0, 2))"),
    (CoverFamily, (((Clopen(2, 1),),),), (((Clopen(2, 1),),),),
     "CoverFamily(covers=((Clopen(level=2, words=['00']),),))"),
    (NullParam, ((1, 2, 3), (1,)), ((1, 2, 3), (1,)), "NullParam(prefix=(1, 2, 3), witness=(1,))"),
    (NullEncoding, (NullParam((), ()), (), (0,)), (NullParam((), ()), (), (0,)),
     "NullEncoding(param=NullParam(prefix=(), witness=()), flat=(), cuts=(0,))"),
    (IntervalPartition, (((0, 1), (1, 3)),), (((0, 1), (1, 3)),),
     "IntervalPartition(intervals=((0, 1), (1, 3)))"),
    (MeagerParam, ((1, 2, 3), 1, 0), ((1, 2, 3), 1, 0),
     "MeagerParam(prefix=(1, 2, 3), rows=1, horizon=0)"),
    (ETripleParam, ((0,), (1,), (2,)), ((0,), (1,), (2,)), "ETripleParam(x0=(0,), x1=(1,), x2=(2,))"),
    (EParam, ((1, 2, 3), 1, 0), ((1, 2, 3), 1, 0), "EParam(prefix=(1, 2, 3), rows=1, horizon=0)"),
    (CountableParam, ((1, 2), 1), ((1, 2), 1), "CountableParam(prefix=(1, 2), rows=1)"),
    (KsigmaParam, ((3, 1),), ((3, 1),), "KsigmaParam(bound=(3, 1))"),
    # the sequences beside the codes are not compared
    (LaverParam, (((3, 2),), ((1,),)), (((3, 2),),), "LaverParam(entries=((3, 2),))"),
    (ProductPoint, ("01", "10"), ("01", "10"), "ProductPoint(y='01', z='10')"),
    (ProductParam, ("nm", NullParam((), ()), MeagerParam((), 0, 0)),
     ("nm", NullParam((), ()), MeagerParam((), 0, 0)),
     "ProductParam(variant='nm', first=NullParam(prefix=(), witness=()),"
     " second=MeagerParam(prefix=(), rows=0, horizon=0))"),
    # kept in lowest terms
    (DensityProxy, (6, 3), (3, 2), "DensityProxy(num=3, exp=2)"),
    (SomewhereDenseProxy, (1,), (1,), "SomewhereDenseProxy(split=1)"),
]


@pytest.mark.parametrize("kind, args, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_every_value_class_compares_hashes_shows_and_freezes_its_fields(kind, args, fields, text):
    value = kind(*args)
    assert value == kind(*args) and not value != kind(*args)
    assert value != fields and hash(value) == hash(kind(*args)) == hash(fields)
    assert repr(value) == text
    first = text[len(kind.__name__) + 1:].partition("=")[0]
    before = getattr(value, first)
    with pytest.raises(AttributeError):
        setattr(value, first, 1)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) is before and value == kind(*args)


@pytest.mark.parametrize("kind, args", [r[:2] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_no_value_class_takes_a_new_attribute(kind, args):
    # a frozen dataclass with slots raised TypeError here, not AttributeError
    value = kind(*args)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


class TestMatrixEntry:
    def test_index_zero(self):
        assert matrix_entry((7, 1, 2), 0, 0) == 7
        assert matrix_entry((7, 1, 2), 0, 0, zero_past_end=True) == 7

    def test_insufficient_prefix(self):
        cases = [((1, 2, 3), 1, 1, 5), ((), 0, 0, 1), ((5,), 1, 0, 2), (tuple(range(9)), 0, 3, 10)]
        for f, n, k, required in cases:
            with pytest.raises(InsufficientPrefix) as e:
                matrix_entry(f, n, k)
            assert e.value.required_length == required
            assert matrix_entry(f, n, k, zero_past_end=True) == 0

    def test_agrees_with_direct_indexing(self):
        f = tuple(range(40))
        for n in range(6):
            for k in range(6):
                if pair(n, k) < len(f):
                    assert matrix_entry(f, n, k) == f[pair(n, k)]
                    assert matrix_entry(f, n, k, zero_past_end=True) == f[pair(n, k)]


class TestPackRows:
    def test_no_cells(self):
        assert pack_rows([]) == ()
        assert pack_rows([(), ()]) == ()

    def test_length_is_one_past_the_last_cell(self):
        assert pack_rows([(4, 5, 6)]) == (4, 0, 5, 0, 0, 6)
        assert pack_rows([(), (8,)]) == (0, 8)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 99), max_size=6), max_size=5))
    def test_ragged_round_trip(self, rows):
        f = pack_rows(rows)
        cells = [pair(r, len(row) - 1) for r, row in enumerate(rows) if row]
        assert len(f) == 1 + max(cells, default=-1)
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                assert matrix_entry(f, r, c) == v
            end = len(row)
            while pair(r, end) < len(f):
                end += 1
            with pytest.raises(InsufficientPrefix) as e:
                matrix_entry(f, r, end)
            assert e.value.required_length == pair(r, end) + 1
            assert matrix_entry(f, r, end, zero_past_end=True) == 0


class TestTri:
    def test_or_table(self):
        H, F, U = Tri.HOLDS, Tri.FAILS, Tri.UNKNOWN
        assert tri_or(H, F) is H and tri_or(F, H) is H and tri_or(H, U) is H
        assert tri_or(F, F) is F
        assert tri_or(F, U) is U and tri_or(U, U) is U


class TestLevelCap:
    def test_default_cap(self):
        from idealis.space import max_level

        assert max_level() == 12

    def test_env_override(self, monkeypatch):
        from idealis.errors import LevelCapExceeded
        from idealis.space import max_level

        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "4")
        assert max_level() == 4
        with pytest.raises(LevelCapExceeded):
            canonicalize(5, [])
        assert canonicalize(4, []).is_empty
