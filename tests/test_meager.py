import random

import pytest

from idealis import enumerations, meager, space
from idealis.checks import brute_fxp
from idealis.errors import IdealisError, InsufficientPrefix, LevelCapExceeded, NotDense
from idealis.meager import (
    IntervalPartition,
    MeagerParam,
    dense_open_encode,
    dense_section_stage,
    fxp_eval,
    meager_encode,
    meager_eval,
    partition_from,
)
from idealis.enumerations import basic_open_cantor, basic_word_cantor, kprime
from idealis.space import Clopen, Tri


class TestPartition:
    def test_minimal_widths(self):
        p = partition_from((0, 0, 0))
        assert p.intervals == ((0, 1), (1, 2), (2, 3))

    def test_displayed_widths(self):
        assert partition_from((2, 3)).intervals == ((0, 3), (3, 7))

    def test_empty(self):
        assert partition_from(()).intervals == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalPartition(((1, 2),))


class TestFxp:
    def test_equal_words_fail(self):
        p = partition_from((1, 1))
        assert fxp_eval("0101", p, "0101", 0) is Tri.FAILS

    def test_complement_holds(self):
        p = partition_from((1, 1))
        assert fxp_eval("0101", p, "1010", 0) is Tri.HOLDS
        assert fxp_eval("0101", p, "1010", 1) is Tri.HOLDS

    def test_equal_only_on_first_block(self):
        # blocks [0,3) and [3,7)
        p = partition_from((2, 3))
        x = "0101010"
        z = "0100101"  # agrees on [0,3), differs inside [3,7)
        assert fxp_eval(x, p, z, 0) is Tri.FAILS
        assert fxp_eval(x, p, z, 1) is Tri.HOLDS

    def test_insufficient_window(self):
        p = partition_from((2, 3))
        with pytest.raises(InsufficientPrefix):
            fxp_eval("01", p, "10", 0)
        with pytest.raises(InsufficientPrefix):
            fxp_eval("0101010", p, "0101010", 2)

    def test_matches_oracle_exhaustively_small(self):
        partitions = [partition_from(y) for length in range(1, 3)
                      for y in __import__("itertools").product(range(3), repeat=length)]
        for p in partitions:
            cov = p.covered
            for xv in range(1 << cov):
                x = format(xv, f"0{cov}b")
                for zv in range(1 << cov):
                    z = format(zv, f"0{cov}b")
                    for fb in range(len(p.intervals)):
                        expect = brute_fxp(x, p, z, fb)
                        assert fxp_eval(x, p, z, fb) is expect


class TestDenseOpen:
    def test_whole_space_stage(self):
        x = (0, 0)
        assert dense_section_stage(x, 1) == Clopen.full()

    def test_negative_stage_is_the_union_of_no_terms(self):
        assert dense_section_stage((0, 0), -1) == Clopen.empty()

    def test_stage_monotone_in_n_max(self):
        rng = random.Random(5)
        for _ in range(30):
            x = tuple(rng.randrange(20) for _ in range(9))
            prev = Clopen.empty()
            for n_max in range(1, 9):
                cur = dense_section_stage(x, n_max)
                assert prev.subset(cur)
                prev = cur

    def test_sections_meet_every_basic_open_unconditionally(self):
        rng = random.Random(17)
        for _ in range(50):
            x = tuple(rng.randrange(30) for _ in range(11))
            stage = dense_section_stage(x, 10)
            for n in range(1, 11):
                assert stage.meets(basic_open_cantor(n))

    def test_encode_whole_space(self):
        x = dense_open_encode(Clopen.full(), 6)
        assert dense_section_stage(x, 6).subset(Clopen.full())

    def test_encode_subset_law(self):
        w = Clopen.from_words(2, ["00", "10"])  # dense at level 1
        x = dense_open_encode(w, 4)
        assert dense_section_stage(x, 4).subset(w)
        # first basic subset of the whole space inside w is [00], rank 3
        assert x[1] == 3

    def test_not_dense(self):
        with pytest.raises(NotDense) as e:
            dense_open_encode(Clopen.from_words(1, ["0"]), 4)
        assert e.value.n == 3  # the basic set [1]

    def test_encode_reads_the_level_cap_once_per_dense_open(self, monkeypatch):
        rng = random.Random(12)
        dense = [
            Clopen.cylinder(format(rng.getrandbits(6), "06b")).complement() for _ in range(5)
        ]
        expected = meager_encode(dense, 40)
        reads = []

        def counting_max_level():
            reads.append(1)
            return space.DEFAULT_MAX_LEVEL

        # every module that holds the name, so that no read goes uncounted
        for module in (space, enumerations, meager):
            monkeypatch.setattr(module, "max_level", counting_max_level)
        assert meager_encode(dense, 40) == expected
        assert 0 < len(reads) <= len(dense)

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientPrefix):
            dense_section_stage((0, 0), 2)


def linear_dense_open_encode(w, n_max):
    """Oracle: the least m of each selection, found by trying m = 0, 1, ...
    with ``kprime`` until the basic subset lies inside ``w``."""
    cap = space.max_level()
    for n in range(1, n_max + 1):
        if not w.meets_cylinder(basic_word_cantor(n, cap)):
            raise NotDense(n)
    choices = [0]
    for n in range(1, n_max + 1):
        m = 0
        while not w.covers_cylinder(basic_word_cantor(kprime(n, m), cap)):
            m += 1
        choices.append(m)
    return tuple(choices)


def encode_outcome(encode, w, n_max):
    try:
        return encode(w, n_max)
    except IdealisError as e:
        return e.name, e.detail()


class TestDenseClosedForm:
    """``dense_open_encode`` reads each selection off the target's mask;
    the linear search over m is its oracle, errors included."""

    @pytest.mark.parametrize("n_max", [1, 5, 14, 30])
    def test_matches_the_linear_search_on_random_targets(self, n_max):
        rng = random.Random(3100 + n_max)
        names = set()
        for _ in range(150):
            level = rng.randrange(10)
            density = rng.choice([0.3, 0.6, 0.9, 0.99])
            mask = sum(1 << i for i in range(1 << level) if rng.random() < density)
            w = Clopen.from_mask(level, mask)
            got = encode_outcome(dense_open_encode, w, n_max)
            assert got == encode_outcome(linear_dense_open_encode, w, n_max), (w, n_max)
            names.add(got[0] if got[0] == NotDense.name else "ok")
        assert names == {"ok", NotDense.name}

    @pytest.mark.parametrize("n_max", [0, 1, 5, 14, 30])
    def test_empty_and_non_dense_targets_raise_the_same_error(self, n_max):
        rng = random.Random(3200 + n_max)
        targets = [Clopen.empty(), Clopen.from_words(1, ["0"]), Clopen.from_words(3, ["000", "111"])]
        targets += [Clopen.from_mask(6, rng.getrandbits(64) & rng.getrandbits(64)) for _ in range(20)]
        for w in targets:
            got = encode_outcome(dense_open_encode, w, n_max)
            assert got == encode_outcome(linear_dense_open_encode, w, n_max), (w, n_max)
        assert encode_outcome(dense_open_encode, Clopen.empty(), n_max) == (
            (NotDense.name, {"basic_open": 1}) if n_max else (0,)
        )

    def test_a_target_deeper_than_a_lowered_cap(self, monkeypatch):
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "5")
        # every fourth level-9 word is missing, so the shallowest cylinder
        # inside lies 8 levels below the whole space: past the cap
        w = Clopen.from_mask(9, sum(1 << i for i in range(512) if i % 4))
        want = (LevelCapExceeded.name, {"level": 6, "cap": 5})
        assert encode_outcome(dense_open_encode, w, 3) == want
        assert encode_outcome(linear_dense_open_encode, w, 3) == want
        rng = random.Random(33)
        for _ in range(100):
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", str(rng.randrange(1, 8)))
            level = rng.randrange(5, 10)
            mask = sum(1 << i for i in range(1 << level) if rng.random() < 0.9)
            w = Clopen.from_mask(level, mask)
            n_max = rng.choice([1, 5, 14, 30])
            got = encode_outcome(dense_open_encode, w, n_max)
            assert got == encode_outcome(linear_dense_open_encode, w, n_max), (w, n_max)


class TestMeager:
    def test_rows_zero_fails(self):
        p = meager_encode([], 5)
        assert meager_eval(p, "010", rows=0, n_max=3) is Tri.FAILS

    def test_complement_of_encoded_set_holds(self):
        w = Clopen.from_words(2, ["00", "10"])  # dense at level 1, misses [01]
        p = meager_encode([w], 3)
        # [01] never meets the stage union (it stays inside w)
        assert meager_eval(p, "01", rows=1, n_max=3) is Tri.HOLDS

    def test_two_rows_cover_both_complements(self):
        w1 = Clopen.from_words(2, ["00", "10"])
        w2 = Clopen.from_words(2, ["01", "11"])
        p = meager_encode([w1, w2], 3)
        assert p.rows == 2
        # every level-2 cylinder avoids one of the two encoded sets
        for z in ("00", "01", "10", "11"):
            assert meager_eval(p, z, rows=2, n_max=3) is Tri.HOLDS

    def test_full_space_rows_never_hold(self):
        p = meager_encode([Clopen.full(), Clopen.full()], 5)
        assert meager_eval(p, "0110", rows=2, n_max=5) is Tri.FAILS

    def test_never_flips_as_stage_grows(self):
        rng = random.Random(29)
        for _ in range(40):
            horizon = rng.randint(2, 7)
            rows = rng.randint(1, 3)
            size = 1 + max(
                __import__("idealis.space", fromlist=["pair"]).pair(r, n)
                for r in range(rows)
                for n in range(horizon + 1)
            )
            p = MeagerParam(
                tuple(rng.randrange(12) for _ in range(size)), rows, horizon
            )
            z = format(rng.randrange(16), "04b")
            answers = [meager_eval(p, z, rows, n) for n in range(1, horizon + 1)]
            decided = {a for a in answers if a is not Tri.UNKNOWN}
            assert len(decided) <= 1

    def test_eval_beyond_horizon_errors(self):
        p = meager_encode([Clopen.full()], 4)
        with pytest.raises(InsufficientPrefix):
            meager_eval(p, "01", rows=1, n_max=5)

    def test_a_word_not_of_bits_is_refused_after_the_horizon(self):
        p = meager_encode([Clopen.full()], 4)
        with pytest.raises(ValueError, match="bad word"):
            meager_eval(p, "012", rows=1, n_max=4)
        with pytest.raises(InsufficientPrefix):
            meager_eval(p, "012", rows=1, n_max=5)
        assert not p._states

    @pytest.mark.parametrize("cut,required", [(10, 14), (3, 6)])
    def test_short_prefix_names_first_missing_cell(self, cut, required):
        # two rows, horizon 3: row 0 sits at 0, 2, 5, 9 and row 1 at
        # 1, 4, 8, 13; a cut at 10 falls inside row 1, a cut at 3 inside row 0
        whole = meager_encode([Clopen.full(), Clopen.full()], 3)
        p = MeagerParam(whole.prefix[:cut], 2, 3)
        for n_max in range(4):
            with pytest.raises(InsufficientPrefix) as e:
                meager_eval(p, "01", 2, n_max)
            assert (e.value.required_length, e.value.what) == (required, "prefix")

    def test_json_round_trip(self):
        p = meager_encode([Clopen.from_words(2, ["00", "10"])], 3)
        assert MeagerParam.from_json(p.to_json()) == p


class TestBlockAgreementDensity:
    def test_agreement_set_is_dense_at_block_resolution(self):
        # for each complete block, the z agreeing with x there form one
        # level-b cylinder inside every level-a cylinder
        from idealis.space import index_word

        x = "0110101"
        p = partition_from((2, 3))
        for a, b in p.intervals:
            agree = Clopen.from_words(
                b, [index_word(i, a) + x[a:b] for i in range(1 << a)]
            )
            assert not agree.is_empty
            for i in range(1 << a):
                head = Clopen.cylinder(index_word(i, a))
                assert agree.meets(head)
                assert agree.intersect(head).level <= b
