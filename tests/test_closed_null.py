import random
from fractions import Fraction
from math import comb

import pytest

from idealis.checks import random_triple
from idealis.closed_null import (
    EParam,
    ETripleParam,
    e_fsigma_member,
    e_open_encode,
    e_open_stage,
    e_term,
)
from idealis.enumerations import kcomb_rank
from idealis.errors import IdealisError, IndexOutOfRange, InsufficientPrefix, InsufficientResolution, LevelCapExceeded
from idealis.space import Clopen, Tri, _require_level, max_level, pair


def listed_e_open_encode(v, m_max):
    """Oracle: ``e_open_encode`` from explicit lists of the cylinders
    inside v, one list per level tried."""

    def inside(level):
        if level >= v.level:
            mask = v.mask_at(level)
            return [i for i in range(1 << level) if mask >> i & 1]
        # a shallow cylinder counts only when all its extensions are inside
        step = 1 << (v.level - level)
        full = (1 << step) - 1
        return [i for i in range(1 << level) if (v.mask >> (i * step)) & full == full]

    cap = max_level()
    x0, x1, x2 = [], [], []
    for n in range(m_max + 1):
        chosen = None
        for lvl in range(v.level + 1):
            count = len(inside(lvl))
            if lvl < n:
                if count == 1 << lvl:
                    chosen = lvl
                    break
            elif count >= (1 << lvl) - (1 << (lvl - n)):
                chosen = lvl
                break
        if chosen is None:
            raise InsufficientResolution(n)
        lifted = max(chosen, n)
        _require_level(lifted, cap)
        size = (1 << lifted) - (1 << (lifted - n)) if n else 0
        x0.append(0)
        x1.append(chosen)
        x2.append(kcomb_rank(1 << lifted, inside(lifted)[:size]))
    return ETripleParam(tuple(x0), tuple(x1), tuple(x2))


class TestTerm:
    def test_direct_small_case(self):
        # x0(1)=0, x1(1)=1, x2(1)=0 at n=1: one level-1 cylinder, measure 1/2
        p = ETripleParam((0, 0), (0, 1), (0, 0))
        assert e_term(p, 1) == Clopen.from_words(1, ["0"])
        assert e_term(p, 1).measure() == Fraction(1, 2)

    def test_degenerate_size_zero(self):
        p = ETripleParam((0,), (0,), (0,))
        assert e_term(p, 0) == Clopen.empty()

    def test_negative_position_is_refused(self):
        p = ETripleParam((0, 0), (0, 1), (0, 0))
        for n in (-1, -2, -10**22):
            with pytest.raises(IndexOutOfRange):
                e_term(p, n)

    def test_negative_cell_is_refused(self):
        for i in range(3):
            cells = [[0, 0], [0, 1], [0, 0]]
            cells[i][1] = -1
            with pytest.raises(IndexOutOfRange, match="position 1"):
                e_term(ETripleParam(*map(tuple, cells)), 1)

    def test_coordinates_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="share a length"):
            ETripleParam((0, 0), (0,), (0, 0))

    def test_measure_law_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(7)
            p = random_triple(rng, n + 1)
            m = p.x0[n] + n
            assert e_term(p, n).measure() == (
                1 - Fraction(1, 1 << m) if m else 0
            )

    def test_level_lift_keeps_measure(self):
        # requested level 1 is too shallow for m = 3
        p = ETripleParam((3,), (1,), (123456,))
        t = e_term(p, 0)
        assert t.measure() == Fraction(7, 8)

    def test_cardinality_law(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randrange(6)
            p = random_triple(rng, n + 1)
            m = p.x0[n] + n
            lvl = max(p.x1[n], m)
            t = e_term(p, n)
            expect = (1 << lvl) - (1 << (lvl - m)) if m else 0
            assert t.mask_at(lvl).bit_count() == expect

    def test_distinct_indices_distinct_terms(self):
        base = ETripleParam((1, 1), (3, 3), (0, 0))
        seen = set()
        for l in range(comb(8, 4)):
            p = ETripleParam((1,), (3,), (l,))
            seen.add(e_term(p, 0))
        assert len(seen) == comb(8, 4)


class TestStage:
    def test_fullness_unconditional(self):
        rng = random.Random(23)
        for _ in range(60):
            n_max = rng.randrange(1, 8)
            p = random_triple(rng, n_max + 1)
            stage = e_open_stage(p, n_max)
            assert stage.measure() >= 1 - Fraction(1, 1 << n_max)

    def test_monotone(self):
        rng = random.Random(29)
        p = random_triple(rng, 7)
        prev = Clopen.empty()
        for n_max in range(7):
            cur = e_open_stage(p, n_max)
            assert prev.subset(cur)
            prev = cur

    def test_prefix_contract(self):
        p = ETripleParam((0,), (0,), (0,))
        with pytest.raises(InsufficientPrefix):
            e_open_stage(p, 1)

    def test_negative_stage_is_the_union_of_no_terms(self):
        p = random_triple(random.Random(31), 3)
        assert e_open_stage(p, -1) == Clopen.empty()


class TestEncode:
    def test_whole_space(self):
        p = e_open_encode(Clopen.full(), 5)
        for n_max in range(6):
            assert e_open_stage(p, n_max).subset(Clopen.full())

    def test_complement_of_deep_cylinder(self):
        v = Clopen.cylinder("00000").complement()
        assert v.measure() == Fraction(31, 32)
        p = e_open_encode(v, 4)
        stage = e_open_stage(p, 4)
        assert stage.subset(v)
        assert stage.measure() >= 1 - Fraction(1, 16)

    def test_too_small_target(self):
        with pytest.raises(InsufficientResolution) as e:
            e_open_encode(Clopen.from_words(2, ["01"]), 3)
        assert e.value.position >= 1

    def test_random_truncations(self):
        rng = random.Random(41)
        for _ in range(15):
            lvl = rng.randint(4, 7)
            missing = rng.randrange(1 << lvl)
            v = Clopen.cylinder(format(missing, f"0{lvl}b")).complement()
            p = e_open_encode(v, lvl - 1)
            assert e_open_stage(p, lvl - 1).subset(v)

    @pytest.mark.parametrize("m_max", [0, 2, 5])
    def test_matches_the_listed_encoder_on_holed_targets(self, m_max, monkeypatch):
        def outcome(encode, v):
            try:
                return encode(v, m_max)
            except IdealisError as e:
                return e.name, e.detail()

        rng = random.Random(4100 + m_max)
        names = set()
        for _ in range(120):
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", rng.choice(["12", "12", "6", "3"]))
            lvl = rng.randrange(11)
            holes = rng.choice([0, 1, 2, 5, 1 << (lvl // 2), 1 << max(lvl - 2, 0)])
            mask = (1 << (1 << lvl)) - 1
            for _ in range(holes):
                mask &= ~(1 << rng.randrange(1 << lvl))
            v = Clopen.from_mask(lvl, mask)
            got = outcome(e_open_encode, v)
            assert got == outcome(listed_e_open_encode, v), (v, m_max)
            names.add(got[0] if isinstance(got, tuple) else "ok")
        assert names == (
            {"ok"} if m_max == 0 else {"ok", InsufficientResolution.name, LevelCapExceeded.name}
        )


class TestMember:
    def test_rows_zero_fails(self):
        p = EParam.from_triples([], horizon=3)
        assert e_fsigma_member(p, "010", rows=0, n_max=2) is Tri.FAILS

    def test_complement_point_holds(self):
        v = Clopen.cylinder("00000").complement()
        triple = e_open_encode(v, 4)
        p = EParam.from_triples([triple], horizon=4)
        assert e_fsigma_member(p, "00000", rows=1, n_max=4) is Tri.HOLDS

    def test_never_flips_within_horizon(self):
        rng = random.Random(47)
        for _ in range(30):
            horizon = rng.randint(1, 5)
            triples = [
                random_triple(rng, horizon + 1) for _ in range(rng.randint(1, 2))
            ]
            p = EParam.from_triples(triples, horizon)
            z = format(rng.randrange(32), "05b")
            answers = [
                e_fsigma_member(p, z, p.rows, n_max) for n_max in range(horizon + 1)
            ]
            decided = {a for a in answers if a is not Tri.UNKNOWN}
            assert len(decided) <= 1

    @pytest.mark.parametrize("cut,required", [(200, 209), (2, 6)])
    def test_short_prefix_names_first_missing_cell(self, cut, required):
        # a row is read coordinate by coordinate: a cut at 200 leaves only
        # row 1's cell (2, 3) at 208 missing; a cut at 2 reports row 0's
        # cell (0, 1) at 5 before its cell (1, 0) at 2
        triple = e_open_encode(Clopen.full(), 3)
        whole = EParam.from_triples([triple, triple], 3)
        p = EParam(whole.prefix[:cut], 2, 3)
        for n_max in range(4):
            with pytest.raises(InsufficientPrefix) as e:
                e_fsigma_member(p, "01", 2, n_max)
            assert (e.value.required_length, e.value.what) == (required, "prefix")

    def test_file_format(self):
        rng = random.Random(53)
        for _ in range(20):
            horizon = rng.randint(0, 4)
            triples = [
                random_triple(rng, horizon + 1 + rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            p = EParam.from_triples(triples, horizon)
            assert len(p.prefix) == 1 + pair(len(triples) - 1, pair(2, horizon))
            for r, t in enumerate(triples):
                for i, x in enumerate((t.x0, t.x1, t.x2)):
                    for n in range(horizon + 1):
                        assert p.prefix[pair(r, pair(i, n))] == x[n]

    def test_json_round_trip(self):
        v = Clopen.cylinder("000").complement()
        triple = e_open_encode(v, 2)
        assert ETripleParam.from_json(triple.to_json()) == triple
        p = EParam.from_triples([triple], horizon=2)
        assert EParam.from_json(p.to_json()) == p
