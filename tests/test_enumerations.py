import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from idealis import enumerations
from idealis.checks import brute_master_order
from idealis.errors import IndexOutOfRange, LevelCapExceeded, MeasureTooLarge
from idealis.enumerations import (
    BAIRE_KPRIME_BITS,
    BaireCylinder,
    _binomial_prefix,
    _digit_guess,
    _level_count,
    _level_ladder,
    _level_walk,
    _popcount_budget,
    basic_open,
    basic_open_baire,
    basic_open_cantor,
    basic_word_cantor,
    clopen_enum,
    clopen_rank,
    kcomb_rank,
    kcomb_rank_mask,
    kcomb_unrank,
    kcomb_unrank_mask,
    kprime,
)
from idealis.space import Clopen, index_word, seq_decode


def random_canonical(rng, level, n, ones=None):
    """A canonical level-`level` set of measure < 2^-n, bits drawn by rng;
    ``ones`` words when given, else a random count within the budget."""
    budget = (1 << (level - n)) - 1
    while True:
        mask = 0
        for p in rng.sample(range(1 << level), ones or rng.randint(1, budget)):
            mask |= 1 << p
        if Clopen.from_mask(level, mask).level == level:
            return Clopen(level, mask)


def unrank_in_level(level, n, r):
    return _level_walk(level, n, r)[0]


def rank_in_level(level, n, mask):
    return -_level_walk(level, n, 0, mask)[1]


class TestBinomialPrefix:
    """T(b, q), the binomial prefix sum ``_binomial_prefix`` returns first."""

    def test_matches_binomial_prefix_sums(self):
        for b in range(65):
            for q in range(-1, b + 2):
                assert _binomial_prefix(b, q)[0] == sum(comb(b, j) for j in range(q + 1))

    @pytest.mark.parametrize("b", [1024, 2048, 4096])
    def test_wide_masks(self, b):
        prefix = list(itertools.accumulate(comb(b, j) for j in range(b)))
        for q in (0, 1, b // 2 - 1, b // 2, b - 1):
            assert _binomial_prefix(b, q)[0] == prefix[q]

    def test_prefix_carries_its_last_binomial(self):
        # q is clamped to b, so q >= b gives the single full mask's C(b, b)
        for b in range(40):
            assert _binomial_prefix(b, -1) == (0, 0)
            for q in range(b + 2):
                total = sum(comb(b, j) for j in range(q + 1))
                assert _binomial_prefix(b, q) == (total, comb(b, min(q, b)))


class TestClopenEnum:
    def test_index_zero_is_empty_for_every_n(self):
        for n in range(6):
            assert clopen_enum(n, 0) == Clopen.empty()

    def test_first_values(self):
        assert clopen_enum(0, 1) == Clopen.from_words(1, ["0"])
        assert clopen_enum(0, 2) == Clopen.from_words(1, ["1"])
        assert clopen_enum(1, 1) == Clopen.from_words(2, ["00"])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_measure_always_below_bound(self, n):
        bound = Fraction(1, 1 << n)
        for k in range(0, 400):
            assert clopen_enum(n, k).measure() < bound

    def test_no_duplicates_prefix(self):
        seen = {clopen_enum(2, k) for k in range(2000)}
        assert len(seen) == 2000

    def test_rank_inverts_enum(self):
        for n in range(4):
            for k in range(500):
                assert clopen_rank(n, clopen_enum(n, k)) == k

    def test_first_and_last_rank_of_every_level_round_trip(self):
        # at n = 0 the budget starts equal to the top position (the
        # clamp); the last rank of a level spends it down to 0; the middle
        # and a random rank leave the agreeing pairs early
        rng = random.Random(8)
        for n in range(10):
            k = 1
            for level in range(1, 11):
                count = _level_count(level, n)
                if level > n:
                    assert count > 0
                    for r in (k, k + count - 1, k + count // 2, k + rng.randrange(count)):
                        c = clopen_enum(n, r)
                        assert c.level == level
                        assert clopen_rank(n, c) == r
                k += count

    def test_rank_of_empty(self):
        for n in range(5):
            assert clopen_rank(n, Clopen.empty()) == 0

    def test_rank_refuses_a_negative_n_as_enum_does(self):
        for c in (Clopen.empty(), Clopen.cylinder("01")):
            with pytest.raises(IndexOutOfRange):
                clopen_rank(-1, c)
        with pytest.raises(IndexOutOfRange):
            clopen_enum(-1, 1)

    def test_rank_rejects_large_measure(self):
        with pytest.raises(MeasureTooLarge):
            clopen_rank(1, Clopen.from_words(1, ["0"]))

    def test_rank_survives_deep_levels(self):
        # a level-10 singleton has an astronomically large rank at n=0;
        # the inverse must still be exact
        c = Clopen.cylinder("0" * 10)
        for n in (0, 1, 5, 8):
            assert clopen_enum(n, clopen_rank(n, c)) == c

    @given(
        st.integers(8, 12),
        st.integers(8, 12),
        st.sampled_from([0, 1, 3, 6]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=10, deadline=None)
    def test_deep_masks_round_trip_in_order(self, level_a, level_b, n, seed):
        rng = random.Random(seed)
        a = random_canonical(rng, level_a, n)
        b = random_canonical(rng, level_b, n)
        ra, rb = clopen_rank(n, a), clopen_rank(n, b)
        assert clopen_enum(n, ra) == a
        assert clopen_enum(n, rb) == b
        assert (ra < rb) == ((a.level, a.mask) < (b.level, b.mask))
        assert (ra == rb) == (a == b)


def enumeration_digest():
    """SHA-256 over level-wise ranks and unranks, for every n below the
    level: every rank at levels 1-3; at levels 4-11 a random rank of every
    bit length (at levels 10-11, past the budget plus two, of every 64th),
    the level's last rank and the ranks of four random cylinders."""
    h = hashlib.sha256()

    def put(*values):
        h.update(repr(values).encode())

    for level in range(1, 4):
        for n in range(level + 1):
            for r in range(_level_count(level, n)):
                mask = unrank_in_level(level, n, r)
                put(level, n, r, mask, rank_in_level(level, n, mask))
    rng = random.Random(9)
    for level in range(4, 12):
        for n in range(level):
            count = _level_count(level, n)
            top = (count - 1).bit_length()
            q = _popcount_budget(level, n)
            for b in range(top + 1):
                if level >= 10 and q + 2 < b < top and b % 64:
                    continue
                r = rng.randrange(1 << b >> 1, min(1 << b, count))
                put(level, n, r, unrank_in_level(level, n, r))
            put(level, n, count - 1, unrank_in_level(level, n, count - 1))
            for _ in range(4):
                mask = Clopen.cylinder(index_word(rng.getrandbits(level), level)).mask
                put(level, n, mask, rank_in_level(level, n, mask))
    return h.hexdigest()


@lru_cache(maxsize=None)
def masks_within(b, q):
    """The b-bit masks with at most q ones: the binomials C(b, j) carried
    one from the last, over the shorter side, 2^b minus the masks with at
    least q + 1 ones when that side is the ones' complement."""
    if q < 0:
        return 0
    if 2 * q >= b:
        return (1 << b) - masks_within(b, b - q - 1)
    term = total = 1
    for j in range(q):
        term = term * (b - j) // (j + 1)
        total += term
    return total


def rank_by_every_position(level, n, mask):
    """Reference rank: the walk over all 2^level positions, carrying the
    sibling-pair state bit by bit."""
    q = _popcount_budget(level, n)
    uniform, pend = True, None
    rank = 0
    for p in range((1 << level) - 1, -1, -1):
        bit = mask >> p & 1
        if bit:
            rank += masks_within(p, q)
            if uniform and pend != 1:
                rank -= masks_within(p // 2, q // 2)
            q -= 1
        if p % 2:
            pend = bit
        else:
            uniform, pend = uniform and pend == bit, None
    assert q >= 0
    return rank


def paired_mask(rng, level, n):
    """A canonical mask whose sibling pairs all agree but the lowest
    nonzero one, within the budget: it keeps the pair state uniform as
    deep as a mask can."""
    budget = _popcount_budget(level, n)
    pairs = rng.sample(range(1 << (level - 1)), rng.randint(1, (budget + 1) // 2))
    mask = sum(3 << (2 * j) for j in pairs)
    return mask ^ (1 << (2 * min(pairs) + rng.randrange(2)))


class TestLevelWalks:
    def test_pinned_digest(self):
        # generated by the walks over every position, before the
        # carried walk replaced them
        assert enumeration_digest() == (
            "3a718b7b1392443171c6f50b469f35312dca4a4f86a499590293960a4cca5baf"
        )

    def test_rank_matches_every_position_walk(self):
        rng = random.Random(10)
        for level in range(1, 11):
            for n in range(level):
                budget = _popcount_budget(level, n)
                masks = [paired_mask(rng, level, n)]
                for ones in (1, 2, 3, budget):
                    if ones <= budget and (level < 10 or ones < 256):
                        masks.append(random_canonical(rng, level, n, ones).mask)
                for mask in masks:
                    want = rank_by_every_position(level, n, mask)
                    assert rank_in_level(level, n, mask) == want
                    assert unrank_in_level(level, n, want) == mask

    def test_ranks_at_every_rung_boundary(self):
        # G(p) <= r is the walk's own test for a 1 bit at rung p, so the
        # ranks next to G(p) start at adjacent rungs or end just below one
        shallow = [(level, n) for level in range(1, 11) for n in range(level)]
        deep = [(11, 5), (11, 8), (12, 7), (12, 10)]
        for level, n in shallow + deep:
            counts, rungs = _level_ladder(level, n)
            assert len(rungs) <= 64 and len(counts) == len(rungs)
            assert rungs[-1][0] == (1 << level) - 1
            assert list(counts) == sorted(counts)
            count = _level_count(level, n)
            for g in counts:
                for r in (g - 1, g, g + 1):
                    if 0 <= r < count:
                        mask = unrank_in_level(level, n, r)
                        assert rank_by_every_position(level, n, mask) == r
                        assert rank_in_level(level, n, mask) == r
            # a rank starts at the lowest rung at or above the top 1 bit,
            # or at that bit when it is at most the budget
            q = _popcount_budget(level, n)
            tops = {p + d for p, *_ in rungs for d in (0, 1)} | {q, q + 1}
            for top in sorted(t for t in tops if 1 < t < 1 << level):
                for mask in (1 << top, 1 << top | 1):
                    c = Clopen.from_mask(level, mask)
                    if c.level == level and mask.bit_count() <= q:
                        r = rank_by_every_position(level, n, mask)
                        assert rank_in_level(level, n, mask) == r
                        assert unrank_in_level(level, n, r) == mask

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_walk_matches_brute_force_master_order(self, n):
        cap = 4 if n else 3
        oracle = brute_master_order(n, cap)
        for k, c in enumerate(oracle, start=1):
            assert clopen_enum(n, k, cap) == c
            assert clopen_rank(n, c) == k
        with pytest.raises(LevelCapExceeded):
            clopen_enum(n, len(oracle) + 1, cap)

    def test_dense_deep_set_round_trips(self):
        # a level-12 set of 2,039 words spends almost all of the budget
        # 2^11 - 1 at n = 1, so the walk counts past nearly every position
        rng = random.Random(12)
        first = 1 + sum(_level_count(level, 1) for level in range(1, 12))
        for _ in range(2):
            c = random_canonical(rng, 12, 1, 2039)
            k = clopen_rank(1, c)
            assert first <= k < first + _level_count(12, 1)
            assert clopen_enum(1, k, cap=12) == c
            assert clopen_rank(1, clopen_enum(1, k + 1, cap=12)) == k + 1

    def test_every_cylinder_round_trips(self):
        for level in range(1, 10):
            for i in range(1 << level):
                c = Clopen.cylinder(index_word(i, level))
                for n in range(level):
                    assert clopen_enum(n, clopen_rank(n, c)) == c

    def test_adjacent_ranks_of_every_bit_length_keep_order(self):
        rng = random.Random(11)
        for n in range(8):
            past = 1 + sum(_level_count(level, n) for level in range(1, 9))
            for b in range(1, (past - 2).bit_length() + 1):
                k = rng.randrange(1 << b >> 1, min(1 << b, past - 1))
                a, c = clopen_enum(n, k), clopen_enum(n, k + 1)
                assert (a.level, a.mask) < (c.level, c.mask)
                assert clopen_rank(n, a) == k and clopen_rank(n, c) == k + 1


class TestBasicOpen:
    def test_cantor_prefix(self):
        assert basic_open_cantor(0) == Clopen.empty()
        assert basic_open_cantor(1) == Clopen.full()
        expected = ["0", "1", "00", "01", "10", "11", "000"]
        for i, w in enumerate(expected):
            assert basic_open_cantor(i + 2) == Clopen.cylinder(w)

    def test_baire_prefix(self):
        assert basic_open_baire(0) == BaireCylinder(None)
        assert basic_open_baire(1) == BaireCylinder(())
        for n in range(2, 50):
            assert basic_open_baire(n) == BaireCylinder(seq_decode(n - 1))

    def test_the_empty_cylinder_is_inside_every_cylinder_and_holds_none(self):
        empty, whole, stem = BaireCylinder(None), BaireCylinder(()), BaireCylinder((2, 0))
        assert whole.contains_stem(empty) and stem.contains_stem(empty)
        assert empty.contains_stem(empty)
        assert not empty.contains_stem(whole) and not empty.contains_stem(stem)
        assert whole.contains_stem(stem) and not stem.contains_stem(whole)

    def test_dispatch(self):
        assert basic_open("cantor", 2) == Clopen.cylinder("0")
        assert basic_open("baire", 1) == BaireCylinder(())
        with pytest.raises(IndexOutOfRange):
            basic_open("euclid", 1)

    def test_indices_without_a_nonempty_set_are_refused(self):
        with pytest.raises(IndexOutOfRange):
            basic_word_cantor(0)
        with pytest.raises(IndexOutOfRange):
            basic_open_cantor(-1)


def kprime_cantor_by_walk(n, m):
    """Entry m of the extensions of basic set n's word, found by walking
    the depths: m = 0 is the word itself, then 2 words at depth 1, 4 at
    depth 2, and so on."""
    if m == 0:
        return n
    base = basic_word_cantor(n, cap=n.bit_length())
    rest, depth = m - 1, 1
    while rest >= 1 << depth:
        rest -= 1 << depth
        depth += 1
    word = base + index_word(rest, depth)
    return 2 + ((1 << len(word)) - 2) + int(word, 2)


class TestKprime:
    def test_zero_row_is_zero(self):
        for m in range(10):
            assert kprime(0, m) == 0
            assert kprime(0, m, "baire") == 0

    def test_negative_arguments_and_unknown_spaces_are_refused(self):
        with pytest.raises(IndexOutOfRange):
            kprime(-1, 0)
        with pytest.raises(IndexOutOfRange, match="unknown space"):
            kprime(1, 0, "other")

    def test_first_subset_of_cylinder_is_itself(self):
        assert kprime(2, 0) == 2
        assert kprime(2, 1) == 4
        assert kprime(1, 0) == 1

    @pytest.mark.parametrize("space", ["cantor", "baire"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_cross_check_with_brute_scan(self, space, n):
        # oracle: scan basic sets in order, keeping the nonempty subsets
        u_n = basic_open(space, n)
        found = []
        k = 1
        while len(found) < 12:
            u_k = basic_open(space, k)
            if space == "cantor":
                inside = u_k.subset(u_n) and not u_k.is_empty
            else:
                inside = u_n.contains_stem(u_k) and not u_k.is_empty
            if inside:
                found.append(k)
            k += 1
            assert k < 10_000
        got = [kprime(n, m, space) for m in range(12)]
        assert got == found
        assert got == sorted(got) and len(set(got)) == 12

    def test_baire_matches_linear_scan_for_small_stems(self):
        # oracle: the linear scan over codes, done once for every stem with
        # code below 200 -- each decoded sequence counts for each stem that
        # is one of its prefixes
        stems = {seq_decode(code): code for code in range(200)}
        found = {code: [] for code in range(200)}
        missing = 200 * 7
        k = 1
        while missing:
            cand = seq_decode(k - 1)
            for i in range(len(cand) + 1):
                code = stems.get(cand[:i])
                if code is not None and len(found[code]) < 7:
                    found[code].append(k)
                    missing -= 1
            k += 1
        for code, ks in found.items():
            assert [kprime(code + 1, m, "baire") for m in range(7)] == ks

    def test_baire_far_extension(self):
        # the sixth extension of the stem coded 1999 is its child with
        # last entry 4, coded pair(1999, 4) + 1 = 2007011
        assert kprime(2000, 5, "baire") == 2007012

    def test_cantor_closed_form_matches_the_depth_walk(self):
        rng = random.Random(15)
        cases = [(n, m) for n in range(1, 200) for m in range(200)]
        cases += [(rng.getrandbits(200) + 1, rng.getrandbits(200)) for _ in range(2000)]
        for n, m in cases:
            assert kprime(n, m) == kprime_cantor_by_walk(n, m)

    def test_baire_work_is_bounded_by_index_and_stem_bits(self):
        # m under the 2^16 budget, but m times the bit length of n past
        # the bit budget: refused before any code is pushed
        n = 1 << 6643
        m = BAIRE_KPRIME_BITS // n.bit_length() + 1
        with pytest.raises(IndexOutOfRange):
            kprime(n, m, "baire")
        assert kprime(n, m - 1, "baire") > n


class TestCombinadics:
    def test_examples_against_itertools(self):
        oracle = list(itertools.combinations(range(4), 2))
        assert kcomb_unrank(4, 2, 0) == oracle[0] == (0, 1)
        assert kcomb_unrank(4, 2, 5) == oracle[5] == (2, 3)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_itertools_everywhere(self, n):
        for t in range(n + 1):
            oracle = list(itertools.combinations(range(n), t))
            for r, expect in enumerate(oracle):
                assert kcomb_unrank(n, t, r) == expect
                assert kcomb_rank(n, expect) == r

    @given(st.integers(20, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_big_integer_ranks(self, n, data):
        t = data.draw(st.integers(0, n))
        r = data.draw(st.integers(0, comb(n, t) - 1))
        s = kcomb_unrank(n, t, r)
        assert len(s) == t
        assert kcomb_rank(n, s) == r

    def test_bad_inputs(self):
        with pytest.raises(IndexOutOfRange):
            kcomb_unrank(4, 5, 0)
        with pytest.raises(IndexOutOfRange):
            kcomb_unrank(4, 2, 6)
        with pytest.raises(IndexOutOfRange):
            kcomb_rank(4, (1, 1))
        # ground sets past the 2^cap cylinders of an E term are refused
        with pytest.raises(LevelCapExceeded):
            kcomb_unrank(4097, 1, 0)
        with pytest.raises(LevelCapExceeded):
            kcomb_rank(4097, (0,))
        assert kcomb_rank(4096, (4095,)) == 4095

    @pytest.mark.parametrize("t", [0, 1, 32, 2048, 3968, 4064, 4095, 4096])
    def test_mask_walks_at_the_cap(self, t):
        n = 4096
        total = comb(n, t)
        rng = random.Random(t)
        low = (1 << t) - 1
        # rank 0 takes the first t candidates, rank C - 1 the last t
        assert kcomb_unrank_mask(n, t, 0) == low
        assert kcomb_unrank_mask(n, t, total - 1) == low << (n - t)
        for r in {0, total - 1, rng.randrange(total), rng.randrange(total), rng.randrange(10**30) % total}:
            mask = kcomb_unrank_mask(n, t, r)
            assert mask.bit_count() == t and mask.bit_length() <= n
            assert kcomb_rank_mask(n, mask) == r
            members = kcomb_unrank(n, t, r)
            assert members == tuple(c for c in range(n) if mask >> c & 1)
            assert kcomb_rank(n, members) == r

    def test_mask_walk_errors(self):
        for args, error in [
            ((4, 5, 0), IndexOutOfRange),
            ((4, 2, 6), IndexOutOfRange),
            ((4, 2, -1), IndexOutOfRange),
            ((4097, 1, 0), LevelCapExceeded),
        ]:
            with pytest.raises(error):
                kcomb_unrank_mask(*args)
        for mask in (-1, 1 << 4):
            with pytest.raises(IndexOutOfRange):
                kcomb_rank_mask(4, mask)
        assert kcomb_rank_mask(4, 0) == 0


def flat_unrank_mask(n, t, r):
    """The r-th t-subset of {0..n-1} by the candidate walk the library
    used before its digit walk: take c when r is below
    cur = C(n - 1 - c, rem - 1), rem the members still to take, else skip
    c and drop cur ranks; cur is carried from one candidate to the next."""
    if t == 0:
        return 0
    mask, rem, c = 0, t, 0
    cur = comb(n, t) * t // n
    while True:
        a = n - 1 - c
        if r < cur:
            mask |= 1 << c
            rem -= 1
            if rem == 0:
                return mask
            cur = cur * rem // a
        else:
            r -= cur
            cur = cur * (a - rem + 1) // a
        c += 1


def flat_rank_mask(n, mask):
    """The rank of ``mask`` by the same candidate walk."""
    rem = mask.bit_count()
    if rem == 0:
        return 0
    r, cur = 0, comb(n - 1, rem - 1)
    for c in range(n):
        a = n - 1 - c
        if mask >> c & 1:
            rem -= 1
            if rem == 0:
                return r
            cur = cur * rem // a
        else:
            r += cur
            cur = cur * (a - rem + 1) // a


def e_shaped(level, m):
    # an E term's subset size: all but 2^(level - m) of the 2^level cylinders
    return (1 << level) - (1 << (level - m))


class TestCombinadicDigits:
    """The digit walks against the candidate walks above."""

    def check(self, n, t, r):
        mask = kcomb_unrank_mask(n, t, r)
        assert mask == flat_unrank_mask(n, t, r)
        assert kcomb_rank_mask(n, mask) == r == flat_rank_mask(n, mask)

    @pytest.mark.parametrize("n", range(11))
    def test_every_subset_up_to_ten(self, n):
        for t in range(n + 1):
            for r in range(comb(n, t)):
                self.check(n, t, r)

    @pytest.mark.parametrize("level", range(1, 13))
    def test_seeded_ranks_at_powers_of_two(self, level):
        n, rng = 1 << level, random.Random(level)
        for _ in range(3):
            for t in (e_shaped(level, rng.randint(0, level)), rng.randint(0, n)):
                total = comb(n, t)
                for r in {0, total - 1, rng.randrange(total), rng.randrange(min(total, 1 << 100))}:
                    self.check(n, t, r)

    @pytest.mark.parametrize("level", [3, 7, 10, 12])
    def test_unrank_inverts_rank_on_random_masks(self, level):
        n, rng = 1 << level, random.Random(level)
        for density in (0.02, 0.5, 0.97):
            mask = sum(1 << c for c in range(n) if rng.random() < density)
            assert kcomb_unrank_mask(n, mask.bit_count(), kcomb_rank_mask(n, mask)) == mask

    @pytest.mark.parametrize(
        "guess",
        [lambda a, j, r, b: j - 1, lambda a, j, r, b: a - 1, lambda a, j, r, b: float("nan"),
         lambda a, j, r, b: float("inf"), lambda a, j, r, b: -float("inf")],
        ids=["low-bound", "high-bound", "nan", "inf", "minus-inf"],
    )
    def test_a_wrong_guess_only_costs_steps(self, monkeypatch, guess):
        monkeypatch.setattr(enumerations, "_digit_guess", guess)
        rng = random.Random(7)
        for level, m in [(8, 3), (10, 4), (10, 6), (12, 5)]:
            n, t = 1 << level, e_shaped(level, m)
            total = comb(n, t)
            for r in (total - 1, rng.randrange(total), rng.randrange(10**30)):
                self.check(n, t, r)

    def test_the_guess_lands_within_one_of_the_digit(self):
        # so a jump settles its digit in one or two exact steps
        rng = random.Random(3)
        for a, j in [(4095, 128), (4000, 1), (1023, 64), (4095, 32), (300, 150)]:
            for _ in range(8):
                r = rng.randrange(1, comb(a, j))
                c = max(c for c in range(j, a + 1) if comb(c, j) <= r)
                assert abs(int(_digit_guess(a, j, r, comb(a, j))) - c) <= 1


class TestLevelCapInteraction:
    def test_enum_beyond_cap_refuses(self, monkeypatch):
        from idealis.errors import LevelCapExceeded

        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "3")
        clopen_enum.cache_clear()
        with pytest.raises(LevelCapExceeded):
            clopen_enum(0, 10**30)
        monkeypatch.delenv("IDEALIS_MAX_LEVEL")
        clopen_enum.cache_clear()

    def test_cached_set_refused_after_cap_lowered(self, monkeypatch):
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
        assert clopen_enum(0, 100000).level == 5
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "3")
        with pytest.raises(LevelCapExceeded):
            clopen_enum(0, 100000)
        with pytest.raises(LevelCapExceeded):
            clopen_enum(0, 100000, cap=4)
        assert clopen_enum(0, 100000, cap=5).level == 5

    def test_deep_basic_open_refuses(self, monkeypatch):
        from idealis.errors import LevelCapExceeded

        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "3")
        with pytest.raises(LevelCapExceeded):
            basic_open_cantor(2 + (1 << 5) - 2)  # first level-5 cylinder
        assert basic_open_cantor(5) == Clopen.cylinder("01")
