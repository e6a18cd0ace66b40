import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from idealis import nullset
from idealis.checks import random_null_param
from idealis.errors import IndexOutOfRange, InsufficientPrefix, InvariantViolated, LevelCapExceeded
from idealis.enumerations import clopen_enum, clopen_rank
from idealis.nullset import (
    CoverFamily,
    NullParam,
    null_encode,
    null_encode_detail,
    null_member,
    null_stage,
    null_term,
)
from idealis.space import Clopen, Tri, pair


def family_covering_zero(rng, depth):
    """Covers of a neighbourhood of the all-zero point plus random noise,
    each row exactly under its measure bound."""
    covers = []
    for n in range(depth):
        base_level = n + 3
        pieces = [Clopen.cylinder("0" * base_level)]
        budget = Fraction(1, 2 ** (n + 1)) - Fraction(1, 2 ** base_level)
        for _ in range(rng.randrange(4)):
            lev = rng.randint(6, 10)
            if Fraction(1, 2**lev) < budget:
                word = format(rng.randrange(1 << lev), f"0{lev}b")
                pieces.append(Clopen.cylinder(word))
                budget -= Fraction(1, 2**lev)
        covers.append(tuple(pieces))
    return CoverFamily(tuple(covers))


class TestGuard:
    def test_all_zero_terms_empty(self):
        f = NullParam(tuple([0] * 200), (8, 8, 8))
        for n in range(3):
            for k in range(n + 1, 8):
                assert null_term(f, n, k) == Clopen.empty()
            assert null_stage(f, n, 8) == Clopen.empty()

    def test_adversarial_overflow_is_blanked(self):
        # two candidates of measure 3/8 at n = 1: the second would push the
        # total past 1/2, so it must evaluate to the empty set
        big = Clopen.from_words(3, ["000", "010", "100"])
        idx = clopen_rank(1, big)
        size = 1 + pair(1, 4)
        prefix = [0] * size
        prefix[pair(1, 2)] = idx
        prefix[pair(1, 3)] = idx
        f = NullParam(tuple(prefix), (4, 4))
        assert null_term(f, 1, 2) == big
        assert null_term(f, 1, 3) == Clopen.empty()
        assert null_stage(f, 1, 4).measure() == Fraction(3, 8)

    def test_stage_monotone_in_k(self):
        rng = random.Random(5)
        f = random_null_param(rng, rows=3, k_hi=20)
        for n in range(3):
            prev = Clopen.empty()
            for k in range(n + 1, 21):
                cur = null_stage(f, n, k)
                assert prev.subset(cur)
                prev = cur

    def test_term_index_contract(self):
        f = NullParam(tuple([0] * 10), (3,))
        with pytest.raises(InsufficientPrefix):
            null_term(f, 2, 2)
        with pytest.raises(InsufficientPrefix):
            null_term(f, 0, 99)  # cell outside the stored prefix


class TestEncoder:
    def test_family_invariant_checked(self):
        with pytest.raises(InvariantViolated):
            CoverFamily(((Clopen.from_words(1, ["0"]),),))  # 1/2 not < 1/2

    def test_over_budget_cover_reports_its_measure_in_lowest_terms(self):
        # 1/4 + 1/4 is reported as 1/2^1, not 2/2^2
        pieces = (Clopen.cylinder("00"), Clopen.cylinder("01"))
        with pytest.raises(InvariantViolated, match=r"cover 0 has total measure 1/2\^1,"):
            CoverFamily((pieces,))

    def test_empty_family(self):
        enc = null_encode_detail(CoverFamily(()))
        assert enc.param.prefix == () and enc.param.witness == ()

    def test_every_cut_lands_before_the_next_cover(self):
        # the invariant that makes finite families work: row n of the
        # parameter keeps a whole cover of the encoded set
        rng = random.Random(77)
        for _ in range(12):
            depth = rng.randint(1, 6)
            fam = family_covering_zero(rng, depth)
            enc = null_encode_detail(fam)
            starts = []
            pos = 0
            from idealis.nullset import _PAD

            for pieces in fam.covers:
                pos += _PAD
                starts.append(pos)
                pos += len(pieces)
            for n in range(depth - 1):
                assert enc.cuts[n + 1] <= starts[n + 1]
            assert enc.cuts[depth] <= starts[depth - 1]

    def test_round_trip_membership(self):
        # spec example: the point 000... covered via one cylinder per row
        fam = CoverFamily(
            tuple((Clopen.cylinder("0" * (n + 2)),) for n in range(7))
        )
        f = null_encode(fam)
        for n_levels in range(7):
            assert null_member(f, "0" * 8, n_levels) is Tri.HOLDS

class TestMember:
    def test_all_zero_param_is_undecided_shallow(self):
        f = NullParam(tuple([0] * 40), (4, 4))
        assert null_member(f, "0101", 1) is Tri.UNKNOWN

    def test_budget_exhaustion_certifies_failure(self):
        # with an empty stage the guard budget 2^-n is at most the
        # cylinder measure once n reaches the prefix length
        f = NullParam(tuple([0] * 40), (4, 4, 4, 4))
        assert null_member(f, "010", 3) is Tri.FAILS

    def test_monotone_in_stage(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_null_param(rng, rows=6, k_hi=16)
            z = format(rng.randrange(16), "04b")
            answers = [null_member(f, z, n) for n in range(6)]
            decided = {a for a in answers if a is not Tri.UNKNOWN}
            assert len(decided) <= 1

    def test_witness_required(self):
        f = NullParam(tuple([0] * 10), (4,))
        with pytest.raises(InsufficientPrefix):
            null_member(f, "01", 1)

    def test_a_word_not_of_bits_is_refused_before_any_scan(self):
        f = NullParam(tuple([0] * 40), (4, 4))
        with pytest.raises(ValueError, match="bad word"):
            null_member(f, "0121", 1)
        assert not f._states

    def test_json_round_trip(self):
        rng = random.Random(1)
        fam = family_covering_zero(rng, 3)
        f = null_encode(fam)
        assert NullParam.from_json(f.to_json()) == f
        assert CoverFamily.from_json(fam.to_json()).covers == fam.covers


def guard_oracle(f, n, k_hi):
    """Row n's guarded terms up to k_hi and their accepted total, recomputed
    with Fractions straight from the enumeration."""
    budget, total, terms = Fraction(1, 2**n), Fraction(0), []
    for k in range(n + 1, k_hi + 1):
        cand = clopen_enum(n, f.prefix[pair(n, k)])
        m = Fraction(cand.word_count(), 2**cand.level)
        if total + m < budget:
            total += m
            terms.append(cand)
        else:
            terms.append(Clopen.empty())
    return terms, total


def member_oracle(f, z, n_levels):
    cyl = Clopen.cylinder(z)
    rows = [guard_oracle(f, n, w) for n, w in enumerate(f.witness)]
    stages = []
    for terms, total in rows:
        stage = Clopen.empty()
        for t in terms:
            stage = stage.union(t)
        stages.append((stage, total))
    if all(cyl.subset(stage) for stage, _ in stages):
        return Tri.HOLDS
    for n in range(n_levels + 1):
        stage, total = stages[n]
        if not cyl.meets(stage) and Fraction(1, 2**n) - total <= Fraction(1, 2 ** len(z)):
            return Tri.FAILS
    return Tri.UNKNOWN


def ask(f, query):
    kind, *args = query
    return {"term": null_term, "stage": null_stage, "member": null_member}[kind](f, *args)


def guarded_params(seed, count):
    """Six rows, cells up to k = 16, 40-bit cells: the guard fires."""
    rng = random.Random(seed)
    return [random_null_param(rng, rows=6, k_hi=16, entry_bound=1 << 40) for _ in range(count)]


class TestScanMemo:
    def test_each_row_enumerated_once(self, monkeypatch):
        calls = []
        real = nullset.clopen_enum

        def counted(n, k, cap=None):
            calls.append(n)
            return real(n, k, cap=cap)

        monkeypatch.setattr(nullset, "clopen_enum", counted)
        f = random_null_param(random.Random(8), rows=6, k_hi=16)
        for n, w in enumerate(f.witness):
            for k in range(n + 1, w + 1):
                null_term(f, n, k)
            null_stage(f, n, w)
        null_member(f, "0110", 5)
        for n, w in enumerate(f.witness):
            assert calls.count(n) == w - n

    def test_member_reads_the_total_at_the_witness(self):
        # row 0 accepts the cylinder of "0" at k = 3, past its witness 2;
        # with that total the budget left could not cover "1"
        prefix = [0] * (1 + pair(0, 3))
        prefix[pair(0, 3)] = clopen_rank(0, Clopen.cylinder("0"))
        f = NullParam(tuple(prefix), (2,))
        assert null_term(f, 0, 3) == Clopen.cylinder("0")
        assert null_member(f, "1", 0) is Tri.UNKNOWN
        assert null_member(NullParam(f.prefix, f.witness), "1", 0) is Tri.UNKNOWN

    def test_any_query_order_matches_fresh_instances_and_oracle(self):
        for i, f in enumerate(guarded_params(41, 4)):
            if i % 2:
                # witnesses short of the cells the term and stage queries read
                f = NullParam(f.prefix, tuple(n + 3 + 2 * i for n in range(6)))
            rng = random.Random(i)
            words = [format(rng.randrange(1 << j), f"0{j}b") for j in (2, 4, 7)]
            members = [("member", z, nl) for z in words for nl in (0, 3, 5)]
            terms = [("term", n, k) for n in range(6) for k in range(n + 1, 17)]
            stages = [("stage", n, k) for n in range(6) for k in range(n + 1, 17)]
            shuffled = members + terms + stages
            rng.shuffle(shuffled)
            orders = [
                sorted(terms, key=lambda q: -q[2]) + members,
                members + terms + stages,
                # a stage below, and then above, a bound already scanned
                [("stage", n, k) for n in range(6) for k in (16, n + 1, 9, 12, 10)],
                shuffled,
            ]
            for order in orders:
                g = NullParam(f.prefix, f.witness)
                for query in order:
                    got = ask(g, query)
                    assert got == ask(NullParam(f.prefix, f.witness), query)
                    kind, *args = query
                    if kind == "member":
                        assert got is member_oracle(f, *args)
                        continue
                    n, k = args
                    oracle_terms, _ = guard_oracle(f, n, k)
                    if kind == "term":
                        assert got == oracle_terms[-1]
                    else:
                        want = Clopen.empty()
                        for t in oracle_terms:
                            want = want.union(t)
                        assert got == want
                assert NullParam.from_json(g.to_json()) == g
                assert hash(NullParam.from_json(g.to_json())) == hash(g)

    def test_short_prefix_raises_the_same_error_again(self):
        (f,) = guarded_params(43, 1)
        cut = pair(2, 9)
        short = NullParam(f.prefix[:cut], f.witness)
        queries = [("term", 2, 14), ("stage", 2, 12), ("member", "01", 1)]
        for query in queries:
            with pytest.raises(InsufficientPrefix) as fresh:
                ask(NullParam(short.prefix, short.witness), query)
            for _ in range(2):
                memo = dict(short._states)
                with pytest.raises(InsufficientPrefix) as again:
                    ask(short, query)
                assert again.value.required_length == fresh.value.required_length
                # a scan that raises stores nothing
                assert short._states == memo
                assert all(short._states[key] is memo[key] for key in memo)
        # every term and stage before the missing cell is still the guarded
        # scan's: row 2 for the term and stage queries, row 0 for the member
        for n in (0, 2):
            last = max(k for k in range(n + 1, 17) if pair(n, k) < cut)
            want = Clopen.empty()
            for k, term in zip(range(n + 1, last + 1), guard_oracle(f, n, last)[0]):
                want = want.union(term)
                assert null_term(short, n, k) == term
                assert null_stage(short, n, k) == want

    def test_lowered_cap_is_not_served_from_the_memo(self, monkeypatch):
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
        for f in guarded_params(47, 3):
            queries = [("term", n, k) for n in range(6) for k in range(n + 1, 17)]
            queries += [("stage", n, 16) for n in range(6)] + [("member", "0110", 5)]
            before = [ask(f, q) for q in queries]
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", "6")
            refused = 0
            for n in range(6):
                levels = [clopen_enum(n, f.prefix[pair(n, k)], cap=12).level for k in range(n + 1, 17)]
                deep = [k for k, lev in zip(range(n + 1, 17), levels) if lev > 6]
                for k in range(n + 1, 17):
                    if deep and k >= deep[0]:
                        with pytest.raises(LevelCapExceeded):
                            null_term(f, n, k)
                        refused += 1
                    else:
                        assert null_term(f, n, k) == before[queries.index(("term", n, k))]
            assert refused, "no row needs a level above the lowered cap"
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
            assert [ask(f, q) for q in queries] == before
            assert NullParam.from_json(f.to_json()) == f
            assert hash(NullParam.from_json(f.to_json())) == hash(f)

    def test_a_huge_cap_costs_nothing_cap_sized(self, monkeypatch):
        # accepted totals count words at the deepest level a row reached,
        # not at the cap, so a cap of 10^9 builds no 10^9-bit integer
        (f,) = guarded_params(61, 1)
        queries = [("stage", n, 16) for n in range(6)]
        queries += [("member", z, 5) for z in ("0110", "000000", "1" * 40)]
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
        before = [ask(f, q) for q in queries]
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", str(10**9))
        start = time.perf_counter()
        assert [ask(NullParam(f.prefix, f.witness), q) for q in queries] == before
        assert time.perf_counter() - start < 1.0

    def test_a_far_row_or_bound_costs_nothing_row_sized(self):
        # a scan starts at the row's first cell, however far the row and
        # the bound are, so the first missing cell is met at once
        (f,) = guarded_params(61, 1)
        start = time.perf_counter()
        for n, k in ((10**7, 10**60), (10**60, 10**61), (-5, -1)):
            for query in (("term", n, k), ("stage", n, k)):
                with pytest.raises((InsufficientPrefix, IndexOutOfRange)):
                    ask(f, query)
        assert not f._states
        assert time.perf_counter() - start < 1.0

    def test_shared_instance_across_threads(self):
        (f,) = guarded_params(53, 1)
        orders = []
        for seed in range(4):
            queries = [("term", n, k) for n in range(6) for k in range(n + 1, 17)]
            queries += [("member", "0110", nl) for nl in range(6)]
            random.Random(seed).shuffle(queries)
            orders.append(queries)
        want = [[ask(NullParam(f.prefix, f.witness), q) for q in order] for order in orders]
        got = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def run(i):
            start.wait()
            got[i] = [ask(f, q) for q in orders[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
