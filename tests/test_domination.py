import itertools
import random

import pytest

from idealis.domination import (
    KsigmaParam,
    LaverParam,
    dominated_from,
    ksigma_diagonal,
    ksigma_encode,
    laver_encode,
    laver_witnesses,
)
from idealis import domination, space
from idealis.errors import IndexOutOfRange, InsufficientPrefix
from idealis.space import SEQ_CODE_BITS, seq_code, seq_decode


class TestDominatedFrom:
    def test_reflexive(self):
        y = KsigmaParam((3, 1, 4, 1, 5))
        for n in range(3):
            assert dominated_from(y, (3, 1, 4, 1, 5), n)

    def test_strict_excess_fails(self):
        y = KsigmaParam((0, 0, 0, 0))
        x = (1, 1, 1, 1)
        for n in range(3):
            assert not dominated_from(y, x, n)

    def test_m_strictly_greater_than_n(self):
        # x(0) is huge but position 0 is outside the window at n = 0
        y = KsigmaParam((0, 0, 0, 0))
        x = (99, 0, 0, 0)
        assert dominated_from(y, x, 0)

    def test_window_too_short(self):
        y = KsigmaParam((1, 1))
        with pytest.raises(InsufficientPrefix):
            dominated_from(y, (0, 0), 1)

    def test_negative_start_is_refused(self):
        # n = -2 used to compare x[-1] with y[-1], and n = -6 to escape as
        # an IndexError
        y = KsigmaParam((1, 2, 3, 4))
        for n in (-1, -2, -6):
            with pytest.raises(IndexOutOfRange):
                dominated_from(y, (1, 1, 1, 1), n)

    def test_monotone_in_arguments(self):
        rng = random.Random(3)
        for _ in range(50):
            length = rng.randint(3, 8)
            yv = tuple(rng.randrange(5) for _ in range(length))
            xv = tuple(rng.randrange(5) for _ in range(length))
            y = KsigmaParam(yv)
            for n in range(length - 2):
                if dominated_from(y, xv, n):
                    assert dominated_from(y, xv, n + 1)
                bigger = KsigmaParam(tuple(v + 1 for v in yv))
                if dominated_from(y, xv, n):
                    assert dominated_from(bigger, xv, n)


class TestKsigmaEncode:
    def test_empty(self):
        assert ksigma_encode([]).bound == ()

    def test_singleton(self):
        x = (4, 0, 7)
        y = ksigma_encode([x])
        assert y.bound == x
        assert dominated_from(y, x, 0)

    def test_random_points_dominated(self):
        rng = random.Random(11)
        pts = [tuple(rng.randrange(10) for _ in range(10)) for _ in range(5)]
        y = ksigma_encode(pts)
        for p in pts:
            assert dominated_from(y, p, 0)


class TestDiagonal:
    def test_zero_bound(self):
        y = KsigmaParam((0,) * 6)
        g = ksigma_diagonal(y)
        assert g == (1,) * 6
        for n in range(4):
            assert not dominated_from(y, g, n)

    def test_rejected_at_every_stage(self):
        rng = random.Random(13)
        for _ in range(50):
            y = KsigmaParam(tuple(rng.randrange(9) for _ in range(12)))
            g = ksigma_diagonal(y)
            for n in range(10):
                assert not dominated_from(y, g, n)

    def test_degenerate_length_one(self):
        y = KsigmaParam((5,))
        assert ksigma_diagonal(y) == (6,)


class TestLaver:
    def test_empty_map_means_zero_labels(self):
        p = laver_encode({})
        assert p.label(()) == 0
        assert p.label((3, 1)) == 0
        assert laver_witnesses(p, (0, 0, 0, 0), 0, 4) == 0

    def test_root_label(self):
        p = laver_encode({(): 5})
        assert p.label(()) == 5

    def test_round_trip_on_domain(self):
        rng = random.Random(17)
        seqs = [tuple(rng.randrange(4) for _ in range(rng.randrange(4))) for _ in range(20)]
        phi = {s: rng.randrange(1, 6) for s in seqs}
        p = laver_encode(phi)
        for s, v in phi.items():
            assert p.label(s) == v

    def test_constant_one_label_counts_everything(self):
        seqs = [()]
        for length in range(1, 8):
            seqs += list(itertools.product(range(1), repeat=length))
        p = laver_encode({s: 1 for s in seqs})
        assert laver_witnesses(p, (0,) * 8, 0, 8) == 8

    def test_additive_over_adjacent_windows(self):
        p = laver_encode({(0,): 3, (0, 2): 1})
        f = (0, 2, 0, 1, 5)
        total = laver_witnesses(p, f, 0, 5)
        assert total == laver_witnesses(p, f, 0, 2) + laver_witnesses(p, f, 2, 5)

    def test_long_f_stops_past_the_longest_labelled_sequence(self):
        p = laver_encode({(): 2, (1,): 2, (1, 1): 2, (1, 1, 1): 5})
        f = (1,) * 40
        expect = sum(f[n] < p.label(f[:n]) for n in range(4))
        assert expect == 4
        assert laver_witnesses(p, f, 0, 40) == expect

    def test_prefix_contract(self):
        p = laver_encode({})
        with pytest.raises(InsufficientPrefix):
            laver_witnesses(p, (1, 2), 0, 3)

    def test_json_round_trip(self):
        p = laver_encode({(1, 2): 7, (): 2})
        assert LaverParam.from_json(p.to_json()) == p

    def test_unsorted_or_repeated_entries_are_refused(self):
        seqs = ((3,), (1,))
        for entries in (((seq_code((3,)), 1), (seq_code((1,)), 1)), ((2, 1), (2, 1))):
            with pytest.raises(ValueError, match="sorted by code"):
                LaverParam(entries, seqs)

    def test_codes_are_the_sequence_codes(self):
        p = laver_encode({(3,): 9})
        assert p.entries == ((seq_code((3,)), 9),)


def code_walk_hits(p, f):
    """Per position n of f, is f(n) below the label of f's first n entries?
    Read by coding each prefix with seq_code and finding the code among
    p.entries.  Prefix codes strictly increase, so past the top stored
    code every label is 0 and the walk stops coding."""
    by_code = dict(p.entries)
    top = max(by_code, default=-1)
    hits = [False] * len(f)
    for n in range(len(f)):
        code = seq_code(f[:n])
        if code > top:
            break
        hits[n] = f[n] < by_code.get(code, 0)
    return hits


def random_labelling(rng):
    # sequences of length <= 8 over an alphabet of at most 4, each drawn
    # with about half its prefixes, some of them labelled 0
    alphabet = rng.randint(1, 4)
    phi = {}
    for _ in range(rng.randint(0, 8)):
        s = tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, 8)))
        for n in range(len(s) + 1):
            if n == len(s) or rng.random() < 0.5:
                phi[s[:n]] = rng.randrange(5)
    return alphabet, phi


def random_f(rng, alphabet, phi, length=40):
    # half follow a labelled sequence, so that labels are met deep down
    stem = rng.choice(sorted(phi)) if phi and rng.random() < 0.5 else ()
    return stem + tuple(rng.randrange(alphabet + 1) for _ in range(length - len(stem)))


class TestLaverAgainstTheCodeWalk:
    def test_witnesses_match_the_code_walk_over_every_window(self):
        rng = random.Random(16)
        for _ in range(25):
            alphabet, phi = random_labelling(rng)
            p = laver_encode(phi)
            for _ in range(3):
                f = random_f(rng, alphabet, phi)
                hits = code_walk_hits(p, f)
                for n1 in range(len(f) + 1):
                    for n0 in range(n1 + 1):
                        assert laver_witnesses(p, f, n0, n1) == sum(hits[n0:n1])

    def test_labels_match_the_code_lookup(self):
        rng = random.Random(160)
        for _ in range(50):
            alphabet, phi = random_labelling(rng)
            p = laver_encode(phi)
            stray = [
                tuple(rng.randrange(alphabet + 1) for _ in range(rng.randint(0, 8)))
                for _ in range(10)
            ]
            for s in [*phi, *stray]:
                assert p.label(s) == dict(p.entries).get(seq_code(s), 0)

    def test_to_json_is_the_decoded_entries(self):
        rng = random.Random(161)
        for _ in range(50):
            p = laver_encode(random_labelling(rng)[1])
            assert p.to_json() == {
                "phi": [{"seq": list(seq_decode(c)), "val": v} for c, v in p.entries]
            }

    def test_long_codes_are_neither_built_nor_unpicked(self, monkeypatch):
        p = laver_encode({(): 1, (1,) * 16: 1, (1,) * 17: 2, (0, 3): 4})
        assert p.entries[-1][0].bit_length() > 1 << 15
        f = (1,) * 17 + (0,) * 23
        expect, doc = sum(code_walk_hits(p, f)), p.to_json()

        def refuse(*args):
            raise AssertionError("a query built or unpicked a code")

        for name in ("pair", "unpair", "seq_code", "seq_decode"):
            monkeypatch.setattr(space, name, refuse)
            monkeypatch.setattr(domination, name, refuse, raising=False)
        assert laver_witnesses(p, f, 0, len(f)) == expect == 1
        assert p.to_json() == doc
        assert p.label((1,) * 17) == 2

    def test_label_of_a_sequence_past_the_code_bound_is_zero(self):
        # its code would pass SEQ_CODE_BITS, so it cannot be stored and
        # its label is 0; label used to raise IndexOutOfRange here
        p = laver_encode({(2,) * 19: 3})
        with pytest.raises(IndexOutOfRange):
            seq_code((2,) * 20)
        assert p.label((2,) * 19) == 3
        assert p.label((2,) * 20) == 0
        assert p.label((1,) * 25) == 0
        assert laver_witnesses(p, (2,) * 40, 0, 40) == 1

    def test_negative_entries_are_refused_after_the_window_checks(self):
        p = laver_encode({(): 2})
        # (-1, -1) used to code as (), and so earned the root's label
        with pytest.raises(IndexOutOfRange):
            laver_witnesses(p, (-1, -1, 3), 0, 3)
        with pytest.raises(IndexOutOfRange):
            p.label((-1,))
        with pytest.raises(InsufficientPrefix):
            laver_witnesses(p, (-1,), 0, 3)
        with pytest.raises(IndexOutOfRange, match="window"):
            laver_witnesses(p, (-1, 0), -1, 2)
        with pytest.raises(IndexOutOfRange, match="window"):
            laver_witnesses(p, (0, 0), 0, -1)
        # only f's first n1 entries are read
        assert laver_witnesses(p, (0, -1), 0, 1) == 1
        with pytest.raises(IndexOutOfRange):
            laver_encode({(-1,): 1, (): 2})
