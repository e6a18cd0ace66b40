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
from idealis.errors import InsufficientPrefix
from idealis.space import seq_code


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
        assert p.value_at_code(0) == 5
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

    def test_codes_are_the_sequence_codes(self):
        p = laver_encode({(3,): 9})
        assert p.entries == ((seq_code((3,)), 9),)
