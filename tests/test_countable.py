import random
import time

import pytest

from idealis.countable import CountableParam, _support_rows, countable_encode, countable_member
from idealis.errors import InsufficientPrefix
from idealis.space import Tri, matrix_entry


class TestEncode:
    def test_empty_input_gives_zero_rows(self):
        y = countable_encode([], depth=4)
        assert y.rows == 0 and y.prefix == ()
        # all section rows are the zero row
        for n in range(3):
            for m in range(4):
                assert y.cell(n, m) == 0

    def test_windowed_reread_recovers_rows(self):
        pts = [(3, 1, 4, 1), (2, 7, 1, 8)]
        y = countable_encode(pts, depth=4)
        for n, p in enumerate(pts):
            for m in range(4):
                assert matrix_entry(y.prefix, n, m) == p[m]

    def test_short_point_rejected(self):
        with pytest.raises(InsufficientPrefix):
            countable_encode([(1, 2)], depth=3)

    def test_json_round_trip(self):
        y = countable_encode([(1, 2, 3)], depth=3)
        assert CountableParam.from_json(y.to_json()) == y


class TestMember:
    def test_encoded_point_holds(self):
        x = (5, 0, 2, 9)
        y = countable_encode([x], depth=4)
        assert countable_member(y, x, rows=1, depth=4) is Tri.HOLDS

    def test_everywhere_different_point_fails(self):
        pts = [(1, 2, 3), (4, 5, 6)]
        y = countable_encode(pts, depth=3)
        x = (9, 9, 9)  # differs from both rows and from the zero row at 0
        assert countable_member(y, x, rows=2, depth=3) is Tri.FAILS

    def test_depth_beyond_query_prefix_errors(self):
        y = countable_encode([(1, 2, 3)], depth=3)
        with pytest.raises(InsufficientPrefix):
            countable_member(y, (1, 2), rows=1, depth=3)

    def test_zero_query_agrees_with_zero_tail_row(self):
        y = countable_encode([(1, 2, 3)], depth=3)
        # rows beyond the encoded ones are the zero row
        assert countable_member(y, (0, 0, 0), rows=2, depth=3) is Tri.HOLDS
        # with only the encoded row in range the answer stays open
        assert countable_member(y, (0, 0, 0), rows=1, depth=3) is Tri.UNKNOWN

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            depth = rng.randint(1, 8)
            pts = [
                tuple(rng.randrange(8) for _ in range(depth))
                for _ in range(rng.randint(1, 8))
            ]
            y = countable_encode(pts, depth)
            for p in pts:
                assert countable_member(y, p, rows=y.rows, depth=depth) is Tri.HOLDS
            # a point differing from every row within the window fails
            probe = tuple(9 for _ in range(depth))
            assert countable_member(y, probe, rows=y.rows, depth=depth) is Tri.FAILS

    def test_monotone_under_rows_and_depth(self):
        rng = random.Random(23)
        for _ in range(80):
            depth = rng.randint(2, 6)
            pts = [
                tuple(rng.randrange(4) for _ in range(depth))
                for _ in range(rng.randint(0, 5))
            ]
            y = countable_encode(pts, depth)
            x = tuple(rng.randrange(4) for _ in range(depth))
            seen = []
            for rows in range(0, len(pts) + 2):
                for d in range(1, depth + 1):
                    seen.append(countable_member(y, x, rows=rows, depth=d))
            decided = [t for t in seen if t is not Tri.UNKNOWN]
            assert len({*decided}) <= 1, seen

    def test_huge_row_count_answers_like_one_zero_row(self):
        # every row from the support on is the zero row, so asking about
        # 10^8 rows must answer at once and as one zero row past it would
        y = countable_encode([(1, 2, 3), (2, 0, 1), (0, 0, 4)], depth=3)
        support = _support_rows(len(y.prefix))
        for x in [(1, 2, 3), (0, 0, 0), (0, 0, 4), (5, 5, 5), (2, 0, 9), (0, 1, 0)]:
            for depth in range(4):
                start = time.perf_counter()
                got = countable_member(y, x, rows=10**8, depth=depth)
                assert time.perf_counter() - start < 0.5
                assert got is countable_member(y, x, rows=support + 1, depth=depth)
