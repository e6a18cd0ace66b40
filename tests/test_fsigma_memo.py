"""The per-row stage-union memo of the F_sigma parameters (meager and E).

Every answer read through the memo must be the answer a fresh parameter,
with an empty memo, gives to the same query; the oracle below rebuilds the
parameter from its JSON form for each query, so it shares nothing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from idealis import closed_null
from idealis.closed_null import EParam, ETripleParam, e_fsigma_member, e_open_encode
from idealis.errors import IdealisError, InsufficientPrefix, LevelCapExceeded
from idealis.meager import MeagerParam, meager_encode, meager_eval
from idealis.space import Clopen, pack_rows, pair

EVALS = {MeagerParam: meager_eval, EParam: e_fsigma_member}


def outcome(p, z, rows, n_max):
    try:
        return EVALS[type(p)](p, z, rows, n_max).value
    except IdealisError as e:
        return e.name, e.detail()


def fresh(p):
    return type(p).from_json(p.to_json())


@st.composite
def fsigma_params(draw):
    kind = draw(st.sampled_from([MeagerParam, EParam]))
    rows = draw(st.integers(0, 3))
    horizon = draw(st.integers(0, 5 if kind is MeagerParam else 3))
    last = pair(rows - 1, horizon if kind is MeagerParam else pair(2, horizon)) if rows else -1
    # mostly whole rows; sometimes cut short, so a cell goes missing
    size = max(0, last + 1 - draw(st.sampled_from([0, 0, 0, 1, 3])))
    # small cells keep E terms within the cap; a few larger ones pass it
    cell = st.integers(0, 3) | st.integers(0, 14) | st.integers(0, 10**9)
    prefix = draw(st.lists(cell, min_size=size, max_size=size))
    return kind(tuple(prefix), rows, horizon)


queries = st.lists(
    st.tuples(st.text("01", max_size=6), st.integers(0, 4), st.integers(-1, 5)),
    min_size=1,
    max_size=6,
)


class TestMemoAnswers:
    @settings(max_examples=150, deadline=None)
    @given(fsigma_params(), queries)
    def test_any_query_sequence_matches_a_fresh_copy_per_query(self, p, qs):
        for z, rows, n_max in qs:
            assert outcome(p, z, rows, n_max) == outcome(fresh(p), z, rows, n_max)

    def test_each_e_term_is_unranked_once_per_parameter(self, monkeypatch):
        calls = []
        real = closed_null.kcomb_unrank_mask_below

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(closed_null, "kcomb_unrank_mask_below", counted)
        v = Clopen.cylinder("000000").complement()
        p = EParam.from_triples([e_open_encode(v, 5), e_open_encode(v, 5)], 5)
        answers = [e_fsigma_member(p, z, 2, n) for z in ("000000", "01", "") for n in range(6)]
        once = len(calls)
        # every term but the empty term 0 of each row
        assert once == 2 * 5
        assert [e_fsigma_member(p, z, 2, n) for z in ("000000", "01", "") for n in range(6)] == answers
        assert len(calls) == once

    def test_memo_ignored_by_equality_hash_repr_and_json(self):
        v = Clopen.cylinder("0000").complement()
        params = [
            meager_encode([v, Clopen.cylinder("11").complement()], 5),
            EParam.from_triples([e_open_encode(v, 3)], 3),
        ]
        for p in params:
            blank = fresh(p)
            before = (repr(p), p.to_json())
            for n in range(p.horizon + 1):
                outcome(p, "0000", p.rows, n)
            assert p._states and not blank._states
            assert p == blank and hash(p) == hash(blank)
            assert (repr(p), p.to_json()) == before == (repr(blank), blank.to_json())


class TestMemoErrors:
    def test_zero_rows_search_no_row_and_negative_rows_are_refused(self):
        v = Clopen.cylinder("000000").complement()
        for p in (meager_encode([v], 5), EParam.from_triples([e_open_encode(v, 5)], 5)):
            # zero rows search no row for HOLDS, but FAILS still needs
            # every row of the parameter
            assert outcome(p, "000000", 0, 3) == "InsufficientData"
            assert outcome(p, "000000", 1, 3) == "HoldsAtStage"
            assert outcome(p, "01", 0, 3) == outcome(p, "01", 1, 3) == "FailsAtStage"
            blank = fresh(p)
            assert outcome(blank, "01", -1, 3) == ("IndexOutOfRange", {"message": "row counts are naturals"})
            assert not blank._states
            # no rows at all: the union of their closed sets is empty
            empty = type(p)((), 0, p.horizon)
            assert {outcome(empty, z, rows, 3) for z in ("", "01") for rows in (0, 2)} == {"FailsAtStage"}

    def test_lowered_cap_is_not_served_from_the_memo(self, monkeypatch):
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
        v = Clopen.cylinder("000000").complement()
        params = [meager_encode([v], 10), EParam.from_triples([e_open_encode(v, 5)], 5)]
        for p in params:
            want = outcome(p, "000000", 1, p.horizon)
            assert want == "HoldsAtStage"
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", "3")
            got = outcome(p, "000000", 1, p.horizon)
            assert got == outcome(fresh(p), "000000", 1, p.horizon)
            assert got[0] == LevelCapExceeded.name
            monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
            assert outcome(p, "000000", 1, p.horizon) == want

    @pytest.mark.parametrize("kind", [MeagerParam, EParam])
    def test_over_cap_cell_before_a_missing_cell_reports_the_missing_cell(self, kind):
        # the row's first term needs a level past the cap, and a later cell
        # of the same row is missing: the missing cell is reported, since a
        # row is read to the horizon before any of its terms is built
        horizon = 3
        if kind is MeagerParam:
            row = (0, 10**6, 0, 0)
        else:
            row = ETripleParam((0,) * 4, (20, 0, 0, 0), (0,) * 4).packed()
        whole = kind(pack_rows([row]), 1, horizon)
        # the row's last cell is the last one read
        missing = len(whole.prefix) - 1
        p = kind(whole.prefix[:missing], 1, horizon)
        assert outcome(whole, "0", 1, horizon)[0] == LevelCapExceeded.name
        for n_max in range(horizon + 1):
            with pytest.raises(InsufficientPrefix) as e:
                EVALS[kind](p, "0", 1, n_max)
            assert e.value.required_length == missing + 1
        assert not p._states

    @pytest.mark.parametrize("kind", [MeagerParam, EParam])
    def test_a_term_that_raises_leaves_the_memo_unchanged(self, kind, monkeypatch):
        monkeypatch.setenv("IDEALIS_MAX_LEVEL", "12")
        v = Clopen.cylinder("000").complement()
        if kind is MeagerParam:
            good = meager_encode([v], 4)
            bad_row = (0, 0, 10**6, 0, 0)
        else:
            good = EParam.from_triples([e_open_encode(v, 2)], 2)
            bad_row = tuple(good.prefix[pair(0, j)] for j in range(pair(2, 2) + 1))
            bad_row = bad_row[: pair(1, 1)] + (20,) + bad_row[pair(1, 1) + 1 :]
        # row 0 is the encoded row, row 1 has a term past the cap
        good_row = [good.prefix[pair(0, j)] for j in range(len(bad_row))]
        p = kind(pack_rows([good_row, bad_row]), 2, good.horizon)
        # stage 0 reads row 1's cells, but not the term past the cap
        assert outcome(p, "1", 1, 0) == outcome(good, "1", 1, 0)
        memo = dict(p._states)
        assert list(memo) == [(0, 12), (1, 12)]
        # FAILS needs row 1's stage union even when only row 0 is searched
        for rows in (1, 2, 1):
            with pytest.raises(LevelCapExceeded):
                EVALS[kind](p, "1", rows, p.horizon)
            assert p._states == memo
            assert all(p._states[k] is memo[k] for k in memo)
