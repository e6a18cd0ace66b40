"""Tests of the benchmark itself: every oracle accepts the library's real
answers and rejects a corrupted one, an operation that raises leaves the
rest of its round checked, the tracer nests and restores, and the command
refuses to run without the library.

    python3 -m unittest discover -s bench -p 'test_*.py'       # from the repo root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from array import array
from fractions import Fraction
from itertools import combinations

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import _Failed, _run_round, check_outputs  # noqa: E402

LIB = W.Lib()


def first_round(cls, seed=3, index=0):
    wl = cls(seed, LIB)
    rounds = wl.build(LIB)
    outs, raised = _run_round(rounds[index].ops, array("d"), time.perf_counter)
    assert raised == 0, outs
    return wl, rounds[index], outs


def problems(wl, rnd, outs, index=0):
    check = W.Checker(LIB)
    wl.check(check, index, rnd, outs)
    return [p for _, p in check.problems]


def find(rnd, pred):
    for i, tag in enumerate(rnd.tags):
        if pred(tag):
            return i
    raise LookupError("no such operation")


def flip(tri):
    Tri = LIB.space.Tri
    return Tri.FAILS if tri is Tri.HOLDS else Tri.HOLDS


class TestNullOracles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.enc = first_round(W.NullFresh, index=0)   # encoder output, depth 1
        cls.rand = first_round(W.NullFresh, index=1)  # random 40-bit parameter

    def test_real_answers_pass(self):
        self.assertEqual(problems(*self.enc, 0), [])
        self.assertEqual(problems(*self.rand, 1), [])

    def test_flipped_member_answer_is_caught(self):
        wl, rnd, outs = self.enc
        i = find(rnd, lambda t: t[0] == "member" and t[3])  # a covered point
        bad = list(outs)
        bad[i] = flip(bad[i])
        self.assertTrue(any("null_member" in p for p in problems(wl, rnd, bad)))

    def test_stage_at_the_budget_is_caught(self):
        wl, rnd, outs = self.rand
        i = find(rnd, lambda t: t[0] == "stage")
        n = rnd.tags[i][1]
        bad = list(outs)
        bad[i] = LIB.space.Clopen.cylinder("0" * n)  # measure exactly 2^-n
        found = problems(wl, rnd, bad, 1)
        self.assertTrue(any("not below" in p for p in found), found)

    def test_guard_firing_on_encoder_output_is_caught(self):
        wl, rnd, outs = self.enc
        p = outs[0]
        # a cell naming a set as large as the row-0 budget allows the guard
        # nothing: it must blank it, and encoder output must never need that
        prefix = list(p.prefix)
        prefix[O.pair(0, 1)] = LIB.enumerations.clopen_rank(0, LIB.space.Clopen.cylinder("0"))
        prefix[O.pair(0, 2)] = LIB.enumerations.clopen_rank(0, LIB.space.Clopen.cylinder("1"))
        bad = list(outs)
        bad[0] = LIB.nullset.NullParam(tuple(prefix), p.witness)
        self.assertTrue(any("guard" in x for x in problems(wl, rnd, bad)))

    def test_master_list_rejects_a_wrong_set(self):
        master = O.MasterList()
        good = LIB.enumerations.clopen_enum(1, 5)
        self.assertEqual(master.check(1, 5, O.Region.of(good), 5), [])
        other = O.Region.of(LIB.enumerations.clopen_enum(1, 6))
        self.assertTrue(master.check(1, 5, other, 5))
        self.assertTrue(master.check(1, 5, O.Region.of(good), 4))


class TestFsigmaOracles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.rnd, cls.outs = first_round(W.Fsigma)

    def test_real_answers_pass(self):
        self.assertEqual(problems(self.wl, self.rnd, self.outs), [])

    def corrupt(self, pred, change):
        i = find(self.rnd, pred)
        bad = list(self.outs)
        bad[i] = change(bad[i])
        return problems(self.wl, self.rnd, bad)

    def test_flipped_meager_answer_is_caught(self):
        found = self.corrupt(lambda t: t[0] == "m_eval", flip)
        self.assertTrue(any("meager_eval" in p for p in found), found)

    def test_flipped_e_answer_is_caught(self):
        found = self.corrupt(lambda t: t[0] == "e_eval", flip)
        self.assertTrue(any("e_fsigma_member" in p for p in found), found)

    def test_e_term_off_the_cardinality_law_is_caught(self):
        def shrink(c):
            words = c.words()[1:]
            return LIB.space.Clopen.from_words(c.level, words)

        found = self.corrupt(lambda t: t[0] == "e_term" and t[2] > 0, shrink)
        self.assertTrue(any("1 - 2^-" in p for p in found), found)

    def test_deep_e_term_with_the_wrong_words_is_caught(self):
        # same level and cardinality, one word swapped: only the subset its
        # rank names tells it apart, at a level past brute-force listing
        def deep(tag):
            if tag[0] != "e_term":
                return False
            reg = O.Region.of(self.outs[self.rnd.tags.index(tag)])
            return reg.level > 8 and 0 < len(reg.words) < (1 << reg.level)

        def swap(c):
            reg = O.Region.of(c)
            words = set(reg.words)
            out = next(format(v, f"0{reg.level}b") for v in range(1 << reg.level)
                       if format(v, f"0{reg.level}b") not in words)
            words.remove(reg.words[0])
            words.add(out)
            return LIB.space.Clopen.from_words(reg.level, sorted(words))

        found = self.corrupt(deep, swap)
        self.assertTrue(any("lexicographic subset" in p for p in found), found)

    def test_dense_stage_missing_a_basic_set_is_caught(self):
        found = self.corrupt(lambda t: t[0] == "m_stage", lambda c: LIB.space.Clopen.cylinder("0"))
        self.assertTrue(any("misses basic open" in p for p in found), found)


class TestCliOracles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.rnd, cls.outs = first_round(W.CliChain)

    def test_real_answers_pass(self):
        self.assertEqual(problems(self.wl, self.rnd, self.outs), [])

    def corrupt(self, kind, change):
        i = find(self.rnd, lambda t: t[0] == kind)
        code, text = self.outs[i]
        bad = list(self.outs)
        bad[i] = change(code, text)
        return problems(self.wl, self.rnd, bad)

    @staticmethod
    def edit(key, fn):
        def change(code, text):
            doc = json.loads(text)
            doc[key] = fn(doc[key])
            return code, json.dumps(doc) + "\n"

        return change

    def test_witness_count_off_by_one_is_caught(self):
        found = self.corrupt("laver_eval", self.edit("witnesses", lambda v: v + 1))
        self.assertTrue(any("laver witness count" in p for p in found), found)

    def test_flipped_countable_answer_is_caught(self):
        other = {O.HOLDS: O.FAILS, O.FAILS: O.HOLDS, O.UNKNOWN: O.HOLDS}
        found = self.corrupt("countable_eval", self.edit("result", other.get))
        self.assertTrue(any("countable_eval" in p for p in found), found)

    def test_flipped_fubini_answer_is_caught(self):
        other = {O.HOLDS: O.FAILS, O.FAILS: O.HOLDS, O.UNKNOWN: O.HOLDS}
        found = self.corrupt("fubini_eval", self.edit("result", other.get))
        self.assertTrue(any("fubini_eval" in p for p in found), found)

    def test_wrong_baire_kprime_is_caught(self):
        found = self.corrupt("kprime_baire", self.edit("value", lambda v: v + 1))
        self.assertTrue(found)

    def test_ksigma_flag_is_caught(self):
        found = self.corrupt("ksigma_eval", self.edit("dominated", lambda v: not v))
        self.assertTrue(any("domination" in p for p in found), found)

    def test_two_documents_and_bad_exit_are_caught(self):
        found = self.corrupt("pair", lambda code, text: (code, text + text))
        self.assertTrue(any("lines on stdout" in p for p in found), found)
        found = self.corrupt("pair", lambda code, text: (2, text))
        self.assertTrue(any("exit code" in p for p in found), found)


class TestPartialFailure(unittest.TestCase):
    """An operation that raises costs only itself and what reads its
    output: the rest of the round is still checked."""

    @classmethod
    def setUpClass(cls):
        cls.wl, cls.rnd, cls.outs = first_round(W.Fsigma)

    def run_checks(self, outs):
        seen = [[{o} for o in outs]]
        return check_outputs(self.wl, LIB, [self.rnd], seen, [1])

    def test_raise_does_not_hide_a_wrong_answer(self):
        bad = list(self.outs)
        raised = find(self.rnd, lambda t: t[0] == "e_term" and t[1][0] == "rand")
        bad[raised] = _Failed(RuntimeError("boom"))
        flipped = find(self.rnd, lambda t: t[0] == "m_eval")
        bad[flipped] = flip(bad[flipped])
        failed, found, wrong = self.run_checks(bad)
        self.assertGreater(wrong, 0)
        self.assertTrue(any(f"op {flipped}:" in p and "meager_eval" in p for p in found), found)
        # the raised term, and the E stage and evaluations built on its row
        key = self.rnd.tags[raised][1]
        readers = [i for i, t in enumerate(self.rnd.tags)
                   if (t[0] == "e_stage" and t[1] == key)
                   or (t[0] == "e_eval" and t[1] == key[:2])]
        self.assertTrue(readers)
        self.assertEqual(failed, 2 + len(readers), found)

    def test_raised_encode_fails_its_dependants_only(self):
        bad = list(self.outs)
        enc = find(self.rnd, lambda t: t[0] == "m_enc")
        bad[enc] = _Failed(RuntimeError("boom"))
        deps = [i for i, (_, _, src) in enumerate(self.rnd.ops) if src == enc]
        failed, found, wrong = self.run_checks(bad)
        self.assertEqual(wrong, 0, found)
        self.assertEqual(failed, 1 + len(deps), found)


class TestOracleHelpers(unittest.TestCase):
    def test_lex_subset_matches_itertools(self):
        for n in range(9):
            for t in range(n + 1):
                for r, want in enumerate(combinations(range(n), t)):
                    self.assertEqual(O.lex_subset(n, t, r), want)

    def test_codes_invert(self):
        for k in range(2000):
            self.assertEqual(O.seq_code(O.seq_decode(k)), k)
            m, n = O.unpair(k)
            self.assertEqual(O.pair(m, n), k)

    def test_refinement_flip(self):
        self.assertTrue(O.decided_agree([O.UNKNOWN, O.HOLDS, O.HOLDS]))
        self.assertFalse(O.decided_agree([O.HOLDS, O.UNKNOWN, O.FAILS]))

    def test_region_canonical_form(self):
        self.assertTrue(O.Region(1, ["0", "1"]).problems())
        self.assertEqual(O.Region(2, ["00", "01", "10"]).problems(), [])
        self.assertEqual(O.Region(2, ["00", "11"]).measure(), Fraction(1, 2))


class TestTracer(unittest.TestCase):
    def test_spans_nest_and_wrappers_come_off(self):
        ns, en = LIB.nullset, LIB.enumerations
        original = en.clopen_enum
        param = ns.NullParam(tuple(range(1, 40)), (5, 6))
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(ns.clopen_enum, original)
            ns.null_member(param, "01", 1)
        finally:
            tracer.uninstall()
        self.assertIs(ns.clopen_enum, original)
        self.assertIs(en.clopen_enum, original)
        m = tracer.summary()
        self.assertEqual(m["nullset.calls"], 1)
        self.assertEqual(m["enumerations.clopen_enum.calls"], 5 + 5)
        self.assertEqual(m["nullset.enum_calls_per_query"], 10)
        self.assertGreater(m["space.calls"], 0)
        total = sum(m[f"{layer}.self_s"] for layer in ("nullset", "enumerations", "space"))
        root = [i for i in range(tracer.span_count) if tracer.span_parent[i] == -1]
        self.assertEqual(len(root), 1)
        wall = (tracer.span_end[root[0]] - tracer.span_start[root[0]]) / 1e9
        self.assertAlmostEqual(total, wall, places=6)


class TestCommand(unittest.TestCase):
    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(BENCH, "results", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "bench"))
        try:
            for name in os.listdir(BENCH):
                if name.endswith(".py"):
                    shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench", name))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "fsigma", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
