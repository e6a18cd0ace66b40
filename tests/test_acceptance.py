"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Criteria 01-10 run the ``idealis check`` property suites of
``idealis.checks`` at larger sizes, each with its own seed; every
tolerance there is exact arithmetic.  Each criterion's case count is
pinned to a floor.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import json
import pathlib
import time
from contextlib import redirect_stdout

from idealis import checks
from idealis.cli import main as cli_main

# the fewest cases each criterion may run
CASE_FLOORS = {
    1: 5400,
    2: 848,
    3: 185160,
    4: 1050,
    5: 242612,
    6: 1830,
    7: 1500,
    8: 2871552,
    9: 131071,
    10: 509,
    11: 45,
}


def report(number, description, failures, cases):
    status = "PASS" if failures == 0 else "FAIL"
    print(f"{status} criterion {number:2d}: {description} "
          f"({cases} cases, {failures} failures)")
    assert failures == 0, f"criterion {number}: {failures}/{cases} failed"
    assert cases >= CASE_FLOORS[number], (
        f"criterion {number}: {cases} cases, fewer than {CASE_FLOORS[number]}"
    )


def report_suites(number, description, *suites):
    properties = [p for suite in suites for p in suite]
    for p in properties:
        if p["failures"]:
            print(f"  {p['name']}: {p['failures']}/{p['cases']} failed")
    report(
        number,
        description,
        sum(p["failures"] for p in properties),
        sum(p["cases"] for p in properties),
    )


def test_criterion_01_null_guard_invariant():
    started = time.monotonic()
    # bound 1 reads as each row's first term, n + 1
    props = checks.suite_null_guard(424242, params=200, rows=9, k_hi=64, inner_bounds=(1, 24))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"guard sweep took {elapsed:.1f}s"
    report_suites(1, "null stage measure stays under 2^-n", props)


def test_criterion_02_null_encoder_laws():
    props = checks.suite_null_encoder(77, families=50, depth_cap=7, every_stage=True)
    report_suites(2, "null encoder tail/block/guard/coverage laws", props)


def test_criterion_03_enumeration_completeness():
    # the enumeration suite draws nothing at random; seed 0 is a placeholder
    props = checks.suite_enum_bijection(0, level_cap=4, n_cap=3, rank_enumerated=True)
    report_suites(3, "clopen enumeration complete and rank-invertible", props)


def test_criterion_04_meager_density_repair():
    props = checks.suite_meager_density(
        99, prefixes=100, encoders=50, entry_bound=50, every_stage=True
    )
    report_suites(4, "dense sections meet every basic set; encoder stays inside", props)


def test_criterion_05_fxp_oracle_equivalence():
    props = checks.suite_fxp_oracle(
        5, widths=4, blocks=3, exhaustive_len=5, class_lens=range(6, 13)
    )
    report_suites(5, "block-difference evaluator matches the literal formula", props)


def test_criterion_06_e_ideal_fullness():
    props = checks.suite_e_fullness(
        606, params=100, n_max=8, encoders=30, x1_bound=13, every_stage=True
    )
    report_suites(6, "full-measure stages, term cardinality, encoder inclusion", props)


def test_criterion_07_ksigma_diagonal():
    props = checks.suite_domination(7007, bounds=100)
    report_suites(7, "diagonal escapes every stage; encoder dominates inputs", props)


def test_criterion_08_laver_oracle_equivalence():
    props = checks.suite_domination(
        808,
        maps=50,
        alphabet=4,
        length=6,
        labelled=60,
        windows=((0, 6), (0, 3), (2, 5), (4, 6), (1, 1)),
    )
    # labellings of 0-40 sequences, counted over every window from n0 < 3
    every_window = checks.suite_domination(
        23,
        bounds=0,
        maps=25,
        alphabet=4,
        length=6,
        labelled=(0, 40),
        windows=tuple((n0, n1) for n0 in range(3) for n1 in range(n0, 7)),
    )
    report_suites(8, "window witness counts match the literal predicate", props, every_window)


def test_criterion_09_combinadics():
    props = checks.suite_enum_bijection(0, comb_cap=16)
    report_suites(9, "combinadic rank inverts unrank for every subset up to 16", props)


def test_criterion_10_tri_monotonicity():
    props = checks.suite_tri_monotone(
        1010, per_module=125, null_rows=8, null_k_hi=24, null_z_bits=5
    )
    # the fubini suite holds the exhaustive composition table
    report_suites(
        10, "stage refinement never flips a decided answer", props, checks.suite_fubini(1010)
    )


def test_criterion_11_cli_stability():
    # the check_all golden pins the full `check --suite all` output
    failures = cases = 0
    elapsed = {}
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for path in sorted(golden_dir.glob("*.json")):
        case = json.loads(path.read_text())
        buf = io.StringIO()
        started = time.monotonic()
        with redirect_stdout(buf):
            code = cli_main(case["argv"])
        elapsed[path.stem] = time.monotonic() - started
        cases += 1
        if buf.getvalue() != case["stdout"] or code != case["exit"]:
            failures += 1

    check_all = json.loads((golden_dir / "check_all.json").read_text())
    if check_all["exit"] != 0 or not json.loads(check_all["stdout"])["pass"]:
        failures += 1
    assert elapsed["check_all"] < 60.0, f"check --suite all took {elapsed['check_all']:.1f}s"
    report(11, "golden subcommand outputs and the full check suite", failures, cases)
