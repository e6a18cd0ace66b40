"""Every ``idealis check`` suite can fail.

Each case swaps one name the suite imports for a stand-in that answers
wrongly on every case of one property, then runs the suite.
"""

import pytest

from idealis import checks
from idealis.space import Clopen, Tri

BREAKS = [
    ("space-algebra", "seq_decode", lambda code: None, "sequence-code-round-trip"),
    ("enum-bijection", "kprime", lambda n, m, space: m, "kprime-increasing-nonempty-subsets"),
    (
        "meager-density",
        "dense_section_stage",
        lambda x, horizon: Clopen.empty(),
        "sections-dense-at-stage-unconditionally",
    ),
    ("fxp-oracle", "fxp_eval", lambda *args: Tri.UNKNOWN, "oracle-equivalence-exhaustive"),
    (
        "null-guard",
        "null_stage",
        lambda f, n, k: Clopen.full(),
        "stage-measure-strictly-below-budget",
    ),
    ("null-encoder", "null_member", lambda f, z, n: Tri.FAILS, "covered-point-membership"),
    ("e-fullness", "e_open_stage", lambda p, n: Clopen.empty(), "stage-fullness-unconditional"),
    ("domination", "laver_witnesses", lambda *args: -1, "witness-count-oracle"),
    (
        "tri-monotone",
        "null_member",
        lambda f, z, n: Tri.HOLDS if n % 2 else Tri.FAILS,
        "null-stage-sweep",
    ),
    (
        "fubini",
        "quantifier_shape",
        lambda variant: ("union", "clopen", "clopen"),
        "quantifier-shape-depth-three",
    ),
    ("fubini", "section_diagnostic", lambda rows, proxy: -1, "diagnostic-examples"),
]


@pytest.mark.parametrize(
    "suite,name,wrong,broken", BREAKS, ids=[f"{suite}-{name}" for suite, name, *_ in BREAKS]
)
def test_a_wrong_answer_fails_its_suite(monkeypatch, suite, name, wrong, broken):
    monkeypatch.setattr(checks, name, wrong)
    report = checks.run_suite(suite, 7)
    assert report["pass"] is False
    assert all(0 <= p["failures"] <= p["cases"] for p in report["properties"])
    # the stand-in is wrong on every case, so every case is a failure
    (hit,) = [p for p in report["properties"] if p["name"] == broken]
    assert hit["failures"] == hit["cases"] > 0


def test_every_suite_can_fail():
    assert {suite for suite, *_ in BREAKS} == set(checks.SUITES)
