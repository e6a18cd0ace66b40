"""The refinement contract at the CLI: raising one stage bound of an eval
never changes a decided answer.

The stage bounds are `--rows` and `--depth` of ``countable eval``,
`--rows` and `--n-max` of ``meager eval`` and ``e eval``, `--n` of
``null eval``, and `--null-levels`, `--meager-n-max` and `--meager-rows`
of ``fubini eval``.  Each example is an eval argv, either a golden's with
a new query or one built on a parameter drawn by the ``checks``
generators, run under the level cap IDEALIS_MAX_LEVEL 3, 5, 8 or 12.
Each stage flag is swept in turn over its whole range -- `--rows` up to
two past the parameter's count -- while the others keep their drawn
values.  A HoldsAtStage or FailsAtStage at a stage must be the answer at
every higher stage that answers.  A contract error (exit 2) is no answer:
a stage past the data, or a term past the cap, raises one at any stage.
"""

import io
import json
import os
import pathlib
import random
from contextlib import redirect_stdout
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from idealis import checks
from idealis.cli import main, param_file
from idealis.countable import countable_encode
from idealis.fubini import product_encode
from idealis.meager import MeagerParam, meager_encode
from idealis.closed_null import EParam
from idealis.space import pair

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDENS = ["countable_eval_holds", "countable_eval_fails", "meager_eval", "e_eval", "null_eval", "fubini_eval"]
DECIDED = {"HoldsAtStage", "FailsAtStage"}
CAPS = ["3", "5", "8", "12"]

# a one-row meager parameter whose prefix also holds cells of a row 1
PHANTOM_ROW = [
    "meager", "eval", "--param",
    '{"ideal":"meager","coding":"cantor-e1","prefix":[0,0,0,0,1],"rows":1,"horizon":1}',
    "--z", "1", "--n-max", "1", "--rows", "1",
]


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def with_flag(argv, name, value):
    if name in argv:
        i = argv.index(name) + 1
        return [*argv[:i], str(value), *argv[i + 1 :]]
    return [*argv, name, str(value)]


def _fsigma_bounds(doc):
    # rows and horizon of a meager or E parameter; a lone E triple is one row
    if "horizon" in doc:
        return doc["rows"], doc["horizon"]
    return 1, doc["positions"] - 1


def stage_ranges(argv):
    """Each stage flag of the eval `argv` and the values it sweeps."""
    doc = json.loads(flag(argv, "--param"))
    command = argv[0]
    if command == "countable":
        return {"--rows": range(doc["rows"] + 3), "--depth": range(len(json.loads(flag(argv, "--x"))) + 1)}
    if command in ("meager", "e"):
        rows, horizon = _fsigma_bounds(doc)
        return {"--rows": range(rows + 3), "--n-max": range(-1, horizon + 1)}
    if command == "null":
        return {"--n": range(len(doc["witness"]))}
    null, meager = (doc["first"], doc["second"])[:: 1 if doc["variant"] == "nm" else -1]
    return {
        "--null-levels": range(len(null["witness"])),
        "--meager-n-max": range(-1, meager["horizon"] + 1),
        "--meager-rows": range(meager["rows"] + 3),
    }


def answer(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    doc = json.loads(buf.getvalue())
    assert code in (0, 2), (argv, doc)
    return doc["result"] if code == 0 else None


words = st.text("01", max_size=7)


@st.composite
def queries(draw, argv):
    """`argv` with a new query, or as it is."""
    if draw(st.booleans()):
        return argv
    if argv[0] == "countable":
        x = draw(st.lists(st.integers(0, 5), max_size=5))
        return with_flag(argv, "--x", json.dumps(x))
    if argv[0] == "fubini":
        size = draw(st.integers(0, 6))
        y, z = (draw(st.text("01", min_size=size, max_size=size)) for _ in range(2))
        return with_flag(with_flag(argv, "--y", y), "--z", z)
    return with_flag(argv, "--z", draw(words))


def golden_argvs():
    return st.sampled_from(GOLDENS).map(
        lambda name: json.loads((GOLDEN_DIR / f"{name}.json").read_text())["argv"]
    ).flatmap(queries)


def generated_argv(kind, seed):
    """An eval argv on a parameter the ``checks`` generators draw."""
    rng = random.Random(seed)
    if kind == "countable":
        depth = rng.randint(1, 4)
        pts = [tuple(rng.randrange(4) for _ in range(depth)) for _ in range(rng.randint(0, 4))]
        x = [rng.randrange(4) for _ in range(depth)]
        doc = param_file("countable", countable_encode(pts, depth).to_json())
        return ["countable", "eval", "--param", json.dumps(doc), "--x", json.dumps(x)]
    z = format(rng.randrange(32), "05b")
    if kind == "meager":
        n_max = rng.randint(1, 5)
        dense = [checks.random_dense_clopen(rng, 4, n_max) for _ in range(rng.randint(1, 3))]
        doc = param_file("meager", meager_encode(dense, n_max).to_json())
    elif kind == "meager-raw":
        rows, horizon = rng.randint(1, 3), rng.randint(1, 5)
        size = 1 + pair(rows - 1, horizon)
        doc = param_file("meager", MeagerParam(tuple(rng.randrange(12) for _ in range(size)), rows, horizon).to_json())
    elif kind == "e":
        horizon = rng.randint(0, 3)
        x1_bound = rng.choice([4, 12])
        triples = [checks.random_triple(rng, horizon + 1, x1_bound=x1_bound) for _ in range(rng.randint(1, 3))]
        doc = param_file("e", EParam.from_triples(triples, horizon).to_json())
    elif kind == "null":
        doc = param_file("null", checks.random_null_param(rng, rng.randint(1, 4), rng.randint(4, 10)).to_json())
    else:
        variant = rng.choice(["nm", "mn"])
        family = checks.random_cover_family(rng, rng.randint(1, 3), max_pieces=3, max_level=6)
        n_max = rng.randint(1, 3)
        plane = ([checks.random_dense_clopen(rng, 4, n_max)], n_max)
        halves = (family, plane) if variant == "nm" else (plane, family)
        doc = param_file(f"fubini-{variant}", product_encode(variant, *halves).to_json())
        return ["fubini", "eval", "--param", json.dumps(doc), "--y", z[:4], "--z", z[1:]]
    return [kind.split("-")[0], "eval", "--param", json.dumps(doc), "--z", z]


def generated_argvs():
    kinds = st.sampled_from(["countable", "meager", "meager-raw", "e", "null", "fubini"])
    return st.builds(generated_argv, kinds, st.integers(0, 2**32)).flatmap(queries)


@st.composite
def cases(draw):
    """An eval argv with every stage flag at a drawn value, and a cap."""
    argv = draw(st.one_of(golden_argvs(), generated_argvs()))
    for name, values in stage_ranges(argv).items():
        argv = with_flag(argv, name, draw(st.sampled_from(values)))
    return argv, draw(st.sampled_from(CAPS))


@settings(max_examples=200, deadline=None)
@given(cases())
@example((PHANTOM_ROW, "12"))
def test_raising_a_stage_bound_keeps_a_decided_answer(case):
    argv, cap = case
    with mock.patch.dict(os.environ, {"IDEALIS_MAX_LEVEL": cap}):
        for name, values in stage_ranges(argv).items():
            decided = None
            for value in values:
                got = answer(with_flag(argv, name, value))
                if got is None:
                    continue
                if decided is not None:
                    assert got == decided[1], (name, decided, value, got, argv)
                elif got in DECIDED:
                    decided = value, got


def test_a_row_the_parameter_does_not_declare_is_not_read():
    assert [answer(with_flag(PHANTOM_ROW, "--rows", rows)) for rows in range(4)] == ["FailsAtStage"] * 4
