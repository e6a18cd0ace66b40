"""Mutated golden argvs through ``cli.main``: whatever the flags say, a run
exits 0, 1 or 2 within a second, lets no exception escape, and prints the
one document its exit code promises.  A run does not exit 0 when a JSON
argument holds a float, bool, string, null or negative int where the
golden's held a natural.

Each example starts from the argv of a golden file that does not run
``check``, which runs whole suites by design, and mutates it one to three
times: flag values far more often than flag names.  A value becomes a
number (negative, huge, or not an integer at all), a 0/1 word, a prefix of
itself, its JSON with one part replaced, or JSON nested thousands deep.  No
mutation draws ``--help`` or ``--version``, which print text by design, or
a value starting with ``@``, which names a file to read.

A second property holds `main` to the whole parser tree.  `main` reads a
leaf argv with its op's parser alone; on every golden argv, and on argvs
mutated the ways argparse treats apart (help and version flags, ``--``
and ``--=x``, flag abbreviations, a dropped, unknown or stray name, a
repeated or ``--flag=value`` flag), its stdout, stderr and exit code
match a run that parses with ``build_parser()`` alone, under a narrow and
a wide ``COLUMNS``.
"""

import io
import json
import os
import pathlib
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from idealis import cli
from idealis.cli import COMMANDS, build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = {p.stem: json.loads(p.read_text())["argv"] for p in sorted(GOLDEN_DIR.glob("*.json"))}
ARGVS = [argv for argv in GOLDEN.values() if argv[0] != "check"]
FLAGS = sorted({flag for _, _, ops in COMMANDS.values() for flags in ops.values() for flag in flags})
CHOICES = sorted(
    {
        choice
        for _, _, ops in COMMANDS.values()
        for flags in ops.values()
        for keywords in flags.values()
        for choice in keywords.get("choices", ())
    }
)

integers = st.one_of(
    st.integers(-20, 20),
    st.integers(-(10**12), 10**12),
    # Python refuses to convert more than 4300 digits between int and str
    st.integers(1, 4300).map(lambda digits: 10**digits - 1),
    st.integers(1, 4299).map(lambda digits: -(10**digits)),
)
numbers = integers.map(str)
scalars = st.one_of(
    integers,
    st.text("01", max_size=10),
    st.sampled_from([None, True, 1.5, 1e308, "x", [], {}, [[0]], {"level": 1}]),
)
odd_values = st.sampled_from(["", "1e309", "nan", "inf", "0x1f", "1.5", " 7", "0101x", "[", "{}"])


def replace_part(doc, path, value):
    """`doc` with the part at `path` (keys and indices) replaced."""
    if not path:
        return value
    head, *rest = path
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = replace_part(doc[head], rest, value)
    return copy


def parts(doc, path=()):
    """Every path into `doc`, the empty path included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from parts(child, (*path, key))


@st.composite
def new_value(draw, old):
    kinds = ["number", "huge", "word", "odd", "prefix", "nested"]
    try:
        doc = json.loads(old)
    except (ValueError, RecursionError):
        doc = None
    if isinstance(doc, (dict, list)):
        kinds += ["json"] * 6
    elif isinstance(doc, int):
        # most integer flags stay integers, so argparse lets them through
        kinds += ["number"] * 12
    elif old in CHOICES:
        kinds += ["choice"] * 6
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        return draw(numbers)
    if kind == "huge":
        # more digits than int() converts
        return "9" * draw(st.integers(4301, 5000))
    if kind == "choice":
        return draw(st.sampled_from(CHOICES))
    if kind == "word":
        return draw(st.text("01", max_size=40))
    if kind == "odd":
        return draw(odd_values)
    if kind == "prefix":
        return old[: draw(st.integers(0, max(len(old) - 1, 0)))]
    if kind == "nested":
        depth = draw(st.integers(1, 3000))
        return "[" * depth + "]" * depth
    path = draw(st.sampled_from(list(parts(doc))))
    return json.dumps(replace_part(doc, path, draw(scalars)))


MISSING = object()


def at(doc, path):
    """The part of `doc` at `path`, or MISSING."""
    for key in path:
        if isinstance(doc, dict) and key in doc:
            doc = doc[key]
        elif isinstance(doc, list) and isinstance(key, int) and key < len(doc):
            doc = doc[key]
        else:
            return MISSING
    return doc


def breaks_a_natural(golden, argv):
    """Does a JSON argument of `argv` put a non-natural where the same
    flag's JSON array or object in `golden` held a natural?  A flag's last
    value is the one argparse keeps; a flag that takes one number, such as
    ``--n-max``, keeps its own answers."""
    old, new = (dict(zip(a[2::2], a[3::2])) for a in (golden, argv))
    for flag in old.keys() & new.keys():
        try:
            before, after = json.loads(old[flag]), json.loads(new[flag])
        except (ValueError, RecursionError):
            continue
        if not isinstance(before, (dict, list)):
            continue
        for path in parts(before):
            natural = at(before, path)
            if type(natural) is int and natural >= 0:
                value = at(after, path)
                if isinstance(value, (bool, float, str)) or value is None:
                    return True
                if type(value) is int and value < 0:
                    return True
    return False


@st.composite
def mutated_argvs(draw):
    golden = draw(st.sampled_from(ARGVS))
    argv = list(golden)
    for _ in range(draw(st.integers(1, 3))):
        # argv is command, op, then --flag value pairs
        flags = list(range(2, len(argv), 2))
        kind = draw(st.sampled_from(["value"] * 12 + ["drop", "repeat", "rename"]))
        if not flags:
            kind = "repeat"
        if kind == "repeat":
            flag = draw(st.sampled_from([argv[i] for i in flags] or FLAGS))
            argv += [flag, draw(new_value("0"))]
            continue
        i = draw(st.sampled_from(flags))
        if kind == "value":
            argv[i + 1] = draw(new_value(argv[i + 1]))
        elif kind == "drop":
            del argv[i : i + 2]
        else:
            argv[i] = draw(st.sampled_from(FLAGS + ["--bogus"]))
    assert not any(a.startswith("@") for a in argv)
    return golden, argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(
    max_examples=400, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutated_argvs())
def test_a_mutated_golden_argv_keeps_the_exit_contract(case):
    golden, argv = case
    code, out, err, seconds = run(argv)
    assert seconds < 1.0
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1 and not out:
        # an argparse usage error
        assert err.startswith("usage: ")
        return
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    if code == 0:
        assert "error" not in doc
        assert not breaks_a_natural(golden, argv)
    else:
        assert set(doc) == {"error", "detail"}
        assert (doc["error"] == "MalformedInput") == (code == 1)


# -- parity with the whole parser tree ------------------------------------------

OPS = sorted({op for _, _, ops in COMMANDS.values() for op in ops if op is not None})
TOKENS = [
    "-h", "--help", "--version", "--vers", "--h", "--he", "--=x", "--=", "--", "-",
    "-x", "--bogus", "stray", "", "-1", "--help=x",
]


@st.composite
def parse_mutated_argvs(draw):
    argv = list(draw(st.sampled_from(list(GOLDEN.values()))))
    for _ in range(draw(st.integers(1, 2))):
        flags = [i for i, a in enumerate(argv) if a.startswith("--") and len(a) > 2]
        kinds = ["token"] * 3 + ["drop-op", "swap-op", "swap-command", "cut", "value"]
        if flags:
            kinds += ["abbreviate", "repeat", "join"] * 2
        kind = draw(st.sampled_from(kinds))
        if kind == "token":
            token = draw(st.sampled_from(TOKENS + FLAGS + OPS + list(COMMANDS)))
            argv.insert(draw(st.integers(0, len(argv))), token)
        elif kind == "drop-op" and len(argv) > 1:
            del argv[1]
        elif kind == "swap-op" and len(argv) > 1:
            argv[1] = draw(st.sampled_from(OPS + ["bogus"]))
        elif kind == "swap-command" and argv:
            argv[0] = draw(st.sampled_from(list(COMMANDS) + ["bogus"]))
        elif kind == "cut":
            del argv[draw(st.integers(0, len(argv))) :]
        elif kind == "value" and argv:
            argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from(["1", "x", "-1", "01"]))
        elif kind == "abbreviate":
            i = draw(st.sampled_from(flags))
            argv[i] = argv[i][: draw(st.integers(2, len(argv[i]) - 1))]
        elif kind == "repeat":
            i = draw(st.sampled_from(flags))
            argv += argv[i : i + 2]
        elif kind == "join" and flags:
            i = draw(st.sampled_from([i for i in flags if i + 1 < len(argv)] or flags))
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    assert not any(a.startswith("@") for a in argv)
    return argv


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def both_outcomes(argv, columns):
    """`main(argv)`, then the same run with the whole tree parsing."""
    with mock.patch.dict(os.environ, {"COLUMNS": columns}):
        got = outcome(argv)
        with mock.patch.object(cli, "_parse", lambda argv: build_parser().parse_args(argv)):
            want = outcome(argv)
    return got, want


COLUMNS = ["40", "160"]


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("name", GOLDEN)
def test_a_golden_argv_parses_as_the_whole_tree_does(name, columns):
    got, want = both_outcomes(GOLDEN[name], columns)
    assert got == want


@pytest.mark.parametrize("columns", COLUMNS)
@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=parse_mutated_argvs())
def test_a_mutated_argv_parses_as_the_whole_tree_does(argv, columns):
    got, want = both_outcomes(argv, columns)
    assert got == want
