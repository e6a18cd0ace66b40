import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from idealis.cli import COMMANDS, build_parser, main
from idealis.closed_null import EParam, e_fsigma_member, e_open_encode
from idealis.meager import dense_open_encode, meager_encode, meager_eval
from idealis.nullset import CoverFamily, null_encode, null_member
from idealis.space import Clopen, FsigmaParam, Tri, max_level, pair

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"
GOLDEN_CASES = sorted(p for p in GOLDEN_DIR.glob("*.json"))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("path", GOLDEN_CASES, ids=lambda p: p.stem)
def test_golden(path):
    case = json.loads(path.read_text())
    code, out = run_cli(case["argv"])
    assert out == case["stdout"]
    assert code == case["exit"]


def test_parser_reused_after_rejected_argv():
    assert build_parser() is build_parser()
    assert run_cli(["space", "pair", "--m", "x"])[0] == 1
    case = json.loads((GOLDEN_DIR / "space_pair.json").read_text())
    assert run_cli(case["argv"]) == (case["exit"], case["stdout"])


def test_a_leaf_argv_builds_only_its_op_parser():
    # a fresh interpreter, so no other test has built the whole tree
    script = "\n".join([
        "import contextlib, io",
        "from idealis import cli",
        "for _ in range(2):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(['space', 'pair', '--m', '1', '--n', '2']) == 0",
        "info = cli._op_parser.cache_info()",
        "print(cli.build_parser.cache_info().currsize, info.misses, info.hits)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "1", "1"]


def test_every_parser_formats_help_as_an_add_parser_tree_does(monkeypatch):
    # the tree built with argparse's add_parser at every level, as a
    # reference for the progs and help texts of the tree main uses
    monkeypatch.setenv("COLUMNS", "100")
    want = argparse.ArgumentParser(prog="idealis", description=build_parser().description)
    want.add_argument("--version", action="version", version="unused")
    sub = want.add_subparsers(dest="command", required=True)
    for command, (help_text, _, ops) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        if None not in ops:
            op_parsers = parser.add_subparsers(dest="op", required=True)
        for op, flags in ops.items():
            target = parser if op is None else op_parsers.add_parser(op)
            for flag, keywords in flags.items():
                target.add_argument(flag, **keywords)

    def parsers(top):
        yield top
        for command, parser in subparsers(top).choices.items():
            yield parser
            if None not in COMMANDS[command][2]:
                yield from subparsers(parser).choices.values()

    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    got = [(p.format_usage(), p.format_help()) for p in parsers(build_parser())]
    assert got == [(p.format_usage(), p.format_help()) for p in parsers(want)]


def test_goldens_cover_every_subcommand():
    # every (command, op) of the table; check has no op
    covered = set()
    for path in GOLDEN_CASES:
        command, *rest = json.loads(path.read_text())["argv"]
        covered.add((command, None if None in COMMANDS[command][2] else rest[0]))
    assert covered == {(c, op) for c, (_, _, ops) in COMMANDS.items() for op in ops}


CONSTRUCTIONS = (
    "enumerations", "countable", "meager", "nullset", "closed_null", "domination", "fubini",
)


def loaded_modules(code):
    # the idealis modules a fresh interpreter holds after running `code`
    script = "\n".join([code, "import json, sys", "print(json.dumps([*sys.modules]))"])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return {m for m in json.loads(out.splitlines()[-1]) if m.startswith("idealis")}


def test_importing_the_cli_loads_no_construction_module():
    loaded = loaded_modules("import idealis.cli")
    assert not loaded & {f"idealis.{m}" for m in (*CONSTRUCTIONS, "checks")}


def test_null_eval_loads_only_what_it_uses():
    argv = json.loads((GOLDEN_DIR / "null_eval.json").read_text())["argv"]
    loaded = loaded_modules(f"from idealis.cli import main; main({argv!r})")
    assert "idealis.nullset" in loaded
    assert not loaded & {"idealis.fubini", "idealis.checks"}


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import idealis") == {"idealis"}


def test_output_is_byte_stable_json(tmp_path):
    for path in GOLDEN_CASES:
        case = json.loads(path.read_text())
        line = case["stdout"]
        doc = json.loads(line)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == line


@pytest.mark.parametrize(
    "encode_argv,eval_argv",
    [
        (
            ["countable", "encode", "--points", "[[2,4],[0,1]]", "--depth", "2"],
            ["countable", "eval", "--param", "{param}", "--x", "[2,4]", "--depth", "2"],
        ),
        (
            [
                "meager", "encode", "--dense-opens",
                '[{"level":2,"words":["00","11"]}]', "--n-max", "3",
            ],
            ["meager", "eval", "--param", "{param}", "--z", "01", "--n-max", "3"],
        ),
        (
            [
                "null", "encode", "--covers",
                '{"covers":[[{"level":2,"words":["01"]}]]}',
            ],
            ["null", "eval", "--param", "{param}", "--z", "0110", "--n", "0"],
        ),
    ],
)
def test_encoder_output_reloads_and_evaluates(encode_argv, eval_argv, tmp_path):
    code, out = run_cli(encode_argv)
    assert code == 0
    param_line = out.strip()

    inline = [a.replace("{param}", param_line) for a in eval_argv]
    code1, out1 = run_cli(inline)

    param_path = tmp_path / "param.json"
    param_path.write_text(param_line)
    from_file = [a.replace("{param}", f"@{param_path}") for a in eval_argv]
    code2, out2 = run_cli(from_file)

    assert (code1, out1) == (code2, out2)
    assert code1 == 0

    # re-dumping the loaded parameter reproduces the bytes
    doc = json.loads(param_line)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == param_line


def test_check_all_passes():
    code, out = run_cli(["check", "--suite", "all", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(p["failures"] == 0 and p["cases"] > 0 for p in report["properties"])


def test_a_property_with_no_cases_fails_its_suite(monkeypatch):
    from idealis import checks

    monkeypatch.setitem(checks.SUITES, "hollow", lambda seed: [checks._prop("nothing", ())])
    assert checks.run_suite("hollow", 0)["pass"] is False
    code, out = run_cli(["check", "--suite", "hollow"])
    assert code == 1 and json.loads(out)["pass"] is False


def test_space_measure_is_in_lowest_terms():
    # all 16 sets at level 2; canonicalizing may lower the level
    for mask in range(16):
        words = [format(i, "02b") for i in range(4) if mask >> i & 1]
        clopen = json.dumps({"level": 2, "words": words})
        code, out = run_cli(["space", "measure", "--clopen", clopen])
        doc = json.loads(out)
        assert code == 0
        assert doc["num"] % 2 == 1 or doc["exp"] == 0
        assert Fraction(doc["num"], 1 << doc["exp"]) == Fraction(len(words), 4)


DIAGNOSE_ROWS = '["1100","0000","1111","1000"]'


def diagnose_null(epsilon):
    return run_cli(
        ["fubini", "diagnose", "--rows", DIAGNOSE_ROWS, "--proxy", "null", "--epsilon", epsilon]
    )


@pytest.mark.parametrize(
    "epsilon,echo",
    [('{"num":2,"exp":3}', {"exp": 2, "num": 1}), ('{"num":0,"exp":5}', {"exp": 0, "num": 0})],
)
def test_diagnose_echoes_epsilon_in_lowest_terms(epsilon, echo):
    code, out = diagnose_null(epsilon)
    assert code == 0
    assert json.loads(out)["proxy"]["epsilon"] == echo


def test_diagnose_epsilon_exponent_costs_neither_time_nor_memory():
    # 2^(10^12) would take about 125 GB; any nonzero row reaches a
    # threshold below 2^-64 anyway
    start = time.perf_counter()
    code, out = diagnose_null(f'{{"num":1,"exp":{10**12}}}')
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["flagged"] == json.loads(diagnose_null('{"num":1,"exp":64}')[1])["flagged"]


@pytest.mark.parametrize("epsilon", ['{"num":-1,"exp":2}', '{"num":1,"exp":-2}'])
def test_diagnose_negative_epsilon_is_malformed(epsilon):
    code, out = diagnose_null(epsilon)
    assert code == 1
    assert json.loads(out) == {
        "error": "MalformedInput", "detail": {"message": "dyadic parts must be non-negative"},
    }


def test_check_deterministic_under_seed():
    _, out1 = run_cli(["check", "--suite", "space-algebra", "--seed", "9"])
    _, out2 = run_cli(["check", "--suite", "space-algebra", "--seed", "9"])
    assert out1 == out2


def test_usage_error_exits_one():
    code, _ = run_cli(["enum", "clopen", "--n", "1"])  # missing --k
    assert code == 1


def test_version_exits_zero():
    code, _ = run_cli(["--version"])
    assert code == 0


def test_error_taxonomy_names_are_unique():
    import idealis.errors as errors_module

    subclasses = [
        obj
        for obj in vars(errors_module).values()
        if isinstance(obj, type)
        and issubclass(obj, errors_module.IdealisError)
        and obj is not errors_module.IdealisError
    ]
    names = [cls.name for cls in subclasses]
    assert len(names) == len(set(names))
    assert "IdealisError" not in names
    assert names == [cls.__name__ for cls in subclasses]


LONG_WORDS = ["0" * 64, "1101001110010111" * 4]


@pytest.mark.parametrize("word", LONG_WORDS)
@pytest.mark.parametrize("case", ["null_eval", "meager_eval", "e_eval", "fubini_eval"])
def test_long_query_word_answers_in_milliseconds(case, word):
    # queries read one bit or one block of each stage union, so a 64-bit
    # word costs what a short one does
    argv = json.loads((GOLDEN_DIR / f"{case}.json").read_text())["argv"]
    for flag in ("--y", "--z"):
        if flag in argv:
            argv[argv.index(flag) + 1] = word
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out)["result"] in {t.value for t in Tri}


def test_queries_build_no_cylinder_past_the_cap(monkeypatch):
    cap = max_level()
    cylinder, mask_at = Clopen.cylinder, Clopen.mask_at

    def capped_cylinder(word):
        if len(word) > cap:
            raise AssertionError(f"cylinder built at level {len(word)}")
        return cylinder(word)

    def capped_mask_at(self, level):
        if level > cap:
            raise AssertionError(f"mask lifted to level {level}")
        return mask_at(self, level)

    monkeypatch.setattr(Clopen, "cylinder", staticmethod(capped_cylinder))
    monkeypatch.setattr(Clopen, "mask_at", capped_mask_at)
    inside, outside = "0" * 40, "01" * 20

    f = null_encode(CoverFamily(tuple((Clopen.cylinder("0" * (n + 2)),) for n in range(4))))
    assert null_member(f, inside, 3) is Tri.HOLDS
    # a 2^-40 cylinder fits in any budget left, so a miss stays open
    assert null_member(f, outside, 3) is Tri.UNKNOWN

    w = Clopen.cylinder("00000").complement()
    assert dense_open_encode(w, 6) == (0, 2, 2, 0, 2, 0, 0)
    p = meager_encode([w], 6)
    assert meager_eval(p, inside, 1, 6) is Tri.HOLDS
    assert meager_eval(p, outside, 1, 6) is Tri.FAILS

    e = EParam.from_triples([e_open_encode(w, 3)], 3)
    assert e_fsigma_member(e, inside, 1, 3) is Tri.HOLDS

    unions = [Clopen.from_words(3, ["000", "001", "110"]), Clopen.from_words(1, ["0"])]

    class Given(FsigmaParam):
        # row r's union is `unions[r]` at the horizon 1, nothing at stage 0
        def _row_terms(self, r, cap):
            return lambda n: unions[r] if n else Clopen.empty()

    f = Given((), 2, 1)
    assert f.member("00" + "1" * 38, 2, 1) is Tri.FAILS
    assert f.member("00" + "1" * 38, 2, 0) is Tri.UNKNOWN
    assert f.member("11" + "0" * 38, 2, 1) is Tri.HOLDS


WHOLE_SPACE = '{"level":0,"words":[""]}'
LONG_LABEL = json.dumps(
    {"ideal": "laver", "coding": "cantor-e1", "phi": [{"seq": [1] * 25, "val": 1}]}
)


@pytest.mark.parametrize(
    "argv,error",
    [
        (["e", "encode", "--clopen", WHOLE_SPACE, "--m-max", "18"], "LevelCapExceeded"),
        (["enum", "kcomb", "--N", "80000", "--t", "40000"], "LevelCapExceeded"),
        (["enum", "kprime", "--space", "baire", "--n", "1", "--m", "400000"], "IndexOutOfRange"),
        (["e", "encode", "--clopen", WHOLE_SPACE, "--m-max", "12"], None),
        (["enum", "kcomb", "--N", "4096", "--t", "2048", "--r", "123456789"], None),
        (["enum", "kprime", "--space", "baire", "--n", "1", "--m", "65535"], None),
        (["space", "seq", "--encode", json.dumps([1] * 26)], "IndexOutOfRange"),
        (["laver", "encode", "--phi", json.dumps([{"seq": [2] * 22, "val": 1}])], "IndexOutOfRange"),
        (["laver", "encode", "--phi", json.dumps([{"seq": [1] * 25, "val": 1}])], "IndexOutOfRange"),
        (["laver", "eval", "--param", LONG_LABEL, "--f", "[0]", "--n1", "1"], "IndexOutOfRange"),
        (["laver", "encode", "--phi", json.dumps([{"seq": [2] * 19, "val": 1}])], None),
        (["enum", "kprime", "--space", "baire", "--n", "9" * 2000, "--m", "65535"], "IndexOutOfRange"),
        (["enum", "kprime", "--space", "baire", "--n", "9" * 2000, "--m", "600"], None),
    ],
    ids=[
        "e-encode-past-cap",
        "kcomb-past-cap",
        "baire-kprime-past-budget",
        "e-encode-at-cap",
        "kcomb-at-cap",
        "baire-kprime-at-budget",
        "seq-code-past-bits",
        "laver-encode-past-bits",
        "laver-encode-ones-past-bits",
        "laver-param-past-bits",
        "laver-encode-at-bits",
        "baire-kprime-past-bits",
        "baire-kprime-at-bits",
    ],
)
def test_argv_past_a_work_bound_is_refused_at_once(argv, error):
    # the level cap bounds e encode and kcomb, a budget of 2^16 Baire kprime
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    doc = json.loads(out)
    if error is None:
        assert code == 0 and "error" not in doc
    else:
        assert code == 2 and doc["error"] == error


NINES = "9" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["null", "eval", "--param", "@DEEP", "--z", "0", "--n", "0"],
        ["null", "eval", "--param", "[" * 5000, "--z", "0", "--n", "0"],
        ["space", "pair", "--m", NINES, "--n", "1"],
        ["space", "seq", "--encode", f"[{NINES[:2500]}]"],
        ["laver", "encode", "--phi", '[{"seq":[1e309],"val":1}]'],
        ["space", "seq"],
        ["fubini", "diagnose", "--rows", '["1100","0000"]', "--proxy", "null"],
        ["fubini", "diagnose", "--rows", "[1]", "--proxy", "nwd"],
        ["fubini", "diagnose", "--rows", '"1"', "--proxy", "nwd"],
        ["fubini", "diagnose", "--rows", '{"1":0}', "--proxy", "nwd"],
        ["meager", "fxp", "--x", "0", "--y", "[0]", "--z", "2" * 1_000_000],
    ],
    ids=[
        "deep-json-file", "deep-json-inline", "pair-past-digit-limit", "seq-past-digit-limit",
        "float-overflow", "seq-without-encode-or-decode", "null-proxy-without-epsilon",
        "diagnose-row-not-a-string", "diagnose-rows-a-string", "diagnose-rows-an-object",
        "word-of-a-million-characters",
    ],
)
def test_hostile_argv_ends_in_one_malformed_input_document(argv, tmp_path):
    # a too-deeply nested JSON argument, an answer past the int-to-str digit
    # limit, a float too large for int() and a missing optional JSON flag
    # each used to end in a traceback; a rejected word used to be echoed
    # whole
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    argv = [f"@{deep}" if a == "@DEEP" else a for a in argv]
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out.count("\n") == 1 and len(out.encode()) < 300
    assert json.loads(out)["error"] == "MalformedInput"


def golden_argv(name, flag=None, value=None):
    # a golden's argv, with one flag's value replaced when one is given
    argv = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["argv"]
    if flag is not None:
        argv[argv.index(flag) + 1] = value
    return argv


def golden_param(name):
    # the --param value of a golden's argv
    argv = golden_argv(name)
    return argv[argv.index("--param") + 1]


KSIGMA_PARAM = golden_param("ksigma_eval")
E_TRIPLE = golden_param("e_term")


def json_argv(name, flag, key, value):
    # a golden's argv with one key of one flag's JSON value replaced
    argv = golden_argv(name)
    i = argv.index(flag) + 1
    argv[i] = json.dumps({**json.loads(argv[i]), key: value})
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        golden_argv("countable_eval_holds", "--x", "[5.9,0,true]"),
        golden_argv("ksigma_eval", "--x", '[1.9,"1",true,-3]'),
        golden_argv("space_seq_encode", "--encode", "[1,true]"),
        golden_argv("enum_kcomb_rank", "--rank", "[true,3]"),
        golden_argv("fubini_diagnose_null", "--epsilon", '{"num":1.5,"exp":3}'),
        golden_argv("fubini_diagnose_null", "--epsilon", '{"num":true,"exp":3}'),
        json_argv("meager_eval", "--param", "horizon", 3.9),
        json_argv("meager_eval", "--param", "rows", "2"),
        json_argv("countable_eval_holds", "--param", "prefix", [5, 1, 0, 0, 1.0, 2, 0, 0, 1]),
        json_argv("null_eval", "--param", "witness", [10, None]),
        json_argv("e_eval", "--param", "positions", True),
        json_argv("space_measure", "--clopen", "level", 3.0),
        ["laver", "encode", "--phi", '[{"seq":[0],"val":3.5}]'],
        ["laver", "encode", "--phi", '[{"seq":["0"],"val":3}]'],
        ["fubini", "encode", "--variant", "mn", "--x-part", '{"dense_opens":[],"n_max":2.5}',
         "--plane-part", '{"covers":[]}'],
    ],
    ids=[
        "countable-x-float-bool", "ksigma-x-float-string-bool", "seq-encode-bool", "kcomb-rank-bool",
        "epsilon-float", "epsilon-bool", "meager-horizon-float", "meager-rows-string",
        "countable-prefix-float", "null-witness-null", "e-positions-bool", "clopen-level-float",
        "laver-val-float", "laver-seq-string", "fubini-n-max-float",
    ],
)
def test_a_json_value_that_is_not_an_int_is_malformed(argv):
    # each used to stand, through int(), for the natural it rounds or
    # parses to, and answer
    code, out = run_cli(argv)
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == "MalformedInput"


def e_term_with_cell(cell, value, n):
    # the e_term golden's triple with one prefix cell replaced, read at n;
    # position n's coordinate i sits at cell pair(i, n)
    doc = json.loads(E_TRIPLE)
    doc["prefix"][cell] = value
    return ["e", "term", "--param", json.dumps(doc), "--n", str(n)]
ROOT_LABEL = json.dumps(
    {"ideal": "laver", "coding": "cantor-e1", "phi": [{"seq": [], "val": 2}]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["space", "seq", "--encode", "[-1]"],
        ["space", "seq", "--decode", "-5"],
        ["laver", "eval", "--param", ROOT_LABEL, "--f", "[-1,-1,3]", "--n0", "0", "--n1", "3"],
        ["laver", "encode", "--phi", '[{"seq":[-1],"val":1},{"seq":[],"val":2}]'],
        ["ksigma", "eval", "--param", KSIGMA_PARAM, "--x", "[1,1,1,1]", "--n", "-6"],
        ["ksigma", "eval", "--param", KSIGMA_PARAM, "--x", "[1,1,1,1]", "--n", "-2"],
        ["e", "term", "--param", E_TRIPLE, "--n", "-4"],
        ["e", "term", "--param", E_TRIPLE, "--n", "-1"],
        ["e", "term", "--param", E_TRIPLE, "--n", str(-10**22)],
        e_term_with_cell(pair(0, 0), -1, 0),
        e_term_with_cell(pair(1, 1), -2, 1),
        e_term_with_cell(pair(2, 1), -5, 1),
        golden_argv("meager_eval") + ["--rows", "-1"],
        golden_argv("e_eval") + ["--rows", "-1"],
        golden_argv("laver_eval", "--n1", "-3"),
        golden_argv("laver_eval", "--n0", "-1"),
        ["space", "pair", "--m", "-5", "--n", "2"],
        ["space", "pair", "--invert", "-1"],
        ["meager", "fxp", "--x", "0101", "--y", "[0,1]", "--z", "0110", "--from-block", "-1"],
        ["fubini", "diagnose", "--rows", '["01","10"]', "--proxy", "nwd", "--split", "-1"],
        golden_argv("null_term", "--n", "-5")[:-1] + ["-1"],
        golden_argv("null_stage", "--n", "-5"),
        golden_argv("countable_eval_holds") + ["--rows", "-1"],
        golden_argv("countable_eval_holds", "--depth", "-1"),
        golden_argv("e_encode", "--m-max", "-1"),
        golden_argv("meager_encode", "--n-max", "-1"),
        golden_argv("countable_encode", "--depth", "-1"),
        golden_argv("e_pack", "--horizon", "-1"),
        ["meager", "encode", "--dense-opens", "[]", "--n-max", "-1"],
        ["countable", "encode", "--points", "[]", "--depth", "-1"],
        ["e", "pack", "--triples", "[]", "--horizon", "-1"],
        golden_argv("countable_eval_holds", "--x", "[5,0,-2]"),
        golden_argv("ksigma_eval", "--x", "[1,1,1,-3]"),
        json_argv("countable_eval_holds", "--param", "rows", -7),
        json_argv("space_measure", "--clopen", "level", -3),
        golden_argv("enum_kcomb_rank", "--rank", "[-1,3]"),
    ],
    ids=[
        "seq-encode-negative-entry", "seq-decode-negative-code", "laver-eval-negative-entry",
        "laver-encode-negative-entry", "ksigma-eval-n-past-the-front", "ksigma-eval-negative-n",
        "e-term-n-past-the-front", "e-term-negative-n", "e-term-n-past-an-index",
        "e-term-negative-x0-cell", "e-term-negative-x1-cell", "e-term-negative-x2-cell",
        "meager-eval-negative-rows", "e-eval-negative-rows", "laver-eval-negative-n1", "laver-eval-negative-n0",
        "space-pair-negative-m", "space-pair-negative-invert", "meager-fxp-negative-from-block",
        "fubini-diagnose-negative-split", "null-term-negative-row", "null-stage-negative-row",
        "countable-eval-negative-rows", "countable-eval-negative-depth", "e-encode-negative-m-max",
        "meager-encode-negative-n-max", "countable-encode-negative-depth", "e-pack-negative-horizon",
        "meager-encode-nothing-negative-n-max", "countable-encode-nothing-negative-depth",
        "e-pack-nothing-negative-horizon",
        "countable-eval-negative-entry", "ksigma-eval-negative-entry", "countable-param-negative-rows",
        "clopen-negative-level", "kcomb-rank-negative-member",
    ],
)
def test_a_negative_entry_position_or_code_is_refused(argv):
    # each used to answer for the natural it aliased through Python's
    # negative indexing, the pairing or the modulus of a rank, to answer
    # as for zero rows or an empty window, to write a parameter with no
    # stages, to escape main as an IndexError, a ValueError or math.comb's
    # own error, or to leak a Python message as MalformedInput
    code, out = run_cli(argv)
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"] == "IndexOutOfRange"


@pytest.mark.parametrize("name", ["meager_eval", "e_eval"])
def test_a_negative_stage_is_the_stage_before_any_term(name):
    # stage -1 unions no terms, so it covers no cylinder and never answers
    # FAILS; the horizon unions still decide HOLDS
    code, out = run_cli(golden_argv(name, "--n-max", "-1"))
    assert (code, json.loads(out)) == (0, {"result": "HoldsAtStage"})


# every term of its one row is the whole space
WHOLE_SPACE_MEAGER = json.dumps(
    {"ideal": "meager", "coding": "cantor-e1", "prefix": [0] * 6, "rows": 1, "horizon": 2}
)


@pytest.mark.parametrize(
    "argv",
    [
        golden_argv("e_eval", "--z", "1"),
        ["meager", "eval", "--param", WHOLE_SPACE_MEAGER, "--z", "01", "--n-max", "2"],
    ],
    ids=["e", "meager"],
)
def test_a_negative_stage_leaves_a_covered_cylinder_undecided(argv):
    # z lies inside every row's horizon union: that stage answers FAILS,
    # and stage -1, covering nothing, answers InsufficientData
    code, out = run_cli(argv)
    assert (code, json.loads(out)) == (0, {"result": "FailsAtStage"})
    argv[argv.index("--n-max") + 1] = "-1"
    code, out = run_cli(argv)
    assert (code, json.loads(out)) == (0, {"result": "InsufficientData"})


@pytest.mark.parametrize("variant", ["nm", "mn"])
def test_fubini_encode_reads_the_x_half_then_the_plane_half_by_variant(variant):
    from idealis.fubini import product_encode

    covers = {"covers": [[{"level": 2, "words": ["00"]}], [{"level": 3, "words": ["000"]}]]}
    dense = {"dense_opens": [{"level": 1, "words": ["0", "1"]}], "n_max": 2}
    null_half, meager_half = CoverFamily.from_json(covers), ([Clopen.full()], 2)
    if variant == "nm":
        parts, halves = (covers, dense), (null_half, meager_half)
    else:
        parts, halves = (dense, covers), (meager_half, null_half)
    argv = ["fubini", "encode", "--variant", variant]
    code, out = run_cli(argv + ["--x-part", json.dumps(parts[0]), "--plane-part", json.dumps(parts[1])])
    doc = json.loads(out)
    assert code == 0 and doc["ideal"] == f"fubini-{variant}"
    assert {k: doc[k] for k in ("first", "second", "variant")} == product_encode(variant, *halves).to_json()
    # with both halves malformed, the x half's missing key is the one named
    code, out = run_cli(argv + ["--x-part", "{}", "--plane-part", "{}"])
    missing = "'covers'" if variant == "nm" else "'dense_opens'"
    assert code == 1 and json.loads(out) == {"error": "MalformedInput", "detail": {"message": missing}}


@pytest.mark.parametrize(
    "argv,code,error",
    [
        (golden_argv("meager_eval", "--param", golden_param("countable_eval_holds")), 1, "MalformedInput"),
        (golden_argv("fubini_diagnose_nwd", "--split", "3"), 2, "LevelCapExceeded"),
        (golden_argv("null_stage", "--k", "0"), 2, "InsufficientPrefix"),
        (json_argv("null_eval", "--param", "witness", [10, 1]), 2, "InsufficientPrefix"),
        (golden_argv("e_term", "--n", "3"), 2, "InsufficientPrefix"),
        (golden_argv("e_pack", "--horizon", "3"), 2, "InsufficientPrefix"),
        (golden_argv("fubini_diagnose_nwd", "--rows", "[]"), 2, "LengthMismatch"),
    ],
    ids=[
        "param-of-another-ideal", "split-past-d", "null-stage-k-not-past-n",
        "witness-bound-not-past-its-row", "e-term-past-the-positions", "e-pack-short-triple",
        "diagnose-no-rows",
    ],
)
def test_a_broken_contract_exits_with_its_name(argv, code, error):
    got, out = run_cli(argv)
    assert (got, json.loads(out)["error"]) == (code, error)


def test_a_product_file_of_an_unknown_variant_is_named_before_its_halves():
    argv = golden_argv("fubini_eval")
    i = argv.index("--param") + 1
    argv[i] = json.dumps({**json.loads(argv[i]), "variant": "xx", "first": {}})
    code, out = run_cli(argv)
    message = {"message": "unknown variant 'xx'"}
    assert (code, json.loads(out)) == (1, {"error": "MalformedInput", "detail": message})


def test_an_mn_product_evaluates_at_the_cli_as_in_the_library():
    from idealis.fubini import ProductParam, ProductPoint, product_member

    dense = {
        "dense_opens": [{"level": 2, "words": ["00", "10"]}, {"level": 2, "words": ["01", "11"]}],
        "n_max": 3,
    }
    covers = {"covers": [[{"level": 2, "words": ["00"]}], [{"level": 3, "words": ["010"]}]]}
    code, out = run_cli(
        ["fubini", "encode", "--variant", "mn", "--x-part", json.dumps(dense), "--plane-part", json.dumps(covers)]
    )
    assert code == 0
    pp = ProductParam.from_json(json.loads(out))
    assert pp.variant == "mn" and (pp.first.rows, pp.first.horizon) == (2, 3)
    seen = set()
    for y, z in [("00", "00"), ("01", "10"), ("10", "01"), ("11", "11"), ("0", "1")]:
        for null_levels in range(2):
            for n_max in range(-1, 4):
                for rows in (None, 0, 1, 2, 3):
                    argv = ["fubini", "eval", "--param", out.strip(), "--y", y, "--z", z,
                            "--null-levels", str(null_levels), "--meager-n-max", str(n_max)]
                    if rows is not None:
                        argv += ["--meager-rows", str(rows)]
                    want = product_member(
                        pp, ProductPoint(y, z), null_levels=null_levels, meager_n_max=n_max, meager_rows=rows
                    ).value
                    got, doc = run_cli(argv)
                    assert (got, json.loads(doc)) == (0, {"result": want})
                    seen.add(want)
    # the null half answers FAILS only for a plane word shorter than these
    assert seen == {"HoldsAtStage", "InsufficientData"}
