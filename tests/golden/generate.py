"""Regenerate the CLI golden files.

Run from the repository root:  python3 tests/golden/generate.py
Every case runs the real CLI entry point in-process; eval cases consume
the parameter documents the encode cases produced, so the chain breaks
loudly if an encoder changes.  Freeze output changes only after checking
they are intended.
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

from idealis.cli import main

HERE = pathlib.Path(__file__).parent

NULL_COVERS = '{"covers":[[{"level":2,"words":["00"]}],[{"level":3,"words":["000"]}]]}'
E_CLOPEN = '{"level":3,"words":["001","010","011","100","101","110","111"]}'
E_CLOPEN_2 = '{"level":3,"words":["000","001","010","011","100","101","110"]}'


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def encode_output(argv):
    code, out = run(argv)
    assert code == 0, (argv, out)
    return out.strip()


def build_cases():
    countable_param = encode_output(
        ["countable", "encode", "--points", "[[5,0,2],[1,1,1]]", "--depth", "3"]
    )
    meager_param = encode_output(
        [
            "meager", "encode", "--dense-opens",
            '[{"level":2,"words":["00","10"]},{"level":2,"words":["01","11"]}]',
            "--n-max", "3",
        ]
    )
    null_param = encode_output(["null", "encode", "--covers", NULL_COVERS])
    e_param = encode_output(["e", "encode", "--clopen", E_CLOPEN, "--m-max", "2"])
    e_param_2 = encode_output(["e", "encode", "--clopen", E_CLOPEN_2, "--m-max", "2"])
    e_rows_param = encode_output(
        ["e", "pack", "--triples", f"[{e_param},{e_param_2}]", "--horizon", "2"]
    )
    ksigma_param = encode_output(
        ["ksigma", "encode", "--points", "[[1,2,3,4],[4,3,2,1]]"]
    )
    laver_param = encode_output(
        ["laver", "encode", "--phi", '[{"seq":[0],"val":3},{"seq":[0,2],"val":1}]']
    )
    fubini_param = encode_output(
        [
            "fubini", "encode", "--variant", "nm",
            "--x-part", NULL_COVERS,
            "--plane-part", '{"dense_opens":[{"level":0,"words":[""]}],"n_max":2}',
        ]
    )

    return {
        "space_measure": ["space", "measure", "--clopen", '{"level":3,"words":["010"]}'],
        "space_canon": ["space", "canon", "--clopen", '{"level":1,"words":["0","1"]}'],
        "space_pair": ["space", "pair", "--m", "1", "--n", "0"],
        "space_unpair": ["space", "pair", "--invert", "4"],
        "space_seq_encode": ["space", "seq", "--encode", "[0,0]"],
        "space_seq_decode": ["space", "seq", "--decode", "1"],
        "enum_clopen_zero": ["enum", "clopen", "--n", "1", "--k", "0"],
        "enum_clopen_first": ["enum", "clopen", "--n", "1", "--k", "1"],
        "enum_clopen_deep": ["enum", "clopen", "--n", "2", "--k", "17"],
        "enum_clopen_level10": [
            "enum", "clopen", "--n", "5", "--k",
            "34505918846920305733576128911642631583854339444988288630505",
        ],
        "enum_clopen_level12": [
            "enum", "clopen", "--n", "7", "--k",
            "537410025563134175981921049994645246178576595010601451440686193807851196410724",
        ],
        "enum_basic_cantor": ["enum", "basic", "--space", "cantor", "--k", "5"],
        "enum_basic_baire": ["enum", "basic", "--space", "baire", "--k", "3"],
        "enum_kprime": ["enum", "kprime", "--n", "2", "--m", "1"],
        "enum_kcomb_unrank": ["enum", "kcomb", "--N", "8", "--t", "3", "--r", "12"],
        "enum_kcomb_rank": ["enum", "kcomb", "--N", "4", "--rank", "[2,3]"],
        "countable_encode": [
            "countable", "encode", "--points", "[[5,0,2],[1,1,1]]", "--depth", "3",
        ],
        "countable_eval_holds": [
            "countable", "eval", "--param", countable_param, "--x", "[5,0,2]",
            "--depth", "3",
        ],
        "countable_eval_fails": [
            "countable", "eval", "--param", countable_param, "--x", "[9,9,9]",
            "--depth", "3",
        ],
        "meager_encode": [
            "meager", "encode", "--dense-opens",
            '[{"level":2,"words":["00","10"]},{"level":2,"words":["01","11"]}]',
            "--n-max", "3",
        ],
        "meager_eval": [
            "meager", "eval", "--param", meager_param, "--z", "01", "--n-max", "3",
        ],
        # zero rows search no row for HOLDS, and FAILS needs every row
        "meager_eval_rows": [
            "meager", "eval", "--param", meager_param, "--z", "01", "--n-max", "3",
            "--rows", "0",
        ],
        "meager_partition": ["meager", "partition", "--y", "[2,3]"],
        "meager_fxp": [
            "meager", "fxp", "--x", "0101010", "--y", "[2,3]", "--z", "0100101",
            "--from-block", "1",
        ],
        "null_encode": ["null", "encode", "--covers", NULL_COVERS],
        "null_eval": ["null", "eval", "--param", null_param, "--z", "00000", "--n", "1"],
        "null_stage": ["null", "stage", "--param", null_param, "--n", "0", "--k", "10"],
        "null_term": ["null", "term", "--param", null_param, "--n", "0", "--k", "10"],
        "e_encode": ["e", "encode", "--clopen", E_CLOPEN, "--m-max", "2"],
        "e_term": ["e", "term", "--param", e_param, "--n", "1"],
        "e_stage": ["e", "stage", "--param", e_param, "--n-max", "2"],
        "e_eval": ["e", "eval", "--param", e_param, "--z", "000", "--n-max", "2"],
        "e_eval_rows": [
            "e", "eval", "--param", e_rows_param, "--z", "000", "--n-max", "2",
            "--rows", "0",
        ],
        "e_pack": ["e", "pack", "--triples", f"[{e_param}]", "--horizon", "2"],
        "ksigma_encode": ["ksigma", "encode", "--points", "[[1,2,3,4],[4,3,2,1]]"],
        "ksigma_eval": [
            "ksigma", "eval", "--param", ksigma_param, "--x", "[1,1,1,1]", "--n", "0",
        ],
        "ksigma_diagonal": ["ksigma", "diagonal", "--param", ksigma_param],
        "laver_encode": [
            "laver", "encode", "--phi", '[{"seq":[0],"val":3},{"seq":[0,2],"val":1}]',
        ],
        "laver_eval": [
            "laver", "eval", "--param", laver_param, "--f", "[0,2,0,1,5]",
            "--n0", "0", "--n1", "5",
        ],
        "fubini_encode": [
            "fubini", "encode", "--variant", "nm",
            "--x-part", NULL_COVERS,
            "--plane-part", '{"dense_opens":[{"level":0,"words":[""]}],"n_max":2}',
        ],
        "fubini_eval": [
            "fubini", "eval", "--param", fubini_param, "--y", "0000", "--z", "0110",
            "--null-levels", "1", "--meager-n-max", "2",
        ],
        "fubini_diagnose_null": [
            "fubini", "diagnose", "--rows", '["1100","1110","0000","1111"]',
            "--proxy", "null", "--epsilon", '{"num":3,"exp":2}',
        ],
        "fubini_diagnose_nwd": [
            "fubini", "diagnose", "--rows", '["1001","1100","0000","0110"]',
            "--proxy", "nwd", "--split", "1",
        ],
        "check_fubini": ["check", "--suite", "fubini", "--seed", "7"],
        "check_all": ["check", "--suite", "all", "--seed", "7"],
        "error_unknown_suite": ["check", "--suite", "nope"],
        "error_malformed": ["space", "measure", "--clopen", "not-json"],
        "error_short_prefix": [
            "meager", "eval", "--param", meager_param, "--z", "01", "--n-max", "9",
        ],
        "error_coding_mismatch": [
            "ksigma", "diagonal", "--param",
            '{"coding":"other-convention","ideal":"ksigma","prefix":[1]}',
        ],
        "error_negative_entry": [
            "laver", "eval", "--param", laver_param, "--f", "[-1,2,0,1,5]",
            "--n0", "0", "--n1", "5",
        ],
        "error_not_dense": [
            "meager", "encode", "--dense-opens", '[{"level":1,"words":["0"]}]',
            "--n-max", "3",
        ],
    }


def regenerate():
    for name, argv in build_cases().items():
        code, out = run(argv)
        doc = {"argv": argv, "exit": code, "stdout": out}
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit={code} {out}", end="")


if __name__ == "__main__":
    regenerate()
