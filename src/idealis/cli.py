"""Command-line entry point.

One subcommand per module, JSON in and JSON out: arguments accept inline
JSON or @path to read a file, output is a single JSON document with
sorted keys, and parameter files carry the coding convention tag so they
refuse to load under a different convention.  Exit codes: 0 success,
1 malformed input, 2 contract errors (the machine-readable error object
names the violated contract).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import CodingMismatch, IdealisError
from .space import CODING, Clopen, Dyadic, canonicalize, pair, seq_code, seq_decode, unpair
from .enumerations import basic_open, clopen_enum, kcomb_rank, kcomb_unrank, kprime
from .countable import CountableParam, countable_encode, countable_member
from .meager import (
    MeagerParam,
    fxp_eval,
    meager_encode,
    meager_eval,
    partition_from,
)
from .nullset import CoverFamily, NullParam, null_encode, null_member, null_stage, null_term
from .closed_null import EParam, ETripleParam, e_fsigma_member, e_open_encode, e_open_stage, e_term
from .domination import (
    KsigmaParam,
    LaverParam,
    dominated_from,
    ksigma_diagonal,
    ksigma_encode,
    laver_encode,
    laver_witnesses,
)
from .fubini import (
    DensityProxy,
    ProductParam,
    ProductPoint,
    SomewhereDenseProxy,
    flagged_bits,
    product_encode,
    product_member,
    section_diagnostic,
)
from .checks import run_suite

CREATED_BY = f"idealis {__version__}"


class MalformedInput(Exception):
    pass


def _arg_json(value: str):
    try:
        if value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(value)
    except RecursionError:
        # the decoder recurses once per level of nesting
        raise MalformedInput("JSON argument nested too deeply") from None


def _malformed(message: str) -> dict:
    return {"error": "MalformedInput", "detail": {"message": message}}


def emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def param_file(ideal: str, payload: dict) -> dict:
    return {"ideal": ideal, "coding": CODING, "created-by": CREATED_BY, **payload}


def load_param(doc: dict, expected_ideal):
    if not isinstance(doc, dict) or "ideal" not in doc:
        raise MalformedInput("parameter file must be an object with an 'ideal' tag")
    coding = doc.get("coding", "")
    if coding != CODING:
        raise CodingMismatch(CODING, coding)
    ideal = doc["ideal"]
    if isinstance(expected_ideal, str):
        expected_ideal = (expected_ideal,)
    if ideal not in expected_ideal:
        raise MalformedInput(f"expected a parameter for {expected_ideal}, got {ideal!r}")
    loaders = {
        "countable": CountableParam.from_json,
        "meager": MeagerParam.from_json,
        "null": NullParam.from_json,
        "e-open": ETripleParam.from_json,
        "e": EParam.from_json,
        "ksigma": KsigmaParam.from_json,
        "laver": LaverParam.from_json,
        "fubini-nm": ProductParam.from_json,
        "fubini-mn": ProductParam.from_json,
    }
    return loaders[ideal](doc)


def _baire(values) -> tuple:
    return tuple(int(v) for v in values)


def _bits(word: str) -> str:
    if set(word) - {"0", "1"}:
        raise MalformedInput(f"not a 0/1 word: {word!r}")
    return word


# -- subcommand handlers -----------------------------------------------------


def cmd_space(args) -> dict:
    if args.op == "measure":
        return Clopen.from_json(_arg_json(args.clopen)).measure().to_json()
    if args.op == "canon":
        doc = _arg_json(args.clopen)
        return canonicalize(int(doc["level"]), doc["words"]).to_json()
    if args.op == "pair":
        if args.invert is not None:
            m, n = unpair(args.invert)
            return {"m": m, "n": n}
        return {"value": pair(args.m, args.n)}
    if args.op == "seq":
        if args.decode is not None:
            return {"seq": list(seq_decode(args.decode))}
        return {"code": seq_code(_baire(_arg_json(args.encode)))}
    raise MalformedInput(args.op)


def cmd_enum(args) -> dict:
    if args.op == "clopen":
        return clopen_enum(args.n, args.k).to_json()
    if args.op == "basic":
        got = basic_open(args.space, args.k)
        return got.to_json()
    if args.op == "kprime":
        return {"value": kprime(args.n, args.m, args.space)}
    if args.op == "kcomb":
        if args.rank is not None:
            return {"rank": kcomb_rank(args.N, _arg_json(args.rank))}
        return {"subset": list(kcomb_unrank(args.N, args.t, args.r))}
    raise MalformedInput(args.op)


def cmd_countable(args) -> dict:
    if args.op == "encode":
        points = [_baire(p) for p in _arg_json(args.points)]
        param = countable_encode(points, args.depth)
        return param_file("countable", param.to_json())
    if args.op == "eval":
        param = load_param(_arg_json(args.param), "countable")
        rows = param.rows if args.rows is None else args.rows
        got = countable_member(param, _baire(_arg_json(args.x)), rows, args.depth)
        return {"result": got.value}
    raise MalformedInput(args.op)


def cmd_meager(args) -> dict:
    if args.op == "partition":
        return partition_from(_baire(_arg_json(args.y))).to_json()
    if args.op == "fxp":
        got = fxp_eval(
            _bits(args.x),
            partition_from(_baire(_arg_json(args.y))),
            _bits(args.z),
            args.from_block,
        )
        return {"result": got.value}
    if args.op == "encode":
        dense = [Clopen.from_json(d) for d in _arg_json(args.dense_opens)]
        return param_file("meager", meager_encode(dense, args.n_max).to_json())
    if args.op == "eval":
        param = load_param(_arg_json(args.param), "meager")
        rows = param.rows if args.rows is None else args.rows
        got = meager_eval(param, _bits(args.z), rows, args.n_max)
        return {"result": got.value}
    raise MalformedInput(args.op)


def cmd_null(args) -> dict:
    if args.op == "encode":
        family = CoverFamily.from_json(_arg_json(args.covers))
        return param_file("null", null_encode(family).to_json())
    param = load_param(_arg_json(args.param), "null")
    if args.op == "eval":
        return {"result": null_member(param, _bits(args.z), args.n).value}
    if args.op == "stage":
        return null_stage(param, args.n, args.k).to_json()
    if args.op == "term":
        return null_term(param, args.n, args.k).to_json()
    raise MalformedInput(args.op)


def cmd_e(args) -> dict:
    if args.op == "encode":
        v = Clopen.from_json(_arg_json(args.clopen))
        return param_file("e-open", e_open_encode(v, args.m_max).to_json())
    if args.op == "pack":
        triples = [load_param(t, "e-open") for t in _arg_json(args.triples)]
        return param_file("e", EParam.from_triples(triples, args.horizon).to_json())
    if args.op in ("term", "stage"):
        param = load_param(_arg_json(args.param), "e-open")
        if args.op == "term":
            return e_term(param, args.n).to_json()
        return e_open_stage(param, args.n_max).to_json()
    if args.op == "eval":
        doc = _arg_json(args.param)
        param = load_param(doc, ("e", "e-open"))
        if isinstance(param, ETripleParam):
            param = EParam.from_triples([param], param.positions - 1)
        rows = param.rows if args.rows is None else args.rows
        got = e_fsigma_member(param, _bits(args.z), rows, args.n_max)
        return {"result": got.value}
    raise MalformedInput(args.op)


def cmd_ksigma(args) -> dict:
    if args.op == "encode":
        points = [_baire(p) for p in _arg_json(args.points)]
        return param_file("ksigma", ksigma_encode(points).to_json())
    param = load_param(_arg_json(args.param), "ksigma")
    if args.op == "eval":
        got = dominated_from(param, _baire(_arg_json(args.x)), args.n)
        return {"dominated": got}
    if args.op == "diagonal":
        return {"diagonal": list(ksigma_diagonal(param))}
    raise MalformedInput(args.op)


def cmd_laver(args) -> dict:
    if args.op == "encode":
        phi = {
            tuple(int(a) for a in item["seq"]): int(item["val"])
            for item in _arg_json(args.phi)
        }
        return param_file("laver", laver_encode(phi).to_json())
    if args.op == "eval":
        param = load_param(_arg_json(args.param), "laver")
        got = laver_witnesses(param, _baire(_arg_json(args.f)), args.n0, args.n1)
        return {"witnesses": got}
    raise MalformedInput(args.op)


def cmd_fubini(args) -> dict:
    if args.op == "encode":
        x_part = _arg_json(args.x_part)
        plane_part = _arg_json(args.plane_part)
        if args.variant == "nm":
            pp = product_encode(
                "nm",
                CoverFamily.from_json(x_part),
                (
                    [Clopen.from_json(d) for d in plane_part["dense_opens"]],
                    int(plane_part["n_max"]),
                ),
            )
        else:
            pp = product_encode(
                "mn",
                (
                    [Clopen.from_json(d) for d in x_part["dense_opens"]],
                    int(x_part["n_max"]),
                ),
                CoverFamily.from_json(plane_part),
            )
        return param_file(f"fubini-{args.variant}", pp.to_json())
    if args.op == "eval":
        pp = load_param(_arg_json(args.param), ("fubini-nm", "fubini-mn"))
        got = product_member(
            pp,
            ProductPoint(_bits(args.y), _bits(args.z)),
            null_levels=args.null_levels,
            meager_n_max=args.meager_n_max,
            meager_rows=args.meager_rows,
        )
        return {"result": got.value}
    if args.op == "diagnose":
        rows = [_bits(r) for r in _arg_json(args.rows)]
        if args.proxy == "null":
            proxy = DensityProxy(Dyadic.from_json(_arg_json(args.epsilon)))
        else:
            proxy = SomewhereDenseProxy(args.split)
        flagged = section_diagnostic(rows, proxy)
        d = len(rows).bit_length() - 1
        return {"d": d, "flagged": flagged_bits(flagged, d), "proxy": proxy.to_json()}
    raise MalformedInput(args.op)


def cmd_check(args) -> dict:
    return run_suite(args.suite, args.seed)


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `main`."""
    top = argparse.ArgumentParser(
        prog="idealis",
        description="exact finite-stage toolkit for universal-set constructions",
    )
    top.add_argument("--version", action="version", version=CREATED_BY)
    sub = top.add_subparsers(dest="command", required=True)

    space = sub.add_parser("space", help="cylinder algebra and codings")
    ssub = space.add_subparsers(dest="op", required=True)
    p = ssub.add_parser("measure")
    p.add_argument("--clopen", required=True)
    p = ssub.add_parser("canon")
    p.add_argument("--clopen", required=True)
    p = ssub.add_parser("pair")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--invert", type=int)
    p = ssub.add_parser("seq")
    p.add_argument("--encode")
    p.add_argument("--decode", type=int)
    space.set_defaults(handler=cmd_space)

    enum = sub.add_parser("enum", help="canonical enumerations")
    esub = enum.add_subparsers(dest="op", required=True)
    p = esub.add_parser("clopen")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = esub.add_parser("basic")
    p.add_argument("--space", choices=["cantor", "baire"], default="cantor")
    p.add_argument("--k", type=int, required=True)
    p = esub.add_parser("kprime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--space", choices=["cantor", "baire"], default="cantor")
    p = esub.add_parser("kcomb")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--rank", help="subset to rank instead of unranking")
    enum.set_defaults(handler=cmd_enum)

    countable = sub.add_parser("countable", help="countable-set sections")
    csub = countable.add_subparsers(dest="op", required=True)
    p = csub.add_parser("encode")
    p.add_argument("--points", required=True)
    p.add_argument("--depth", type=int, required=True)
    p = csub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--rows", type=int)
    p.add_argument("--depth", type=int, required=True)
    countable.set_defaults(handler=cmd_countable)

    meager = sub.add_parser("meager", help="dense-open and meager sections")
    msub = meager.add_subparsers(dest="op", required=True)
    p = msub.add_parser("encode")
    p.add_argument("--dense-opens", dest="dense_opens", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p = msub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--rows", type=int)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p = msub.add_parser("fxp")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True, help="partition source prefix")
    p.add_argument("--z", required=True)
    p.add_argument("--from-block", dest="from_block", type=int, default=0)
    p = msub.add_parser("partition")
    p.add_argument("--y", required=True)
    meager.set_defaults(handler=cmd_meager)

    null = sub.add_parser("null", help="measure-zero sections")
    nsub = null.add_subparsers(dest="op", required=True)
    p = nsub.add_parser("encode")
    p.add_argument("--covers", required=True)
    p = nsub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--n", type=int, required=True)
    for name in ("stage", "term"):
        p = nsub.add_parser(name)
        p.add_argument("--param", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
    null.set_defaults(handler=cmd_null)

    e = sub.add_parser("e", help="closed-null-generated ideal sections")
    esub2 = e.add_subparsers(dest="op", required=True)
    p = esub2.add_parser("encode")
    p.add_argument("--clopen", required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    p = esub2.add_parser("pack")
    p.add_argument("--triples", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p = esub2.add_parser("term")
    p.add_argument("--param", required=True)
    p.add_argument("--n", type=int, required=True)
    p = esub2.add_parser("stage")
    p.add_argument("--param", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p = esub2.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--rows", type=int)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    e.set_defaults(handler=cmd_e)

    ksigma = sub.add_parser("ksigma", help="eventual-domination sections")
    ksub = ksigma.add_subparsers(dest="op", required=True)
    p = ksub.add_parser("encode")
    p.add_argument("--points", required=True)
    p = ksub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, default=0)
    p = ksub.add_parser("diagonal")
    p.add_argument("--param", required=True)
    ksigma.set_defaults(handler=cmd_ksigma)

    laver = sub.add_parser("laver", help="tree-labelling witness sections")
    lsub = laver.add_subparsers(dest="op", required=True)
    p = lsub.add_parser("encode")
    p.add_argument("--phi", required=True)
    p = lsub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--n0", type=int, default=0)
    p.add_argument("--n1", type=int, required=True)
    laver.set_defaults(handler=cmd_laver)

    fubini = sub.add_parser("fubini", help="product sections and diagnostics")
    fsub = fubini.add_subparsers(dest="op", required=True)
    p = fsub.add_parser("encode")
    p.add_argument("--variant", choices=["nm", "mn"], required=True)
    p.add_argument("--x-part", dest="x_part", required=True)
    p.add_argument("--plane-part", dest="plane_part", required=True)
    p = fsub.add_parser("eval")
    p.add_argument("--param", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--null-levels", dest="null_levels", type=int, required=True)
    p.add_argument("--meager-n-max", dest="meager_n_max", type=int, required=True)
    p.add_argument("--meager-rows", dest="meager_rows", type=int)
    p = fsub.add_parser("diagnose")
    p.add_argument("--rows", required=True)
    p.add_argument("--proxy", choices=["null", "nwd"], required=True)
    p.add_argument("--epsilon", help="dyadic threshold for the null proxy")
    p.add_argument("--split", type=int, default=1)
    fubini.set_defaults(handler=cmd_fubini)

    check = sub.add_parser("check", help="seeded property suites")
    check.add_argument("--suite", required=True)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(handler=cmd_check)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        doc = args.handler(args)
        code = 1 if args.command == "check" and not doc["pass"] else 0
    except IdealisError as e:
        doc, code = {"error": e.name, "detail": e.detail()}, 2
    except (
        MalformedInput, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, OSError
    ) as e:
        doc, code = _malformed(str(e)), 1
    try:
        emit(doc)
    except ValueError:
        # json renders an integer through str(), which refuses more than
        # sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        emit(_malformed(f"answer holds an integer of more than {limit} digits"))
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
