"""Command-line entry point.

One subcommand per construction, each declared once in ``COMMANDS``: its
help text, its handler and, per op, its flags as argparse keywords.  A
call builds and parses with only its op's parser, `_op_parser`, when argv
names a command and one of its ops (or ``check``).  The whole tree from
`build_parser`, which holds those same op parsers, runs only for help,
``--version``, a missing or unknown command or op, arguments the op
leaves over, or an argument starting ``--=``, so every usage text and
error reads as before.  A handler imports its construction module when it
runs, so loading the CLI loads only ``space`` and ``errors``.

JSON in and JSON out: arguments accept inline JSON or @path to read a
file, output is a single JSON document with sorted keys, and parameter
files carry the coding convention tag so they refuse to load under a
different convention.  Exit codes: 0 success, 1 malformed input, 2
contract errors (the machine-readable error object names the violated
contract).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import CodingMismatch, IdealisError
from .space import CODING, Clopen, _naturals, pair, seq_code, seq_decode, unpair

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


def load_param(doc: dict, classes: dict):
    """Load `doc` as the class `classes` maps its ideal tag to."""
    if not isinstance(doc, dict) or "ideal" not in doc:
        raise MalformedInput("parameter file must be an object with an 'ideal' tag")
    coding = doc.get("coding", "")
    if coding != CODING:
        raise CodingMismatch(CODING, coding)
    ideal = doc["ideal"]
    if ideal not in classes:
        raise MalformedInput(f"expected a parameter for {tuple(classes)}, got {ideal!r}")
    return classes[ideal].from_json(doc)


def _baire(values) -> tuple:
    return _naturals(values, True, "sequence entries")


#: the longest rejected word an error message shows whole
_SHOWN = 32


def _bits(word: str) -> str:
    """`word`, if it is a 0/1 word.  Otherwise MalformedInput names it: a
    string past ``_SHOWN`` characters, or another value whose repr is
    that long, by its length and its first ``_SHOWN`` characters."""
    if isinstance(word, str) and not set(word) - {"0", "1"}:
        return word
    text = word if isinstance(word, str) else repr(word)
    if len(text) > _SHOWN:
        raise MalformedInput(
            f"not a 0/1 word: {len(text)} characters, starting {text[:_SHOWN]!r}"
        )
    raise MalformedInput(f"not a 0/1 word: {word!r}")


# -- subcommand handlers -----------------------------------------------------


def cmd_space(args) -> dict:
    if args.op == "measure":
        m = Clopen.from_json(_arg_json(args.clopen)).measure()
        return {"num": m.numerator, "exp": m.denominator.bit_length() - 1}
    if args.op == "canon":
        return Clopen.from_json(_arg_json(args.clopen)).to_json()
    if args.op == "pair":
        if args.invert is not None:
            m, n = unpair(args.invert)
            return {"m": m, "n": n}
        return {"value": pair(args.m, args.n)}
    if args.decode is not None:
        return {"seq": list(seq_decode(args.decode))}
    if args.encode is None:
        raise MalformedInput("space seq needs --encode or --decode")
    return {"code": seq_code(_baire(_arg_json(args.encode)))}


def cmd_enum(args) -> dict:
    from .enumerations import basic_open, clopen_enum, kcomb_rank, kcomb_unrank, kprime

    if args.op == "clopen":
        return clopen_enum(args.n, args.k).to_json()
    if args.op == "basic":
        return basic_open(args.space, args.k).to_json()
    if args.op == "kprime":
        return {"value": kprime(args.n, args.m, args.space)}
    if args.rank is not None:
        return {"rank": kcomb_rank(args.N, _naturals(_arg_json(args.rank), True, "subset members"))}
    return {"subset": list(kcomb_unrank(args.N, args.t, args.r))}


def cmd_countable(args) -> dict:
    from .countable import CountableParam, countable_encode, countable_member

    if args.op == "encode":
        points = [_baire(p) for p in _arg_json(args.points)]
        param = countable_encode(points, args.depth)
        return param_file("countable", param.to_json())
    param = load_param(_arg_json(args.param), {"countable": CountableParam})
    rows = param.rows if args.rows is None else args.rows
    got = countable_member(param, _baire(_arg_json(args.x)), rows, args.depth)
    return {"result": got.value}


def cmd_meager(args) -> dict:
    from .meager import MeagerParam, fxp_eval, meager_encode, meager_eval, partition_from

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
    param = load_param(_arg_json(args.param), {"meager": MeagerParam})
    rows = param.rows if args.rows is None else args.rows
    got = meager_eval(param, _bits(args.z), rows, args.n_max)
    return {"result": got.value}


def cmd_null(args) -> dict:
    from .nullset import CoverFamily, NullParam, null_encode, null_member, null_stage, null_term

    if args.op == "encode":
        family = CoverFamily.from_json(_arg_json(args.covers))
        return param_file("null", null_encode(family).to_json())
    param = load_param(_arg_json(args.param), {"null": NullParam})
    if args.op == "eval":
        return {"result": null_member(param, _bits(args.z), args.n).value}
    if args.op == "stage":
        return null_stage(param, args.n, args.k).to_json()
    return null_term(param, args.n, args.k).to_json()


def cmd_e(args) -> dict:
    from .closed_null import (
        EParam, ETripleParam, e_fsigma_member, e_open_encode, e_open_stage, e_term,
    )

    if args.op == "encode":
        v = Clopen.from_json(_arg_json(args.clopen))
        return param_file("e-open", e_open_encode(v, args.m_max).to_json())
    if args.op == "pack":
        triples = [load_param(t, {"e-open": ETripleParam}) for t in _arg_json(args.triples)]
        return param_file("e", EParam.from_triples(triples, args.horizon).to_json())
    if args.op in ("term", "stage"):
        param = load_param(_arg_json(args.param), {"e-open": ETripleParam})
        if args.op == "term":
            return e_term(param, args.n).to_json()
        return e_open_stage(param, args.n_max).to_json()
    param = load_param(_arg_json(args.param), {"e": EParam, "e-open": ETripleParam})
    if isinstance(param, ETripleParam):
        param = EParam.from_triples([param], param.positions - 1)
    rows = param.rows if args.rows is None else args.rows
    got = e_fsigma_member(param, _bits(args.z), rows, args.n_max)
    return {"result": got.value}


def cmd_ksigma(args) -> dict:
    from .domination import KsigmaParam, dominated_from, ksigma_diagonal, ksigma_encode

    if args.op == "encode":
        points = [_baire(p) for p in _arg_json(args.points)]
        return param_file("ksigma", ksigma_encode(points).to_json())
    param = load_param(_arg_json(args.param), {"ksigma": KsigmaParam})
    if args.op == "eval":
        got = dominated_from(param, _baire(_arg_json(args.x)), args.n)
        return {"dominated": got}
    return {"diagonal": list(ksigma_diagonal(param))}


def cmd_laver(args) -> dict:
    from .domination import LaverParam, laver_witnesses

    if args.op == "encode":
        return param_file("laver", LaverParam.from_json({"phi": _arg_json(args.phi)}).to_json())
    param = load_param(_arg_json(args.param), {"laver": LaverParam})
    got = laver_witnesses(param, _baire(_arg_json(args.f)), args.n0, args.n1)
    return {"witnesses": got}


def _meager_half(doc) -> tuple:
    # the meager half of a product: its dense opens and n_max
    return [Clopen.from_json(d) for d in doc["dense_opens"]], _naturals(doc["n_max"])


def cmd_fubini(args) -> dict:
    from .fubini import (
        DensityProxy,
        ProductParam,
        ProductPoint,
        SomewhereDenseProxy,
        flagged_bits,
        halves,
        product_encode,
        product_member,
        section_diagnostic,
    )
    from .nullset import CoverFamily

    if args.op == "encode":
        x_part, plane_part = _arg_json(args.x_part), _arg_json(args.plane_part)
        readers = {"null": CoverFamily.from_json, "meager": _meager_half}
        read_x, read_plane = (readers[half] for half in halves(args.variant))
        pp = product_encode(args.variant, read_x(x_part), read_plane(plane_part))
        return param_file(f"fubini-{args.variant}", pp.to_json())
    if args.op == "eval":
        classes = dict.fromkeys(("fubini-nm", "fubini-mn"), ProductParam)
        pp = load_param(_arg_json(args.param), classes)
        got = product_member(
            pp,
            ProductPoint(_bits(args.y), _bits(args.z)),
            null_levels=args.null_levels,
            meager_n_max=args.meager_n_max,
            meager_rows=args.meager_rows,
        )
        return {"result": got.value}
    rows = _arg_json(args.rows)
    if not isinstance(rows, list):
        raise MalformedInput("--rows must be a JSON array of 0/1 words")
    rows = [_bits(r) for r in rows]
    if args.proxy == "null":
        if args.epsilon is None:
            raise MalformedInput("--proxy null needs --epsilon")
        eps = _arg_json(args.epsilon)
        # a negative part is DensityProxy's to refuse, as malformed
        proxy = DensityProxy(*(v if v < 0 else _naturals(v) for v in (eps["num"], eps["exp"])))
    else:
        proxy = SomewhereDenseProxy(args.split)
    flagged = section_diagnostic(rows, proxy)
    d = len(rows).bit_length() - 1
    return {"d": d, "flagged": flagged_bits(flagged, d), "proxy": proxy.to_json()}


def cmd_check(args) -> dict:
    from .checks import run_suite

    return run_suite(args.suite, args.seed)


# -- command table ------------------------------------------------------------

_REQ = {"required": True}
_INT = {"type": int, "required": True}
_ZERO = {"type": int, "default": 0}
_SPACE = {"choices": ["cantor", "baire"], "default": "cantor"}

#: command -> (help text, handler, {op: {flag: argparse keywords}}); the
#: op None puts its flags on the command itself.
COMMANDS = {
    "space": ("cylinder algebra and codings", cmd_space, {
        "measure": {"--clopen": _REQ},
        "canon": {"--clopen": _REQ},
        "pair": {"--m": _ZERO, "--n": _ZERO, "--invert": {"type": int}},
        "seq": {"--encode": {}, "--decode": {"type": int}},
    }),
    "enum": ("canonical enumerations", cmd_enum, {
        "clopen": {"--n": _INT, "--k": _INT},
        "basic": {"--space": _SPACE, "--k": _INT},
        "kprime": {"--n": _INT, "--m": _INT, "--space": _SPACE},
        "kcomb": {
            "--N": _INT, "--t": _ZERO, "--r": _ZERO,
            "--rank": {"help": "subset to rank instead of unranking"},
        },
    }),
    "countable": ("countable-set sections", cmd_countable, {
        "encode": {"--points": _REQ, "--depth": _INT},
        "eval": {"--param": _REQ, "--x": _REQ, "--rows": {"type": int}, "--depth": _INT},
    }),
    "meager": ("dense-open and meager sections", cmd_meager, {
        "encode": {"--dense-opens": _REQ, "--n-max": _INT},
        "eval": {"--param": _REQ, "--z": _REQ, "--rows": {"type": int}, "--n-max": _INT},
        "fxp": {
            "--x": _REQ, "--y": {"required": True, "help": "partition source prefix"},
            "--z": _REQ, "--from-block": _ZERO,
        },
        "partition": {"--y": _REQ},
    }),
    "null": ("measure-zero sections", cmd_null, {
        "encode": {"--covers": _REQ},
        "eval": {"--param": _REQ, "--z": _REQ, "--n": _INT},
        "stage": {"--param": _REQ, "--n": _INT, "--k": _INT},
        "term": {"--param": _REQ, "--n": _INT, "--k": _INT},
    }),
    "e": ("closed-null-generated ideal sections", cmd_e, {
        "encode": {"--clopen": _REQ, "--m-max": _INT},
        "pack": {"--triples": _REQ, "--horizon": _INT},
        "term": {"--param": _REQ, "--n": _INT},
        "stage": {"--param": _REQ, "--n-max": _INT},
        "eval": {"--param": _REQ, "--z": _REQ, "--rows": {"type": int}, "--n-max": _INT},
    }),
    "ksigma": ("eventual-domination sections", cmd_ksigma, {
        "encode": {"--points": _REQ},
        "eval": {"--param": _REQ, "--x": _REQ, "--n": _ZERO},
        "diagonal": {"--param": _REQ},
    }),
    "laver": ("tree-labelling witness sections", cmd_laver, {
        "encode": {"--phi": _REQ},
        "eval": {"--param": _REQ, "--f": _REQ, "--n0": _ZERO, "--n1": _INT},
    }),
    "fubini": ("product sections and diagnostics", cmd_fubini, {
        "encode": {
            "--variant": {"choices": ["nm", "mn"], "required": True},
            "--x-part": _REQ, "--plane-part": _REQ,
        },
        "eval": {
            "--param": _REQ, "--y": _REQ, "--z": _REQ, "--null-levels": _INT,
            "--meager-n-max": _INT, "--meager-rows": {"type": int},
        },
        "diagnose": {
            "--rows": _REQ, "--proxy": {"choices": ["null", "nwd"], "required": True},
            "--epsilon": {"help": "dyadic threshold for the null proxy"},
            "--split": {"type": int, "default": 1},
        },
    }),
    "check": ("seeded property suites", cmd_check, {
        None: {"--suite": _REQ, "--seed": _ZERO},
    }),
}


@functools.cache
def _op_parser(command: str, op) -> argparse.ArgumentParser:
    """The parser of one op's flags, or of `command`'s own flags when `op`
    is None, built once per process.  `main` parses a leaf argv with it
    alone, and `build_parser` hangs the same object in the whole tree."""
    prog = f"idealis {command}" if op is None else f"idealis {command} {op}"
    parser = argparse.ArgumentParser(prog=prog)
    for flag, keywords in COMMANDS[command][2][op].items():
        parser.add_argument(flag, **keywords)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all of ``COMMANDS``, built once per process.
    Each sub-parsers action dispatches through its ``choices`` map, which
    holds the `_op_parser` leaves."""
    top = argparse.ArgumentParser(
        prog="idealis",
        description="exact finite-stage toolkit for universal-set constructions",
    )
    top.add_argument("--version", action="version", version=CREATED_BY)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, _, ops) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        if None in ops:
            sub.choices[command] = _op_parser(command, None)
            continue
        op_parsers = parser.add_subparsers(dest="op", required=True)
        for op in ops:
            op_parsers.choices[op] = _op_parser(command, op)
    return top


def _parse(argv: list) -> argparse.Namespace:
    """`argv` parsed.  When it names a command and one of its ops, or
    ``check``, whose flags sit on the command, the op's parser alone reads
    the rest.  The whole tree reads anything else, and also a leaf argv
    that leaves arguments over or holds one starting ``--=``: only the
    tree words those errors as ``idealis`` does."""
    ops = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else {}
    op = argv[1] if None not in ops and len(argv) > 1 and argv[1] in ops else None
    if op in ops and not any(a.startswith("--=") for a in argv):
        rest = argv[1:] if op is None else argv[2:]
        args, extras = _op_parser(argv[0], op).parse_known_args(rest)
        if not extras:
            args.command, args.op = argv[0], op
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        doc = COMMANDS[args.command][1](args)
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
