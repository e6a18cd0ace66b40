"""The four benchmark workloads: seeded inputs, the operations run on them,
and the checks of every answer.

A workload is a list of rounds.  A round is a list of operations, each one
call to an encoder, an evaluator or ``idealis.cli.main``; an operation may
take the output of an earlier operation of its round as its first
argument (an encoder's parameter feeding its evaluators).  ``null-fresh``
runs a long stream of distinct rounds once each; the other three run one
round over and over, so every repetition asks exactly the same questions.

Inputs are generated from the seed before the timed loop; checks run after
it, on the outputs the loop recorded, with the independent oracles in
``oracles.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import oracles as O
from oracles import Region

class Round:
    """Operations (fn, args, src) plus a check tag per operation.

    ``src`` is the index of an earlier operation of the round whose output
    is passed as the first argument, or -1.
    """

    def __init__(self):
        self.ops: list[tuple] = []
        self.tags: list[tuple] = []

    def add(self, fn, args, tag, src=-1) -> int:
        self.ops.append((fn, tuple(args), src))
        self.tags.append(tag)
        return len(self.ops) - 1


def rand_word(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


class Lib:
    """The idealis modules, looked up when a round is built so that the
    traced run picks up the wrapped functions."""

    def __init__(self):
        import idealis.cli
        from idealis import (
            closed_null,
            countable,
            domination,
            enumerations,
            fubini,
            meager,
            nullset,
            space,
        )

        self.space = space
        self.enumerations = enumerations
        self.countable = countable
        self.meager = meager
        self.nullset = nullset
        self.closed_null = closed_null
        self.domination = domination
        self.fubini = fubini
        self.cli = idealis.cli


class Checker:
    """Collects (op index, problem) pairs and checks each clopen_enum value
    a null oracle reads, once per distinct argument pair.

    ``skip`` holds the operations of the round whose output is missing (it
    raised, or its input did); a workload's check passes over them and
    marks ``unchecked`` any other operation whose check needs one of them.
    """

    def __init__(self, lib: Lib):
        self.lib = lib
        self.master = O.MasterList()
        self._enum: dict = {}
        self.problems: list = []
        self.skip: set = set()
        self.unchecked: set = set()

    def enum_region(self, n: int, k: int) -> Region:
        key = (n, k)
        if key not in self._enum:
            got = self.lib.enumerations.clopen_enum(n, k)
            region = Region.of(got)
            rank = self.lib.enumerations.clopen_rank(n, got) if k else 0
            for p in self.master.check(n, k, region, rank):
                self.problems.append((None, p))
            self._enum[key] = region
        return self._enum[key]

    def null_oracle(self, prefix, witness) -> O.NullOracle:
        return O.NullOracle(prefix, witness, self.enum_region)

    def expect(self, i, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append((i, message))

    def extend(self, i, problems) -> None:
        self.problems.extend((i, p) for p in problems)


def _mono(check: Checker, groups: dict) -> None:
    """No HOLDS/FAILS flip between stage bounds of one query."""
    for key, items in groups.items():
        if not O.decided_agree([a for _, a in items]):
            check.expect(items[0][0], False, f"decided answers flip across stage bounds for {key}")


# -- shared generators ----------------------------------------------------------


def cover_family(rng, shape, depth: int, max_pieces: int = 8, max_level: int = 10):
    """Per-row cylinder covers as in the null-encoder acceptance criterion:
    row n holds the level-(n+3) cylinder around one point plus up to
    max_pieces - 2 random cylinders at levels 6..max_level, all under the
    row budget 2^-(n+1).  `shape` draws the piece counts and levels, `rng`
    the words.  Returns (rows of words, the covered point)."""
    point = rand_word(rng, max_level)
    rows = []
    for n in range(depth):
        base = min(n + 3, max_level)
        words = [point[:base]]
        budget = Fraction(1, 2 ** (n + 1)) - Fraction(1, 2**base)
        for _ in range(shape.randrange(max_pieces - 1)):
            lev = shape.randint(6, max_level)
            if Fraction(1, 2**lev) < budget:
                words.append(rand_word(rng, lev))
                budget -= Fraction(1, 2**lev)
        rows.append(words)
    return rows, point


def family_value(lib: Lib, rows):
    cyl = lib.space.Clopen.cylinder
    return lib.nullset.CoverFamily(tuple(tuple(cyl(w) for w in row) for row in rows))


def random_null(rng, shape, rows: int, k_hi: int, bits: int = 40):
    """A parameter with wide random cells, so deep terms trip the guard;
    `shape` picks which 40% of the cells are nonzero."""
    size = 1 + O.pair(rows - 1, k_hi)
    prefix = [rng.getrandbits(bits) if shape.random() < 0.4 else 0 for _ in range(size)]
    return prefix, [max(k_hi, n + 1) for n in range(rows)]


def null_value(lib: Lib, prefix, witness):
    return lib.nullset.NullParam(tuple(prefix), tuple(witness))


def dense_clopen(rng: random.Random, level: int, n_max: int) -> Region:
    """A random level-`level` set meeting basic open sets 1..n_max."""
    idx = set(i for i in range(1 << level) if rng.random() < 0.5)
    for n in range(1, n_max + 1):
        base = O.basic_word(n)
        d = level - len(base)
        lo = (int(base, 2) if base else 0) << d
        if not any(lo <= i < lo + (1 << d) for i in idx):
            idx.add(lo + rng.randrange(1 << d))
    if len(idx) == 1 << level:
        idx.discard(rng.randrange(1 << level))
    return Region(level, [format(i, f"0{level}b") for i in sorted(idx)])


def clopen_value(lib: Lib, region: Region):
    return lib.space.Clopen.from_words(region.level, region.words)


def complement_word(rng: random.Random, region: Region) -> str:
    """A word of the region's level outside the region."""
    present = set(region.index)
    outside = [i for i in range(1 << region.level) if i not in present]
    return format(rng.choice(outside), f"0{region.level}b")


def to_tri(value) -> str:
    return value.value


# -- null-fresh -----------------------------------------------------------------


def _stage_at_witness(null_stage):
    def stage_at_witness(p, n):
        return null_stage(p, n, p.witness[n])

    return stage_at_witness


class NullFresh:
    """A stream of distinct null parameters, each asked a few questions,
    in short cold sessions.

    A session is one fresh worker process, as one ``idealis`` invocation
    is, and runs 42 rounds: 21 encode a random cover family (depths 1..7,
    pieces up to level 10) and query the result, 21 query a random
    parameter with 40-bit cells on six rows.  Almost every
    clopen_enum index is new, and each session pays the enumeration's cold
    caches again.  Sessions share their shape and differ in contents.
    """

    name = "null-fresh"
    repeat = False
    session_rounds = 42
    rss_round = session_rounds
    trace_rounds = session_rounds

    def __init__(self, seed: int, lib: Lib, session: int = 0):
        rng = random.Random(f"null-fresh:{seed}:{session}")
        shape = random.Random("null-fresh:shape")
        self.items = []
        for i in range(self.session_rounds):
            if i % 2 == 0:
                depth = 1 + (i // 2) % 7
                rows, point = cover_family(rng, shape, depth)
                self.items.append(
                    ("enc", rows, point, rand_word(rng, 10), shape.randrange(depth), shape.randrange(depth))
                )
            else:
                prefix, witness = random_null(rng, shape, 6, 16)
                qs = [
                    (rand_word(rng, shape.randint(3, 8)), 5),
                    (rand_word(rng, shape.randint(3, 8)), shape.randrange(6)),
                ]
                n = shape.randrange(6)
                self.items.append(("rand", prefix, witness, qs, (n, shape.randint(n + 1, 16))))
        self.values = [
            family_value(lib, it[1]) if it[0] == "enc" else null_value(lib, it[1], it[2])
            for it in self.items
        ]

    def build(self, lib: Lib) -> list:
        ns = lib.nullset
        stage_w = _stage_at_witness(ns.null_stage)
        rounds = []
        for it, value in zip(self.items, self.values):
            r = Round()
            if it[0] == "enc":
                _, rows, point, z_out, j, n = it
                enc = r.add(ns.null_encode, (value,), ("encode", len(rows)))
                r.add(ns.null_member, (point, len(rows) - 1), ("member", point, len(rows) - 1, True), enc)
                r.add(ns.null_member, (z_out, j), ("member", z_out, j, False), enc)
                r.add(stage_w, (n,), ("stage_w", n), enc)
            else:
                _, prefix, witness, qs, (n, k) = it
                for z, nl in qs:
                    r.add(ns.null_member, (value, z, nl), ("member", z, nl, False))
                r.add(ns.null_stage, (value, n, k), ("stage", n, k))
            rounds.append(r)
        return rounds

    def check(self, check: Checker, idx: int, rnd: Round, outs: list) -> None:
        it = self.items[idx]
        if it[0] == "enc":
            if 0 in check.skip:  # every query of the round reads the encoding
                return
            param = outs[0]
            check.expect(0, len(param.witness) == len(it[1]), "null_encode witness count is not the depth")
            oracle = check.null_oracle(param.prefix, param.witness)
            check.expect(0, oracle.guard_transparent(), "budget guard fires on encoder output")
        else:
            oracle = check.null_oracle(it[1], it[2])
        _check_null_ops(check, list(zip(range(len(outs)), rnd.tags, outs)), oracle)


def _check_null_ops(check: Checker, items, oracle: O.NullOracle) -> None:
    """items: (op index, tag, output) for the queries on one parameter."""
    groups: dict = {}
    for i, tag, got in items:
        if i in check.skip:
            continue
        kind = tag[0]
        if kind == "member":
            _, z, nl, covered = tag
            ans = to_tri(got)
            want = oracle.member(z, nl)
            check.expect(i, ans == want, f"null_member({z},{nl}) = {ans}, guard recomputation says {want}")
            if covered:
                check.expect(i, ans == O.HOLDS, f"covered point {z} is not HoldsAtStage")
            groups.setdefault(z, []).append((i, ans))
        elif kind in ("stage", "stage_w"):
            n = tag[1]
            k = tag[2] if kind == "stage" else oracle.witness[n]
            check.extend(i, O.check_null_stage(Region.of(got), oracle, n, k))
        elif kind == "term":
            _, n, k, encoded = tag
            check.extend(i, O.check_null_term(Region.of(got), oracle, n, k, encoded))
    _mono(check, groups)


# -- null-repeat ------------------------------------------------------------------


class NullRepeat:
    """Six null parameters queried over and over: three encoder outputs
    (depths 5, 6, 7) and three random 40-bit parameters.  Each round asks
    null_member at every stage for a covered and an outside point,
    null_term for every k up to the witness and null_stage at three
    bounds per row."""

    name = "null-repeat"
    repeat = True
    rss_round = 2
    trace_rounds = 4

    def __init__(self, seed: int, lib: Lib):
        rng = random.Random(f"null-repeat:{seed}")
        shape = random.Random("null-repeat:shape")
        self.params = []
        for depth in (5, 6, 7):
            rows, point = cover_family(rng, shape, depth)
            # encoded while the inputs are made: the timed loop only queries
            param = lib.nullset.null_encode(family_value(lib, rows))
            self.params.append(("enc", param, [point, rand_word(rng, 10)]))
        for _ in range(3):
            prefix, witness = random_null(rng, shape, 6, 20)
            zs = [rand_word(rng, shape.randint(3, 6)), rand_word(rng, 10)]
            self.params.append(("rand", null_value(lib, prefix, witness), zs))

    def build(self, lib: Lib) -> list:
        ns = lib.nullset
        r = Round()
        self.op_param = []
        for pid, (kind, param, zs) in enumerate(self.params):
            before = len(r.ops)
            for zi, z in enumerate(zs):
                for n in range(len(param.witness)):
                    covered = kind == "enc" and zi == 0
                    r.add(ns.null_member, (param, z, n), ("member", z, n, covered))
            for n, k_hi in enumerate(param.witness):
                for k in range(n + 1, k_hi + 1):
                    r.add(ns.null_term, (param, n, k), ("term", n, k, kind == "enc"))
                for k in sorted({n + 1, (n + 1 + k_hi) // 2, k_hi}):
                    r.add(ns.null_stage, (param, n, k), ("stage", n, k))
            self.op_param.extend([pid] * (len(r.ops) - before))
        return [r]

    def check(self, check: Checker, idx: int, rnd: Round, outs: list) -> None:
        for pid, (kind, param, _) in enumerate(self.params):
            oracle = check.null_oracle(param.prefix, param.witness)
            if kind == "enc":
                check.expect(None, oracle.guard_transparent(), "budget guard fires on encoder output")
            items = [
                (i, tag, got)
                for i, (tag, got) in enumerate(zip(rnd.tags, outs))
                if self.op_param[i] == pid
            ]
            _check_null_ops(check, items, oracle)


# -- fsigma -------------------------------------------------------------------------


def _row_stage(dense_section_stage):
    def row_stage(p, r, n_max):
        return dense_section_stage(p.row(r, n_max), n_max)

    return row_stage


def _pack(from_triples):
    def pack(q, horizon):
        return from_triples([q], horizon)

    return pack


class Fsigma:
    """Encode-then-evaluate on the meager and closed-null constructions.

    Meager: three encodes of two random dense level-8 sets each (horizon
    14) and three random three-row parameters (horizon 10, cells < 64),
    evaluated at three stage bounds.  E: two encodes of level-12 and
    level-10 sets with scattered holes, so the encoder needs levels up to
    the cap, and two packs of two random triples (levels up to 12, 30-digit
    subset ranks), each with every term, stages and F_sigma membership at
    three bounds.  Neither clopen_enum nor the null layer is reached.
    """

    name = "fsigma"
    repeat = True
    rss_round = 2
    trace_rounds = 8
    M_NMAX = 14
    R_HORIZON = 10

    def __init__(self, seed: int, lib: Lib):
        rng = random.Random(f"fsigma:{seed}")
        shape = random.Random("fsigma:shape")
        self.meager_enc = []
        for _ in range(3):
            dense = [dense_clopen(rng, 8, self.M_NMAX) for _ in range(2)]
            zs = [complement_word(rng, dense[0]), rand_word(rng, shape.randint(3, 8))]
            self.meager_enc.append((dense, zs))
        self.meager_rand = []
        for _ in range(3):
            size = 1 + O.pair(2, self.R_HORIZON)
            prefix = [rng.randrange(64) for _ in range(size)]
            zs = [rand_word(rng, shape.randint(3, 8)) for _ in range(2)]
            self.meager_rand.append((prefix, zs))
        self.e_enc = []
        for level, m_max in ((12, 5), (10, 4)):
            holes = {rng.randrange(1 << level) for _ in range(1 << (level - m_max))}
            v = Region(level, [format(i, f"0{level}b") for i in range(1 << level) if i not in holes])
            zs = [format(rng.choice(sorted(holes)), f"0{level}b"), rand_word(rng, shape.randint(2, 6))]
            self.e_enc.append((v, m_max, zs))
        self.e_rand = []
        for _ in range(2):
            triples = [
                (
                    tuple(shape.randrange(3) for _ in range(6)),
                    tuple(shape.randrange(13) for _ in range(6)),
                    tuple(rng.randrange(10**30) for _ in range(6)),
                )
                for _ in range(2)
            ]
            zs = [rand_word(rng, shape.randint(2, 8)) for _ in range(2)]
            self.e_rand.append((triples, zs))
        self.values = {
            "dense": [[clopen_value(lib, w) for w in dense] for dense, _ in self.meager_enc],
            "mrand": [lib.meager.MeagerParam(tuple(p), 3, self.R_HORIZON) for p, _ in self.meager_rand],
            "v": [clopen_value(lib, v) for v, _, _ in self.e_enc],
            "trip": [[lib.closed_null.ETripleParam(*t) for t in ts] for ts, _ in self.e_rand],
        }

    def build(self, lib: Lib) -> list:
        mg, cn = lib.meager, lib.closed_null
        row_stage = _row_stage(mg.dense_section_stage)
        pack = _pack(cn.EParam.from_triples)
        r = Round()
        n_max = self.M_NMAX
        for pid, (dense, zs) in enumerate(self.meager_enc):
            enc = r.add(mg.meager_encode, (self.values["dense"][pid], n_max), ("m_enc", pid))
            for row in range(len(dense)):
                r.add(row_stage, (row, n_max), ("m_stage", ("enc", pid), row, n_max), enc)
            for z in zs:
                for n in (2, 7, n_max):
                    r.add(mg.meager_eval, (z, len(dense), n), ("m_eval", ("enc", pid), z, n), enc)
        for pid, (_, zs) in enumerate(self.meager_rand):
            param = self.values["mrand"][pid]
            for row in range(3):
                r.add(mg.dense_section_stage, (param.row(row, self.R_HORIZON), self.R_HORIZON),
                      ("m_stage", ("rand", pid), row, self.R_HORIZON))
            for z in zs:
                for n in (1, 5, self.R_HORIZON):
                    r.add(mg.meager_eval, (param, z, 3, n), ("m_eval", ("rand", pid), z, n))
        for pid, (_, m_max, zs) in enumerate(self.e_enc):
            enc = r.add(cn.e_open_encode, (self.values["v"][pid], m_max), ("e_enc", pid))
            for n in range(m_max + 1):
                r.add(cn.e_term, (n,), ("e_term", ("enc", pid, 0), n), enc)
            r.add(cn.e_open_stage, (m_max,), ("e_stage", ("enc", pid, 0), m_max), enc)
            packed = r.add(pack, (m_max,), ("e_pack", ("enc", pid)), enc)
            for z in zs:
                for n in (0, 2, m_max):
                    r.add(cn.e_fsigma_member, (z, 1, n), ("e_eval", ("enc", pid), z, n), packed)
        for pid, (_, zs) in enumerate(self.e_rand):
            trips = self.values["trip"][pid]
            for t, trip in enumerate(trips):
                for n in range(6):
                    r.add(cn.e_term, (trip, n), ("e_term", ("rand", pid, t), n))
                r.add(cn.e_open_stage, (trip, 5), ("e_stage", ("rand", pid, t), 5))
            packed = r.add(cn.EParam.from_triples, (trips, 5), ("e_pack", ("rand", pid)))
            for z in zs:
                for n in (0, 2, 5):
                    r.add(cn.e_fsigma_member, (z, 2, n), ("e_eval", ("rand", pid), z, n), packed)
        return [r]

    def check(self, check: Checker, idx: int, rnd: Round, outs: list) -> None:
        meager_rows = {}
        targets = {}
        for pid, (dense, _) in enumerate(self.meager_enc):
            targets[("enc", pid)] = dense
        for pid, (prefix, _) in enumerate(self.meager_rand):
            meager_rows[("rand", pid)] = (O.meager_rows(prefix, 3, self.R_HORIZON), self.R_HORIZON)
        triples = {}   # (kind, pid, t) -> (x0, x1, x2)
        terms = {}     # (kind, pid, t) -> {n: Region}
        for pid, (ts, _) in enumerate(self.e_rand):
            for t, trip in enumerate(ts):
                triples[("rand", pid, t)] = trip
        e_targets = {("enc", pid, 0): v for pid, (v, _, _) in enumerate(self.e_enc)}

        live = [(i, tag, got) for i, (tag, got) in enumerate(zip(rnd.tags, outs)) if i not in check.skip]
        for i, tag, got in live:
            if tag[0] == "m_enc":
                dense, _ = self.meager_enc[tag[1]]
                check.extend(i, O.check_meager_encode(got, dense, self.M_NMAX))
                meager_rows[("enc", tag[1])] = (
                    O.meager_rows(got.prefix, len(dense), self.M_NMAX), self.M_NMAX
                )
            elif tag[0] == "e_enc":
                v, m_max, _ = self.e_enc[tag[1]]
                check.expect(i, got.positions == m_max + 1, "e_open_encode position count")
                triples[("enc", tag[1], 0)] = (got.x0, got.x1, got.x2)
        for i, tag, got in live:
            if tag[0] == "e_term":
                key, n = tag[1], tag[2]
                x0, x1, x2 = triples[key]
                region = Region.of(got)
                check.extend(i, O.check_e_term(region, x0[n], x1[n], x2[n], n))
                if key in e_targets:
                    check.expect(i, O.inside([region], e_targets[key]), "encoded E term leaves its set")
                terms.setdefault(key, {})[n] = region
        # terms each E key must have: every n up to its horizon
        term_count = {("enc", pid, 0): m_max + 1 for pid, (_, m_max, _) in enumerate(self.e_enc)}
        term_count.update({key: 6 for key in triples if key[0] == "rand"})

        def have_terms(i, keys) -> bool:
            ok = all(len(terms.get(k, ())) == term_count[k] for k in keys)
            if not ok:
                check.unchecked.add(i)
            return ok

        groups: dict = {}
        for i, tag, got in live:
            kind = tag[0]
            if kind == "m_stage":
                key, row, n_max = tag[1], tag[2], tag[3]
                choices = meager_rows[key][0][row]
                target = targets[key][row] if key in targets else None
                check.extend(i, O.check_dense_stage(Region.of(got), choices, n_max, target))
            elif kind == "m_eval":
                key, z, n = tag[1], tag[2], tag[3]
                rows, horizon = meager_rows[key]
                ans = to_tri(got)
                want = O.meager_answer(rows, z, n, horizon)
                check.expect(i, ans == want, f"meager_eval({z},{n}) = {ans}, oracle says {want}")
                if key in targets and not O.meets([targets[key][0]], z):
                    check.expect(i, ans == O.HOLDS, f"complement word {z} is not HoldsAtStage")
                groups.setdefault(("m", key, z), []).append((i, ans))
            elif kind == "e_stage":
                key, n_max = tag[1], tag[2]
                if not have_terms(i, [key]):
                    continue
                region = Region.of(got)
                check.extend(i, region.problems())
                check.expect(i, region.measure() >= 1 - Fraction(1, 1 << n_max),
                             f"E stage measure {region.measure()} below 1 - 2^-{n_max}")
                check.expect(i, O.same_set(region, [terms[key][n] for n in range(n_max + 1)]),
                             "E stage is not the union of its terms")
            elif kind == "e_pack":
                key = tag[1]
                if key[0] == "rand":
                    trips = self.e_rand[key[1]][0]
                    horizon = 5
                else:
                    trips = [triples[(key[0], key[1], 0)]]
                    horizon = self.e_enc[key[1]][1]
                cut = [tuple(tuple(row[: horizon + 1]) for row in t) for t in trips]
                check.extend(i, O.check_e_pack(got, cut, horizon))
            elif kind == "e_eval":
                key, z, n = tag[1], tag[2], tag[3]
                n_rows = len(self.e_rand[key[1]][0]) if key[0] == "rand" else 1
                if not have_terms(i, [(key[0], key[1], t) for t in range(n_rows)]):
                    continue
                row_terms = [
                    [terms[(key[0], key[1], t)][m] for m in sorted(terms[(key[0], key[1], t)])]
                    for t in range(n_rows)
                ]
                ans = to_tri(got)
                want = O.e_answer(row_terms, z, n)
                check.expect(i, ans == want, f"e_fsigma_member({z},{n}) = {ans}, oracle says {want}")
                if key[0] == "enc" and not O.meets([self.e_enc[key[1]][0]], z):
                    check.expect(i, ans == O.HOLDS, f"complement word {z} is not HoldsAtStage")
                groups.setdefault(("e", key, z), []).append((i, ans))
        _mono(check, groups)


# -- cli-chain ------------------------------------------------------------------------

PARAM = object()  # placeholder for the previous call's JSON output
PARAM_LIST = object()  # the same, wrapped in a one-element JSON list


def _cli_call(cli):
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def _cli_chain(cli):
    call = _cli_call(cli)

    def chained(prev, argv):
        text = prev[1].strip()
        swap = {id(PARAM): text, id(PARAM_LIST): "[" + text + "]"}
        return call([swap.get(id(a), a) for a in argv])

    return chained


def _j(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _fields(doc: dict) -> SimpleNamespace:
    """A parameter's JSON fields as attributes, the way the oracles read
    library values."""
    return SimpleNamespace(**doc)


def _clopen_doc(region: Region) -> str:
    return _j({"level": region.level, "words": list(region.words)})


class CliChain:
    """In-process ``idealis.cli.main`` over seeded argv chains; each
    encode's JSON output is passed through ``--param`` to its evals."""

    name = "cli-chain"
    repeat = True
    rss_round = 2
    trace_rounds = 6

    def __init__(self, seed: int, lib: Lib):
        rng = random.Random(f"cli-chain:{seed}")
        shape = random.Random("cli-chain:shape")
        self.plan = []  # (argv list, tag, src) with src an index into plan
        add = self._add

        # space
        lv = shape.randint(1, 4)
        sp = Region(lv, sorted({rand_word(rng, lv) for _ in range(shape.randint(1, 3))}))
        add(["space", "measure", "--clopen", _clopen_doc(sp)], ("measure", sp))
        lv = shape.randint(1, 3)
        words = sorted({rand_word(rng, lv) for _ in range(shape.randint(1, 1 << lv))})
        add(["space", "canon", "--clopen", _j({"level": lv, "words": words})], ("canon", Region(lv, words)))
        m, n = rng.randrange(1000), rng.randrange(1000)
        add(["space", "pair", "--m", str(m), "--n", str(n)], ("pair", m, n))
        k = rng.randrange(10**6)
        add(["space", "pair", "--invert", str(k)], ("unpair", k))
        seq = [rng.randrange(6) for _ in range(shape.randint(2, 5))]
        add(["space", "seq", "--encode", _j(seq)], ("seq_encode", tuple(seq)))
        k = rng.randrange(10**9)
        add(["space", "seq", "--decode", str(k)], ("seq_decode", k))

        # enum
        for n in (0, 1, 2):
            k = rng.randrange(200)
            add(["enum", "clopen", "--n", str(n), "--k", str(k)], ("enum_clopen", n, k))
        k = rng.randrange(2, 500)
        add(["enum", "basic", "--space", "cantor", "--k", str(k)], ("basic_cantor", k))
        k = rng.randrange(1, 10**6)
        add(["enum", "basic", "--space", "baire", "--k", str(k)], ("basic_baire", k))
        for _ in range(2):
            n, m = rng.randrange(1, 30), rng.randrange(40)
            add(["enum", "kprime", "--n", str(n), "--m", str(m)], ("kprime_cantor", n, m))
        N, t = shape.randint(6, 12), shape.randint(1, 5)
        r = rng.randrange(comb(N, t))
        add(["enum", "kcomb", "--N", str(N), "--t", str(t), "--r", str(r)], ("kcomb_unrank", N, t, r))
        sub = sorted(rng.sample(range(N), t))
        add(["enum", "kcomb", "--N", str(N), "--rank", _j(sub)], ("kcomb_rank", N, sub))
        for band in (10, 40, 80):
            # a stem code drawn from a narrow band, so the scan's length is
            # set by the band and not by the seed
            n = rng.randrange(band, band + 10) + 1
            for m in range(5):
                add(["enum", "kprime", "--space", "baire", "--n", str(n), "--m", str(m)],
                    ("kprime_baire", n, m))

        # countable
        depth = 6
        points = [[rng.randrange(6) for _ in range(8)] for _ in range(3)]
        enc = add(["countable", "encode", "--points", _j(points), "--depth", str(depth)],
                  ("countable_encode", points, depth))
        # a point of the section, a random point, and one whose window is
        # all zeros, which only the zero rows past the stored prefix decide
        zero_led = [0, 0] + [rng.randrange(6) for _ in range(6)]
        for x in (points[1], [rng.randrange(6) for _ in range(8)], zero_led):
            for d in (2, depth):
                add(["countable", "eval", "--param", PARAM, "--x", _j(x), "--depth", str(d)],
                    ("countable_eval", points, depth, tuple(x), d), enc)

        # ksigma
        points = [[rng.randrange(9) for _ in range(10)] for _ in range(3)]
        enc = add(["ksigma", "encode", "--points", _j(points)], ("ksigma_encode", points))
        for x in (points[2], [rng.randrange(9) for _ in range(10)]):
            for n in (0, 4, 7):
                add(["ksigma", "eval", "--param", PARAM, "--x", _j(x), "--n", str(n)],
                    ("ksigma_eval", points, tuple(x), n), enc)
        add(["ksigma", "diagonal", "--param", PARAM], ("ksigma_diagonal", points), enc)

        # laver: labels along the queried sequences, plus stray labels
        for length in (12, 16, 20):
            # the first entries set the code's size for every later prefix
            f = [shape.randrange(3) for _ in range(4)] + [rng.randrange(3) for _ in range(length - 4)]
            phi = {}
            for n in range(length):
                if shape.random() < 0.5:
                    phi[tuple(f[:n])] = rng.randint(1, 3)
            for _ in range(4):
                phi[tuple(rng.randrange(3) for _ in range(shape.randint(0, 6)))] = rng.randint(1, 3)
            doc = [{"seq": list(s), "val": v} for s, v in phi.items()]
            enc = add(["laver", "encode", "--phi", _j(doc)], ("laver_encode", phi))
            half = length // 2
            for n0, n1 in ((0, length), (0, half), (half, length)):
                add(["laver", "eval", "--param", PARAM, "--f", _j(f), "--n0", str(n0), "--n1", str(n1)],
                    ("laver_eval", phi, tuple(f), n0, n1), enc)

        # meager
        dense = [dense_clopen(rng, 3, 3) for _ in range(2)]
        enc = add(["meager", "encode", "--dense-opens", "[" + ",".join(_clopen_doc(w) for w in dense) + "]",
                   "--n-max", "3"], ("meager_encode", dense, 3))
        for z in (complement_word(rng, dense[0]), rand_word(rng, 4)):
            for n in (1, 3):
                add(["meager", "eval", "--param", PARAM, "--z", z, "--n-max", str(n)],
                    ("meager_eval", z, n), enc)
        y = [rng.randrange(3) for _ in range(3)]
        add(["meager", "partition", "--y", _j(y)], ("partition", tuple(y)))
        x, z = rand_word(rng, 8), rand_word(rng, 8)
        add(["meager", "fxp", "--x", x, "--y", _j(y), "--z", z], ("fxp", x, tuple(y), z))

        # null
        rows, point = cover_family(rng, shape, 2, max_pieces=4, max_level=6)
        covers = self._covers_doc(rows)
        enc = add(["null", "encode", "--covers", covers], ("null_encode", rows))
        for zz in (point, rand_word(rng, 6)):
            add(["null", "eval", "--param", PARAM, "--z", zz, "--n", "1"], ("null_eval", zz, 1), enc)
        add(["null", "stage", "--param", PARAM, "--n", "1", "--k", "3"], ("null_stage", 1, 3), enc)
        add(["null", "term", "--param", PARAM, "--n", "0", "--k", "2"], ("null_term", 0, 2), enc)

        # e
        holes = {rng.randrange(16) for _ in range(2)}
        v = Region(4, [format(i, "04b") for i in range(16) if i not in holes])
        enc = add(["e", "encode", "--clopen", _clopen_doc(v), "--m-max", "2"], ("e_encode", v, 2))
        add(["e", "term", "--param", PARAM, "--n", "2"], ("e_term", 2), enc)
        add(["e", "stage", "--param", PARAM, "--n-max", "2"], ("e_stage", 2), enc)
        for zz in (format(min(holes), "04b"), rand_word(rng, 3)):
            add(["e", "eval", "--param", PARAM, "--z", zz, "--n-max", "1"], ("e_eval", v, zz, 1), enc)
        pk = add(["e", "pack", "--triples", PARAM_LIST, "--horizon", "2"], ("e_pack", 2), enc)
        add(["e", "eval", "--param", PARAM, "--z", "1", "--n-max", "2"], ("e_eval_packed", "1", 2), pk)

        # fubini
        rows, point = cover_family(rng, shape, 2, max_pieces=3, max_level=6)
        plane = [dense_clopen(rng, 4, 3)]
        enc = add(["fubini", "encode", "--variant", "nm", "--x-part", self._covers_doc(rows),
                   "--plane-part", _j({"dense_opens": [json.loads(_clopen_doc(w)) for w in plane], "n_max": 3})],
                  ("fubini_encode", "nm", rows, plane, 3))
        for yy, zz in ((point[:5], rand_word(rng, 5)), (rand_word(rng, 4), rand_word(rng, 4))):
            for nl, mn in ((0, 1), (1, 3)):
                add(["fubini", "eval", "--param", PARAM, "--y", yy, "--z", zz,
                     "--null-levels", str(nl), "--meager-n-max", str(mn)],
                    ("fubini_eval", yy, zz, nl, mn), enc)
        rows2, point2 = cover_family(rng, shape, 2, max_pieces=3, max_level=6)
        xdense = [dense_clopen(rng, 3, 3)]
        enc = add(["fubini", "encode", "--variant", "mn",
                   "--x-part", _j({"dense_opens": [json.loads(_clopen_doc(w)) for w in xdense], "n_max": 3}),
                   "--plane-part", self._covers_doc(rows2)],
                  ("fubini_encode", "mn", rows2, xdense, 3))
        for yy, zz in ((point2[0::2], point2[1::2]), (rand_word(rng, 4), rand_word(rng, 4))):
            for nl, mn in ((0, 1), (1, 3)):
                add(["fubini", "eval", "--param", PARAM, "--y", yy, "--z", zz,
                     "--null-levels", str(nl), "--meager-n-max", str(mn)],
                    ("fubini_eval", yy, zz, nl, mn), enc)
        d = 3
        diag_rows = [rand_word(rng, 1 << d) for _ in range(1 << d)]
        eps = {"num": rng.randint(1, 7), "exp": 3}
        add(["fubini", "diagnose", "--rows", _j(diag_rows), "--proxy", "null", "--epsilon", _j(eps)],
            ("diagnose", diag_rows, "null", Fraction(eps["num"], 1 << eps["exp"]), 1))
        split = shape.randint(1, 2)
        add(["fubini", "diagnose", "--rows", _j(diag_rows), "--proxy", "nwd", "--split", str(split)],
            ("diagnose", diag_rows, "nwd", None, split))

    def _add(self, argv, tag, src=-1) -> int:
        self.plan.append((argv, tag, src))
        return len(self.plan) - 1

    @staticmethod
    def _covers_doc(rows) -> str:
        return _j({"covers": [[{"level": len(w), "words": [w]} for w in row] for row in rows]})

    def build(self, lib: Lib) -> list:
        call, chained = _cli_call(lib.cli), _cli_chain(lib.cli)
        r = Round()
        for argv, tag, src in self.plan:
            if src < 0:
                r.add(call, (argv,), tag)
            else:
                r.add(chained, (argv,), tag, src)
        return [r]

    def check(self, check: Checker, idx: int, rnd: Round, outs: list) -> None:
        docs = []
        for i, out in enumerate(outs):
            if i in check.skip:
                docs.append(None)
                continue
            code, text = out
            lines = text.splitlines()
            doc = None
            if code != 0:
                check.expect(i, False, f"exit code {code}: {text.strip()[:200]}")
            elif len(lines) != 1:
                check.expect(i, False, f"{len(lines)} lines on stdout")
            else:
                try:
                    doc = json.loads(lines[0])
                except ValueError:
                    check.expect(i, False, "stdout is not one JSON document")
            docs.append(doc)
        groups: dict = {}
        self._kprime_seen = {}
        for i, (tag, doc) in enumerate(zip(rnd.tags, docs)):
            if doc is not None:
                src = self.plan[i][2]
                self._check_doc(check, i, tag, doc, docs[src] if src >= 0 else None, groups)
        _mono(check, groups)

    def _check_doc(self, check: Checker, i: int, tag, doc, param, groups) -> None:
        kind = tag[0]
        ex = check.expect

        def tri(want):
            ex(i, doc.get("result") == want, f"{kind} answered {doc.get('result')}, oracle says {want}")

        if param is None and self.plan[i][2] >= 0:
            check.unchecked.add(i)  # the encode feeding this call failed
            return
        if param is not None and "coding" in param:
            ex(i, param["coding"] == "cantor-e1", "parameter coding tag")
        if kind == "measure":
            reg = tag[1]
            got = Fraction(doc["num"], 1 << doc["exp"])
            ex(i, got == reg.measure(), f"measure {got}, expected {reg.measure()}")
            ex(i, doc["num"] % 2 == 1 or doc["exp"] == 0, "dyadic not in lowest terms")
        elif kind == "canon":
            got = Region.of(doc)
            check.extend(i, got.problems())
            ex(i, O.same_set(got, [tag[1]]), "canon changed the set")
        elif kind == "pair":
            ex(i, doc == {"value": O.pair(tag[1], tag[2])}, "pair value")
        elif kind == "unpair":
            ex(i, O.pair(doc["m"], doc["n"]) == tag[1], "unpair does not invert pair")
        elif kind == "seq_encode":
            ex(i, doc == {"code": O.seq_code(tag[1])}, "sequence code")
        elif kind == "seq_decode":
            ex(i, tuple(doc["seq"]) == O.seq_decode(tag[1]), "sequence decode")
        elif kind == "enum_clopen":
            _, n, k = tag
            got = Region.of(doc)
            listing = check.master.listing(n)
            check.extend(i, got.problems())
            ex(i, got.measure() < Fraction(1, 1 << n), "enum clopen measure")
            if 0 < k <= len(listing):
                lvl, mask = listing[k - 1]
                ex(i, got.level == lvl and got.mask(lvl) == mask, "enum clopen differs from brute force")
            elif k == 0:
                ex(i, not got.words, "index 0 is not empty")
        elif kind == "basic_cantor":
            w = O.basic_word(tag[1])
            ex(i, doc == {"level": len(w), "words": [w]}, "basic open (cantor)")
        elif kind == "basic_baire":
            ex(i, tuple(doc["stem"]) == O.seq_decode(tag[1] - 1), "basic open (baire)")
        elif kind == "kprime_cantor":
            ex(i, doc == {"value": O.kprime_cantor(tag[1], tag[2])}, "kprime (cantor)")
        elif kind == "kcomb_unrank":
            _, N, t, r = tag
            ex(i, tuple(doc["subset"]) == O.lex_subset(N, t, r), "kcomb unrank")
        elif kind == "kcomb_rank":
            _, N, sub = tag
            r = doc["rank"]
            ex(i, O.lex_subset(N, len(sub), r) == tuple(sub), "kcomb rank")
        elif kind == "kprime_baire":
            _, n, m = tag
            check.extend(i, O.kprime_baire_check(n, m, doc["value"]))
            seen = self._kprime_seen
            if (n, m - 1) in seen:
                ex(i, doc["value"] > seen[(n, m - 1)], "Baire kprime does not rise with m")
            seen[(n, m)] = doc["value"]
        elif kind == "countable_encode":
            _, points, depth = tag
            want = {}
            for n, p in enumerate(points):
                for m in range(depth):
                    want[O.pair(n, m)] = p[m]
            pre = doc["prefix"]
            ex(i, doc["rows"] == len(points) and doc["ideal"] == "countable", "countable header")
            ex(i, all(v == want.get(j, 0) for j, v in enumerate(pre)) and len(pre) == 1 + max(want),
               "countable prefix is not the packed points")
        elif kind == "countable_eval":
            _, points, depth, x, d = tag
            tri(O.countable_answer(points, depth, x, len(points), d))
            groups.setdefault(("countable", x), []).append((i, doc.get("result")))
        elif kind == "ksigma_encode":
            points = tag[1]
            length = min(len(p) for p in points)
            ex(i, doc["prefix"] == [max(p[m] for p in points) for m in range(length)], "ksigma bound")
        elif kind == "ksigma_eval":
            _, points, x, n = tag
            bound = [max(p[m] for p in points) for m in range(min(len(p) for p in points))]
            ex(i, doc == {"dominated": O.dominated(bound, x, n)}, "ksigma domination")
        elif kind == "ksigma_diagonal":
            bound = [max(p[m] for p in tag[1]) for m in range(min(len(p) for p in tag[1]))]
            diag = doc["diagonal"]
            ex(i, len(diag) == len(bound) and all(g > b for g, b in zip(diag, bound)),
               "diagonal does not exceed the bound everywhere")
        elif kind == "laver_encode":
            phi = tag[1]
            got = {tuple(e["seq"]): e["val"] for e in doc["phi"]}
            ex(i, got == {s: v for s, v in phi.items() if v}, "laver labelling")
            codes = [O.seq_code(e["seq"]) for e in doc["phi"]]
            ex(i, codes == sorted(codes), "laver entries not in code order")
        elif kind == "laver_eval":
            _, phi, f, n0, n1 = tag
            ex(i, doc == {"witnesses": O.laver_count(phi, f, n0, n1)}, "laver witness count")
        elif kind == "meager_encode":
            _, dense, n_max = tag
            check.extend(i, O.check_meager_encode(_fields(doc), dense, n_max))
        elif kind == "meager_eval":
            _, z, n = tag
            rows = O.meager_rows(param["prefix"], param["rows"], param["horizon"])
            tri(O.meager_answer(rows, z, n, param["horizon"]))
            groups.setdefault(("meager", z), []).append((i, doc.get("result")))
        elif kind == "partition":
            y = tag[1]
            a, want = 0, []
            for v in y:
                want.append([a, a + v + 1])
                a += v + 1
            ex(i, doc == {"intervals": want}, "interval partition")
        elif kind == "fxp":
            _, x, y, z = tag
            a, blocks = 0, []
            for v in y:
                blocks.append((a, a + v + 1))
                a += v + 1
            usable = [(s, e) for s, e in blocks if e <= min(len(x), len(z))]
            want = O.HOLDS if all(x[s:e] != z[s:e] for s, e in usable) else O.FAILS
            tri(want)
        elif kind == "null_encode":
            oracle = check.null_oracle(doc["prefix"], doc["witness"])
            ex(i, len(doc["witness"]) == len(tag[1]), "null witness count")
            ex(i, oracle.guard_transparent(), "budget guard fires on encoder output")
        elif kind in ("null_eval", "null_stage", "null_term"):
            oracle = check.null_oracle(param["prefix"], param["witness"])
            if kind == "null_eval":
                tri(oracle.member(tag[1], tag[2]))
            elif kind == "null_stage":
                check.extend(i, O.check_null_stage(Region.of(doc), oracle, tag[1], tag[2]))
            else:
                check.extend(i, O.check_null_term(Region.of(doc), oracle, tag[1], tag[2], True))
        elif kind == "e_encode":
            ex(i, doc["positions"] == tag[2] + 1 and doc["ideal"] == "e-open", "e encode header")
        elif kind in ("e_term", "e_stage", "e_eval", "e_pack", "e_eval_packed"):
            self._check_e(check, i, tag, doc, param, groups)
        elif kind == "fubini_encode":
            _, variant, rows, dense, n_max = tag
            ex(i, doc["variant"] == variant and doc["ideal"] == f"fubini-{variant}", "fubini header")
            null_doc, meager_doc = (doc["first"], doc["second"]) if variant == "nm" else (doc["second"], doc["first"])
            oracle = check.null_oracle(null_doc["prefix"], null_doc["witness"])
            ex(i, oracle.guard_transparent(), "budget guard fires on encoder output")
            check.extend(i, O.check_meager_encode(_fields(meager_doc), dense, n_max))
        elif kind == "fubini_eval":
            _, y, z, nl, mn = tag
            plane = O.interleave(y, z)
            null_doc, meager_doc = (param["first"], param["second"])
            if param["variant"] == "mn":
                null_doc, meager_doc = meager_doc, null_doc
            oracle = check.null_oracle(null_doc["prefix"], null_doc["witness"])
            rows = O.meager_rows(meager_doc["prefix"], meager_doc["rows"], meager_doc["horizon"])
            if param["variant"] == "nm":
                want = O.tri_or(oracle.member(y, nl), O.meager_answer(rows, plane, mn, meager_doc["horizon"]))
            else:
                want = O.tri_or(O.meager_answer(rows, y, mn, meager_doc["horizon"]), oracle.member(plane, nl))
            tri(want)
            groups.setdefault(("fubini", param["variant"], y, z), []).append((i, doc.get("result")))
        elif kind == "diagnose":
            _, rows, proxy, eps, split = tag
            ex(i, doc.get("flagged") == O.diagnose(rows, proxy, eps, split), "planar diagnostic flags")
            ex(i, doc.get("d") == len(rows).bit_length() - 1, "diagnostic level")
        else:
            ex(i, False, f"no check for {kind}")

    def _check_e(self, check, i, tag, doc, param, groups) -> None:
        kind = tag[0]
        if kind == "e_eval_packed":
            trip = param  # an "e" parameter with one row
            rows, horizon = trip["rows"], trip["horizon"]
            x = [[trip["prefix"][O.pair(0, O.pair(c, n))] for n in range(horizon + 1)] for c in range(3)]
        else:
            horizon = param["positions"] - 1
            x = [[param["prefix"][O.pair(c, n)] for n in range(horizon + 1)] for c in range(3)]
        lib = check.lib
        triple = lib.closed_null.ETripleParam(tuple(x[0]), tuple(x[1]), tuple(x[2]))
        terms = []
        for n in range(horizon + 1):
            region = Region.of(lib.closed_null.e_term(triple, n))
            check.extend(i, O.check_e_term(region, x[0][n], x[1][n], x[2][n], n))
            terms.append(region)
        if kind == "e_term":
            got = Region.of(doc)
            check.expect(i, O.same_set(got, [terms[tag[1]]]), "e term differs from its rows")
            check.extend(i, O.check_e_term(got, x[0][tag[1]], x[1][tag[1]], x[2][tag[1]], tag[1]))
        elif kind == "e_stage":
            got = Region.of(doc)
            check.expect(i, got.measure() >= 1 - Fraction(1, 1 << tag[1]), "E stage not full enough")
            check.expect(i, O.same_set(got, terms[: tag[1] + 1]), "E stage is not the union of its terms")
        elif kind == "e_pack":
            check.expect(i, doc["rows"] == 1 and doc["horizon"] == tag[1] and doc["ideal"] == "e",
                         "e pack header")
        else:
            z, n = tag[-2], tag[-1]
            want = O.e_answer([terms], z, n)
            check.expect(i, doc.get("result") == want, f"e eval answered {doc.get('result')}, oracle says {want}")
            if kind == "e_eval" and not O.meets([tag[1]], z):
                check.expect(i, doc.get("result") == O.HOLDS, "complement word is not HoldsAtStage")
            groups.setdefault(("e", kind, z), []).append((i, doc.get("result")))


WORKLOADS = {cls.name: cls for cls in (NullFresh, NullRepeat, Fsigma, CliChain)}
