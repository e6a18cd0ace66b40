"""Seeded, deterministic property suites behind ``idealis check``.

Each suite re-states the invariants its module promises over seeded
inputs; brute-force oracles are recomputed here rather than imported
from the code paths they check.  A property yields one outcome per case,
true when the case holds: its cases are the outcomes it yields and its
failures are the false ones, so failures never exceed cases.  Every
suite takes its sizes as keyword arguments: the defaults are what
``idealis check`` runs, and the acceptance criteria run the same suites
at larger sizes.  The unit tests import their oracles and generators
from here too.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from .errors import InsufficientPrefix, UnknownSuite
from .space import Clopen, Tri, pair, seq_code, seq_decode, tri_or, unpair
from .enumerations import (
    basic_open,
    basic_open_cantor,
    clopen_enum,
    clopen_rank,
    kcomb_rank,
    kcomb_unrank,
    kprime,
)
from .countable import countable_encode, countable_member
from .meager import (
    MeagerParam,
    dense_open_encode,
    dense_section_stage,
    fxp_eval,
    meager_encode,
    meager_eval,
    partition_from,
)
from .nullset import CoverFamily, NullParam, null_encode_detail, null_member, null_stage, null_term
from .closed_null import (
    EParam,
    ETripleParam,
    e_fsigma_member,
    e_open_encode,
    e_open_stage,
    e_term,
)
from .domination import (
    KsigmaParam,
    dominated_from,
    ksigma_diagonal,
    ksigma_encode,
    laver_encode,
    laver_witnesses,
)
from .fubini import (
    DensityProxy,
    ProductPoint,
    SomewhereDenseProxy,
    deinterleave,
    interleave,
    quantifier_depth,
    quantifier_shape,
    section_diagnostic,
)


def _prop(name, oks):
    """Count a property's case outcomes, draining them before it returns
    so that the next property's draws start where these ended."""
    tally = Counter(map(bool, oks))
    return {"name": name, "cases": tally[True] + tally[False], "failures": tally[False]}


# -- shared seeded generators -------------------------------------------------


def random_clopen(rng, level):
    return Clopen.from_mask(level, rng.randrange(1 << (1 << level)))


def random_null_param(rng, rows, k_hi, entry_bound=256):
    size = 1 + pair(rows - 1, k_hi)
    prefix = tuple(
        rng.randrange(entry_bound) if rng.random() < 0.4 else 0
        for _ in range(size)
    )
    return NullParam(prefix, tuple(max(k_hi, n + 1) for n in range(rows)))


def random_cover_family(rng, depth, max_pieces=8, max_level=10):
    covers = []
    for n in range(depth):
        base_level = min(n + 3, max_level)
        pieces = [Clopen.cylinder("0" * base_level)]
        budget = Fraction(1, 2 ** (n + 1)) - Fraction(1, 2**base_level)
        for _ in range(rng.randrange(max_pieces - 1)):
            lev = rng.randint(min(6, max_level), max_level)
            if Fraction(1, 2**lev) < budget:
                pieces.append(
                    Clopen.cylinder(format(rng.randrange(1 << lev), f"0{lev}b"))
                )
                budget -= Fraction(1, 2**lev)
        covers.append(tuple(pieces))
    return CoverFamily(tuple(covers))


def random_dense_clopen(rng, level, n_max):
    """A clopen set meeting every nonempty basic open set up to n_max."""
    mask = rng.randrange(1 << (1 << level))
    c = Clopen.from_mask(level, mask)
    for n in range(1, n_max + 1):
        base = basic_open_cantor(n)
        if base.level > level:
            raise ValueError("level too shallow for the density horizon")
        lifted = base.mask_at(level)
        inside = [i for i in range(1 << level) if lifted >> i & 1]
        c = c.union(Clopen.from_mask(level, 1 << rng.choice(inside)))
    return c


def random_triple(rng, positions, x0_bound=3, x1_bound=12):
    return ETripleParam(
        tuple(rng.randrange(x0_bound) for _ in range(positions)),
        tuple(rng.randrange(x1_bound) for _ in range(positions)),
        tuple(rng.randrange(10**9) for _ in range(positions)),
    )


def _decided_consistent(answers):
    return len({a for a in answers if a is not Tri.UNKNOWN}) <= 1


# -- suites -------------------------------------------------------------------


def suite_space_algebra(seed):
    rng = random.Random(seed)
    small = [Clopen.from_mask(2, m) for m in range(16)]
    seqs = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [s + (a,) for s in frontier for a in range(8)]
        seqs.extend(frontier)
    return [
        _prop("measure-additivity-exhaustive-level2", (
            a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()
            for a in small
            for b in small
        )),
        _prop("measure-additivity-seeded-level6", (
            a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()
            for _ in range(150)
            for a, b in [(random_clopen(rng, 6), random_clopen(rng, 6))]
        )),
        _prop("complement-involution-and-subset-law", (
            a.subset(b) == a.intersect(b.complement()).is_empty
            and a.complement().complement() == a
            for a in small
            for b in small
        )),
        _prop("sequence-code-round-trip", (seq_decode(seq_code(s)) == s for s in seqs)),
        _prop("pairing-inverse", (
            unpair(pair(m, n)) == (m, n) for m in range(100) for n in range(100)
        )),
        _prop("canonicalize-idempotent", (
            again == c and again.measure() == c.measure()
            for c in (random_clopen(rng, rng.randrange(7)) for _ in range(150))
            for again in [Clopen.from_words(c.level, c.words())]
        )),
    ]


def brute_master_order(n, level_cap):
    """Every canonical clopen set of measure < 2^-n and level at most
    level_cap, in enumeration order, by scanning all masks per level."""
    out = []
    for level in range(1, level_cap + 1):
        nbits = 1 << level
        budget = (1 << (level - n)) - 1 if level > n else 0
        for mask in range(1, 1 << nbits):
            if bin(mask).count("1") > budget:
                continue
            bits = format(mask, f"0{nbits}b")[::-1]
            if bits[0::2] == bits[1::2]:
                continue  # representable one level down
            out.append(Clopen(level, mask))
    return out


def suite_enum_bijection(seed, level_cap=3, n_cap=2, comb_cap=10, rank_enumerated=False):
    """The enumeration draws nothing at random, so `seed` is unused.
    `rank_enumerated` also ranks every enumerated set and checks that
    they are distinct."""

    def master_order():
        for n in range(n_cap + 1):
            oracle = brute_master_order(n, level_cap)
            got = [clopen_enum(n, k) for k in range(1, len(oracle) + 1)]
            yield from (g == o for g, o in zip(got, oracle))
            if rank_enumerated:
                yield from (clopen_rank(n, c) == k for k, c in enumerate(got, start=1))
                yield len(set(got)) == len(got)

    def kprime_subsets():
        for space in ("cantor", "baire"):
            for n in range(1, 6):
                u_n = basic_open(space, n)
                got = [kprime(n, m, space) for m in range(15)]
                yield got == sorted(set(got)) and all(
                    (u_k.subset(u_n) if space == "cantor" else u_n.contains_stem(u_k))
                    and not u_k.is_empty
                    for u_k in (basic_open(space, k) for k in got)
                )

    return [
        _prop("master-order-completeness", master_order()),
        _prop("measure-bound-and-rank-inverse", (
            c.measure() < Fraction(1, 1 << n) and clopen_rank(n, c) == k
            for n in range(4)
            for k in range(300)
            for c in [clopen_enum(n, k)]
        )),
        _prop("kprime-increasing-nonempty-subsets", kprime_subsets()),
        _prop("combinadic-round-trip", (
            kcomb_unrank(n, t, r) == expect and kcomb_rank(n, expect) == r
            for n in range(comb_cap + 1)
            for t in range(n + 1)
            for r, expect in enumerate(itertools.combinations(range(n), t))
        )),
    ]


def suite_meager_density(seed, prefixes=40, encoders=12, entry_bound=40, every_stage=False):
    """`every_stage` checks each prefix's section at every horizon up to
    10, not only at 10."""
    rng = random.Random(seed)
    return [
        _prop("sections-dense-at-stage-unconditionally", (
            all(stage.meets(basic_open_cantor(n)) for n in range(1, horizon + 1))
            for _ in range(prefixes)
            for x in [tuple(rng.randrange(entry_bound) for _ in range(11))]
            for horizon in range(1 if every_stage else 10, 11)
            for stage in [dense_section_stage(x, horizon)]
        )),
        _prop("encoder-subset-law", (
            dense_section_stage(dense_open_encode(w, 7), 7).subset(w)
            for w in (random_dense_clopen(rng, 8, 7) for _ in range(encoders))
        )),
        _prop("complement-lands-in-meager-section", (
            meager_eval(p, word, 1, 5) is Tri.HOLDS
            for w1 in (random_dense_clopen(rng, 6, 5) for _ in range(encoders))
            for p in [meager_encode([w1], 5)]
            for word in w1.complement().words()[:4]
        )),
    ]


def brute_fxp(x, partition, z, from_block):
    """Literal per-block comparison over the complete blocks from
    `from_block` on; None when the window holds no such block."""
    avail = min(len(x), len(z))
    answers = []
    for i, (a, b) in enumerate(partition.intervals):
        if i < from_block or b > avail:
            continue
        answers.append(x[a:b] != z[a:b])
    if not answers:
        return None
    return Tri.HOLDS if all(answers) else Tri.FAILS


def _fxp_agrees(x, partition, z, from_block):
    # with no complete block in the window the evaluator must refuse
    expect = brute_fxp(x, partition, z, from_block)
    try:
        return fxp_eval(x, partition, z, from_block) is expect
    except InsufficientPrefix:
        return expect is None


def suite_fxp_oracle(seed, widths=3, blocks=2, exhaustive_len=4, class_lens=(5, 6)):
    """Partitions have 1 to `blocks` blocks, each of width 1 to `widths`.

    Pairs are swept exhaustively where a partition covers at most
    `exhaustive_len` bits.  At each length in `class_lens`, every
    difference pattern is checked on every sixth partition whose first
    block fits, from its first and its last block.
    """
    rng = random.Random(seed)
    partitions = [
        partition_from(y)
        for length in range(1, blocks + 1)
        for y in itertools.product(range(widths), repeat=length)
    ]

    # both sides depend on the prefixes only through their difference
    # pattern, so covering every pattern with seeded representatives is
    # exhaustive over behaviours
    def difference_classes():
        for length in class_lens:
            usable = [p for p in partitions if p.intervals[0][1] <= length][::6]
            for dv in range(1 << length):
                xv = rng.randrange(1 << length)
                x = format(xv, f"0{length}b")
                z = format(xv ^ dv, f"0{length}b")
                yield from (
                    _fxp_agrees(x, p, z, fb)
                    for p in usable
                    for fb in (0, len(p.intervals) - 1)
                )

    return [
        _prop("oracle-equivalence-exhaustive", (
            _fxp_agrees(x, p, z, fb)
            for p in partitions
            if p.covered <= exhaustive_len
            for words in [[format(v, f"0{p.covered}b") for v in range(1 << p.covered)]]
            for x in words
            for z in words
            for fb in range(len(p.intervals))
        )),
        _prop("oracle-equivalence-difference-classes", difference_classes()),
    ]


def suite_null_guard(seed, params=40, rows=9, k_hi=32, inner_bounds=()):
    """Each row's stage is checked at `k_hi` and at each of `inner_bounds`;
    a bound below the row's first term n + 1 reads as n + 1."""
    rng = random.Random(seed)
    return [_prop("stage-measure-strictly-below-budget", (
        null_stage(f, n, max(k, n + 1)).measure() < Fraction(1, 1 << n)
        for f in (random_null_param(rng, rows, k_hi) for _ in range(params))
        for n in range(rows)
        for k in (k_hi, *inner_bounds)
    ))]


def suite_null_encoder(seed, families=8, depth_cap=5, every_stage=False):
    """`every_stage` checks the covered point at every stage, not only at
    the family's last."""
    rng = random.Random(seed)
    tails, blocks, guards, covers = [], [], [], []
    for _ in range(families):
        depth = rng.randint(1, depth_cap)
        fam = random_cover_family(rng, depth)
        enc = null_encode_detail(fam)
        f = enc.param

        suffix = [Fraction(0)] * (len(enc.flat) + 1)
        for i in range(len(enc.flat) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + enc.flat[i].measure()
        for n in range(depth):
            cut = enc.cuts[n + 1]
            tail = suffix[cut] if cut < len(suffix) else Fraction(0)
            tails.append(tail < Fraction(1, 2 ** (n + 1)))
        for m in range(depth):
            block = Clopen.empty()
            for piece in enc.flat[enc.cuts[m] : enc.cuts[m + 1]]:
                block = block.union(piece)
            blocks.append(block.measure() < Fraction(1, 2**m))
        for n in range(depth):
            k_hi = f.witness[n]
            raw = [clopen_enum(n, f.cell(n, k)) for k in range(n + 1, k_hi + 1)]
            guarded = [null_term(f, n, k) for k in range(n + 1, k_hi + 1)]
            guards.append(raw == guarded)
        covers += (
            null_member(f, "0" * 10, n) is Tri.HOLDS
            for n in range(0 if every_stage else depth - 1, depth)
        )
    return [
        _prop("tail-sum-bound", tails),
        _prop("block-measure-bound", blocks),
        _prop("guard-identity-on-encoder-output", guards),
        _prop("covered-point-membership", covers),
    ]


def _term_cardinality_holds(p, n, term):
    m = p.x0[n] + n
    lvl = max(p.x1[n], m)
    expect = (1 << lvl) - (1 << (lvl - m)) if m else 0
    return term.mask_at(lvl).bit_count() == expect


def suite_e_fullness(seed, params=30, n_max=6, encoders=10, x1_bound=12, every_stage=False):
    """`every_stage` checks the stage union at every stage and the term
    law at every position of the same parameters, and zeroes x1 on every
    other one so that the lifted-level branch is reached."""
    rng = random.Random(seed)
    fulls, terms = [], []
    for i in range(params):
        p = random_triple(rng, n_max + 1, x1_bound=x1_bound)
        if every_stage and i % 2:
            p = ETripleParam(p.x0, (0,) * p.positions, p.x2)
        for n in range(0 if every_stage else n_max, n_max + 1):
            fulls.append(e_open_stage(p, n).measure() >= 1 - Fraction(1, 1 << n))
            if every_stage:
                terms.append(_term_cardinality_holds(p, n, e_term(p, n)))
    return [
        _prop("stage-fullness-unconditional", fulls),
        _prop("term-cardinality-law", itertools.chain(terms, (
            _term_cardinality_holds(p, n, e_term(p, n))
            for n in (rng.randrange(n_max + 1) for _ in range(params))
            for p in [random_triple(rng, n + 1, x1_bound=x1_bound)]
        ))),
        _prop("encoder-subset-law", (
            e_open_stage(e_open_encode(v, lvl - 1), lvl - 1).subset(v)
            for lvl in (rng.randint(4, 7) for _ in range(encoders))
            for v in [Clopen.cylinder(format(rng.randrange(1 << lvl), f"0{lvl}b")).complement()]
        )),
    ]


def brute_witnesses(phi, f, n0, n1):
    """Literal count of the positions n in [n0, n1) with f(n) below the
    label phi gives f's first n entries (0 where phi is silent)."""
    return sum(1 for n in range(n0, n1) if f[n] < phi.get(tuple(f[:n]), 0))


def suite_domination(
    seed,
    bounds=30,
    maps=5,
    alphabet=3,
    length=5,
    labelled=25,
    windows=((0, 5), (1, 3), (2, 5)),
):
    """Each of `maps` labellings gives values below `alphabet` to
    `labelled` sequences shorter than `length` (or, for a pair (lo, hi),
    to a random number of them from lo to hi); every f in
    alphabet^length is counted over every window."""
    rng = random.Random(seed)
    universe = [()]
    for size in range(1, length):
        universe += list(itertools.product(range(alphabet), repeat=size))
    points = list(itertools.product(range(alphabet), repeat=length))

    def witness_counts():
        for _ in range(maps):
            size = labelled if isinstance(labelled, int) else rng.randint(*labelled)
            phi = {s: rng.randrange(alphabet) for s in rng.sample(universe, size)}
            p = laver_encode(phi)
            yield from (
                laver_witnesses(p, f, n0, n1) == brute_witnesses(phi, f, n0, n1)
                for f in points
                for n0, n1 in windows
            )

    zero = laver_encode({})
    return [
        _prop("diagonal-escapes-every-stage", (
            not any(dominated_from(y, g, n) for n in range(11))
            for _ in range(bounds)
            for y in [KsigmaParam(tuple(rng.randrange(9) for _ in range(12)))]
            for g in [ksigma_diagonal(y)]
        )),
        _prop("bound-dominates-inputs", (
            all(dominated_from(y, p, 0) for p in pts)
            for pts in (
                [tuple(rng.randrange(10) for _ in range(10)) for _ in range(rng.randint(1, 5))]
                for _ in range(bounds)
            )
            for y in [ksigma_encode(pts)]
        )),
        _prop("witness-count-oracle", witness_counts()),
        _prop("zero-labelling-never-witnesses", (
            laver_witnesses(zero, f, 0, length) == 0 for f in points
        )),
    ]


def suite_tri_monotone(seed, per_module=30, null_rows=6, null_k_hi=16, null_z_bits=4):
    """Each sweep draws `per_module` cases; a case holds when the answers
    at its stages never decide both ways."""
    rng = random.Random(seed)

    def countable():
        depth = rng.randint(2, 6)
        pts = [tuple(rng.randrange(4) for _ in range(depth)) for _ in range(rng.randint(0, 5))]
        y = countable_encode(pts, depth)
        x = tuple(rng.randrange(4) for _ in range(depth))
        return (
            countable_member(y, x, rows, d)
            for rows in range(len(pts) + 2)
            for d in range(1, depth + 1)
        )

    def meager():
        horizon = rng.randint(2, 6)
        rows = rng.randint(1, 3)
        size = 1 + max(pair(r, n) for r in range(rows) for n in range(horizon + 1))
        p = MeagerParam(tuple(rng.randrange(12) for _ in range(size)), rows, horizon)
        z = format(rng.randrange(16), "04b")
        return (meager_eval(p, z, rows, n) for n in range(1, horizon + 1))

    def null():
        f = random_null_param(rng, null_rows, null_k_hi)
        z = format(rng.randrange(1 << null_z_bits), f"0{null_z_bits}b")
        return (null_member(f, z, n) for n in range(null_rows))

    def e():
        horizon = rng.randint(1, 5)
        triples = [random_triple(rng, horizon + 1) for _ in range(rng.randint(1, 2))]
        p = EParam.from_triples(triples, horizon)
        z = format(rng.randrange(32), "05b")
        return (e_fsigma_member(p, z, p.rows, n) for n in range(horizon + 1))

    return [
        _prop(f"{name}-stage-sweep", (_decided_consistent(sweep()) for _ in range(per_module)))
        for name, sweep in (("countable", countable), ("meager", meager), ("null", null), ("e", e))
    ]


def suite_fubini(seed):
    rng = random.Random(seed)
    refines = lambda s, t: s is t or s is Tri.UNKNOWN
    w = 1 << 3
    diag = ["0" * i + "1" + "0" * (w - 1 - i) for i in range(w)]
    full = ["1" * w] * w
    every = (1 << w) - 1
    return [
        _prop("interleave-round-trip", (
            deinterleave(interleave(pt)) == pt
            for n in (rng.randrange(11) for _ in range(60))
            for pt in [ProductPoint(
                "".join(rng.choice("01") for _ in range(n)),
                "".join(rng.choice("01") for _ in range(n)),
            )]
        )),
        _prop("composition-table", (
            tri_or(a, b)
            is (
                Tri.HOLDS
                if Tri.HOLDS in (a, b)
                else Tri.FAILS
                if (a, b) == (Tri.FAILS, Tri.FAILS)
                else Tri.UNKNOWN
            )
            for a, b in itertools.product(Tri, repeat=2)
        )),
        _prop("composition-monotone", (
            not (refines(a, a2) and refines(b, b2))
            or refines(tri_or(a, b), tri_or(a2, b2))
            for a, b, a2, b2 in itertools.product(Tri, repeat=4)
        )),
        _prop("quantifier-shape-depth-three", (
            quantifier_depth(shape) == 3
            and shape[0] == "union"
            and all(quantifier_depth(child) == 2 for child in shape[1:])
            for shape in map(quantifier_shape, ("nm", "mn"))
        )),
        _prop("diagnostic-examples", (
            section_diagnostic(full, DensityProxy(1, 1)) == every,
            section_diagnostic(diag, DensityProxy(1, 1)) == 0,
            section_diagnostic(full, SomewhereDenseProxy(2)) == every,
        )),
    ]


SUITES = {
    "space-algebra": suite_space_algebra,
    "enum-bijection": suite_enum_bijection,
    "meager-density": suite_meager_density,
    "fxp-oracle": suite_fxp_oracle,
    "null-guard": suite_null_guard,
    "null-encoder": suite_null_encoder,
    "e-fullness": suite_e_fullness,
    "domination": suite_domination,
    "tri-monotone": suite_tri_monotone,
    "fubini": suite_fubini,
}


def run_suite(name: str, seed: int) -> dict:
    """Run one named suite (or "all") and report per-property counts.

    The run passes when every property ran at least one case and none
    failed: a property with no cases checked nothing.
    """
    if name == "all":
        properties = []
        for suite_name in SUITES:
            for p in SUITES[suite_name](seed):
                properties.append({**p, "name": f"{suite_name}/{p['name']}"})
    elif name in SUITES:
        properties = SUITES[name](seed)
    else:
        raise UnknownSuite(name)
    return {
        "suite": name,
        "seed": seed,
        "properties": properties,
        "pass": all(p["failures"] == 0 and p["cases"] > 0 for p in properties),
    }
