"""Seeded, deterministic property suites behind ``idealis check``.

Each suite re-states the invariants its module promises and counts
violations over seeded inputs; brute-force oracles are recomputed here
rather than imported from the code paths they check.  Every suite takes
its sizes as keyword arguments: the defaults are what ``idealis check``
runs, and the acceptance criteria run the same suites at larger sizes.
The unit tests import their oracles and generators from here too.
"""

from __future__ import annotations

import itertools
import random
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


def _prop(name, cases, failures):
    return {"name": name, "cases": cases, "failures": failures}


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
    props = []

    small = [Clopen.from_mask(2, m) for m in range(16)]
    bad = sum(
        1
        for a in small
        for b in small
        if a.union(b).measure() + a.intersect(b).measure()
        != a.measure() + b.measure()
    )
    props.append(_prop("measure-additivity-exhaustive-level2", len(small) ** 2, bad))

    bad = 0
    for _ in range(150):
        a, b = random_clopen(rng, 6), random_clopen(rng, 6)
        lhs = a.union(b).measure() + a.intersect(b).measure()
        if lhs != a.measure() + b.measure():
            bad += 1
    props.append(_prop("measure-additivity-seeded-level6", 150, bad))

    bad = sum(
        1
        for a in small
        for b in small
        if a.subset(b) != a.intersect(b.complement()).is_empty
        or a.complement().complement() != a
    )
    props.append(_prop("complement-involution-and-subset-law", len(small) ** 2, bad))

    seqs = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [s + (a,) for s in frontier for a in range(8)]
        seqs.extend(frontier)
    bad = sum(1 for s in seqs if seq_decode(seq_code(s)) != s)
    props.append(_prop("sequence-code-round-trip", len(seqs), bad))

    bad = sum(
        1 for m in range(100) for n in range(100) if unpair(pair(m, n)) != (m, n)
    )
    props.append(_prop("pairing-inverse", 100 * 100, bad))

    bad = 0
    for _ in range(150):
        c = random_clopen(rng, rng.randrange(7))
        again = Clopen.from_words(c.level, c.words())
        if again != c or again.measure() != c.measure():
            bad += 1
    props.append(_prop("canonicalize-idempotent", 150, bad))
    return props


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
    props = []

    bad = cases = 0
    for n in range(n_cap + 1):
        oracle = brute_master_order(n, level_cap)
        got = [clopen_enum(n, k) for k in range(1, len(oracle) + 1)]
        cases += len(oracle)
        bad += sum(1 for g, o in zip(got, oracle) if g != o)
        if rank_enumerated:
            cases += len(got) + 1
            bad += sum(1 for k, c in enumerate(got, start=1) if clopen_rank(n, c) != k)
            bad += len(set(got)) != len(got)
    props.append(_prop("master-order-completeness", cases, bad))

    bad = cases = 0
    for n in range(4):
        bound = Fraction(1, 1 << n)
        for k in range(300):
            cases += 1
            c = clopen_enum(n, k)
            if not c.measure() < bound or clopen_rank(n, c) != k:
                bad += 1
    props.append(_prop("measure-bound-and-rank-inverse", cases, bad))

    bad = cases = 0
    for space in ("cantor", "baire"):
        for n in range(1, 6):
            u_n = basic_open(space, n)
            got = [kprime(n, m, space) for m in range(15)]
            cases += 1
            if got != sorted(set(got)):
                bad += 1
                continue
            for k in got:
                u_k = basic_open(space, k)
                ok = (
                    u_k.subset(u_n) and not u_k.is_empty
                    if space == "cantor"
                    else u_n.contains_stem(u_k) and not u_k.is_empty
                )
                if not ok:
                    bad += 1
    props.append(_prop("kprime-increasing-nonempty-subsets", cases, bad))

    bad = cases = 0
    for n in range(comb_cap + 1):
        for t in range(n + 1):
            oracle = list(itertools.combinations(range(n), t))
            for r, expect in enumerate(oracle):
                cases += 1
                if kcomb_unrank(n, t, r) != expect or kcomb_rank(n, expect) != r:
                    bad += 1
    props.append(_prop("combinadic-round-trip", cases, bad))
    return props


def suite_meager_density(seed, prefixes=40, encoders=12, entry_bound=40, every_stage=False):
    """`every_stage` checks each prefix's section at every horizon up to
    10, not only at 10."""
    rng = random.Random(seed)
    props = []

    bad = cases = 0
    for _ in range(prefixes):
        x = tuple(rng.randrange(entry_bound) for _ in range(11))
        for horizon in range(1 if every_stage else 10, 11):
            stage = dense_section_stage(x, horizon)
            cases += 1
            if any(not stage.meets(basic_open_cantor(n)) for n in range(1, horizon + 1)):
                bad += 1
    props.append(_prop("sections-dense-at-stage-unconditionally", cases, bad))

    bad = 0
    for _ in range(encoders):
        w = random_dense_clopen(rng, 8, 7)
        x = dense_open_encode(w, 7)
        if not dense_section_stage(x, 7).subset(w):
            bad += 1
    props.append(_prop("encoder-subset-law", encoders, bad))

    bad = cases = 0
    for _ in range(encoders):
        w1 = random_dense_clopen(rng, 6, 5)
        p = meager_encode([w1], 5)
        outside = w1.complement()
        for word in outside.words()[:4]:
            cases += 1
            if meager_eval(p, word, 1, 5) is not Tri.HOLDS:
                bad += 1
    props.append(_prop("complement-lands-in-meager-section", cases, bad))
    return props


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
    props = []

    partitions = [
        partition_from(y)
        for length in range(1, blocks + 1)
        for y in itertools.product(range(widths), repeat=length)
    ]
    bad = cases = 0
    for p in partitions:
        cov = p.covered
        if cov > exhaustive_len:
            continue
        for xv in range(1 << cov):
            x = format(xv, f"0{cov}b")
            for zv in range(1 << cov):
                z = format(zv, f"0{cov}b")
                for fb in range(len(p.intervals)):
                    cases += 1
                    if not _fxp_agrees(x, p, z, fb):
                        bad += 1
    props.append(_prop("oracle-equivalence-exhaustive", cases, bad))

    # both sides depend on the prefixes only through their difference
    # pattern, so covering every pattern with seeded representatives is
    # exhaustive over behaviours
    bad = cases = 0
    for length in class_lens:
        usable = [p for p in partitions if p.intervals[0][1] <= length][::6]
        for dv in range(1 << length):
            xv = rng.randrange(1 << length)
            x = format(xv, f"0{length}b")
            z = format(xv ^ dv, f"0{length}b")
            for p in usable:
                for fb in (0, len(p.intervals) - 1):
                    cases += 1
                    if not _fxp_agrees(x, p, z, fb):
                        bad += 1
    props.append(_prop("oracle-equivalence-difference-classes", cases, bad))
    return props


def suite_null_guard(seed, params=40, rows=9, k_hi=32, inner_bounds=()):
    """Each row's stage is checked at `k_hi` and at each of `inner_bounds`;
    a bound below the row's first term n + 1 reads as n + 1."""
    rng = random.Random(seed)
    bad = cases = 0
    for _ in range(params):
        f = random_null_param(rng, rows, k_hi)
        for n in range(rows):
            for k in (k_hi, *inner_bounds):
                stage = null_stage(f, n, max(k, n + 1))
                cases += 1
                if not stage.measure() < Fraction(1, 1 << n):
                    bad += 1
    return [_prop("stage-measure-strictly-below-budget", cases, bad)]


def suite_null_encoder(seed, families=8, depth_cap=5, every_stage=False):
    """`every_stage` checks the covered point at every stage, not only at
    the family's last."""
    rng = random.Random(seed)
    props = []
    tail_bad = block_bad = guard_bad = cover_bad = 0
    tail_cases = block_cases = guard_cases = cover_cases = 0
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
            tail_cases += 1
            if not tail < Fraction(1, 2 ** (n + 1)):
                tail_bad += 1
        for m in range(depth):
            block = Clopen.empty()
            for piece in enc.flat[enc.cuts[m] : enc.cuts[m + 1]]:
                block = block.union(piece)
            block_cases += 1
            if not block.measure() < Fraction(1, 2**m):
                block_bad += 1
        for n in range(depth):
            k_hi = f.witness[n]
            raw = [clopen_enum(n, f.cell(n, k)) for k in range(n + 1, k_hi + 1)]
            guarded = [null_term(f, n, k) for k in range(n + 1, k_hi + 1)]
            guard_cases += 1
            if raw != guarded:
                guard_bad += 1
        for n in range(0 if every_stage else depth - 1, depth):
            cover_cases += 1
            if null_member(f, "0" * 10, n) is not Tri.HOLDS:
                cover_bad += 1
    props.append(_prop("tail-sum-bound", tail_cases, tail_bad))
    props.append(_prop("block-measure-bound", block_cases, block_bad))
    props.append(_prop("guard-identity-on-encoder-output", guard_cases, guard_bad))
    props.append(_prop("covered-point-membership", cover_cases, cover_bad))
    return props


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
    props = []

    full_bad = full_cases = term_bad = term_cases = 0
    for i in range(params):
        p = random_triple(rng, n_max + 1, x1_bound=x1_bound)
        if every_stage and i % 2:
            p = ETripleParam(p.x0, (0,) * p.positions, p.x2)
        for n in range(0 if every_stage else n_max, n_max + 1):
            full_cases += 1
            if not e_open_stage(p, n).measure() >= 1 - Fraction(1, 1 << n):
                full_bad += 1
            if every_stage:
                term_cases += 1
                if not _term_cardinality_holds(p, n, e_term(p, n)):
                    term_bad += 1
    props.append(_prop("stage-fullness-unconditional", full_cases, full_bad))

    for _ in range(params):
        n = rng.randrange(n_max + 1)
        p = random_triple(rng, n + 1, x1_bound=x1_bound)
        term_cases += 1
        if not _term_cardinality_holds(p, n, e_term(p, n)):
            term_bad += 1
    props.append(_prop("term-cardinality-law", term_cases, term_bad))

    bad = 0
    for _ in range(encoders):
        lvl = rng.randint(4, 7)
        v = Clopen.cylinder(format(rng.randrange(1 << lvl), f"0{lvl}b")).complement()
        p = e_open_encode(v, lvl - 1)
        if not e_open_stage(p, lvl - 1).subset(v):
            bad += 1
    props.append(_prop("encoder-subset-law", encoders, bad))
    return props


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
    props = []

    bad = 0
    for _ in range(bounds):
        y = KsigmaParam(tuple(rng.randrange(9) for _ in range(12)))
        g = ksigma_diagonal(y)
        if any(dominated_from(y, g, n) for n in range(11)):
            bad += 1
    props.append(_prop("diagonal-escapes-every-stage", bounds, bad))

    bad = 0
    for _ in range(bounds):
        pts = [tuple(rng.randrange(10) for _ in range(10)) for _ in range(rng.randint(1, 5))]
        y = ksigma_encode(pts)
        if any(not dominated_from(y, p, 0) for p in pts):
            bad += 1
    props.append(_prop("bound-dominates-inputs", bounds, bad))

    universe = [()]
    for size in range(1, length):
        universe += list(itertools.product(range(alphabet), repeat=size))
    points = list(itertools.product(range(alphabet), repeat=length))
    bad = cases = 0
    for _ in range(maps):
        size = labelled if isinstance(labelled, int) else rng.randint(*labelled)
        phi = {s: rng.randrange(alphabet) for s in rng.sample(universe, size)}
        p = laver_encode(phi)
        for f in points:
            for n0, n1 in windows:
                cases += 1
                if laver_witnesses(p, f, n0, n1) != brute_witnesses(phi, f, n0, n1):
                    bad += 1
    props.append(_prop("witness-count-oracle", cases, bad))

    zero = laver_encode({})
    bad = sum(1 for f in points if laver_witnesses(zero, f, 0, length) != 0)
    props.append(_prop("zero-labelling-never-witnesses", len(points), bad))
    return props


def suite_tri_monotone(seed, per_module=30, null_rows=6, null_k_hi=16, null_z_bits=4):
    rng = random.Random(seed)
    props = []

    bad = 0
    for _ in range(per_module):
        depth = rng.randint(2, 6)
        pts = [tuple(rng.randrange(4) for _ in range(depth)) for _ in range(rng.randint(0, 5))]
        y = countable_encode(pts, depth)
        x = tuple(rng.randrange(4) for _ in range(depth))
        answers = [
            countable_member(y, x, rows, d)
            for rows in range(len(pts) + 2)
            for d in range(1, depth + 1)
        ]
        if not _decided_consistent(answers):
            bad += 1
    props.append(_prop("countable-stage-sweep", per_module, bad))

    bad = 0
    for _ in range(per_module):
        horizon = rng.randint(2, 6)
        rows = rng.randint(1, 3)
        size = 1 + max(pair(r, n) for r in range(rows) for n in range(horizon + 1))
        p = MeagerParam(tuple(rng.randrange(12) for _ in range(size)), rows, horizon)
        z = format(rng.randrange(16), "04b")
        answers = [meager_eval(p, z, rows, n) for n in range(1, horizon + 1)]
        if not _decided_consistent(answers):
            bad += 1
    props.append(_prop("meager-stage-sweep", per_module, bad))

    bad = 0
    for _ in range(per_module):
        f = random_null_param(rng, null_rows, null_k_hi)
        z = format(rng.randrange(1 << null_z_bits), f"0{null_z_bits}b")
        answers = [null_member(f, z, n) for n in range(null_rows)]
        if not _decided_consistent(answers):
            bad += 1
    props.append(_prop("null-stage-sweep", per_module, bad))

    bad = 0
    for _ in range(per_module):
        horizon = rng.randint(1, 5)
        triples = [random_triple(rng, horizon + 1) for _ in range(rng.randint(1, 2))]
        p = EParam.from_triples(triples, horizon)
        z = format(rng.randrange(32), "05b")
        answers = [e_fsigma_member(p, z, p.rows, n) for n in range(horizon + 1)]
        if not _decided_consistent(answers):
            bad += 1
    props.append(_prop("e-stage-sweep", per_module, bad))
    return props


def suite_fubini(seed):
    rng = random.Random(seed)
    props = []

    bad = 0
    for _ in range(60):
        n = rng.randrange(11)
        y = "".join(rng.choice("01") for _ in range(n))
        z = "".join(rng.choice("01") for _ in range(n))
        if deinterleave(interleave(ProductPoint(y, z))) != ProductPoint(y, z):
            bad += 1
    props.append(_prop("interleave-round-trip", 60, bad))

    bad = 0
    for a, b in itertools.product(Tri, repeat=2):
        expect = (
            Tri.HOLDS
            if Tri.HOLDS in (a, b)
            else Tri.FAILS
            if (a, b) == (Tri.FAILS, Tri.FAILS)
            else Tri.UNKNOWN
        )
        if tri_or(a, b) is not expect:
            bad += 1
    props.append(_prop("composition-table", 9, bad))

    refines = lambda s, t: s is t or s is Tri.UNKNOWN
    bad = 0
    for a, b, a2, b2 in itertools.product(Tri, repeat=4):
        if refines(a, a2) and refines(b, b2):
            if not refines(tri_or(a, b), tri_or(a2, b2)):
                bad += 1
    props.append(_prop("composition-monotone", 81, bad))

    bad = 0
    for variant in ("nm", "mn"):
        shape = quantifier_shape(variant)
        if quantifier_depth(shape) != 3 or shape[0] != "union":
            bad += 1
        if any(quantifier_depth(child) != 2 for child in shape[1:]):
            bad += 1
    props.append(_prop("quantifier-shape-depth-three", 2, bad))

    d = 3
    diag = []
    for i in range(1 << d):
        row = ["0"] * (1 << d)
        row[i] = "1"
        diag.append("".join(row))
    full = ["1" * (1 << d)] * (1 << d)
    ok = (
        section_diagnostic(full, DensityProxy(1, 1)) == (1 << (1 << d)) - 1
        and section_diagnostic(diag, DensityProxy(1, 1)) == 0
        and section_diagnostic(full, SomewhereDenseProxy(2)) == (1 << (1 << d)) - 1
    )
    props.append(_prop("diagnostic-examples", 3, 0 if ok else 1))
    return props


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
