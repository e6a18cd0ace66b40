"""Independent checks of idealis outputs.

Nothing here calls the code path it checks.  Sets of Cantor space are read
from their ``{"level", "words"}`` form and handled as integer word masks
built here; measures are Fractions; codes, basic-open indices, ``kprime``
and combinadic subsets are recomputed by brute force or by the textbook
formula.  Where a check needs a lower layer's output (a null row needs the
clopen sets its cells name), that output is itself checked against its own
definition first.

Every check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

HOLDS = "HoldsAtStage"
FAILS = "FailsAtStage"
UNKNOWN = "InsufficientData"


# -- codes ----------------------------------------------------------------


def pair(m: int, n: int) -> int:
    s = m + n
    return s * (s + 1) // 2 + n


def unpair(k: int) -> tuple[int, int]:
    s = (isqrt(8 * k + 1) - 1) // 2
    while (s + 1) * (s + 2) // 2 <= k:
        s += 1
    n = k - s * (s + 1) // 2
    return s - n, n


def seq_code(seq) -> int:
    code = 0
    for a in seq:
        code = pair(code, a) + 1
    return code


def seq_decode(k: int) -> tuple:
    out = []
    while k:
        k, a = unpair(k - 1)
        out.append(a)
    return tuple(reversed(out))


def tri_or(a: str, b: str) -> str:
    if HOLDS in (a, b):
        return HOLDS
    if a == FAILS and b == FAILS:
        return FAILS
    return UNKNOWN


# -- clopen sets as word masks ----------------------------------------------


class Region:
    """A finite union of same-level cylinders, read from its word list."""

    __slots__ = ("level", "words", "index")

    def __init__(self, level: int, words):
        self.level = int(level)
        self.words = tuple(words)
        self.index = [int(w, 2) if w else 0 for w in self.words]

    @staticmethod
    def of(value) -> "Region":
        doc = value if isinstance(value, dict) else value.to_json()
        return Region(doc["level"], doc["words"])

    @staticmethod
    def cylinder(word: str) -> "Region":
        return Region(len(word), [word])

    def problems(self) -> list[str]:
        """Well-formed and canonical: sorted distinct 0/1 words of one
        length, not all sibling pairs agreeing."""
        out = []
        lv = self.level
        if any(len(w) != lv or set(w) - {"0", "1"} for w in self.words):
            out.append(f"bad words for level {lv}: {self.words[:4]}")
        if list(self.words) != sorted(set(self.words)):
            out.append("words not sorted and distinct")
        if lv > 0:
            present = set(self.index)
            if all((2 * u in present) == (2 * u + 1 in present) for u in range(1 << (lv - 1))):
                out.append(f"non-canonical set at level {lv}")
        return out

    def measure(self) -> Fraction:
        return Fraction(len(self.words), 1 << self.level)

    def mask(self, level: int) -> int:
        """Word mask at a level at least as deep as this set's own."""
        d = level - self.level
        block = (1 << (1 << d)) - 1
        out = 0
        for i in self.index:
            out |= block << (i << d)
        return out


EMPTY = Region(0, [])


def union_mask(regions, level: int) -> int:
    out = 0
    for r in regions:
        out |= r.mask(level)
    return out


def _level_for(z: str, regions) -> int:
    return max([len(z)] + [r.level for r in regions])


def covers(regions, z: str) -> bool:
    """Is the cylinder of z inside the union of the regions?"""
    lv = _level_for(z, regions)
    cyl = Region.cylinder(z).mask(lv)
    return cyl & ~union_mask(regions, lv) == 0


def meets(regions, z: str) -> bool:
    lv = _level_for(z, regions)
    return Region.cylinder(z).mask(lv) & union_mask(regions, lv) != 0


def same_set(a: Region, b_regions) -> bool:
    lv = max([a.level] + [r.level for r in b_regions])
    return a.mask(lv) == union_mask(b_regions, lv)


def inside(regions, outer: Region) -> bool:
    lv = max([outer.level] + [r.level for r in regions])
    return union_mask(regions, lv) & ~outer.mask(lv) == 0


# -- master clopen enumeration -----------------------------------------------


class MasterList:
    """The enumeration of canonical clopen sets of measure < 2^-n, listed
    by brute force through level 4: ascending level, then ascending word
    mask."""

    def __init__(self, top_level: int = 4):
        self.top = top_level
        self._lists: dict[int, list] = {}

    def listing(self, n: int) -> list:
        if n not in self._lists:
            out = []
            for level in range(1, self.top + 1):
                nbits = 1 << level
                even = int("01" * (nbits // 2), 2)
                for mask in range(1, 1 << nbits):
                    if bin(mask).count("1") << n >= nbits:
                        continue
                    if (mask ^ (mask >> 1)) & even == 0:
                        continue  # sibling pairs all agree: lives lower
                    out.append((level, mask))
            self._lists[n] = out
        return self._lists[n]

    def check(self, n: int, k: int, got: Region, rank) -> list[str]:
        """clopen_enum(n, k) = got; `rank` is the library's clopen_rank
        applied to the same value, for the round trip."""
        out = got.problems()
        if not got.measure() < Fraction(1, 1 << n):
            out.append(f"clopen_enum({n},{k}) measure {got.measure()} not below 2^-{n}")
        if k == 0:
            if got.words:
                out.append("clopen_enum index 0 is not the empty set")
            return out
        if rank != k:
            out.append(f"clopen_rank(clopen_enum({n},{k})) = {rank}")
        listing = self.listing(n)
        if k <= len(listing):
            level, mask = listing[k - 1]
            if got.level != level or got.mask(level) != mask:
                out.append(f"clopen_enum({n},{k}) differs from the brute-force list")
        elif got.level <= self.top:
            out.append(f"clopen_enum({n},{k}) at level {got.level} is past the brute-force list")
        return out


# -- null sections ----------------------------------------------------------


class NullOracle:
    """Budget-guard recomputation for one null parameter.

    Row n reads its cells left to right from k = n + 1, keeping a term only
    while the running total stays below 2^-n (Fractions throughout).  The
    raw terms come from the library's clopen_enum, checked separately.
    """

    def __init__(self, prefix, witness, enum_region):
        self.prefix = tuple(prefix)
        self.witness = tuple(witness)
        self.enum_region = enum_region
        self._rows: dict[int, tuple] = {}

    def cell(self, n: int, k: int) -> int:
        return self.prefix[pair(n, k)]

    def scan(self, n: int, k_hi: int):
        """(raw terms, kept terms, accepted total) for k = n+1 .. k_hi."""
        have = self._rows.get(n)
        if have is None or len(have[0]) < k_hi - n:
            budget = Fraction(1, 1 << n)
            raw, kept, totals, total = [], [], [], Fraction(0)
            for k in range(n + 1, k_hi + 1):
                term = self.enum_region(n, self.cell(n, k))
                raw.append(term)
                if total + term.measure() < budget:
                    total += term.measure()
                    kept.append(term)
                else:
                    kept.append(EMPTY)
                totals.append(total)
            have = self._rows[n] = (raw, kept, totals)
        raw, kept, totals = have
        m = k_hi - n
        return raw[:m], kept[:m], totals[m - 1] if m else Fraction(0)

    def term(self, n: int, k: int) -> Region:
        return self.scan(n, k)[1][-1]

    def stage(self, n: int, k_hi: int) -> list:
        return self.scan(n, k_hi)[1]

    def member(self, z: str, n_levels: int) -> str:
        rows = [self.scan(n, k_hi) for n, k_hi in enumerate(self.witness)]
        if all(covers(kept, z) for _, kept, _ in rows):
            return HOLDS
        cyl = Fraction(1, 1 << len(z))
        for n in range(n_levels + 1):
            _, kept, total = rows[n]
            if not meets(kept, z) and Fraction(1, 1 << n) - total <= cyl:
                return FAILS
        return UNKNOWN

    def guard_transparent(self) -> bool:
        """Encoder output: the guard keeps every term it reads."""
        for n, k_hi in enumerate(self.witness):
            raw, kept, _ = self.scan(n, k_hi)
            if any(r is not k for r, k in zip(raw, kept)):
                return False
        return True


def check_null_stage(got: Region, oracle: NullOracle, n: int, k_hi: int) -> list[str]:
    out = got.problems()
    if not got.measure() < Fraction(1, 1 << n):
        out.append(f"null_stage row {n} measure {got.measure()} not below 2^-{n}")
    if not same_set(got, oracle.stage(n, k_hi)):
        out.append(f"null_stage({n},{k_hi}) differs from the guarded recomputation")
    return out


def check_null_term(got: Region, oracle: NullOracle, n: int, k: int, encoded: bool) -> list[str]:
    out = got.problems()
    want = oracle.term(n, k)
    if not same_set(got, [want]):
        out.append(f"null_term({n},{k}) differs from the guarded recomputation")
    if encoded and not same_set(got, [oracle.enum_region(n, oracle.cell(n, k))]):
        out.append(f"null_term({n},{k}) on encoder output is not clopen_enum(n, cell)")
    return out


# -- basic open sets and dense sections over Cantor space ----------------------


def basic_word(n: int):
    """Word of basic open set n (None: empty set, "": whole space)."""
    if n == 0:
        return None
    if n == 1:
        return ""
    idx, level = n - 2, 1
    while idx >= 1 << level:
        idx -= 1 << level
        level += 1
    return format(idx, f"0{level}b")


_KPRIME: dict = {}


def kprime_cantor(n: int, m: int) -> int:
    """Index of the (m+1)-th nonempty basic open set inside set n, found by
    scanning the basic-open list from the start."""
    key = (n, m)
    if key not in _KPRIME:
        base = basic_word(n)
        if base is None:
            _KPRIME[key] = 0
        else:
            seen, k = 0, 1
            while True:
                if basic_word(k).startswith(base):
                    if seen == m:
                        break
                    seen += 1
                k += 1
            _KPRIME[key] = k
    return _KPRIME[key]


def dense_terms(choices, n_max: int) -> list:
    """The basic sets a dense-open parameter selects for 1 <= n <= n_max."""
    return [Region.cylinder(basic_word(kprime_cantor(n, choices[n]))) for n in range(1, n_max + 1)]


def check_dense_stage(got: Region, choices, n_max: int, target: Region | None) -> list[str]:
    out = got.problems()
    if not same_set(got, dense_terms(choices, n_max)):
        out.append("dense section stage differs from its selected basic sets")
    for n in range(1, n_max + 1):
        if not meets([got], basic_word(n)):
            out.append(f"dense stage misses basic open set {n}")
    if target is not None and not inside([got], target):
        out.append("dense stage is not inside the encoded set")
    return out


def meager_rows(prefix, rows: int, horizon: int) -> list:
    return [[prefix[pair(r, n)] for n in range(horizon + 1)] for r in range(rows)]


def meager_answer(row_choices, z: str, n_max: int, horizon: int) -> str:
    for choices in row_choices:
        if not meets(dense_terms(choices, horizon), z):
            return HOLDS
    if all(covers(dense_terms(c, n_max), z) for c in row_choices):
        return FAILS
    return UNKNOWN


def check_meager_encode(param, dense: list, n_max: int) -> list[str]:
    """Encoder output: one row per set, each row inside its set, each
    choice the least basic subset that fits."""
    out = []
    if param.rows != len(dense) or param.horizon != n_max:
        out.append("meager_encode rows/horizon do not match the input")
        return out
    for r, (choices, w) in enumerate(zip(meager_rows(param.prefix, len(dense), n_max), dense)):
        for n in range(1, n_max + 1):
            pick = Region.cylinder(basic_word(kprime_cantor(n, choices[n])))
            if not inside([pick], w):
                out.append(f"meager row {r} choice {n} leaves the dense set")
            for m in range(choices[n]):
                if inside([Region.cylinder(basic_word(kprime_cantor(n, m)))], w):
                    out.append(f"meager row {r} choice {n} is not the least fit")
                    break
    return out


# -- closed-null (E) sections -------------------------------------------------


def lex_subset(n: int, t: int, r: int) -> tuple:
    """The r-th t-subset of range(n) in lexicographic order, by counting
    completions: C(n-1-c, rem-1) subsets take c as their next element.
    The binomial is carried from step to step by Pascal's ratios, so a
    subset of range(4096) costs milliseconds, not a comb() per element."""
    out, rem = [], t
    a, k = n - 1, t - 1  # here == comb(a, k), a = n-1-c, k = rem-1
    here = comb(a, k) if t else 0
    for c in range(n):
        if rem == 0:
            break
        if r < here:
            out.append(c)
            rem -= 1
            here = here * k // a if a else 0  # comb(a-1, k-1)
            k -= 1
        else:
            r -= here
            here = here * (a - k) // a if a else 0  # comb(a-1, k)
        a -= 1
    return tuple(out)


def check_e_term(got: Region, x0: int, x1: int, x2: int, n: int) -> list[str]:
    """Cardinality law: 2^L - 2^(L-m) cylinders at L = max(x1, m), m = x0 + n,
    and exactly the lexicographic subset of level-L words that x2 ranks."""
    out = got.problems()
    m = x0 + n
    lvl = max(x1, m)
    if m == 0:
        if got.words:
            out.append("e_term with m = 0 is not empty")
        return out
    if got.measure() != 1 - Fraction(1, 1 << m):
        out.append(f"e_term measure {got.measure()} is not 1 - 2^-{m}")
    if got.level > lvl:
        out.append(f"e_term level {got.level} above its working level {lvl}")
    size = (1 << lvl) - (1 << (lvl - m))
    pick = lex_subset(1 << lvl, size, x2 % comb(1 << lvl, size))
    want = Region(lvl, [format(i, f"0{lvl}b") if lvl else "" for i in pick])
    if not same_set(got, [want]):
        out.append("e_term differs from the lexicographic subset its rank names")
    return out


def e_answer(row_terms, z: str, n_max: int) -> str:
    """row_terms[r][n] = term n of row r, for n up to the horizon."""
    for terms in row_terms:
        if not meets(terms, z):
            return HOLDS
    if all(covers(terms[: n_max + 1], z) for terms in row_terms):
        return FAILS
    return UNKNOWN


def check_e_pack(param, triples, horizon: int) -> list[str]:
    out = []
    if param.rows != len(triples) or param.horizon != horizon:
        out.append("EParam rows/horizon do not match the input")
        return out
    want = {}
    for r, (x0, x1, x2) in enumerate(triples):
        for i, row in enumerate((x0, x1, x2)):
            for n in range(horizon + 1):
                want[pair(r, pair(i, n))] = row[n]
    for idx, v in enumerate(param.prefix):
        if v != want.get(idx, 0):
            out.append(f"EParam cell {idx} holds {v}, expected {want.get(idx, 0)}")
            break
    if len(param.prefix) != 1 + max(want, default=-1):
        out.append("EParam prefix length is not the last used cell")
    return out


# -- Baire space ----------------------------------------------------------------


def countable_answer(points, depth: int, x, rows: int, q_depth: int) -> str:
    """Literal predicate for the encoded rows: row n is points[n] cut to
    `depth` and padded with zeros; every later row is all zeros."""

    def row(n):
        p = points[n] if n < len(points) else ()
        return lambda m: p[m] if m < depth and n < len(points) else 0

    if any(all(row(n)(m) == x[m] for m in range(len(x))) for n in range(rows)):
        return HOLDS
    zero_refuted = any(x[m] != 0 for m in range(q_depth))
    if zero_refuted and all(
        any(row(n)(m) != x[m] for m in range(q_depth)) for n in range(len(points))
    ):
        return FAILS
    return UNKNOWN


def dominated(bound, x, n: int) -> bool:
    return all(x[m] <= bound[m] for m in range(n + 1, min(len(bound), len(x))))


def laver_count(phi: dict, f, n0: int, n1: int) -> int:
    return sum(1 for n in range(n0, n1) if f[n] < phi.get(tuple(f[:n]), 0))


_BAIRE_RANK: dict = {}


def kprime_baire_check(n: int, m: int, got: int) -> list[str]:
    """got = kprime(n, m) on Baire space: a code extending the stem of n,
    strictly when m > 0, with exactly m such codes below it."""
    out = []
    stem = seq_decode(n - 1)
    cand = seq_decode(got - 1) if got >= 1 else None
    if cand is None or cand[: len(stem)] != stem:
        return [f"kprime({n},{m}) = {got} does not extend the stem {stem}"]
    if m > 0 and len(cand) <= len(stem):
        out.append(f"kprime({n},{m}) = {got} is not a strict extension")
    key = (n, got)
    if key not in _BAIRE_RANK:
        _BAIRE_RANK[key] = sum(
            1 for k in range(1, got) if seq_decode(k - 1)[: len(stem)] == stem
        )
    if _BAIRE_RANK[key] != m:
        out.append(f"kprime({n},{m}) = {got} has {_BAIRE_RANK[key]} extensions below it")
    return out


# -- planar diagnostics -------------------------------------------------------


def diagnose(rows, proxy: str, eps: Fraction | None, split: int) -> str:
    d = len(rows).bit_length() - 1
    out = []
    for row in rows:
        if proxy == "null":
            flag = Fraction(row.count("1"), 1 << d) >= eps
        else:
            width = 1 << (d - split)
            flag = all("1" in row[i * width:(i + 1) * width] for i in range(1 << split))
        out.append("1" if flag else "0")
    return "".join(out)


def interleave(y: str, z: str) -> str:
    return "".join(a + b for a, b in zip(y, z))


def decided_agree(answers) -> bool:
    """Refinement contract: decided answers for one query never differ."""
    return len({a for a in answers if a != UNKNOWN}) <= 1
