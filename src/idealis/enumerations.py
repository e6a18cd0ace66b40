"""Canonical enumerations consumed by the universal-set constructions.

The master clopen enumeration orders canonical clopen sets by
(canonical level, word-set bitmask value).  Ranking and unranking are one
walk down the mask's positions that counts completions with binomial
prefix sums T(b, q) = C(b, 0) + ... + C(b, q), the combinatorial number
system, so both stay exact far past the range where brute-force scans
are possible.  The walk carries the sums from one position to the next
in O(1) big-integer operations.  It starts at the top 1 bit when the
budget or the rank's length gives it away, and otherwise at one of at
most 64 rungs per (level, n), at most one stride above that bit; it
stops as soon as the rest is the rest of the mask.  Two memos keep its
counts, one entry per (level, n) each: the level's size with the start
values at its top, and the rungs.  Enumerated sets are memoized together
with the level cap they were computed under.
Basic open sets, the nonempty-basic-subset index and
combinadic subset (un)ranking, on member masks with tuple wrappers, live
here as well.  A t-subset of {0..n-1} and its lex rank are read through
the k = min(t, n - t) digits of the combinatorial number system on the
minority side (Knuth, TAOCP 4A, 7.2.1.3), not through the n candidates:
ranking carries one binomial per side element, and unranking jumps over
each run between two digits, steered by a float estimate and settled by
exact comparisons.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import comb, lgamma, log, perm

from .errors import IndexOutOfRange, LevelCapExceeded, MeasureTooLarge
from .space import Clopen, Record, _require_level, index_word, max_level, pair, seq_decode

CANTOR = "cantor"
BAIRE = "baire"

# Baire kprime pops m codes off a heap, so m is capped; each code it pushes
# has about twice the bits of the basic set's index n or more, so m times
# the bit length of n is capped too
BAIRE_KPRIME_BUDGET = 1 << 16
BAIRE_KPRIME_BITS = 1 << 22


def _binomial_prefix(b: int, q: int) -> tuple[int, int]:
    """(T(b, q), C(b, q)): the b-bit masks with at most q ones, and with
    exactly q ones, summed in O(q) steps.  q is clamped to [-1, b], so
    q >= b gives (2^b, 1)."""
    if q < 0:
        return 0, 0
    if q >= b:
        return 1 << b, 1
    term = total = 1
    for j in range(q):
        term = term * (b - j) // (j + 1)
        total += term
    return total, term


def _popcount_budget(level: int, n: int) -> int:
    # measure < 2^-n at `level` means word count < 2^(level-n)
    return (1 << (level - n)) - 1 if level > n else 0


@lru_cache(maxsize=1 << 8)
def _level_start(level: int, n: int) -> tuple[int, int, int, int, int]:
    """The level's count, then T(p, q), C(p, q), T(p // 2, q // 2) and
    C(p // 2, q // 2) at its top position p = 2^level - 1 with the whole
    popcount budget q.

    The count is the masks within the budget, minus the ones whose sibling
    pairs all agree (those live at a smaller level; the zero mask is among
    them, so the empty set is never double counted).  Both grow from the
    top position's sums by T(p + 1, q) = 2 T(p, q) - C(p, q), as q <= p.
    """
    p = (1 << level) - 1
    q = _popcount_budget(level, n)
    t, c = _binomial_prefix(p, q)
    th, ch = _binomial_prefix(p // 2, q // 2)
    return (2 * t - c) - (2 * th - ch), t, c, th, ch


def _level_count(level: int, n: int) -> int:
    """Canonical clopen sets of exactly this level with measure < 2^-n."""
    return _level_start(level, n)[0]


@lru_cache(maxsize=1 << 8)
def _level_ladder(level: int, n: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Rungs for ``_level_walk`` to start at, lowest first.

    A rung is the walk's start values (p, T(p, q), C(p, q), T(p // 2,
    q // 2), C(p // 2, q // 2)) at an odd position p under an all-zero
    prefix, at every stride-th position down from the top, stride =
    max(16, 2^level >> 6), so a level has at most 64 rungs.  Next to them
    are the ascending counts G(p) = T(p, q) - T(p // 2, q // 2) of the
    masks that are 0 at p and above: a rank r has its top 1 bit at or
    above p exactly when G(p) <= r.  One walk from the top's start values
    over the zero prefix fills both, with the same carries as that walk.
    """
    q = _popcount_budget(level, n)
    top = (1 << level) - 1
    stride = max(16, (top + 1) >> 6)
    _, t, c, th, ch = _level_start(level, n)
    counts, rungs = [], []
    p = top
    while True:
        if (top - p) % stride == 0:
            counts.append(t - th)
            rungs.append((p, t, c, th, ch))
            if p < stride:
                return tuple(reversed(counts)), tuple(reversed(rungs))
        if q >= p:
            t, c = t >> 1, 1
        else:
            c = c * (p - q) // p
            t = (t + c) >> 1
        if p % 2 == 0:
            # a pair of zeros closes, so every closed pair still agrees
            hp, hq = p >> 1, q >> 1
            if hq >= hp:
                th, ch = th >> 1, 1
            else:
                ch = ch * (hp - hq) // hp
                th = (th + ch) >> 1
        p -= 1


def _level_walk(level: int, n: int, r: int, given: int | None = None) -> tuple[int, int]:
    """The mask of rank ``r`` within its level, as (mask, 0); with a mask
    ``given``, each bit is read from it instead and the walk returns
    (given, r - rank), so ``r = 0`` ranks it.

    Masks count within the popcount budget q, minus those whose sibling
    pairs all agree.  At each 1 bit from the top the walk subtracts the
    completions that put 0 there.  It carries T(p, q) and T(p // 2, q // 2)
    with their binomials C(p, q) and C(p // 2, q // 2), each q clamped to
    its p, from step to step in O(1) big-integer operations:
    C(p - 1, q) = C(p, q)(p - q)/p,  T(p - 1, q) = (T(p, q) + C(p - 1, q))/2,
    T(p, q - 1) = T(p, q) - C(p, q),  C(p, q - 1) = C(p, q) q/(p - q + 1).

    It skips both runs of zeros.  A top 1 bit at most q is the start: a
    given mask shows it, and a rank of b <= q bits puts it at b or b - 1,
    as every mask below 2^b is within the budget and all but the
    2^(b // 2) whose pairs agree come first.  Otherwise the walk starts at
    the lowest ``_level_ladder`` rung at or above a given mask's top 1 bit,
    or the lowest whose count G(p) exceeds ``r`` (the top rung when none
    does), G(p) <= r being the walk's own test for a 1 bit at p under a
    zero prefix; so at most one stride of zeros comes first.  Once a
    sibling pair disagrees, the first 2^q completions are the numbers
    below 2^q, so a rest of at most q bits, the rank left or the given
    mask's low bits, is the rest of the mask and of its rank.
    """
    q = _popcount_budget(level, n)
    if given is None:
        b = r.bit_length()
        short = b <= q
        if short:
            p = b if r >= (1 << b) - (1 << (b >> 1)) else b - 1
    else:
        p = given.bit_length() - 1
        short = p <= q
    if short:
        t, c, th, ch = 1 << p, 1, 1 << (p >> 1), 1
        pend = None if p % 2 else 0
    else:
        counts, rungs = _level_ladder(level, n)
        if given is None:
            p, t, c, th, ch = rungs[min(bisect_right(counts, r), len(rungs) - 1)]
        else:
            p, t, c, th, ch = rungs[bisect_left(rungs, (p,))]
        pend = None
    mask = 0
    while True:
        # every closed pair agrees: the completions that keep agreeing
        # (pend is 0 or None) pair up over the p // 2 pairs left
        with_zero = t if pend == 1 else t - th
        bit = r >= with_zero if given is None else given >> p & 1
        if bit:
            mask |= 1 << p
            r -= with_zero
            if q <= p:
                t, c = t - c, c * q // (p - q + 1)
            hp, hq = p >> 1, q >> 1
            if q % 2 == 0 and hq <= hp:
                th, ch = th - ch, ch * hq // (hp - hq + 1)
            q -= 1
        if p == 0:
            assert q >= 0 and (r == 0 or given is not None)
            return mask, r
        if q >= p:
            t, c = t >> 1, 1
        else:
            c = c * (p - q) // p
            t = (t + c) >> 1
        if p % 2:
            pend = bit
        elif pend != bit:
            break
        else:
            pend = None
            hp, hq = p >> 1, q >> 1
            if hq >= hp:
                th, ch = th >> 1, 1
            else:
                ch = ch * (hp - hq) // hp
                th = (th + ch) >> 1
        p -= 1
    # a pair disagrees: every completion within the budget counts, and
    # the rest fits in q bits by p = 0 at the latest
    while True:
        p -= 1
        rest = r if given is None else given & (2 << p) - 1
        if rest.bit_length() <= q:
            assert rest < 2 << p
            return mask | rest, r - rest
        if r >= t if given is None else given >> p & 1:
            mask |= 1 << p
            r -= t
            t, c = t - c, c * q // (p - q + 1)
            q -= 1
        c = c * (p - q) // p
        t = (t + c) >> 1


@lru_cache(maxsize=1 << 16)
def _clopen_enum(n: int, k: int, cap: int) -> Clopen:
    if n < 0 or k < 0:
        raise IndexOutOfRange("enumeration indices are naturals")
    if k == 0:
        return Clopen.empty()
    r = k - 1
    level = 1
    while True:
        c = _level_count(level, n)
        if r < c:
            return Clopen(level, _level_walk(level, n, r)[0])
        r -= c
        level += 1
        if level > cap:
            raise LevelCapExceeded(level, cap)


def clopen_enum(n: int, k: int, cap: int | None = None) -> Clopen:
    """The k-th canonical clopen set of measure < 2^-n; index 0 is empty.

    Order for k >= 1: ascending canonical level, then ascending word-set
    bitmask value within a level.  Every qualifying set appears exactly
    once.  A set past level ``cap`` (default: the current ``max_level()``)
    raises LevelCapExceeded; the memo is keyed by the cap as well.
    """
    return _clopen_enum(n, k, max_level() if cap is None else cap)


clopen_enum.cache_clear = _clopen_enum.cache_clear


def clopen_rank(n: int, c: Clopen) -> int:
    """Inverse of clopen_enum along its second argument; a negative `n`
    raises IndexOutOfRange."""
    if n < 0:
        raise IndexOutOfRange("enumeration indices are naturals")
    if c.is_empty:
        return 0
    if c.word_count() << n >= 1 << c.level:
        raise MeasureTooLarge(f"measure of {c!r} is not below 2^-{n}")
    k = 1
    for lev in range(1, c.level):
        k += _level_count(lev, n)
    return k - _level_walk(c.level, n, 0, c.mask)[1]


# -- basic open sets --------------------------------------------------------


class BaireCylinder(Record):
    """Basic open set of Baire space: all extensions of `stem`, a tuple.

    ``stem=None`` denotes the empty set (index 0 of the enumeration).
    """

    _fields = ("stem",)

    @property
    def is_empty(self) -> bool:
        return self.stem is None

    def contains_stem(self, other: "BaireCylinder") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return other.stem[: len(self.stem)] == self.stem

    def to_json(self) -> dict:
        return {"stem": None if self.stem is None else list(self.stem)}


def basic_word_cantor(n: int, cap: int | None = None) -> str:
    """The word whose cylinder is basic open set n >= 1 of Cantor space;
    LevelCapExceeded when the word is longer than the level cap (default:
    the current ``max_level()``)."""
    if n < 1:
        raise IndexOutOfRange("only nonempty basic open sets have a word")
    # basic set n is the word of n's binary digits after its leading 1:
    # 1 -> the whole space (the empty word); 2, 3 -> level 1; 4..7 -> level 2
    k = n.bit_length() - 1
    _require_level(k, cap)
    return index_word(n - (1 << k), k)


def basic_open_cantor(n: int, cap: int | None = None) -> Clopen:
    """Basic open sets of Cantor space: empty, full, then cylinders in
    (level, lex) order, under the same cap as ``basic_word_cantor``."""
    if n < 0:
        raise IndexOutOfRange("basic open index must be a natural")
    if n == 0:
        return Clopen.empty()
    return Clopen.cylinder(basic_word_cantor(n, cap))


def basic_open_baire(n: int) -> BaireCylinder:
    """Basic open sets of Baire space via the sequence coding."""
    if n < 0:
        raise IndexOutOfRange("basic open index must be a natural")
    if n == 0:
        return BaireCylinder(None)
    return BaireCylinder(seq_decode(n - 1))


def basic_open(space: str, n: int):
    if space == CANTOR:
        return basic_open_cantor(n)
    if space == BAIRE:
        return basic_open_baire(n)
    raise IndexOutOfRange(f"unknown space {space!r}")


def _kprime_cantor(n: int, m: int) -> int:
    # the extensions of basic set n's word at depth d are basic sets
    # (n << d) + i for i < 2^d, and they are entries m = 2^d - 1 + i
    d = (m + 1).bit_length() - 1
    return ((n - 1) << d) + m + 1


def _kprime_baire(n: int, m: int) -> int:
    # The stem's extensions in code order.  Popping a code pushes its first
    # child and its next sibling; both codes exceed it, so the heap's least
    # code is always the next extension.  Entries: (code, parent, last entry).
    heap = [(n - 1, None, 0)]
    for _ in range(m):
        code, parent, last = heapq.heappop(heap)
        heapq.heappush(heap, (pair(code, 0) + 1, code, 0))
        if parent is not None:
            heapq.heappush(heap, (pair(parent, last + 1) + 1, parent, last + 1))
    return heap[0][0] + 1


def kprime(n: int, m: int, space: str = CANTOR) -> int:
    """Index of the (m+1)-th nonempty basic open set inside basic open
    set number n; zero by fiat when n is zero.

    Only nonempty basic sets are counted, so every term selected through
    this function meets the ambient basic set -- the property the dense
    sections downstream rely on.
    """
    if n < 0 or m < 0:
        raise IndexOutOfRange("kprime arguments are naturals")
    if n == 0:
        return 0
    if space == CANTOR:
        return _kprime_cantor(n, m)
    if space == BAIRE:
        if m >= BAIRE_KPRIME_BUDGET:
            raise IndexOutOfRange(
                f"baire kprime index {m} is past the budget {BAIRE_KPRIME_BUDGET}"
            )
        if m * n.bit_length() > BAIRE_KPRIME_BITS:
            raise IndexOutOfRange(
                f"baire kprime index {m} times the {n.bit_length()} bits of n"
                f" is past the budget {BAIRE_KPRIME_BITS}"
            )
        return _kprime_baire(n, m)
    raise IndexOutOfRange(f"unknown space {space!r}")


# -- combinadics ------------------------------------------------------------


def _require_ground_set(n: int) -> None:
    # E terms choose subsets of the 2^level cylinders of a capped level
    _require_level(max(n - 1, 0).bit_length())


def kcomb_unrank_mask(n: int, t: int, r: int) -> int:
    """The r-th t-subset of {0..n-1}, ordering sorted tuples
    lexicographically, as the mask with bit c set for each member c.
    Exact for big-integer ranks.  An n past 2^max_level() raises
    LevelCapExceeded, and a rank outside [0, C(n, t)) IndexOutOfRange;
    ``kcomb_unrank_mask_below`` then walks."""
    if t < 0 or t > n:
        raise IndexOutOfRange(f"no {t}-subsets of a {n}-set")
    _require_ground_set(n)
    total = comb(n, t)
    if not 0 <= r < total:
        raise IndexOutOfRange(f"rank {r} out of range {total}")
    return kcomb_unrank_mask_below(n, t, r, total)


def _digit_guess(a: int, j: int, r: int, b: int) -> float:
    """A float estimate of the c in [j, a] with C(c, j) = r, for
    1 <= r < b = C(a, j): Newton's method on ln C(c, j) = ln r, started at
    a, where ln C(a, j) is read off b and later values from ``lgamma``.
    ln C(c, j) is increasing and concave in c, with slope about
    ln((c + 1/2) / (c - j + 1/2)) and a second derivative below that slope
    over c - j, so Newton's iterates climb towards the root after the
    first step, and a step s leaves at most s^2 / (2 (c - j)) to go: the
    walk stops once that is below 1/2.  It only steers the walk."""
    x = log(r)
    f = log(b) - x
    c = float(a)
    for _ in range(8):
        step = f / log((c + 0.5) / (c - j + 0.5))
        c = max(c - step, j)
        if step * step <= c - j:
            break
        f = lgamma(c + 1) - lgamma(c - j + 1) - lgamma(j + 1) - x
    return c


def kcomb_unrank_mask_below(n: int, t: int, r: int, total: int) -> int:
    """``kcomb_unrank_mask`` without its checks: n, t and the cap are the
    caller's to check, and r must already lie below ``total`` = C(n, t),
    which an E term has taken as its modulus anyway.

    Lex order on sorted tuples puts A before B exactly when min(A ^ B) is
    in A.  So the rank is the sum of C(n - 1 - b_i, k + 1 - i) over the
    non-members b_1 < ... < b_k, k = n - t, and C(n, t) - 1 minus the same
    sum over the members, k = t.  The walk reads the k digits of that sum
    on the minority side: largest first, digit j is the largest c below
    the last with C(c, j) <= r, and the side element is n - 1 - c.  It
    carries b = C(a, j) exactly, down one position in
    C(a - 1, j) = C(a, j)(a - j)/a and to the next digit in
    C(a - 1, j - 1) = C(a, j) j/a, so where digits are dense (balanced
    shapes) it steps as a candidate walk would.  Where one step down still
    leaves b above r, and the bits b has left to shed, at about 1.44 j/a a
    step, put the digit more than a couple of dozen positions down, it
    jumps: ``_digit_guess`` picks the landing c, clamped to [j, a - 1], b
    is computed there exactly (a ``perm`` ratio over a gap shorter than j,
    ``comb`` over a longer one), and exact comparisons step to the digit.
    Once r is 0 the digits left are the least, the last side elements.
    """
    members = 2 * t <= n
    k = t if members else n - t
    if k == 0:
        return 0 if members else (1 << n) - 1
    if members:
        r = total - 1 - r
    # side[c] is "1" when n - 1 - c is on the minority side
    side = bytearray(b"0" * n)
    a, j = n - 1, k
    b = total * (n - k) // n  # C(n - 1, k)
    while r:
        if b > r:
            b = b * (a - j) // a
            a -= 1
            if b > r:
                if (b.bit_length() - r.bit_length()) * a > 32 * j:
                    guess = _digit_guess(a, j, r, b)
                    # clamped to [j, a - 1]; a guess that is not a number lands at a - 1
                    c = int(guess) if j < guess < a else j if guess <= j else a - 1
                    g = a - c
                    b = b * perm(a - j, g) // perm(a, g) if g < j else comb(c, j)
                    a = c
                    while True:
                        up = b * (a + 1) // (a + 1 - j)
                        if up > r:
                            break
                        a, b = a + 1, up
                while b > r:
                    b = b * (a - j) // a
                    a -= 1
        side[a] = 49
        r -= b
        b = b * j // a
        a -= 1
        j -= 1
    side[:j] = b"1" * j
    mask = int(side, 2)
    return mask if members else mask ^ ((1 << n) - 1)


def kcomb_rank_mask(n: int, mask: int) -> int:
    """Inverse of kcomb_unrank_mask: the rank of the subset of {0..n-1}
    whose members are the 1 bits of ``mask``, among the subsets of its
    size.

    The same sum of binomials as ``kcomb_unrank_mask_below``, one term per
    minority element, smallest term first: C(c, j) for the j-th least c
    (the j-th side element from the top).  The side elements are read as
    the runs between them in the mask's binary string.  The leading terms
    with c = j - 1 are 0 and are skipped; each later term is carried from
    the one before over the g positions between them,
    C(c', j + 1) = C(c, j) perm(c', g + 1) / ((j + 1) perm(c' - j - 1, g)),
    or taken by ``comb`` where g is at least j.  On the member side
    C(n, t) comes from the last term the same way.
    """
    if mask < 0 or mask.bit_length() > n:
        raise IndexOutOfRange("not a subset of {0..n-1}")
    t = mask.bit_count()
    members = 2 * t <= n
    k = t if members else n - t
    if k == 0:
        return 0
    # the side's elements are this digit in the string, at index c
    digit = "1" if members else "0"
    s = bin(mask)[2:].zfill(n)
    lead = len(s) - len(s.lstrip(digit))
    c = lead - 1
    r = b = 0
    for j, g in enumerate(map(len, s[lead:].split(digit)[: k - lead]), lead + 1):
        c += g + 1
        if not g:
            b = b * c // j
        elif g == 1 and b:
            # the perm ratio below, inlined: each side is one small product
            b = b * (c * (c - 1)) // (j * (c - j))
        elif b and g < j:
            b = b * perm(c, g + 1) // (j * perm(c - j, g))
        else:
            b = comb(c, j)
        r += b
    if not members:
        return r
    g = n - c
    if b and g < k:
        total = b * perm(n, g) // perm(n - k, g)
    else:
        total = comb(n, k)
    return total - 1 - r


def kcomb_unrank(n: int, t: int, r: int) -> tuple[int, ...]:
    """``kcomb_unrank_mask`` as the sorted tuple of members."""
    mask = kcomb_unrank_mask(n, t, r)
    return tuple(c for c, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def kcomb_rank(n: int, subset) -> int:
    """Inverse of kcomb_unrank, under the same cap."""
    s = sorted(subset)
    t = len(s)
    if t > n or any(not 0 <= v < n for v in s) or len(set(s)) != t:
        raise IndexOutOfRange("not a subset of {0..n-1}")
    _require_ground_set(n)
    mask = 0
    for v in s:
        mask |= 1 << v
    return kcomb_rank_mask(n, mask)
