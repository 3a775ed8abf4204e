"""Exhaustive ground truth: pair searches, the Eq-style counting oracle, and
element censuses.

Two engines coexist, both on one element representation, packed ints
(_Lanes): an element's n*t F_p coordinates, the base-p digits of its code,
sit in lanes of one int, so packed values compare as codes do, and an
addition is one XOR for p = 2 and a few int operations for odd p.  Both read
the divisor lattice of x^n - 1 (modstruct.divisor_lattice) and the echelon
bases of the kernels ker h(sigma) (modstruct.kernel_basis).

The streaming engine is what the searches use; it never builds a
field-sized table, so found-cases exit early and not-found cases stay within
memory.  search_pair visits only the k-normal elements, those whose F_q-order
h has degree n - k: for each such h it streams ker h(sigma), in code order,
as the sums of the spans of the two halves of its F_p basis, each element
carried in one int together with its images under (h/f)(sigma) for the prime
factors f of h; it keeps those no image sends to zero, and merges these
streams by value.  Each stream also marks the start of every run it enters,
so no stream walks more than one run past the hit.  A conjugate
alpha^(q^i) lies in the same stream and has the same verdict, so only the
least of its conjugates, the first to come, is tested.  Each candidate then
has its inverse's k-normality checked by descent through the lattice's
quotients, and its exact order last.  The descent applies h(sigma) by lookup
tables over groups of lanes (_Lanes.linear_map), built from the divisor's
matrix (modstruct.action_columns) on first use and kept on the context;
only the inverse and the order test take coefficient tuples.  direct_search
walks, in code order, the beta whose constant coefficient is 0, which give
every alpha = beta^q - beta, each beta carried with its alpha, with the
same per-element predicates.

The table engine builds, once per context, the F_q-order table first and
then one discrete-log walk.  The F_q-order table starts at the index of
x^n - 1, whose kernel is the whole field, and streams every other
ker h(sigma), from the last divisor to the first; the last kernel to reach
an element is the least one holding it, which is its order.  The walk
applies the F_p-linear map "multiply by a primitive element" q^n - 1 times,
two lookups and one addition per step, records each element's discrete log
and the order index of prim^e, and ends in one histogram, the element
profile: the nonzero a counted by (order of a, gcd(dlog a, q^n - 1), order
of a^-1).  These are the only facts of an element that the counts read, so
censuses, pair_profile and count_from_profile are folds over the profile's
keys, with no loop over elements; their polynomial-side predicates compare
exponent vectors, the lattice's for F_q-orders and modstruct.exponents for
g, h and H.  The tables live on the context (FieldCtx.memo) like every other
per-field object.  Every witness a search returns passes pair_verified, the
direct modstruct predicates, before it is reported.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd as int_gcd

from .errors import FieldTooLarge, NotADivisor, RNotDivisor
from .ffield import FieldCtx, FieldElement, field_for, find_primitive, mult_order
from .fqpoly import PolyQ
from .modstruct import (
    action_columns,
    check_seeds,
    divisor_lattice,
    exponents,
    k_normality,
    kernel_basis,
    m_gcd_degree,
)

ENUM_CEILING_BITS_DEFAULT = 24
TABLE_CEILING = 1 << 20


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    witness: FieldElement | None
    scanned: int
    elapsed: float


# -- per-context scaffolding -----------------------------------------------------

class _Lanes:
    """F_{q^n} as packed ints, for both engines.

    An element's code is the base-p number of its D = n*t F_p coordinates,
    digit k = i*t + j being digit j of coefficient i.  Its packed value holds
    the same digits as w-bit lanes of one int, digit k in lane k, so packed
    values compare as their codes do.  For p = 2, w = 1: the packed value is
    the code and addition is XOR.  For odd p, w = p.bit_length() + 1, so a
    lane-wise sum of two digits, at most 2p - 2, stays in its lane; adding K,
    2^(w-1) - p in every lane, sets a lane's top bit (HI) exactly where its
    sum reached p, and p is taken off there.  ``copies`` elements can sit side
    by side in one int, element c in the ``width`` bits from c*width up; add
    and span then act on all of them at once.
    """

    def __init__(self, ctx: FieldCtx, copies: int = 1):
        self.ctx = ctx
        self.p = p = ctx.p
        self.D = D = ctx.n * ctx.t
        self.w = w = 1 if p == 2 else p.bit_length() + 1
        self.width = w * D
        ones = sum(1 << w * k for k in range(D * copies))
        self.K, self.HI = ((1 << w - 1) - p) * ones, (1 << w - 1) * ones
        self.m = m = D // 2
        self.split = p**m
        self.shift = w * m
        self.mask = (1 << w * m) - 1
        # one F_q coefficient is t lanes: its packed value by code, and back
        self.coeff_bits = w * ctx.t
        self.digit = self.span([1 << w * j for j in range(ctx.t)])
        self.digit_code = _scatter(self.digit, range(ctx.q))
        # linear_map's lane groups
        self.group = g = max(1, 8 // w)
        self.group_mask = (1 << w * g) - 1

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        s = a + b
        return s - (((s + self.K) & self.HI) >> self.w - 1) * self.p

    def pack(self, coeffs: tuple) -> int:
        digit, bits = self.digit, self.coeff_bits
        return sum(digit[c] << bits * i for i, c in enumerate(coeffs))

    def unpack(self, packed: int) -> tuple:
        digit_code, bits, mask = self.digit_code, self.coeff_bits, (1 << self.coeff_bits) - 1
        return tuple(digit_code[packed >> bits * i & mask] for i in range(self.ctx.n))

    def code(self, packed: int) -> int:
        if self.p == 2:
            return packed
        code, q = 0, self.ctx.q
        for c in reversed(self.unpack(packed)):
            code = code * q + c
        return code

    def fp_basis(self, vectors: list[tuple]) -> list[int]:
        """y^j b for b in vectors and j < t, packed: an F_p basis of their F_q
        span when they are independent.  y^j has code p^j in F_q."""
        ctx = self.ctx
        return [self.pack(ctx._scale(b, self.p**j)) for b in vectors for j in range(ctx.t)]

    def span(self, vectors: list[int]) -> list[int]:
        """sum_k c_k vectors[k], packed, for every c in F_p^len(vectors), at
        index sum_k c_k p^k."""
        add, out = self.add, [0]
        for v in vectors:
            multiples = [0]
            for _ in range(self.p - 1):
                multiples.append(add(multiples[-1], v))
            out = [add(s, c) for c in multiples for s in out]
        return out

    def decoders(self) -> tuple[list[int], list[int]]:
        """Two tables that turn a packed value into its code, for odd p: the
        code of its low m lanes and of the others, each by the packed value of
        those lanes.  Each has one entry per packed value up to the largest,
        so the pair grows with the field; only the table engine builds them."""
        return self._decoder(self.m), self._decoder(self.D - self.m)

    def _decoder(self, lanes: int) -> list[int]:
        """The code of the digits in the first ``lanes`` lanes, by packed value;
        one entry per packed value up to the largest, all digits p - 1."""
        packed = self.span([1 << self.w * k for k in range(lanes)])
        return _scatter(packed, range(len(packed)))

    def linear_map(self, images: list[int]) -> list[tuple[int, list[int]]]:
        """The F_p-linear map that sends lane k's unit to images[k], as
        (shift, table) pairs: one per group of g = max(1, 8 // w) lanes, from
        bit ``shift`` up, its table indexed by the packed value of the group's
        lanes, so it has at most max(2^8, 2^w) entries.  The map's value at a
        is the lane-wise sum of table[a >> shift & group_mask] over the pairs."""
        w, g = self.w, self.group
        # the packed values of a group's lanes, by index; a shorter last group
        # takes a prefix
        keys = self.span([1 << w * i for i in range(min(g, self.D))])
        return [(w * k, _scatter(keys, self.span(images[k:k + g]))) for k in range(0, self.D, g)]

    def apply(self, pairs: list[tuple[int, list[int]]], a: int) -> int:
        """The linear map with these linear_map tables at the packed a."""
        mask, acc = self.group_mask, 0
        if self.p == 2:
            for shift, table in pairs:
                acc ^= table[a >> shift & mask]
            return acc
        p, K, HI, top_bit = self.p, self.K, self.HI, self.w - 1
        for shift, table in pairs:
            acc += table[a >> shift & mask]
            acc -= (((acc + K) & HI) >> top_bit) * p
        return acc


def _scatter(keys: list[int], values) -> list[int]:
    """A list holding values[i] at keys[i], 0 elsewhere, up to the last key read."""
    table = [0] * (keys[len(values) - 1] + 1)
    for key, v in zip(keys, values):
        table[key] = v
    return table


class _Predicates:
    """Streaming per-element predicate kit for one context, on packed ints.

    Elements are packed (_Lanes) wherever the search reads them; only _inv
    and order_is take coefficient tuples.  The map h(sigma) of a lattice
    divisor h is kept as _Lanes.linear_map tables, built from its matrix
    (modstruct.action_columns) the first time the descent or a stream asks
    for it; sigma itself, for conjugate_first, is built with the kit.  The
    searches keep one kit per context (FieldCtx.memo).
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        lattice = divisor_lattice(ctx)
        self.divisors = lattice.divisors
        self.degrees = [h.degree for h in lattice.divisors]
        self.factors = lattice.factors
        self.quot = lattice.quot
        self.top = lattice.top
        self.lanes = lanes = _Lanes(ctx)
        self._maps: list = [None] * len(self.divisors)
        self.sigma = lanes.linear_map(lanes.fp_basis(ctx.memo(FieldCtx._build_frob_powers)[1 % ctx.n]))

    def image(self, idx: int, a: int) -> int:
        """h(sigma)(a), h = divisors[idx], for the packed element a, packed."""
        pairs = self._maps[idx]
        if pairs is None:
            lanes = self.lanes
            columns = action_columns(self.ctx, self.divisors[idx].coeffs)
            pairs = self._maps[idx] = lanes.linear_map(lanes.fp_basis(columns))
        return self.lanes.apply(pairs, a)

    def conjugate_first(self, a: int) -> bool:
        """Whether the packed element a is the least of its conjugates a^(q^i)."""
        apply, sigma = self.lanes.apply, self.sigma
        b = apply(sigma, a)
        while b > a:
            b = apply(sigma, b)
        return b == a

    def ord_divisor_index(self, a: int) -> int:
        """Index of the F_q-order of the packed element a, by descent from
        x^n - 1: one image under each quotient tried."""
        quot, image = self.quot, self.image
        cur = self.top
        for j, (_, e) in enumerate(self.factors):
            for _ in range(e):
                nxt = quot[cur][j]
                if nxt < 0 or image(nxt, a):
                    break
                cur = nxt
        return cur

    def knorm(self, a: int) -> int:
        return self.ctx.n - self.degrees[self.ord_divisor_index(a)]

    def exact_order(self, idx: int):
        """Every element of ker h(sigma), h = divisors[idx], in increasing
        code, as 2a + 1 for the packed a of F_q-order exactly h; a run of
        elements also starts with 2a for its first a, whatever its order.

        A kernel element's coordinate at the top of a kernel_basis vector is
        its digit there, since the other vectors are 0 at that coordinate, and
        two kernel elements first differ, reading from the top, at such a
        coordinate; so the span of the F_p basis y^j b, by index, runs in code
        order.  It is streamed as the sums of the spans of the two halves of
        that basis, each run one element of the high half's span plus every
        element of the low half's.  Each element is carried in one int
        together with its images under (h/f_j)(sigma) for the prime factors
        f_j of h, stacked below it, and has order exactly h when none of them
        is zero.  The even values mark how far the stream has walked: merged
        by value with other streams, no stream walks more than one run past
        the least element taken so far.
        """
        ctx, lanes = self.ctx, self.lanes
        maps = [j for j in self.quot[idx] if j >= 0]
        W, S = lanes.width, len(maps) * lanes.width
        vectors = [sum((self.image(j, u) << i * W for i, j in enumerate(maps)), u << S)
                   for u in lanes.fp_basis(kernel_basis(ctx, self.divisors[idx].coeffs))]
        stacked = _Lanes(ctx, len(maps) + 1)
        half = len(vectors) // 2
        lows, highs = stacked.span(vectors[:half]), stacked.span(vectors[half:])
        # a W-bit image x is nonzero exactly when bit W - 1 of
        # ((x & LOW) + LOW) | x is set, LOW being its W - 1 low bits
        LOW = sum(((1 << W - 1) - 1) << i * W for i in range(len(maps)))
        TOP = sum(1 << (i + 1) * W - 1 for i in range(len(maps)))
        if lanes.p == 2:
            for hv in highs:
                yield hv >> S << 1
                for lv in lows:
                    v = lv ^ hv
                    if ((v & LOW) + LOW | v) & TOP == TOP:
                        yield v >> S << 1 | 1
            return
        p, K, HI, top_bit = stacked.p, stacked.K, stacked.HI, stacked.w - 1
        for hv in highs:
            yield hv >> S << 1
            for lv in lows:
                v = lv + hv
                v -= (((v + K) & HI) >> top_bit) * p
                if ((v & LOW) + LOW | v) & TOP == TOP:
                    yield v >> S << 1 | 1

    def order_is(self, coeffs: tuple, r: int) -> bool:
        """ord = (q^n - 1)/r, via one confirmation power and per-prime rejections."""
        ctx = self.ctx
        N = ctx.N
        target = N // r
        one = (1,) + (0,) * (ctx.n - 1)
        if r > 1 and ctx._pow(coeffs, target) != one:
            return False
        for p, _ in ctx.fact_qn_minus_1.factors:
            if target % p == 0 and ctx._pow(coeffs, target // p) == one:
                return False
        return True


class _ScanTables:
    """The dlog walk, the F_q-order of every element, and the element profile.

    Both tables are built on packed ints (_Lanes).  ``profile`` counts the
    nonzero elements a by (ord-idx of a, gcd(dlog a, N), ord-idx of a^-1),
    the only three facts of an element that the counts and censuses read.
    """

    def __init__(self, ctx: FieldCtx):
        if ctx.order > TABLE_CEILING:
            raise FieldTooLarge(f"|F| = {ctx.order} exceeds the table ceiling {TABLE_CEILING}")
        self.ctx = ctx
        lattice = divisor_lattice(ctx)
        self.divisors = lattice.divisors
        self.top = lattice.top
        N, lanes = ctx.N, _Lanes(ctx)
        decode = lanes.decoders() if lanes.p > 2 else None
        self.ord_idx = ord_idx = self._order_table(lanes, decode)
        # multiplication by the primitive element is F_q-linear: it sends
        # y^j x^i, the element in lane i*t + j, to y^j times the image of x^i;
        # its value at a is the sum of its values at the low m lanes of a and
        # at the others, each looked up by the code of those lanes
        pc = find_primitive(ctx).coeffs
        images = lanes.fp_basis([ctx._mul(tuple(int(i == j) for i in range(ctx.n)), pc) for j in range(ctx.n)])
        m, mask, shift, split = lanes.m, lanes.mask, lanes.shift, lanes.split
        low, high = lanes.span(images[:m]), lanes.span(images[m:])
        ords = [0] * N
        log_codes = [-1] * ctx.order
        if lanes.p == 2:
            code = 1
            for e in range(N):
                ords[e] = ord_idx[code]
                log_codes[code] = e
                code = low[code & mask] ^ high[code >> shift]
        else:
            p, K, HI, top_bit = lanes.p, lanes.K, lanes.HI, lanes.w - 1
            decode_lo, decode_hi = decode
            cur = 1
            for e in range(N):
                lo, hi = decode_lo[cur & mask], decode_hi[cur >> shift]
                code = lo + hi * split
                ords[e] = ord_idx[code]
                log_codes[code] = e
                s = low[lo] + high[hi]
                cur = s - (((s + K) & HI) >> top_bit) * p
        self.log_codes = log_codes
        # gcd(0, N) = N; the inverse of prim^e is prim^((N - e) % N), and zip
        # stops after N of them, at ords[1]
        inverse_ords = chain(ords[:1], reversed(ords))
        self.profile = Counter(zip(ords, map(int_gcd, range(N), repeat(N)), inverse_ords))

    def _order_table(self, lanes: _Lanes, decode) -> list[int]:
        """F_q-order index of every code, from the kernels of h(sigma).

        An element lies in ker h(sigma) exactly when its order divides h, so
        its order is the first divisor, in (degree, coeffs) order, whose kernel
        holds it.  The table starts at x^n - 1, the last divisor, whose kernel
        is the whole field; every other divisor writes its index over its
        kernel, from last to first, so the last write at a code is its order.
        A kernel is streamed as the sums of the spans of the two halves of its
        F_p basis, y^j b for b in kernel_basis and j < t, packed.
        """
        ctx = self.ctx
        table = [self.top] * ctx.order
        p, K, HI, top_bit = lanes.p, lanes.K, lanes.HI, lanes.w - 1
        mask, shift, split = lanes.mask, lanes.shift, lanes.split
        for idx in range(self.top - 1, -1, -1):
            basis = lanes.fp_basis(kernel_basis(ctx, self.divisors[idx].coeffs))
            half = len(basis) // 2
            lows, highs = lanes.span(basis[:half]), lanes.span(basis[half:])
            if p == 2:
                for h in highs:
                    for v in lows:
                        table[v ^ h] = idx
                continue
            decode_lo, decode_hi = decode
            for h in highs:
                for v in lows:
                    s = v + h
                    s -= (((s + K) & HI) >> top_bit) * p
                    table[decode_lo[s & mask] + decode_hi[s >> shift] * split] = idx
        return table


def scan_tables(ctx: FieldCtx) -> _ScanTables:
    return ctx.memo(_ScanTables)


# -- searches ---------------------------------------------------------------------

def _ceiling_check(ctx: FieldCtx, ceiling_bits: int) -> None:
    if ctx.order > 1 << ceiling_bits:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds the enumeration ceiling 2^{ceiling_bits}")


def search_pair(q: int, n: int, r: int, k: int, ceiling_bits: int = ENUM_CEILING_BITS_DEFAULT) -> SearchOutcome:
    """First alpha in enumeration order with ord(alpha) = ord(alpha^-1) = (q^n-1)/r
    and both alpha, alpha^-1 k-normal.

    ``scanned`` is the number of codes up to the witness, which is its code,
    or q^n - 1 when there is none.  k must lie in [0, n]."""
    ctx = field_for(q, n)
    _ceiling_check(ctx, ceiling_bits)
    if r < 1 or ctx.N % r:
        raise RNotDivisor(f"r = {r} does not divide q^n - 1")
    if not 0 <= k <= ctx.n:
        raise ValueError(f"k = {k} is not in [0, n] = [0, {ctx.n}]")
    preds = ctx.memo(_Predicates)
    lanes = preds.lanes
    t0 = time.perf_counter()
    # the k-normal elements are those of F_q-order of degree n - k; the zero
    # element, of order 1, is not among them
    streams = [preds.exact_order(idx) for idx, d in enumerate(preds.degrees)
               if k < ctx.n and d == ctx.n - k]
    # imported here: loading heapq adds about 0.2 MiB to the peak RSS of
    # every process that imports knpair, and only this search needs it
    from heapq import merge

    hit = None
    for v in merge(*streams):
        if not v & 1:  # a stream's mark of how far it has walked
            continue
        alpha = v >> 1
        # a conjugate alpha^(q^i) has the same F_q-order and order as alpha,
        # and so has its inverse; the least conjugate came first and failed
        if not preds.conjugate_first(alpha):
            continue
        coeffs = lanes.unpack(alpha)
        if preds.knorm(lanes.pack(ctx._inv(coeffs))) != k:
            continue
        if preds.order_is(coeffs, r):
            hit = lanes.code(alpha)
            break
    elapsed = time.perf_counter() - t0
    if hit is None:
        return SearchOutcome(False, None, ctx.N, elapsed)
    witness = ctx.from_code(hit)
    if not pair_verified(witness, r, k):
        raise AssertionError("witness failed independent re-verification")
    return SearchOutcome(True, witness, hit, elapsed)


def pair_verified(alpha: FieldElement, r: int, k: int) -> bool:
    """alpha and alpha^-1 have order (q^n - 1)/r and are k-normal, by the
    direct predicates: mult_order, k_normality and m_gcd_degree."""
    N = alpha.ctx.N
    if alpha.is_zero() or r < 1 or N % r:
        return False
    return all(
        mult_order(a) == N // r and k_normality(a) == k and m_gcd_degree(a) == k
        for a in (alpha, alpha.inv())
    )


def direct_search(q: int, n: int, ceiling_bits: int = ENUM_CEILING_BITS_DEFAULT) -> SearchOutcome:
    """Sweep alpha = beta^q - beta for a primitive 1-normal pair (alpha, alpha^-1).

    Accepts the first beta whose alpha is nonzero with
    deg gcd(m_alpha, x^n - 1) = deg gcd(m_{alpha^-1}, x^n - 1) = 1 and
    ord(alpha) = q^n - 1 (the gcd degree is evaluated as 1-normality of the
    element, which is the same quantity).

    beta + c gives the same alpha for every c in F_q, and of these beta - beta_0
    has the least code, so only the beta with beta_0 = 0 are walked: every
    q-th code.  ``scanned`` is the codes up to the first hit, hit + 1, or q^n
    when there is none."""
    ctx = field_for(q, n)
    _ceiling_check(ctx, ceiling_bits)
    preds = ctx.memo(_Predicates)
    lanes = preds.lanes
    t0 = time.perf_counter()
    # the beta with beta_0 = 0, from the F_p basis y^j x^i with i >= 1, each
    # stacked over its image under sigma - 1; by index, in code order of beta
    units = [tuple(int(i == j) for i in range(ctx.n)) for j in range(1, ctx.n)]
    W = lanes.width
    vectors = [b << W | a for b, a in zip(lanes.fp_basis(units),
                                          lanes.fp_basis([ctx._sub(ctx._frob(u), u) for u in units]))]
    stacked = _Lanes(ctx, 2)
    half = len(vectors) // 2
    lows, highs = stacked.span(vectors[:half]), stacked.span(vectors[half:])
    add, low_mask = stacked.add, (1 << W) - 1
    hit = None
    for v in (add(lv, hv) for hv in highs for lv in lows):
        alpha = v & low_mask
        if not alpha or preds.knorm(alpha) != 1:
            continue
        coeffs = lanes.unpack(alpha)
        if preds.knorm(lanes.pack(ctx._inv(coeffs))) != 1:
            continue
        if preds.order_is(coeffs, 1):
            hit = lanes.code(v >> W)
            break
    elapsed = time.perf_counter() - t0
    if hit is None:
        return SearchOutcome(False, None, ctx.order, elapsed)
    beta = ctx.from_code(hit)
    alpha = beta.frob() - beta
    if not pair_verified(alpha, 1, 1):
        raise AssertionError("witness failed independent re-verification")
    return SearchOutcome(True, alpha, hit + 1, elapsed)


# -- exact counting ---------------------------------------------------------------

def _count_tests(ctx: FieldCtx, g: PolyQ, r: int, h: PolyQ, d: int, H: PolyQ):
    """The predicates of a count, read off the divisor lattice, once
    modstruct.check_seeds has checked every argument.

    With a, g_j, h_j, H_j and e_j the exponent vectors of an F_q-order, g, h,
    H and x^n - 1: beta of order a is h-free when a_j = e_j wherever h_j > 0;
    alpha^-1 of order a is in T_{g,k}^H when it is H-free, a_j + g_j <= e_j
    at every j (the image of (g o .)) and a_j + g_j = e_j wherever
    0 < g_j < e_j (no Lambda o . image).  G = rad(x^n - 1)/rad(g) has
    exponent 1 where g_j = 0 and 0 elsewhere.  alpha is in Q_r^d when
    gam = gcd(dlog alpha, N) = N/ord(alpha) is a multiple of r, coprime to d
    and a multiple of no lambda_j.  Returns (hfree, in_T, in_Q): two lists by
    order index and a test on gam.
    """
    gv, hv, Hv, rd = check_seeds(ctx, g, r, h, d, H)
    lattice = divisor_lattice(ctx)
    vecs, top = lattice.vecs, lattice.vecs[lattice.top]
    hfree = [all(a == e for a, e, hj in zip(v, top, hv) if hj) for v in vecs]
    in_T = [
        all((a == e or not Hj) and a + gj <= e and (a + gj == e or not 0 < gj < e)
            for a, e, gj, Hj in zip(v, top, gv, Hv))
        for v in vecs
    ]
    lambdas = rd.lambdas

    def in_Q(gam: int) -> bool:
        return gam % r == 0 and int_gcd(d, gam) == 1 and all(gam % lam for lam in lambdas)

    return hfree, in_T, in_Q


def count_N(q: int, n: int, r: int, k: int, g: PolyQ, h: PolyQ, d: int, H: PolyQ) -> int:
    """Exact count of beta outside the zero set of (g o .) with beta h-free,
    g o beta in Q_r^d and (g o beta)^-1 in T_{g,k}^H."""
    ctx = field_for(q, n)
    if g.degree != k:
        raise NotADivisor("g must be a monic degree-k divisor of x^n - 1")
    tests = _count_tests(ctx, g, r, h, d, H)  # every argument, before the profile is built
    return _fold_count(pair_profile(ctx, g), *tests)


def pair_profile(ctx: FieldCtx, g: PolyQ):
    """Histogram over beta outside Z of (ord-idx of beta, gcd(dlog(g o beta), N),
    ord-idx of (g o beta)^-1); one pass serves every (r, h, d, H) combination.

    It is folded from the field's element profile (scan_tables(ctx).profile):
    the image of (g o .) is ker ((x^n - 1)/g)(sigma), the alpha whose
    F_q-order has exponents a_j + g_j <= e_j, and each alpha in it has
    q^deg g preimages whose F_q-orders depend only on Ord(alpha).  With
    exponent vectors g_j, a_j and b_j of g, Ord(alpha) and Ord(beta) at the
    factor f_j^e_j of x^n - 1, d_j = deg f_j: if a_j > 0 then
    b_j = a_j + g_j, for q^(d_j g_j) of them; if a_j = 0 then b_j runs over
    0..g_j, for q^(d_j b_j) - q^(d_j (b_j - 1)) of them (1 when b_j = 0).
    The counts multiply over j.  g and any scalar multiple of it have the
    same image and preimages, so only g.monic() is read; NotADivisor is
    raised when that is not a divisor of x^n - 1."""
    gv = exponents(ctx, g, "g")
    lattice = divisor_lattice(ctx)
    q, top, index_of = ctx.q, lattice.vecs[lattice.top], lattice.vec_index

    def preimage_orders(a_idx: int) -> list[tuple[int, int]]:
        """(ord-idx of beta, count) over the preimages of one alpha of order a_idx,
        empty when a_idx is not the order of an element of the image."""
        spread = [((), 1)]
        for (f, _), a, gj, e in zip(lattice.factors, lattice.vecs[a_idx], gv, top):
            qd = q**f.degree
            if a + gj > e:
                return []
            if a:
                options = [(a + gj, qd**gj)]
            else:
                options = [(0, 1)] + [(b, qd**b - qd ** (b - 1)) for b in range(1, gj + 1)]
            spread = [(v + (b,), w * c) for v, w in spread for b, c in options]
        return [(index_of[v], w) for v, w in spread]

    spreads = [preimage_orders(a_idx) for a_idx in range(len(lattice.vecs))]
    hist: dict[tuple[int, int, int], int] = {}
    for (a_idx, gam, inv_idx), cnt in scan_tables(ctx).profile.items():
        for b_idx, w in spreads[a_idx]:
            key = (b_idx, gam, inv_idx)
            hist[key] = hist.get(key, 0) + cnt * w
    return hist


def count_from_profile(ctx: FieldCtx, g: PolyQ, hist, r: int, h: PolyQ, d: int, H: PolyQ) -> int:
    """count_N recomputed from a pair_profile histogram (same quantity)."""
    return _fold_count(hist, *_count_tests(ctx, g, r, h, d, H))


def _fold_count(hist, hfree, in_T, in_Q) -> int:
    return sum(cnt for (b_idx, gam, inv_idx), cnt in hist.items()
               if hfree[b_idx] and in_T[inv_idx] and in_Q(gam))


# -- censuses ---------------------------------------------------------------------

def census(q: int, n: int, what: str, arg: int | None = None):
    """Exhaustive counts: knormal(k) / rprimitive(r) / fq_order_fibers / pair_table(r),
    each a fold of the field's element profile (scan_tables(ctx).profile)."""
    ctx = field_for(q, n)
    # the selector and its argument are checked before the tables are built
    if what == "knormal":
        if arg is None or not 0 <= arg <= ctx.n - 1:
            raise ValueError("knormal census needs k in [0, n-1]")
    elif what in ("rprimitive", "pair_table"):
        if arg is None or arg < 1 or ctx.N % arg:
            raise RNotDivisor(f"r = {arg} does not divide q^n - 1")
    elif what != "fq_order_fibers":
        raise ValueError(f"unknown census selector {what!r}")
    tables = scan_tables(ctx)
    degree = [div.degree for div in tables.divisors]
    profile = tables.profile.items()
    if what == "knormal":
        return sum(cnt for (a, _, _), cnt in profile if degree[a] == ctx.n - arg)
    if what == "rprimitive":
        return sum(cnt for (_, gam, _), cnt in profile if gam == arg)
    if what == "fq_order_fibers":
        fibers = Counter({tables.divisors[tables.ord_idx[0]]: 1})
        for (a, _, _), cnt in profile:
            fibers[tables.divisors[a]] += cnt
        return dict(fibers)
    out: Counter[int] = Counter()
    for (a, gam, inv), cnt in profile:
        if gam == arg and degree[a] == degree[inv]:
            out[ctx.n - degree[a]] += cnt
    return dict(out)
