"""Exhaustive ground truth: pair searches, the Eq-style counting oracle, and
element censuses.

Two engines coexist, both on one element representation, packed ints
(ffield._Lanes): an element's n*t F_p coordinates, the base-p digits of its
code, sit in lanes of one int, so packed values compare as codes do, and an
addition is one XOR for p = 2 and a few int operations for odd p.  Both read
the divisor lattice of x^n - 1 (modstruct.divisor_lattice) and the echelon
bases of the kernels ker h(sigma) (modstruct.kernel_basis).

The streaming engine is what the searches use; it never builds a
field-sized table, so found-cases exit early and not-found cases stay within
memory.  Both searches walk one stream, _Predicates.stream: the span of a
top-echelon F_p basis in code order, each element carried in one int with
its images under some lattice maps h(sigma), flagged when none is zero, and
the start of each run marked.  search_pair merges by value the streams of
ker h(sigma) for the h of degree n - k, with the maps (h/f)(sigma) for the
primes f of h, which flag the elements of F_q-order exactly h; no stream
walks more than one run past the hit.  direct_search streams the beta with
beta_0 = 0, which give every alpha = beta^q - beta, with the maps
((x^n - 1)/f)(sigma) for the primes f of (x^n - 1)/(x - 1), which flag the
beta whose alpha is 1-normal.  The orbit c * alpha^(q^i), c in F_q^*,
i < n, shares a stream and most of a verdict: every member's inverse has the
F_q-order of alpha^-1, and the order of c alpha^(q^i) is that of c alpha,
with (c alpha)^e = c^e alpha^e.  So only an orbit's least element, the
first to come, passes _Predicates.conjugate_first (monic, with no lesser
monic multiple of a conjugate), and goes to the one candidate test,
_Predicates.pair_test: one inverse, one k-normality descent through the
lattice's quotients, each power alpha^e of the order test once, and from
these the least member that passes.  The merge keeps the best member found
and stops once the walk has passed it.  The streams and the descent apply
h(sigma) by lookup tables over groups of lanes (_Lanes.linear_map), built
from the divisor's matrix (modstruct.action_columns) on first use and kept
on the context; only the inverse and the order test take coefficient tuples.

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

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd as int_gcd

from .errors import FieldTooLarge, NotADivisor, RNotDivisor
from .ffield import FieldCtx, FieldElement, _Lanes, field_for, find_primitive, mult_order
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


# -- per-context scaffolding -----------------------------------------------------

class _Predicates:
    """Streaming per-element predicate kit for one context, on packed ints.

    Elements are packed (_Lanes) wherever the searches read them; only _inv
    and scalar_orders take coefficient tuples.  The map h(sigma) of a lattice
    divisor h is kept as _Lanes.linear_map tables, built from its matrix
    (modstruct.action_columns) the first time the descent or a stream asks
    for it; sigma itself, for the conjugates, is built with the kit.  The
    searches keep one kit per context (FieldCtx.memo).  A search judges
    whole orbits c * alpha^(q^i), c in F_q^*: conjugate_first picks an
    orbit's least element and pair_test gives its verdict.
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
        """Whether the packed element a is the least of its orbit
        c * a^(q^i), c in F_q^*, i < n.  Scaling by c scales the top nonzero
        coefficient, whose least code is 1: a must be monic, and no conjugate
        may be less than a or, of a's degree, have a lesser monic multiple.
        Zero does not pass."""
        bits = self.lanes.coeff_bits
        top = bits * (max(a.bit_length() - 1, 0) // bits)
        if a >> top != 1:
            return False
        digit_code, fq, mask = self.lanes.digit_code, self.ctx.fq, (1 << bits) - 1
        for b in self.conjugates(a):
            if b < a:
                return False
            lead = b >> top
            if lead >> bits == 0 and lead != 1:
                # b / lead against a, from the top coefficient down to the first that differs
                s = fq.inv(digit_code[lead])
                for shift in range(top - bits, -1, -bits):
                    x, y = fq.mul(digit_code[b >> shift & mask], s), digit_code[a >> shift & mask]
                    if x != y:
                        if x < y:
                            return False
                        break
        return True

    def conjugates(self, a: int):
        """The packed a^(q^i) other than a, in order of i."""
        apply, sigma = self.lanes.apply, self.sigma
        b = apply(sigma, a)
        while b != a:
            yield b
            b = apply(sigma, b)

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
        """The stream of ker h(sigma), h = divisors[idx], with the maps
        (h/f_j)(sigma) for the prime factors f_j of h: 2a + 1 for the packed a
        of F_q-order exactly h.  Its F_p basis y^j b, b in kernel_basis, is
        top-echelon: each b is 1 at its top coordinate, where the others are 0.
        """
        return self.stream(self.lanes.fp_basis(kernel_basis(self.ctx, self.divisors[idx].coeffs)),
                           [j for j in self.quot[idx] if j >= 0])

    def stream(self, basis: list[int], maps: list[int]):
        """The F_p span of the packed basis, by index, as 2a + 1 for each a
        that no divisors[j](sigma), j in maps, sends to zero; each run also
        starts with 2a for its first a, whatever its images.

        Each run is one element of the high half's span (_Lanes.halves) plus
        every element of the low half's, each carried in one int with its
        images under the maps stacked below it.  Two elements of a
        top-echelon span first differ, reading from the top, at a top
        coordinate, where their digits are their indices' digits: the span
        runs in code order.  The even values then mark how far the stream has
        walked, so merged by value with other streams, no stream walks more
        than one run past the least element taken so far.
        """
        ctx, lanes = self.ctx, self.lanes
        W, S = lanes.width, len(maps) * lanes.width
        vectors = [sum((self.image(j, u) << i * W for i, j in enumerate(maps)), u << S) for u in basis]
        stacked = _Lanes(ctx, len(maps) + 1)
        lows, highs = stacked.halves(vectors)
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

    def pair_test(self, a: int, alpha: int, r: int, k: int, keep: int = -1) -> int | None:
        """The verdict on one orbit: the least packed c * (a^(q^i) & keep),
        over c in F_q^* and i < n, for which c * alpha has order (q^n - 1)/r,
        when the inverse of alpha is k-normal; None when there is none.  a
        passes conjugate_first, so it is nonzero, and so is alpha: in
        direct_search, beta^q - beta is zero only at beta = 0.

        (c alpha^(q^i))^-1 = c^-1 (alpha^-1)^(q^i) has the F_q-order of
        alpha^-1, and c alpha^(q^i) has the order of c alpha: alpha is
        inverted once, for one descent, and its powers give the order of
        every c alpha at once (scalar_orders).  The walk holds
        c * (a^(q^i) & keep) for the member c alpha^(q^i).  Of the multiples
        of one conjugate, the least has the least top coefficient, and a
        conjugate of a higher degree than a's holds no least member."""
        ctx, lanes, fq = self.ctx, self.lanes, self.ctx.fq
        coeffs = lanes.unpack(alpha)
        if self.knorm(lanes.pack(ctx._inv(coeffs))) != k:
            return None
        conds = self.scalar_orders(coeffs, r)
        if conds is None:
            return None
        fpow, fmul, digit_code, bits = fq.pow, fq.mul, lanes.digit_code, lanes.coeff_bits
        top = bits * ((a.bit_length() - 1) // bits)
        # a comes first, of top coefficient 1, so its u run over all of
        # F_q^*; a later conjugate need only reach the best u so far
        best, bound = None, ctx.q
        for b in chain((a,), self.conjugates(a)):
            b &= keep
            if b >> (top + bits):
                continue
            inv_lc = fq.inv(digit_code[b >> top])
            for u in range(1, bound):
                c = fmul(u, inv_lc)
                if all((fpow(c, e) == s) == equal for e, s, equal in conds):
                    member = lanes.pack(ctx._scale(lanes.unpack(b), c))
                    if best is None or member < best:
                        best, bound = member, u + 1
                    break
            if best is None:
                return None
        return best

    def scalar_orders(self, coeffs: tuple, r: int) -> list[tuple[int, int, bool]] | None:
        """The c in F_q^* for which c * alpha, alpha of these coefficients, has
        order (q^n - 1)/r, as conditions (e, s, equal): c^e == s is equal.
        None when no c passes.

        ord = (q^n - 1)/r takes one confirmation power, (c alpha)^(N/r) = 1
        when r > 1, and one rejection per prime p of N/r, (c alpha)^(N/rp) != 1.
        (c alpha)^e = c^e alpha^e with c^e in F_q, so it is 1 exactly when
        alpha^e is a scalar and c^e = 1/alpha^e; c^e depends only on
        e mod (q - 1).  Each alpha^e is computed once: a confirmation that is
        no scalar, or an exponent divisible by q - 1 whose test fails, rules
        out every c, so those exponents come first and the test stops there.
        """
        ctx = self.ctx
        fq, L, target = ctx.fq, ctx.q - 1, ctx.N // r
        checks = sorted(((target // p, False) for p, _ in ctx.fact_qn_minus_1.factors if target % p == 0),
                        key=lambda check: check[0] % L != 0)
        if r > 1:
            checks.insert(0, (target, True))
        conds = []
        for e, equal in checks:
            power = ctx._pow(coeffs, e)
            if any(power[1:]):  # not in F_q: (c alpha)^e != 1 for every c
                if equal:
                    return None
                continue
            s = fq.inv(power[0])
            if e % L == 0:  # c^e = 1 for every c
                if (s == 1) != equal:
                    return None
                continue
            conds.append((e % L, s, equal))
        return conds


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
        mask, shift, split = lanes.mask, lanes.shift, lanes.split
        low, high = lanes.halves(images)
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
            lows, highs = lanes.halves(lanes.fp_basis(kernel_basis(ctx, self.divisors[idx].coeffs)))
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
    # the k-normal elements are those of F_q-order of degree n - k; the zero
    # element, of order 1, is not among them
    streams = [preds.exact_order(idx) for idx, d in enumerate(preds.degrees)
               if k < ctx.n and d == ctx.n - k]
    # imported here: loading heapq adds about 0.2 MiB to the peak RSS of
    # every process that imports knpair, and only this search needs it
    from heapq import merge

    best = _least_passing(preds, merge(*streams), lambda a: preds.pair_test(a, a, r, k))
    if best is None:
        return SearchOutcome(False, None, ctx.N)
    hit = preds.lanes.code(best)
    witness = ctx.from_code(hit)
    if not pair_verified(witness, r, k):
        raise AssertionError("witness failed independent re-verification")
    return SearchOutcome(True, witness, hit)


def _least_passing(preds: _Predicates, values, verdict) -> int | None:
    """The least packed member that verdict, a pair_test, passes over the
    orbits of the flagged values of a stream in code order, or None.

    An even value is a stream's mark of how far it has walked.  The members
    of an orbit are flagged alike, so each orbit comes first at its least
    element, the one that passes conjugate_first, and is judged there as a
    whole; once the walk has passed the best member found, no orbit still to
    come holds a lesser one."""
    best = None
    for v in values:
        a = v >> 1
        if best is not None and a >= best:
            break
        if v & 1 and preds.conjugate_first(a):
            least = verdict(a)
            if least is not None and (best is None or least < best):
                best = least
    return best


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
    ord(alpha) = q^n - 1.

    beta + c gives the same alpha for every c in F_q, and of these beta - beta_0
    has the least code, so only the beta with beta_0 = 0 are walked: every
    q-th code.  ``scanned`` is the codes up to the first hit, hit + 1, or q^n
    when there is none."""
    ctx = field_for(q, n)
    _ceiling_check(ctx, ceiling_bits)
    preds = ctx.memo(_Predicates)
    lanes = preds.lanes
    # alpha = (sigma - 1) beta lies in ker h*(sigma), h* = (x^n - 1)/(x - 1),
    # and is 1-normal exactly when its F_q-order is h*: when
    # (h*/f)(sigma) alpha = ((x^n - 1)/f)(sigma) beta is nonzero for every
    # prime f of h*, the factors of x^n - 1 but x - 1 of exponent 1
    x_minus_1 = PolyQ.xn_minus_1(ctx.fq, 1)
    maps = [j for j, f_e in zip(preds.quot[preds.top], preds.factors) if f_e != (x_minus_1, 1)]
    sub_one = preds.divisors.index(x_minus_1)
    # the beta with beta_0 = 0 have the top-echelon F_p basis y^j x^i, i >= 1.
    # c beta^(q^i) less its constant term (& keep) is walked too and gives
    # c alpha^(q^i), of the orbit of alpha, and pair_test maps each member
    # back to this beta.  beta, of code a multiple of q, is the least of these
    # exactly when it is the least of the c beta^(q^i), so the least beta of
    # an orbit passes conjugate_first
    units = [tuple(int(i == j) for i in range(ctx.n)) for j in range(1, ctx.n)]
    keep = ~((1 << lanes.coeff_bits) - 1)
    best = _least_passing(preds, preds.stream(lanes.fp_basis(units), maps),
                          lambda beta: preds.pair_test(beta, preds.image(sub_one, beta), 1, 1, keep))
    if best is None:
        return SearchOutcome(False, None, ctx.order)
    hit = lanes.code(best)
    beta = ctx.from_code(hit)
    alpha = beta.frob() - beta
    if not pair_verified(alpha, 1, 1):
        raise AssertionError("witness failed independent re-verification")
    return SearchOutcome(True, alpha, hit + 1)


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
