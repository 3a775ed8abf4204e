"""The F_q[x]-module structure on F_{q^n}.

The additive group of F_{q^n} is an F_q[x]-module under
h o b = sum a_i b^(q^i); every element is annihilated by x^n - 1.  This
module provides the divisor lattice of x^n - 1, the action itself, the
minimal annihilating divisor (fq_order), k-normality, the freeness tests,
the multiplicative and module-theoretic decompositions of r and g, and
membership tests for the element classes the counting machinery
quantifies over.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd

from .errors import CtxMismatch, NotADivisor, TooManyDivisors, ZeroElement
from .ffield import FieldCtx, FieldElement, mult_order
from .fqpoly import DIVISOR_CEILING, PolyFactorization, PolyQ, factor_poly
from .intarith import IntFactorization, factor_int


def _factor_xn1(ctx: FieldCtx) -> tuple[PolyQ, PolyFactorization]:
    poly = PolyQ.xn_minus_1(ctx.fq, ctx.n)
    return poly, factor_poly(poly)


def _xn1_fact(ctx: FieldCtx) -> tuple[PolyQ, PolyFactorization]:
    return ctx.memo(_factor_xn1)


def xn1(ctx: FieldCtx) -> PolyQ:
    """x^n - 1 over F_q for this tower."""
    return _xn1_fact(ctx)[0]


def xn1_factorization(ctx: FieldCtx) -> PolyFactorization:
    return _xn1_fact(ctx)[1]


class DivisorLattice:
    """The monic divisors of x^n - 1, read off its factorization.

    A divisor is an exponent vector a over the factors f_j^e_j of x^n - 1
    (0 <= a_j <= e_j).  ``divisors`` lists them in (degree, coeffs) order and
    ``div_index`` inverts that list.  For each divisor h, by index:

    - ``vecs[h]`` is its exponent vector a;
    - ``quot[h][j]`` is the index of h / f_j, or -1 when f_j does not divide h;
    - ``phi_q[h]`` and ``mu_prime[h]`` are Phi_q(h) and mu'(h);
    - ``sub_divisors[h]`` lists the indices of the divisors of h in
      ``divisors_of(h)`` order (first factor's exponent cycling fastest), so
      sums over it add their terms in the same order as sums over
      ``divisors_of(h)``.

    ``top`` is the index of x^n - 1 itself.
    """

    def __init__(self, ctx: FieldCtx):
        fact = xn1_factorization(ctx)
        self.factors = factors = fact.factors
        one = PolyQ.one(ctx.fq)
        # odometer position of a vector a is sum a_j * stride[j], the order
        # in which divisors_of builds the products
        stride, count = [], 1
        for _, e in factors:
            stride.append(count)
            count *= e + 1
        if count > DIVISOR_CEILING:
            raise TooManyDivisors(f"{count} divisors exceed the ceiling {DIVISOR_CEILING}")
        polys, vecs = [one], [()]
        for f, e in factors:
            powers = [one]
            for _ in range(e):
                powers.append(powers[-1] * f)
            polys = [d * p for p in powers for d in polys]
            vecs = [v + (a,) for a in range(e + 1) for v in vecs]
        order = sorted(range(count), key=lambda i: polys[i].sort_key())
        index_at = [0] * count  # odometer position -> sorted index
        for idx, i in enumerate(order):
            index_at[i] = idx
        self.divisors = [polys[i] for i in order]
        self.vecs = [vecs[i] for i in order]
        self.div_index = {h: idx for idx, h in enumerate(self.divisors)}
        self.top = index_at[count - 1]
        q = ctx.q
        self.quot, self.phi_q, self.mu_prime, self.sub_divisors = [], [], [], []
        for i in order:
            vec = vecs[i]
            self.quot.append([index_at[i - s] if a else -1 for a, s in zip(vec, stride)])
            phi, subs = 1, [0]
            for (f, _), a, s in zip(factors, vec, stride):
                if a:
                    phi *= q ** (f.degree * a) - q ** (f.degree * (a - 1))
                subs = [t + b * s for b in range(a + 1) for t in subs]
            self.phi_q.append(phi)
            self.mu_prime.append(0 if any(a > 1 for a in vec) else (-1) ** sum(vec))
            self.sub_divisors.append([index_at[t] for t in subs])


def divisor_lattice(ctx: FieldCtx) -> DivisorLattice:
    return ctx.memo(DivisorLattice)


# -- the module action ----------------------------------------------------------

def frobenius_orbit(ctx: FieldCtx, coeffs: tuple) -> list[tuple]:
    """[b, b^q, ..., b^(q^(n-1))] as raw coefficient tuples, for the element b
    with these coefficients."""
    orbit = [coeffs]
    for _ in range(ctx.n - 1):
        orbit.append(ctx._frob(orbit[-1]))
    return orbit


def action_coeffs(ctx: FieldCtx, g_coeffs: tuple, orbit: list[tuple]) -> tuple:
    n = ctx.n
    acc = (0,) * n
    for i, c in enumerate(g_coeffs):
        if c:
            acc = ctx._add(acc, ctx._scale(orbit[i % len(orbit)], c))
    return acc


def mod_action(g: PolyQ, b: FieldElement) -> FieldElement:
    """g o b = sum g_i * b^(q^i)."""
    ctx = b.ctx
    if g.fq != ctx.fq:
        raise CtxMismatch("polynomial and element live over different F_q")
    orbit = frobenius_orbit(ctx, b.coeffs)
    return FieldElement(ctx, action_coeffs(ctx, g.coeffs, orbit))


def m_poly(a: FieldElement) -> list[FieldElement]:
    """Coefficients (constant first) of sum_i a^(q^(i-1)) x^(n-i)."""
    ctx = a.ctx
    orbit = frobenius_orbit(ctx, a.coeffs)
    # coefficient of x^j is a^(q^(n-1-j))
    return [FieldElement(ctx, orbit[ctx.n - 1 - j]) for j in range(ctx.n)]


def _strip_big(c: list[FieldElement]) -> list[FieldElement]:
    while c and c[-1].is_zero():
        c.pop()
    return c


def m_gcd_degree(a: FieldElement) -> int:
    """deg gcd(m_a(x), x^n - 1) over F_{q^n}, by plain Euclid."""
    ctx = a.ctx
    one, zero = ctx.one(), ctx.zero()
    f = _strip_big([-one] + [zero] * (ctx.n - 1) + [one])
    g = _strip_big(m_poly(a))
    while g:
        lead_inv = g[-1].inv()
        rem = list(f)
        while len(rem) >= len(g):
            factor = rem[-1] * lead_inv
            shift = len(rem) - len(g)
            for i, c in enumerate(g):
                rem[shift + i] = rem[shift + i] - factor * c
            _strip_big(rem)
        f, g = g, rem
    return len(f) - 1


def fq_order(a: FieldElement) -> PolyQ:
    """Minimal monic divisor h of x^n - 1 with h o a = 0 (1 for the zero element)."""
    ctx = a.ctx
    poly, fact = _xn1_fact(ctx)
    orbit = frobenius_orbit(ctx, a.coeffs)
    zero = (0,) * ctx.n
    h = poly
    for f, e in fact.factors:
        for _ in range(e):
            cand = h // f
            if action_coeffs(ctx, cand.coeffs, orbit) == zero:
                h = cand
            else:
                break
    return h


def k_normality(a: FieldElement) -> int:
    """k with deg gcd(m_a, x^n - 1) = k, computed as n - deg(fq_order)."""
    if a.is_zero():
        raise ZeroElement("k-normality is defined for nonzero elements only")
    return a.ctx.n - fq_order(a).degree


def is_e_free(b: FieldElement, e: int) -> bool:
    """No divisor of e beyond 1 divides (q^n - 1)/ord(b)."""
    ctx = b.ctx
    if e < 1 or ctx.N % e:
        raise NotADivisor(f"{e} does not divide q^n - 1")
    if b.is_zero():
        raise ZeroElement("e-freeness is defined for nonzero elements only")
    return int_gcd(e, ctx.N // mult_order(b)) == 1


def is_h_free(b: FieldElement, h: PolyQ) -> bool:
    """gcd(h, (x^n - 1)/Ord_q(b)) = 1."""
    ctx = b.ctx
    poly = xn1(ctx)
    if h.is_zero() or not h.divides(poly):
        raise NotADivisor("h does not divide x^n - 1")
    co_order = poly // fq_order(b)
    return h.gcd(co_order).degree == 0


# -- decompositions of r and g ---------------------------------------------------

@dataclass(frozen=True)
class RDecomposition:
    """r = u * prod(p_j^b_j) with p_j^(b_j+1) | q^n - 1 and gcd(u, (q^n-1)/u) = 1."""

    r: int
    u: int
    parts: tuple[tuple[int, int, int, int], ...]  # (p_j, b_j, delta_j, lambda_j)
    R: int
    N: int

    def __post_init__(self) -> None:
        prod = self.u
        for p, b, delta, lam in self.parts:
            if delta != p**b or lam != p ** (b + 1):
                raise NotADivisor("inconsistent part powers")
            if self.N % lam:
                raise NotADivisor("lambda_j does not divide q^n - 1")
            prod *= delta
        if prod != self.r:
            raise NotADivisor("parts do not multiply back to r")
        if int_gcd(self.u, self.N // self.u) != 1:
            raise NotADivisor("u is not unitary in q^n - 1")

    @property
    def lambdas(self) -> tuple[int, ...]:
        return tuple(lam for _, _, _, lam in self.parts)


@dataclass(frozen=True)
class GDecomposition:
    """g = pi * prod(f_i^b_i) with f_i^(b_i+1) | x^n - 1 and pi unitary."""

    g: PolyQ
    pi: PolyQ
    parts: tuple[tuple[PolyQ, int, PolyQ, PolyQ], ...]  # (f_i, b_i, Delta_i, Lambda_i)
    G: PolyQ
    xn1: PolyQ

    def __post_init__(self) -> None:
        prod = self.pi
        for f, b, delta, lam in self.parts:
            if delta != f**b or lam != f ** (b + 1):
                raise NotADivisor("inconsistent part powers")
            if not lam.divides(self.xn1):
                raise NotADivisor("Lambda_i does not divide x^n - 1")
            prod = prod * delta
        if prod != self.g:
            raise NotADivisor("parts do not multiply back to g")
        if self.pi.gcd(self.xn1 // self.pi).degree != 0:
            raise NotADivisor("pi is not unitary in x^n - 1")

    @property
    def lambdas(self) -> tuple[PolyQ, ...]:
        return tuple(lam for _, _, _, lam in self.parts)

    @property
    def k(self) -> int:
        return self.g.degree


def decompose_r(r: int, ctx: FieldCtx) -> RDecomposition:
    N = ctx.N
    if r < 1 or N % r:
        raise NotADivisor(f"r = {r} does not divide q^n - 1 = {N}")
    fact_N = ctx.fact_qn_minus_1
    fact_r = factor_int(r)
    u = 1
    parts = []
    for p, b in fact_r.factors:
        if fact_N.exponent_of(p) > b:
            parts.append((p, b, p**b, p ** (b + 1)))
        else:
            u *= p**b
    R = fact_N.radical() // fact_r.radical()
    return RDecomposition(r, u, tuple(parts), R, N)


def decompose_g(g: PolyQ, ctx: FieldCtx) -> GDecomposition:
    poly, fact_xn1 = _xn1_fact(ctx)
    g = g.monic()
    if g.is_zero() or not g.divides(poly):
        raise NotADivisor("g does not divide x^n - 1")
    fact_g = factor_poly(g)
    pi = PolyQ.one(ctx.fq)
    parts = []
    for f, b in fact_g.factors:
        if fact_xn1.exponent_of(f) > b:
            parts.append((f, b, f**b, f ** (b + 1)))
        else:
            pi = pi * f**b
    G = fact_xn1.radical() // fact_g.radical()
    return GDecomposition(g, pi, tuple(parts), G, poly)


# -- element-class membership ----------------------------------------------------

def in_Qrd(a: FieldElement, rd: RDecomposition, d: int) -> bool:
    """a is d-free, an r-th power, and not a lambda_j-th power for any j."""
    ctx = a.ctx
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if a.is_zero():
        raise ZeroElement("Q_r^d membership is defined for nonzero elements only")
    if not is_e_free(a, d):
        return False
    N = ctx.N
    one = (1,) + (0,) * (ctx.n - 1)
    if ctx._pow(a.coeffs, N // rd.r) != one:
        return False
    for lam in rd.lambdas:
        if ctx._pow(a.coeffs, N // lam) == one:
            return False
    return True


def in_TgkH(a: FieldElement, gd: GDecomposition, H: PolyQ) -> bool:
    """a is H-free, in the image of (g o .), and in no (Lambda_i o .) image."""
    ctx = a.ctx
    if H.is_zero() or not H.divides(gd.G):
        raise NotADivisor("H does not divide G")
    if a.is_zero():
        raise ZeroElement("T_{g,k}^H membership is defined for nonzero elements only")
    if not is_h_free(a, H):
        return False
    orbit = frobenius_orbit(ctx, a.coeffs)
    zero = (0,) * ctx.n
    co_g = gd.xn1 // gd.g
    if action_coeffs(ctx, co_g.coeffs, orbit) != zero:
        return False
    for lam in gd.lambdas:
        co_lam = gd.xn1 // lam
        if action_coeffs(ctx, co_lam.coeffs, orbit) == zero:
            return False
    return True


def in_Sgk(a: FieldElement, gd: GDecomposition) -> bool:
    """Membership in S_{g,k}: k-normal with co-order exactly g."""
    return in_TgkH(a, gd, gd.G)
