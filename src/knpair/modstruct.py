"""The F_q[x]-module structure on F_{q^n}.

The additive group of F_{q^n} is an F_q[x]-module under
h o b = sum h_i b^(q^i); every element is annihilated by x^n - 1.  The
action is F_q-linear in b, so each h(sigma) is a matrix on the power
basis, and FieldCtx._combine is the one routine that applies it: to the
columns of the matrix, or to the Frobenius orbit of b.  This module
provides the divisor lattice of x^n - 1, one divisor's exponent vector
(exponents), the action itself, the matrix of g(sigma) (action_columns,
read off the context's powers of sigma on the power basis) and an echelon
basis of ker h(sigma) (kernel_basis), the only way the engines obtain
either, the minimal annihilating divisor (fq_order), k-normality, the
freeness tests, the multiplicative and module-theoretic decompositions of
r and g, and membership tests for the element classes the counting
machinery quantifies over.  fq_order, m_poly and m_gcd_degree keep their
orbit-and-polynomial forms: they are the oracles the engines are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd

from . import _polyops
from .errors import CtxMismatch, NotADivisor, ZeroElement
from .ffield import FieldCtx, FieldElement, mult_order
from .fqpoly import PolyFactorization, PolyQ, exponent_vectors, factor_poly
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
    (0 <= a_j <= e_j), as fqpoly.exponent_vectors lists them with their
    products.  ``divisors`` keeps them in (degree, coeffs) order and
    ``div_index`` inverts that list.  For each divisor h, by index:

    - ``vecs[h]`` is its exponent vector a, and ``vec_index`` inverts ``vecs``;
    - ``quot[h][j]`` is the index of h / f_j, or -1 when f_j does not divide h.

    ``top`` is the index of x^n - 1 itself.  The character sums keep their
    own tables over the same vectors (characters._Divisors).
    """

    def __init__(self, ctx: FieldCtx):
        self.factors = factors = xn1_factorization(ctx).factors
        listed = sorted(exponent_vectors(factors, one=PolyQ.one(ctx.fq)), key=lambda vh: vh[1].sort_key())
        self.vecs = [v for v, _ in listed]
        self.divisors = [h for _, h in listed]
        self.div_index = {h: idx for idx, h in enumerate(self.divisors)}
        self.vec_index = at = {v: idx for idx, v in enumerate(self.vecs)}
        self.top = at[tuple(e for _, e in factors)]
        self.quot = [[at[vec[:j] + (a - 1,) + vec[j + 1:]] if a else -1 for j, a in enumerate(vec)]
                     for vec in self.vecs]


def divisor_lattice(ctx: FieldCtx) -> DivisorLattice:
    return ctx.memo(DivisorLattice)


def exponents(ctx: FieldCtx, poly: PolyQ, name: str) -> tuple[int, ...]:
    """The exponent vector of poly.monic() over the factors f_j^e_j of x^n - 1,
    by at most e_j divisions by each f_j: no lattice, so no DIVISOR_CEILING.
    CtxMismatch for anything but a polynomial over this F_q, NotADivisor when
    it does not divide x^n - 1."""
    if not isinstance(poly, PolyQ) or poly.fq != ctx.fq:
        raise CtxMismatch("polynomial and field live over different F_q")
    fq, vec = ctx.fq, []
    rest = list(poly.monic().coeffs)
    for f, e in xn1_factorization(ctx).factors:
        b = 0
        while b < e and len(rest) > f.degree:
            quo, rem = _polyops.divmod_(fq, rest, f.coeffs)
            if rem:
                break
            rest, b = quo, b + 1
        vec.append(b)
    if rest != [fq.one]:  # the zero polynomial stays empty
        raise NotADivisor(f"{name} does not divide x^n - 1")
    return tuple(vec)


# -- the module action ----------------------------------------------------------

def frobenius_orbit(ctx: FieldCtx, coeffs: tuple) -> list[tuple]:
    """[b, b^q, ..., b^(q^(n-1))] as raw coefficient tuples, for the element b
    with these coefficients."""
    return [coeffs] + [ctx._frob(coeffs, i) for i in range(1, ctx.n)]


def mod_action(g: PolyQ, b: FieldElement) -> FieldElement:
    """g o b = sum g_i * b^(q^i)."""
    ctx = b.ctx
    if g.fq != ctx.fq:
        raise CtxMismatch("polynomial and element live over different F_q")
    return FieldElement(ctx, ctx._combine(g.coeffs, frobenius_orbit(ctx, b.coeffs)))


def action_columns(ctx: FieldCtx, g_coeffs: tuple) -> list[tuple]:
    """The matrix of g(sigma) on the power basis: column j is g o x^j.

    It reads the context's powers of sigma on the power basis, so the orbit
    of x^j is [sigma^i(x^j) for i < n].  ``ctx._combine(v, columns)`` is
    then g o v for the element with coefficients v."""
    return [ctx._combine(g_coeffs, orbit) for orbit in zip(*ctx.memo(FieldCtx._build_frob_powers))]


def kernel_basis(ctx: FieldCtx, h_coeffs: tuple) -> list[tuple]:
    """Echelon basis of ker h(sigma), deg h vectors when h divides x^n - 1.

    The matrix of h(sigma) goes to reduced echelon form.  Free column f gives
    the vector that is 1 at f, 0 at every other free column and minus the
    f-th entries of the pivot rows at their pivots, all of which lie below f.
    So each vector's top coordinate is its free column, where it is 1, and
    the tops increase along the list.
    """
    fq, n = ctx.fq, ctx.n
    rows = [list(row) for row in zip(*action_columns(ctx, h_coeffs))]
    pivots: list[int] = []
    for c in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = fq.inv(rows[rank][c])
        rows[rank] = [fq.mul(s, x) for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                m = row[c]
                rows[i] = [fq.sub(x, fq.mul(m, y)) for x, y in zip(row, rows[rank])]
        pivots.append(c)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = fq.one
            for row, c in zip(rows, pivots):
                v[c] = fq.neg(row[f])
            basis.append(tuple(v))
    return basis


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
            if ctx._combine(cand.coeffs, orbit) == zero:
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

    def check_field(self, ctx: FieldCtx) -> None:
        """CtxMismatch unless r was decomposed in this field's q^n - 1."""
        if self.N != ctx.N:
            raise CtxMismatch(f"r was decomposed in q^n - 1 = {self.N}, not {ctx.N}")


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

    def check_field(self, ctx: FieldCtx) -> None:
        """CtxMismatch unless g was decomposed over this field's x^n - 1 (the
        extension modulus may differ)."""
        if self.xn1 != xn1(ctx):
            raise CtxMismatch("g was decomposed over another x^n - 1")


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
    """Read off g's exponent vector b over x^n - 1 = prod f_j^e_j: f_j goes
    into G where b_j = 0, is a part where 0 < b_j < e_j, and f_j^e_j goes
    into pi where b_j = e_j."""
    vec = exponents(ctx, g, "g")
    pi = G = PolyQ.one(ctx.fq)
    parts = []
    for (f, e), b in zip(xn1_factorization(ctx).factors, vec):
        if b == 0:
            G = G * f
        elif b < e:
            parts.append((f, b, f**b, f ** (b + 1)))
        else:
            pi = pi * f**e
    return GDecomposition(g.monic(), pi, tuple(parts), G, xn1(ctx))


def check_seeds(ctx: FieldCtx, g: PolyQ, r: int, h: PolyQ, d: int, H: PolyQ):
    """The exponent vectors of g, h and H and the decomposition of r, after
    checking that g and h divide x^n - 1, r divides q^n - 1, d divides R and
    H divides G (G has exponent 1 where g has 0, and 0 elsewhere); raises
    CtxMismatch or NotADivisor otherwise.  Returns (gv, hv, Hv, rd)."""
    gv, hv, Hv = exponents(ctx, g, "g"), exponents(ctx, h, "h"), exponents(ctx, H, "H")
    rd = decompose_r(r, ctx)
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if any(Hj > (gj == 0) for Hj, gj in zip(Hv, gv)):
        raise NotADivisor("H does not divide G")
    return gv, hv, Hv, rd


# -- element-class membership ----------------------------------------------------

def in_Qrd(a: FieldElement, rd: RDecomposition, d: int) -> bool:
    """a is d-free, an r-th power, and not a lambda_j-th power for any j.

    All three read o = ord(a): a is d-free when gcd(d, N/o) = 1, and an
    m-th power, for m | N, when o divides N/m."""
    ctx = a.ctx
    rd.check_field(ctx)
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if a.is_zero():
        raise ZeroElement("Q_r^d membership is defined for nonzero elements only")
    co = ctx.N // mult_order(a)
    return int_gcd(d, co) == 1 and co % rd.r == 0 and all(co % lam for lam in rd.lambdas)


def in_TgkH(a: FieldElement, gd: GDecomposition, H: PolyQ) -> bool:
    """a is H-free, in the image of (g o .), and in no (Lambda_i o .) image.

    All three read Ord(a): the image of (D o .) is ker ((x^n - 1)/D)(sigma),
    so a lies in it when Ord(a) divides (x^n - 1)/D."""
    gd.check_field(a.ctx)
    if H.is_zero() or not H.divides(gd.G):
        raise NotADivisor("H does not divide G")
    if a.is_zero():
        raise ZeroElement("T_{g,k}^H membership is defined for nonzero elements only")
    # Ord(a) | (x^n - 1)/D exactly when D | (x^n - 1)/Ord(a)
    co_order = gd.xn1 // fq_order(a)
    return (H.gcd(co_order).degree == 0 and gd.g.divides(co_order)
            and not any(lam.divides(co_order) for lam in gd.lambdas))


def in_Sgk(a: FieldElement, gd: GDecomposition) -> bool:
    """Membership in S_{g,k}: k-normal with co-order exactly g."""
    return in_TgkH(a, gd, gd.G)
