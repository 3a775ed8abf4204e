"""Multiplicative and additive characters of F_{q^n} at desk scale.

Multiplicative characters are realized through the discrete log against
the primitive element of the table engine (search.scan_tables): the base
character of order d sends g^e to exp(2*pi*i*e/d), and the characters of
exact order d are its j-th powers for gcd(j, d) = 1.  Additive characters
are shifts of the canonical one: psi_y(a) = exp(2*pi*i*Tr(y*a)/p).

On top of the raw characters sit the character-sum characteristic
functions for e-free / h-free elements, images of the module action, and
the Q_r^d and T_{g,k}^H classes: weighted sums, over divisors, of the sums
of all characters of one exact order.  Both families have one divisor
lattice each, of q^n - 1 and of x^n - 1, and one closed form for those
inner sums.  Give a divisor m its norm |m|: m itself, or q^deg m for a
polynomial; phi is then Euler's phi or Phi_q, and mu is mu or mu'.  The
characters of exact order m, at an element a of co-order c, sum to

    S(m, c) = mu(m/delta) phi(m) / phi(m/delta),  delta = gcd(m, c),

where the co-order of a = g^L is gcd(L, q^n - 1), and that of a under the
module action is (x^n - 1)/Ord(a).  (The characters of order dividing m
sum to |m| when m divides c and to 0 otherwise; Moebius inversion over the
divisors of m gives S.)  Every characteristic function reads an element
only through its co-order, and the weighted divisor sums it takes of S --
the free sum of e-freeness and the class sum of the characters of order
dividing m -- are multiplicative in (m, c) like S itself.  So each lattice
keeps S and both sums as tables by co-order and divisor, built factor by
factor from the factorizations of q^n - 1 (FieldCtx.fact_qn_minus_1) and
x^n - 1 (modstruct.divisor_lattice): an evaluation looks up one entry per
divisor argument, and nothing is factored or summed per element.

The F_q-order of psi_y needs no search either: Tr(y * sigma(a)) =
Tr(sigma^-1(y) * a) for the Frobenius sigma, so psi_y is trivial on
h o F_{q^n} exactly when the reciprocal h* of h annihilates y, and
Ord(psi_y) is the monic reciprocal of Ord(y).

Every weight is an integer over a common denominator, so every
characteristic function is an exact int or Fraction, 0 or 1; the test
suite checks them against the direct indicators from modstruct, and the
closed form against literal sums of char_eval.  The tables live on the
context (FieldCtx.memo).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd as int_gcd

from .errors import CtxMismatch, FieldTooLarge, NotADivisor, ZeroElement
from .ffield import FieldCtx, FieldElement, trace_abs
from .fqpoly import PolyQ, exponent_vectors
from .modstruct import GDecomposition, RDecomposition, divisor_lattice
from .search import scan_tables

CHARFUN_CEILING = 1 << 9
_TAU = 2j * cmath.pi


class _Divisors:
    """The divisor lattice of prod P_j^e_j, given by its (norm, exponent) pairs
    (|P_j|, e_j): (p, e) over q^n - 1, (q^deg f, e) over x^n - 1.

    A divisor is an exponent vector, indexed in the odometer order of
    fqpoly.exponent_vectors, so the complement of index m has index
    len(norm) - 1 - m.  By index m: ``norm[m]``, ``phi[m]`` and ``mu[m]`` are
    |m|, phi(m) and mu(m), and ``subs[m]`` lists the indices of the divisors
    of m, ascending.  A row per co-order c, since every sum reads one:

    - ``S[c][m]`` is S(m, c);
    - ``free[c][m]`` is phi(m) * sum_{d | m} mu(d)/phi(d) * S(d, c): |m| at an
      m-free element, else 0;
    - ``cls[c][m]`` is sum_{d | m} S(d, c), the sum of the characters of
      order dividing m.

    Each is multiplicative in (m, c), so it is built factor by factor, as the
    Kronecker product of the tables of one prime power P^e, by (b, a) for
    c = P^b and m = P^a.
    """

    def __init__(self, pairs):
        norm, phi, mu, subs, S, free, cls = [1], [1], [1], [[0]], [[1]], [[1]], [[1]]
        for P, e in reversed(pairs):
            span = range(e + 1)
            powers = [P**a for a in span]
            phi_p = [1] + [pk - pk // P for pk in powers[1:]]
            mu_p = [1, -1] + [0] * (e - 1)
            # local[b][a] = S(P^a, P^b): m/delta = P^max(0, a - b)
            local = [[mu_p[max(0, a - b)] * (phi_p[a] // phi_p[max(0, a - b)]) for a in span] for b in span]
            # mu(P^a') vanishes past a' = 1
            lfree = [[sum(mu_p[d] * (phi_p[a] // phi_p[d]) * loc[d] for d in range(min(a, 1) + 1)) for a in span]
                     for loc in local]
            lcls = [list(accumulate(loc)) for loc in local]
            norm = [x * y for x in norm for y in powers]
            phi = [x * y for x in phi for y in phi_p]
            mu = [x * y for x in mu for y in mu_p]
            subs = [[i * (e + 1) + b for i in sub for b in range(a + 1)] for sub in subs for a in span]
            S, free, cls = _kron(S, local), _kron(free, lfree), _kron(cls, lcls)
        self.norm, self.phi, self.mu, self.subs = norm, phi, mu, subs
        self.S, self.free, self.cls = S, free, cls


def _kron(table, local):
    """The Kronecker product: row (c, b), column (m, a) holds table[c][m] * local[b][a]."""
    return [[x * y for x in row for y in loc] for row in table for loc in local]


class _CharTables:
    """Per-context tables shared by every character evaluation: the divisor
    lattices of q^n - 1 (``mult``) and x^n - 1 (``add``)."""

    def __init__(self, ctx: FieldCtx):
        # the table engine's dlog walk and order table; log_codes[0] is -1,
        # and every caller rejects zero before it looks it up
        scan = scan_tables(ctx)
        self.log_codes = scan.log_codes
        self.ord_idx = scan.ord_idx
        self.fq = ctx.fq
        self.mult = _Divisors(ctx.fact_qn_minus_1.factors)
        self.mult_at = {m: i for i, m in enumerate(self.mult.norm)}
        lattice = divisor_lattice(ctx)
        self.add = _Divisors([(ctx.q**f.degree, e) for f, e in lattice.factors])
        # the add index of each divisor h, keyed by its (monic) coefficients, and
        # by h's lattice index that of (x^n - 1)/h
        at = {v: i for i, (v, _) in enumerate(exponent_vectors(lattice.factors))}
        self.add_at = {h.coeffs: at[v] for h, v in zip(lattice.divisors, lattice.vecs)}
        self.co_order = [len(at) - 1 - at[v] for v in lattice.vecs]
        # Ord(psi_y) is the monic reciprocal of Ord(y), by the trace duality
        recip = [lattice.div_index[PolyQ(ctx.fq, h.coeffs[::-1]).monic()] for h in lattice.divisors]
        self._order_table = [recip[o] for o in self.ord_idx]

    def add_order_table(self) -> list[int]:
        """For each shift code y, the lattice index of the F_q-order of psi_y."""
        return self._order_table

    def divisor_index(self, poly: PolyQ, name: str) -> int:
        """Add index of poly.monic(); CtxMismatch for anything but a polynomial
        over this F_q, NotADivisor when it does not divide x^n - 1."""
        if not isinstance(poly, PolyQ) or poly.fq != self.fq:
            raise CtxMismatch("polynomial and field live over different F_q")
        # a monic poly is found by its own coefficients, any other only by those of poly.monic()
        idx = self.add_at.get(poly.coeffs)
        if idx is None:
            idx = self.add_at.get(poly.monic().coeffs)
        if idx is None:
            raise NotADivisor(f"{name} does not divide x^n - 1")
        return idx


def char_tables(ctx: FieldCtx) -> _CharTables:
    return ctx.memo(_CharTables)


# -- individual characters -------------------------------------------------------

@dataclass(frozen=True)
class CharSpec:
    """A single character: multiplicative of order d (j-th power of the base
    order-d character), or additive with shift y."""

    kind: str  # "mult" or "add"
    ctx: FieldCtx
    d: int = 1
    j: int = 0
    shift_code: int = 0


def mult_char(ctx: FieldCtx, d: int, j: int = 1) -> CharSpec:
    if d < 1 or ctx.N % d:
        raise NotADivisor(f"character order {d} does not divide q^n - 1")
    return CharSpec("mult", ctx, d=d, j=j % d if d > 1 else 0)


def add_char(y: FieldElement) -> CharSpec:
    return CharSpec("add", y.ctx, shift_code=y.code())


def char_eval(spec: CharSpec, a: FieldElement) -> complex:
    ctx = spec.ctx
    if spec.kind == "mult":
        if a.is_zero():
            raise ZeroElement("multiplicative characters are defined on nonzero elements")
        e = char_tables(ctx).log_codes[a.code()]
        N = ctx.N
        return cmath.exp(_TAU * ((e * spec.j * (N // spec.d)) % N) / N)
    return cmath.exp(_TAU * trace_abs(ctx.from_code(spec.shift_code) * a) / ctx.p)


def add_char_fq_order(y: FieldElement) -> PolyQ:
    """Least-degree monic divisor h of x^n - 1 with psi_y trivial on h o F_{q^n}."""
    return divisor_lattice(y.ctx).divisors[char_tables(y.ctx).add_order_table()[y.code()]]


# -- characteristic functions ----------------------------------------------------

def _charfun_tables(ctx: FieldCtx) -> _CharTables:
    if ctx.order > CHARFUN_CEILING:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds the characteristic-function ceiling {CHARFUN_CEILING}")
    return char_tables(ctx)


def rho_e(a: FieldElement, e: int) -> Fraction:
    """Character-sum indicator of e-freeness."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    if e < 1 or ctx.N % e:
        raise NotADivisor(f"{e} does not divide q^n - 1")
    code = a.code()
    if not code:
        raise ZeroElement("rho_e is defined on nonzero elements")
    c = tab.mult_at[int_gcd(tab.log_codes[code], ctx.N)]  # the co-order gcd(dlog a, q^n - 1)
    return Fraction(tab.mult.free[c][tab.mult_at[e]], e)


def upsilon_g(a: FieldElement, g: PolyQ) -> Fraction:
    """Character-sum indicator of g-freeness."""
    tab = _charfun_tables(a.ctx)
    g_idx = tab.divisor_index(g, "g")
    return Fraction(tab.add.free[tab.co_order[tab.ord_idx[a.code()]]][g_idx], tab.add.norm[g_idx])


def psi_set(a: FieldElement, g: PolyQ) -> Fraction:
    """Character-sum indicator of membership in the image of (g o .)."""
    tab = _charfun_tables(a.ctx)
    g_idx = tab.divisor_index(g, "g")
    return Fraction(tab.add.cls[tab.co_order[tab.ord_idx[a.code()]]][g_idx], tab.add.norm[g_idx])


def gamma_rd(a: FieldElement, rd: RDecomposition, d: int) -> Fraction:
    """Character-sum indicator of membership in Q_r^d."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    rd.check_field(ctx)
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    code = a.code()
    if not code:
        raise ZeroElement("gamma_rd is defined on nonzero elements")
    mult, at = tab.mult, tab.mult_at
    c = at[int_gcd(tab.log_codes[code], ctx.N)]
    S, cls = mult.S[c], mult.cls[c]
    num = mult.free[c][at[d]] * cls[at[rd.u]]
    den = rd.r * d
    for p_j, _, _, lam in rd.parts:
        # the ell weights times p_j: p_j - 1 at every divisor of lambda_j but itself, -1 there
        lam_idx = at[lam]
        num *= (p_j - 1) * cls[lam_idx] - p_j * S[lam_idx]
        den *= p_j
    return Fraction(num, den)


def q_gH(a: FieldElement, gd: GDecomposition, H: PolyQ) -> Fraction:
    """Character-sum indicator of membership in T_{g,k}^H."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    gd.check_field(ctx)
    H_idx = tab.divisor_index(H, "H")
    add = tab.add
    if H_idx not in add.subs[tab.divisor_index(gd.G, "G")]:
        raise NotADivisor("H does not divide G")
    c = tab.co_order[tab.ord_idx[a.code()]]
    S, cls = add.S[c], add.cls[c]
    num = add.free[c][H_idx] * cls[tab.divisor_index(gd.pi, "pi")]
    den = add.norm[H_idx] * ctx.q**gd.g.degree
    for f_i, _, _, lam in gd.parts:
        qdeg = ctx.q**f_i.degree
        lam_idx = tab.divisor_index(lam, "Lambda")
        # the ell weights times q^deg f_i: q^deg f_i - 1 at every divisor of Lambda_i but itself, -1 there
        num *= (qdeg - 1) * cls[lam_idx] - qdeg * S[lam_idx]
        den *= qdeg
    return Fraction(num, den)


def eval_charfun(which: str, a: FieldElement, **kwargs) -> Fraction:
    """String-dispatch surface over the characteristic functions."""
    if which == "rho_e":
        return rho_e(a, kwargs["e"])
    if which == "upsilon_g":
        return upsilon_g(a, kwargs["g"])
    if which == "psi_set":
        return psi_set(a, kwargs["g"])
    if which == "gamma_rd":
        return gamma_rd(a, kwargs["rd"], kwargs["d"])
    if which == "Q_gH":
        return q_gH(a, kwargs["gd"], kwargs["H"])
    raise ValueError(f"unknown characteristic function {which!r}")
