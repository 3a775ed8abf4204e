"""Multiplicative and additive characters of F_{q^n} at desk scale.

Multiplicative characters are realized through the discrete log against
the primitive element of the table engine (search.scan_tables): the base
character of order d sends g^e to exp(2*pi*i*e/d), and the characters of
exact order d are its j-th powers for gcd(j, d) = 1.  Additive characters
are shifts of the canonical one: psi_y(a) = exp(2*pi*i*Tr(y*a)/p).

On top of the raw characters sit the character-sum characteristic
functions for e-free / h-free elements, images of the module action, and
the Q_r^d and T_{g,k}^H classes: weighted sums, over divisors, of the sums
of all characters of one exact order.  Those inner sums have closed forms.

- Multiplicative: the characters of exact order m, at g^L, sum to the
  Ramanujan sum c_m(L) = mu(m/delta) phi(m) / phi(m/delta), with
  delta = gcd(m, L).  mu and phi are tabulated over the divisors of
  q^n - 1, read off its one factorization (FieldCtx.fact_qn_minus_1).
- Additive: the characters psi with F_q-order dividing D are those trivial
  on D o F_{q^n}, a group of q^deg D characters that sums at a to
  q^deg D [Ord(a) | (x^n - 1)/D].  Moebius inversion over the divisors of
  h gives the sum S(h, a) over the characters of exact order h; it is
  mu'(h/delta) Phi_q(h) / Phi_q(h/delta) with
  delta = gcd(h, (x^n - 1)/Ord(a)).  It depends on a only through its
  F_q-order, so it is one integer table, by divisor and order index.

The F_q-order of psi_y needs no search either: Tr(y * sigma(a)) =
Tr(sigma^-1(y) * a) for the Frobenius sigma, so psi_y is trivial on
h o F_{q^n} exactly when the reciprocal h* of h annihilates y, and
Ord(psi_y) is the monic reciprocal of Ord(y).

Every weight is an integer over a common denominator, so every
characteristic function is an exact int or Fraction, 0 or 1; the test
suite checks them against the direct indicators from modstruct, and the
closed forms against literal sums of char_eval.  Everything they need of a
polynomial argument -- whether it divides x^n - 1, its Phi_q and mu', and
the list of its own divisors -- is looked up by its index in the divisor
lattice of x^n - 1 (modstruct.divisor_lattice); no integer or polynomial
is factored per element.  The tables live on the context (FieldCtx.memo).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .errors import CtxMismatch, FieldTooLarge, NotADivisor, ZeroElement
from .ffield import FieldCtx, FieldElement, trace_abs
from .fqpoly import PolyQ, divisors_of
from .intarith import divisors as int_divisors
from .modstruct import GDecomposition, RDecomposition, divisor_lattice
from .search import scan_tables

CHARFUN_CEILING = 1 << 9
_TAU = 2j * cmath.pi


class _CharTables:
    """Per-context tables shared by every character evaluation."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        # the table engine's dlog walk and order table; log_codes[0] is -1,
        # and every caller rejects zero before it looks it up
        scan = scan_tables(ctx)
        self.log_codes = scan.log_codes
        self.ord_idx = scan.ord_idx
        lattice = divisor_lattice(ctx)
        self.divisors = lattice.divisors
        self.div_index = lattice.div_index
        self.phi_q = lattice.phi_q
        self.mu_prime = lattice.mu_prime
        self.sub_divisors = lattice.sub_divisors
        # mu, phi and the divisor list of every divisor of q^n - 1
        self.mu, self.phi = {1: 1}, {1: 1}
        for p, e in ctx.fact_qn_minus_1.factors:
            for d in list(self.phi):
                pk = 1
                for k in range(1, e + 1):
                    pk *= p
                    self.mu[d * pk] = -self.mu[d] if k == 1 else 0
                    self.phi[d * pk] = self.phi[d] * (pk - pk // p)
        self.int_divs = {d: [c for c in self.phi if d % c == 0] for d in self.phi}
        # add_sums[h][o] = S(h, a) for every a of order index o: h/delta has
        # exponents max(0, h_j + o_j - e_j) over the factors f_j^e_j of x^n - 1
        vecs = lattice.vecs
        at = {v: i for i, v in enumerate(vecs)}
        top = vecs[lattice.top]
        self.add_sums = []
        for h, hv in enumerate(vecs):
            row = []
            for ov in vecs:
                rest = at[tuple(max(0, a + b - e) for a, b, e in zip(hv, ov, top))]
                row.append(self.mu_prime[rest] * (self.phi_q[h] // self.phi_q[rest]))
            self.add_sums.append(row)
        # Ord(psi_y) is the monic reciprocal of Ord(y), by the trace duality
        recip = [self.div_index[PolyQ(ctx.fq, h.coeffs[::-1]).monic()] for h in self.divisors]
        self._order_table = [recip[o] for o in self.ord_idx]

    def add_order_table(self) -> list[int]:
        """For each shift code y, the index of the F_q-order of psi_y."""
        return self._order_table

    def divisor_index(self, g: PolyQ) -> int:
        """Index of the monic form of g among the divisors of x^n - 1."""
        if not isinstance(g, PolyQ) or g.fq != self.ctx.fq:
            raise CtxMismatch("polynomials live over different subfields")
        idx = self.div_index.get(g.monic())
        if idx is None:
            raise NotADivisor(f"{g!r} does not divide x^n - 1")
        return idx

    # -- slot sums -------------------------------------------------------------
    def mult_char_sum(self, m: int, e_log: int) -> int:
        """Sum over the characters of exact order m, evaluated at prim^e_log."""
        rest = m // int_gcd(m, e_log)
        return self.mu[rest] * (self.phi[m] // self.phi[rest])

    def add_char_sum(self, div_idx: int, a_code: int) -> int:
        """Sum over the additive characters of exact F_q-order divisors[div_idx]."""
        return self.add_sums[div_idx][self.ord_idx[a_code]]

    def mult_free_sum(self, e: int, e_log: int) -> int:
        """phi(e) * sum_{d | e} mu(d)/phi(d) * (the order-d slot sum)."""
        total = 0
        for d in self.int_divs[e]:
            if self.mu[d]:
                total += self.mu[d] * (self.phi[e] // self.phi[d]) * self.mult_char_sum(d, e_log)
        return total

    def add_free_sum(self, g_idx: int, a_code: int) -> int:
        """Phi_q(g) * sum_{h | g} mu'(h)/Phi_q(h) * (the order-h slot sum)."""
        total, phi_g = 0, self.phi_q[g_idx]
        for idx in self.sub_divisors[g_idx]:
            if self.mu_prime[idx]:
                total += self.mu_prime[idx] * (phi_g // self.phi_q[idx]) * self.add_char_sum(idx, a_code)
        return total


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
    tab = char_tables(y.ctx)
    return tab.divisors[tab.add_order_table()[y.code()]]


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
    if a.is_zero():
        raise ZeroElement("rho_e is defined on nonzero elements")
    return Fraction(tab.mult_free_sum(e, tab.log_codes[a.code()]), e)


def upsilon_g(a: FieldElement, g: PolyQ) -> Fraction:
    """Character-sum indicator of g-freeness."""
    tab = _charfun_tables(a.ctx)
    g_idx = tab.divisor_index(g)
    return Fraction(tab.add_free_sum(g_idx, a.code()), a.ctx.q ** tab.divisors[g_idx].degree)


def psi_set(a: FieldElement, g: PolyQ) -> Fraction:
    """Character-sum indicator of membership in the image of (g o .)."""
    tab = _charfun_tables(a.ctx)
    g_idx = tab.divisor_index(g)
    code = a.code()
    total = sum(tab.add_char_sum(idx, code) for idx in tab.sub_divisors[g_idx])
    return Fraction(total, a.ctx.q ** tab.divisors[g_idx].degree)


def gamma_rd(a: FieldElement, rd: RDecomposition, d: int) -> Fraction:
    """Character-sum indicator of membership in Q_r^d."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    if rd.N != ctx.N:
        raise CtxMismatch(f"r was decomposed in q^n - 1 = {rd.N}, not {ctx.N}")
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if a.is_zero():
        raise ZeroElement("gamma_rd is defined on nonzero elements")
    e_log = tab.log_codes[a.code()]
    num = tab.mult_free_sum(d, e_log) * sum(tab.mult_char_sum(d2, e_log) for d2 in tab.int_divs[rd.u])
    den = rd.r * d
    for p_j, _, _, lam in rd.parts:
        # the ell weights -1/p_j (e_j = lambda_j) and (p_j - 1)/p_j, times p_j
        num *= sum((-1 if e_j == lam else p_j - 1) * tab.mult_char_sum(e_j, e_log) for e_j in tab.int_divs[lam])
        den *= p_j
    return Fraction(num, den)


def q_gH(a: FieldElement, gd: GDecomposition, H: PolyQ) -> Fraction:
    """Character-sum indicator of membership in T_{g,k}^H."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    H_idx = tab.divisor_index(H)
    if H_idx not in tab.sub_divisors[tab.divisor_index(gd.G)]:
        raise NotADivisor("H does not divide G")
    code = a.code()
    num = tab.add_free_sum(H_idx, code)
    num *= sum(tab.add_char_sum(idx, code) for idx in tab.sub_divisors[tab.divisor_index(gd.pi)])
    den = ctx.q ** (tab.divisors[H_idx].degree + gd.g.degree)
    for f_i, _, _, lam in gd.parts:
        qdeg = ctx.q**f_i.degree
        lam_idx = tab.divisor_index(lam)
        # the ell weights -1/q^deg f_i (h = Lambda_i) and (q^deg f_i - 1)/q^deg f_i, times q^deg f_i
        num *= sum((-1 if idx == lam_idx else qdeg - 1) * tab.add_char_sum(idx, code)
                   for idx in tab.sub_divisors[lam_idx])
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


# -- weight bundles ---------------------------------------------------------------

@dataclass(frozen=True)
class CharWeights:
    """The ell weights appearing in the Q_r^d and T_{g,k}^H sums."""

    ell_int: tuple[tuple[tuple[int, int], Fraction], ...]
    ell_poly: tuple[tuple[tuple[PolyQ, PolyQ], Fraction], ...]

    def int_weight(self, p_j: int, e_j: int) -> Fraction:
        for (p, e), w in self.ell_int:
            if (p, e) == (p_j, e_j):
                return w
        raise KeyError((p_j, e_j))

    def poly_weight(self, f_i: PolyQ, h: PolyQ) -> Fraction:
        for (f, hh), w in self.ell_poly:
            if (f, hh) == (f_i, h):
                return w
        raise KeyError((f_i, h))


def build_char_weights(rd: RDecomposition | None = None, gd: GDecomposition | None = None) -> CharWeights:
    ints = []
    if rd is not None:
        for p_j, _, _, lam in rd.parts:
            for e_j in int_divisors(lam):
                w = Fraction(-1, p_j) if e_j == lam else Fraction(p_j - 1, p_j)
                ints.append(((p_j, e_j), w))
    polys = []
    if gd is not None:
        for f_i, _, _, lam in gd.parts:
            qdeg = f_i.fq.q**f_i.degree
            for h in divisors_of(lam):
                w = Fraction(-1, qdeg) if h == lam else Fraction(qdeg - 1, qdeg)
                polys.append(((f_i, h), w))
    return CharWeights(tuple(ints), tuple(polys))
