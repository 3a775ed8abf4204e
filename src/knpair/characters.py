"""Multiplicative and additive characters of F_{q^n} at desk scale.

Multiplicative characters are realized through the discrete log against
the primitive element of the table engine (search.scan_tables): the base
character of order d sends g^e to exp(2*pi*i*e/d), and the characters of
exact order d are its j-th powers for gcd(j, d) = 1.  Additive characters
are shifts of the canonical one: psi_y(a) = exp(2*pi*i*Tr(y*a)/p).

On top of the raw characters sit the character-sum characteristic
functions for e-free / h-free elements, images of the module action, and
the Q_r^d and T_{g,k}^H classes.  These are evaluated as literal weighted
character sums (the inner sums over independent character slots are
grouped into per-slot factors, which leaves the value unchanged), and the
test suite checks them against the direct indicators from modstruct.
Everything those sums need of a polynomial argument -- whether it divides
x^n - 1, its Phi_q and mu', and the list of its own divisors -- is looked
up by its index in the divisor lattice of x^n - 1
(modstruct.divisor_lattice), which is read off the one factorization of
x^n - 1 once per context; no polynomial is factored per element.  The
tables live on the context (FieldCtx.memo).
"""

from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .errors import CtxMismatch, FieldTooLarge, NotADivisor, ZeroElement
from .ffield import FieldCtx, FieldElement
from .fqpoly import PolyQ, divisors_of
from .intarith import divisors as int_divisors
from .intarith import euler_phi, moebius
from .modstruct import GDecomposition, RDecomposition, divisor_lattice, mod_action
from .search import scan_tables

CHARFUN_CEILING = 1 << 9
ADD_ORDER_CEILING = 1 << 12


class _CharTables:
    """Per-context lookup tables shared by every character evaluation."""

    def __init__(self, ctx: FieldCtx):
        if ctx.order > ADD_ORDER_CEILING:
            raise FieldTooLarge(f"|F| = {ctx.order} exceeds the character ceiling {ADD_ORDER_CEILING}")
        self.ctx = ctx
        # the dlog walk comes from the table engine; log_codes[0] is -1, and
        # mulc and char_eval reject zero before they look it up
        scan = scan_tables(ctx)
        self.pow_codes = scan.pow_codes
        self.log_codes = scan.log_codes
        lattice = divisor_lattice(ctx)
        self.divisors = lattice.divisors
        self.div_index = lattice.div_index
        self.phi_q = lattice.phi_q
        self.mu_prime = lattice.mu_prime
        self.sub_divisors = lattice.sub_divisors
        self.trace = [ctx._trace_abs(ctx.from_code(c).coeffs) for c in range(ctx.order)]
        tau = 2j * cmath.pi
        self.psi0 = [cmath.exp(tau * t / ctx.p) for t in self.trace]
        self.roots = [cmath.exp(tau * m / ctx.N) for m in range(ctx.N)]
        self._order_table: list[int] | None = None
        self._ys_by_order: dict[int, list[int]] = {}
        self._order_lock = threading.Lock()

    def mulc(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        la, lb = self.log_codes[a], self.log_codes[b]
        return self.pow_codes[(la + lb) % self.ctx.N]

    # -- F_q-orders of additive characters ------------------------------------
    def _basis_codes(self) -> list[int]:
        ctx = self.ctx
        return [ctx.p**j * ctx.q**i for i in range(ctx.n) for j in range(ctx.t)]

    def add_order_table(self) -> list[int]:
        """For each shift code y, the index of the F_q-order of psi_y."""
        # _order_table is published last, so a thread that sees it also sees
        # _ys_by_order; the lock keeps racing first calls from building twice
        if self._order_table is None:
            with self._order_lock:
                if self._order_table is None:
                    self._build_order_table()
        return self._order_table

    def _build_order_table(self) -> None:
        ctx = self.ctx
        basis = self._basis_codes()
        images = []  # per divisor: action images of the F_p-basis
        for h in self.divisors:
            images.append([mod_action(h, ctx.from_code(b)).code() for b in basis])
        table = [0] * ctx.order
        by_order: dict[int, list[int]] = {}
        for y in range(ctx.order):
            for idx, h in enumerate(self.divisors):
                if all(self.trace[self.mulc(y, img)] == 0 for img in images[idx]):
                    table[y] = idx
                    by_order.setdefault(idx, []).append(y)
                    break
        self._ys_by_order = by_order
        self._order_table = table

    def ys_of_order(self, idx: int) -> list[int]:
        if self._order_table is None:
            self.add_order_table()
        return self._ys_by_order.get(idx, [])

    def divisor_index(self, g: PolyQ) -> int:
        """Index of the monic form of g among the divisors of x^n - 1."""
        if not isinstance(g, PolyQ) or g.fq != self.ctx.fq:
            raise CtxMismatch("polynomials live over different subfields")
        idx = self.div_index.get(g.monic())
        if idx is None:
            raise NotADivisor(f"{g!r} does not divide x^n - 1")
        return idx

    # -- slot sums -------------------------------------------------------------
    def mult_char_sum(self, m: int, e_log: int) -> complex:
        """Sum over the characters of exact order m, evaluated at prim^e_log."""
        N = self.ctx.N
        step = N // m
        total = 0j
        for j in range(m) if m > 1 else (0,):
            if int_gcd(j, m) == 1:
                total += self.roots[(e_log * j * step) % N]
        return total

    def add_char_sum(self, div_idx: int, a_code: int) -> complex:
        """Sum over the additive characters of exact F_q-order divisors[div_idx]."""
        total = 0j
        for y in self.ys_of_order(div_idx):
            total += self.psi0[self.mulc(y, a_code)]
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
    tab = char_tables(spec.ctx)
    if spec.kind == "mult":
        if a.is_zero():
            raise ZeroElement("multiplicative characters are defined on nonzero elements")
        e = tab.log_codes[a.code()]
        N = spec.ctx.N
        return tab.roots[(e * spec.j * (N // spec.d)) % N]
    return tab.psi0[tab.mulc(spec.shift_code, a.code())]


def add_char_fq_order(y: FieldElement) -> PolyQ:
    """Least-degree monic divisor h of x^n - 1 with psi_y trivial on h o F_{q^n}."""
    ctx = y.ctx
    if ctx.order > ADD_ORDER_CEILING:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds the character ceiling {ADD_ORDER_CEILING}")
    tab = char_tables(ctx)
    return tab.divisors[tab.add_order_table()[y.code()]]


# -- characteristic functions ----------------------------------------------------

def _charfun_tables(ctx: FieldCtx) -> _CharTables:
    if ctx.order > CHARFUN_CEILING:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds the characteristic-function ceiling {CHARFUN_CEILING}")
    return char_tables(ctx)


def rho_e(a: FieldElement, e: int) -> complex:
    """Character-sum indicator of e-freeness."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    if e < 1 or ctx.N % e:
        raise NotADivisor(f"{e} does not divide q^n - 1")
    if a.is_zero():
        raise ZeroElement("rho_e is defined on nonzero elements")
    e_log = tab.log_codes[a.code()]
    total = 0j
    for d in int_divisors(e):
        mu = moebius(d)
        if mu == 0:
            continue
        total += Fraction(mu, euler_phi(d)) * tab.mult_char_sum(d, e_log)
    return Fraction(euler_phi(e), e) * total


def upsilon_g(a: FieldElement, g: PolyQ) -> complex:
    """Character-sum indicator of g-freeness."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    g_idx = tab.divisor_index(g)
    code = a.code()
    total = 0j
    for idx in tab.sub_divisors[g_idx]:
        mu = tab.mu_prime[idx]
        if mu == 0:
            continue
        total += Fraction(mu, tab.phi_q[idx]) * tab.add_char_sum(idx, code)
    return Fraction(tab.phi_q[g_idx], ctx.q ** tab.divisors[g_idx].degree) * total


def psi_set(a: FieldElement, g: PolyQ) -> complex:
    """Character-sum indicator of membership in the image of (g o .)."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    g_idx = tab.divisor_index(g)
    code = a.code()
    total = 0j
    for idx in tab.sub_divisors[g_idx]:
        total += tab.add_char_sum(idx, code)
    return total / ctx.q ** tab.divisors[g_idx].degree


def gamma_rd(a: FieldElement, rd: RDecomposition, d: int) -> complex:
    """Character-sum indicator of membership in Q_r^d."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    if d < 1 or rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if a.is_zero():
        raise ZeroElement("gamma_rd is defined on nonzero elements")
    e_log = tab.log_codes[a.code()]
    s_free = 0j
    for d1 in int_divisors(d):
        mu = moebius(d1)
        if mu == 0:
            continue
        s_free += Fraction(mu, euler_phi(d1)) * tab.mult_char_sum(d1, e_log)
    s_u = 0j
    for d2 in int_divisors(rd.u):
        s_u += tab.mult_char_sum(d2, e_log)
    s_parts = complex(1)
    for p_j, _, _, lam in rd.parts:
        slot = 0j
        for e_j in int_divisors(lam):
            ell = Fraction(-1, p_j) if e_j == lam else Fraction(p_j - 1, p_j)
            slot += ell * tab.mult_char_sum(e_j, e_log)
        s_parts *= slot
    return Fraction(euler_phi(d), rd.r * d) * s_free * s_u * s_parts


def q_gH(a: FieldElement, gd: GDecomposition, H: PolyQ) -> complex:
    """Character-sum indicator of membership in T_{g,k}^H."""
    ctx = a.ctx
    tab = _charfun_tables(ctx)
    H_idx = tab.divisor_index(H)
    if H_idx not in tab.sub_divisors[tab.divisor_index(gd.G)]:
        raise NotADivisor("H does not divide G")
    code = a.code()
    t_free = 0j
    for idx in tab.sub_divisors[H_idx]:
        mu = tab.mu_prime[idx]
        if mu == 0:
            continue
        t_free += Fraction(mu, tab.phi_q[idx]) * tab.add_char_sum(idx, code)
    t_pi = 0j
    for idx in tab.sub_divisors[tab.divisor_index(gd.pi)]:
        t_pi += tab.add_char_sum(idx, code)
    t_parts = complex(1)
    for f_i, _, _, lam in gd.parts:
        qdeg = ctx.q**f_i.degree
        lam_idx = tab.divisor_index(lam)
        slot = 0j
        for idx in tab.sub_divisors[lam_idx]:
            ell = Fraction(-1, qdeg) if idx == lam_idx else Fraction(qdeg - 1, qdeg)
            slot += ell * tab.add_char_sum(idx, code)
        t_parts *= slot
    scale = Fraction(tab.phi_q[H_idx], ctx.q ** (tab.divisors[H_idx].degree + gd.g.degree))
    return scale * t_free * t_pi * t_parts


def eval_charfun(which: str, a: FieldElement, **kwargs) -> complex:
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
