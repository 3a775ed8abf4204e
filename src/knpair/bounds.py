"""Inequality machinery for pair existence.

Everything here evaluates sufficient conditions, so comparisons err on the
side of "does not hold": integer/rational sides are compared exactly
(squaring away half-integer exponents), and the asymptotic thresholds that
involve the irrational constant C_nu are evaluated in high-precision logs
with a margin requirement, never optimistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .errors import NoDegreeKDivisor, NotADivisor, NotCoprime
from .ffield import FieldCtx, field_for
from .fqpoly import PolyQ, degree_k_divisors, factor_poly, w_poly
from .intarith import c_nu, factor_int, is_prime, rad_int
from .modstruct import decompose_g, decompose_r, xn1, xn1_factorization

LOG_GUARD_BITS = 80  # margin (in bits) required before a log-space "holds"


@dataclass(frozen=True)
class BoundVerdict:
    """One evaluation of a sufficient-condition inequality (lhs > rhs)."""

    lhs: object  # Fraction when exact, float otherwise
    rhs: object
    holds: bool
    theta: int
    inputs: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class SieveReport:
    """One evaluation of the sieving inequality.

    l1_primes: remaining primes of R over d; l2_polys: remaining irreducible
    factors of G over H; l3_polys: remaining irreducible factors of x^n - 1
    over h.  D <= 0 renders the report vacuous (verdict False).
    """

    h: object
    d: int
    H: object
    l1_primes: tuple[int, ...]
    l2_polys: tuple
    l3_polys: tuple
    D: Fraction
    S: Fraction | None
    verdict: BoundVerdict

    @property
    def nonpositive_D(self) -> bool:
        return self.D <= 0


def theta_for(q: int, n: int, k: int, theta_mult: int | None = None) -> int:
    mult = theta_mult if theta_mult is not None else (2 if int_gcd(q, n) == 1 else 3)
    return mult * k


def _half_power_gt(q: int, twice_exponent: int, rhs: Fraction) -> bool:
    """q^(twice_exponent/2) > rhs, decided exactly: for rhs = num/den > 0 it
    is q^twice * den^2 > num^2 on integers, with the power of q moved to the
    other side when twice_exponent < 0."""
    if rhs <= 0:
        return True
    num, den = rhs.numerator, rhs.denominator
    if twice_exponent >= 0:
        return q**twice_exponent * den * den > num * num
    return den * den > num * num * q**-twice_exponent


def _half_power_value(q: int, twice_exponent: int):
    if twice_exponent % 2 == 0:
        return Fraction(q) ** (twice_exponent // 2)
    return float(q) ** (twice_exponent / 2)


def _w_int_cofactor(fact, avoid: int) -> int:
    """W of the part of fact coprime to avoid (2^count of surviving primes)."""
    return 1 << sum(1 for p in fact.primes if avoid % p)


def _select_g(ctx: FieldCtx, k: int, g: PolyQ | None) -> PolyQ:
    if g is not None:
        if g.degree != k or not g.monic().divides(xn1(ctx)):
            raise NotADivisor("g must be a monic degree-k divisor of x^n - 1")
        return g.monic()
    pk = degree_k_divisors(xn1(ctx), k)
    if not pk:
        raise NoDegreeKDivisor(f"x^{ctx.n} - 1 has no degree-{k} divisor over F_{ctx.q}")
    return pk[0]


def basic_inequality(q: int, n: int, r: int, k: int, g: PolyQ | None = None,
                     form: str = "eq10_simplified", theta_mult: int | None = None) -> BoundVerdict:
    """The sufficient condition with full seeds (h = x^n - 1, d = R, H = G).

    eq10_simplified: q^(n/2 - theta) > 2 r rad(r) W(x^n-1) W(R) W(G).
    eq9_exact:       q^(n/2 - k) > 2 u (prod lambda_j) q^(deg pi + sum deg Lambda_i)
                                     W(x^n-1) W(R) W(G).
    """
    ctx = field_for(q, n)
    if r < 1 or ctx.N % r:
        raise NotADivisor(f"r = {r} does not divide q^n - 1")
    g = _select_g(ctx, k, g)
    rd = decompose_r(r, ctx)
    gd = decompose_g(g, ctx)
    fact_x = xn1_factorization(ctx)
    w_x = fact_x.W()
    w_R = _w_int_cofactor(ctx.fact_qn_minus_1, rad_int(r))
    w_G = 1 << sum(1 for f in fact_x.irreducibles if not f.divides(g))
    theta = theta_for(q, n, k, theta_mult)
    if form == "eq10_simplified":
        rhs = Fraction(2 * r * rad_int(r) * w_x * w_R * w_G)
        shift = theta
    elif form == "eq9_exact":
        lam_prod = 1
        for lam in rd.lambdas:
            lam_prod *= lam
        degs = gd.pi.degree + sum(lam.degree for lam in gd.lambdas)
        rhs = Fraction(2 * rd.u * lam_prod * q**degs * w_x * w_R * w_G)
        shift = k
    else:
        raise ValueError(f"unknown form {form!r}")
    twice = n - 2 * shift
    holds = _half_power_gt(q, twice, rhs)
    inputs = (("q", q), ("n", n), ("r", r), ("k", k), ("g", g), ("form", form))
    return BoundVerdict(_half_power_value(q, twice), rhs, holds, theta, inputs)


def w_xn1_bound(q: int, n: int, which: str) -> float:
    """Counting bounds on W(x^n - 1) used by the asymptotic thresholds."""
    if which == "lemma41_general":
        return 2.0 ** ((n + int_gcd(n, q - 1)) / 2)
    if which == "lemma41_ndivides":
        return 2.0**n
    if which == "lemma41_threequarter":
        return 2.0 ** (3 * n / 4)
    raise ValueError(f"unknown W bound selector {which!r}")


_W_FORMS = ("2^n", "2^{3n/4}", "2^{n/3+c_q}", "2^{(n-4)/5}")


def asymptotic_threshold(q: int, n: int, r: int, k: int, nu: float, w_form: str = "2^n",
                         c_q: float | None = None, theta_mult: int | None = None) -> BoundVerdict:
    """Threshold family: the full-seed condition with W(q^n - 1) < C_nu q^(n/nu)
    and a counting bound on W(x^n - 1) (with W(G) <= W(x^n - 1)/2).

    For w_form = 2^{n/3+c_q} the verdict follows the n-threshold form in
    which the exponent shift is absorbed: n must exceed
    log(2^{2 c_q} r rad(r) C_nu) / ((1/2 - 1/nu) log q - (2 log 2)/3).
    """
    if w_form not in _W_FORMS:
        raise ValueError(f"unknown W form {w_form!r}")
    theta = theta_for(q, n, k, theta_mult)
    inputs = (("q", q), ("n", n), ("r", r), ("k", k), ("nu", nu), ("w_form", w_form), ("c_q", c_q))
    # imported here, as in c_nu: no other bound needs mpmath
    from mpmath import log, mp, mpf

    C = c_nu(nu)
    rr = r * rad_int(r)
    with mp.workprec(200):
        guard = mpf(2) ** -LOG_GUARD_BITS
        ln_q, ln_2 = log(mpf(q)), log(mpf(2))
        if w_form == "2^{n/3+c_q}":
            if c_q is None:
                raise ValueError("w_form 2^{n/3+c_q} needs c_q")
            cq = Fraction(c_q)
            den = (mpf(1) / 2 - 1 / mpf(nu)) * ln_q - 2 * ln_2 / 3
            num = log(C) + log(mpf(rr)) + 2 * mpf(cq.numerator) / cq.denominator * ln_2
            if den <= 0:
                return BoundVerdict(float(n), float("inf"), False, theta, inputs)
            threshold = num / den
            holds = mpf(n) > threshold * (1 + guard) + guard
            return BoundVerdict(float(n), float(threshold), bool(holds), theta, inputs)
        if n <= 2 * theta:
            return BoundVerdict(0.0, float("inf"), False, theta, inputs)
        if w_form == "2^n":
            wexp = mpf(2) * n
        elif w_form == "2^{3n/4}":
            wexp = mpf(3) * n / 2
        else:  # 2^{(n-4)/5}
            wexp = mpf(2) * (n - 4) / 5
        lhs = (mpf(n) / 2 - theta) * ln_q
        rhs = log(mpf(rr)) + log(C) + (mpf(n) / mpf(nu)) * ln_q + wexp * ln_2
        scale = 1 + abs(lhs) + abs(rhs)
        holds = lhs > rhs + guard * scale
        return BoundVerdict(float(lhs), float(rhs), bool(holds), theta, inputs)


def rho_ratio(q: int, n_prime: int) -> Fraction:
    """(number of irreducible factors of x^n' - 1 of degree < e) / n', where
    e is the multiplicative order of q mod n'."""
    if int_gcd(q, n_prime) != 1:
        raise NotCoprime(f"gcd({q}, {n_prime}) != 1")
    e = 1
    acc = q % n_prime
    while acc != 1 % n_prime:
        acc = acc * q % n_prime
        e += 1
    ctx = field_for(q, 1)
    f = PolyQ.xn_minus_1(ctx.fq, n_prime)
    fact = factor_poly(f)
    count = sum(1 for g in fact.irreducibles if g.degree < e)
    return Fraction(count, n_prime)


def sieve_terms(q: int, n: int, r: int, k: int, h: PolyQ, d: int, H: PolyQ,
                g: PolyQ | None = None, theta_mult: int | None = None) -> SieveReport:
    """Exact sieve terms for seeds (h, d, H) and the resulting verdict."""
    ctx = field_for(q, n)
    if r < 1 or ctx.N % r:
        raise NotADivisor(f"r = {r} does not divide q^n - 1")
    g = _select_g(ctx, k, g)
    rd = decompose_r(r, ctx)
    gd = decompose_g(g, ctx)
    poly = xn1(ctx)
    h = h.monic()
    H = H.monic()
    if h.is_zero() or not h.divides(poly):
        raise NotADivisor("h does not divide x^n - 1")
    if rd.R % d:
        raise NotADivisor(f"d = {d} does not divide R = {rd.R}")
    if H.is_zero() or not H.divides(gd.G):
        raise NotADivisor("H does not divide G")
    fact_x = xn1_factorization(ctx)
    l1 = tuple(p for p in factor_int(rd.R).primes if d % p)
    l2 = tuple(f for f in fact_x.irreducibles if f.divides(gd.G) and not f.divides(H))
    l3 = tuple(f for f in fact_x.irreducibles if not f.divides(h))
    D = Fraction(1)
    for p in l1:
        D -= Fraction(1, p)
    for f in l2:
        D -= Fraction(1, q**f.degree)
    for f in l3:
        D -= Fraction(1, q**f.degree)
    theta = theta_for(q, n, k, theta_mult)
    inputs = (("q", q), ("n", n), ("r", r), ("k", k), ("h", h), ("d", d), ("H", H), ("g", g))
    if D <= 0:
        verdict = BoundVerdict(_half_power_value(q, n - 2 * theta), None, False, theta, inputs)
        return SieveReport(h, d, H, l1, l2, l3, D, None, verdict)
    S = Fraction(len(l1) + len(l2) + len(l3) - 1) / D + 2
    rhs = Fraction(2 * r * rad_int(r)) * w_poly(h) * factor_int(d).W() * w_poly(H) * S
    twice = n - 2 * theta
    holds = _half_power_gt(q, twice, rhs)
    verdict = BoundVerdict(_half_power_value(q, twice), rhs, holds, theta, inputs)
    return SieveReport(h, d, H, l1, l2, l3, D, S, verdict)


@dataclass(frozen=True)
class SieveSearchOutcome:
    found: bool
    report: SieveReport | None
    pairs_tried: int


def test_sieve(q: int, n: int, theta: int) -> SieveSearchOutcome:
    """Search the (d, H) sieve grid for the primitive 1-normal pair condition.

    Fixed seeds r = 1, k = 1, g = x - 1, h = H.  d runs over divisors of
    rad(q^n - 1) and H over monic divisors of rad(x^n - 1)/(x - 1); the grid
    is scanned in increasing (prime count, value) / (factor count, degree)
    order, keeping only the dominant representative per cardinality pair:
    with the factor counts fixed, W(d) and W(H) are fixed and D is maximal
    (S minimal) when d takes the smallest primes and H the smallest-degree
    factors, so every skipped pair fails whenever its representative fails.
    Returns the first succeeding report, else found = False.
    """
    ctx = field_for(q, n)
    fq = ctx.fq
    x_minus_1 = PolyQ(fq, (fq.neg(fq.one), fq.one))
    fact_N = ctx.fact_qn_minus_1
    primes = sorted(fact_N.primes)
    fact_x = xn1_factorization(ctx)
    others = sorted((f for f in fact_x.irreducibles if f != x_minus_1), key=lambda f: f.sort_key())
    twice = n - 2 * theta
    tried = 0
    for a in range(len(primes) + 1):
        d = 1
        for p in primes[:a]:
            d *= p
        rem_primes = primes[a:]
        sum_l1 = sum(Fraction(1, p) for p in rem_primes)
        for b in range(len(others) + 1):
            tried += 1
            H = PolyQ.one(fq)
            for f in others[:b]:
                H = H * f
            l2 = tuple(others[b:])
            l3 = l2 + (x_minus_1,)
            D = Fraction(1) - sum_l1
            for f in l2:
                D -= Fraction(1, q**f.degree)
            for f in l3:
                D -= Fraction(1, q**f.degree)
            if D <= 0:
                continue
            S = Fraction(len(rem_primes) + len(l2) + len(l3) - 1) / D + 2
            W_d = 1 << a
            W_H = 1 << b
            rhs = Fraction(2 * W_d * W_H * W_H) * S
            if _half_power_gt(q, twice, rhs):
                inputs = (("q", q), ("n", n), ("theta", theta), ("d", d), ("H", H))
                verdict = BoundVerdict(_half_power_value(q, twice), rhs, True, theta, inputs)
                report = SieveReport(H, d, H, tuple(rem_primes), l2, l3, D, S, verdict)
                return SieveSearchOutcome(True, report, tried)
    return SieveSearchOutcome(False, None, tried)


def lemma54_eval(q: int, n: int, d: int, n0: int, theta: int) -> SieveReport:
    """Sieve bound with d as the only multiplicative seed and h = H = 1.

    The remaining primes are modeled as the first l primes congruent to
    1 mod n0 whose running product stays within (q^n - 1)/d, giving the
    lower bound D >= 1 - S_l - (2n-1)/q and S <= (l + 2n - 2)/D + 2;
    the verdict evaluates q^(n/2 - theta) > 2 W(d) S.
    """
    budget_num = q**n - 1
    if d < 1 or budget_num % d:
        raise NotADivisor(f"d = {d} does not divide q^n - 1")
    budget = budget_num // d
    taken: list[int] = []
    S_l = Fraction(0)
    prod = 1
    cand = 1
    while True:
        cand += n0
        if not is_prime(cand):
            continue
        if prod * cand > budget:
            break
        prod *= cand
        taken.append(cand)
        S_l += Fraction(1, cand)
    l = len(taken)
    D = Fraction(1) - S_l - Fraction(2 * n - 1, q)
    inputs = (("q", q), ("n", n), ("d", d), ("n0", n0), ("theta", theta), ("l", l))
    twice = n - 2 * theta
    if D <= 0:
        verdict = BoundVerdict(_half_power_value(q, twice), None, False, theta, inputs)
        return SieveReport(1, d, 1, tuple(taken), (), (), D, None, verdict)
    S = Fraction(l + 2 * n - 2) / D + 2
    rhs = Fraction(2 * factor_int(d).W()) * S
    holds = _half_power_gt(q, twice, rhs)
    verdict = BoundVerdict(_half_power_value(q, twice), rhs, holds, theta, inputs)
    return SieveReport(1, d, 1, tuple(taken), (), (), D, S, verdict)
