"""Inequality machinery for pair existence.

Everything here evaluates sufficient conditions, so comparisons err on the
side of "does not hold": integer/rational sides are compared exactly
(squaring away half-integer exponents), and the asymptotic thresholds that
involve the irrational constant C_nu are evaluated in high-precision logs
with a margin requirement, never optimistically.

Seeds are read off the field's two factorizations, never factored again: g,
h and H as exponent vectors over x^n - 1 (modstruct.exponents), R and d as
primes of q^n - 1.  One routine, _sieve_report, turns D into the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import prod

from .errors import NoDegreeKDivisor, NotADivisor, NotCoprime
from .ffield import FieldCtx, field_for
from .fqpoly import PolyQ, exponent_vectors, factor_poly
from .intarith import c_nu, factor_int, is_prime, rad_int
from .modstruct import check_seeds, decompose_g, decompose_r, exponents, xn1, xn1_factorization

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


def _select_g(ctx: FieldCtx, k: int, g: PolyQ | None) -> PolyQ:
    if g is not None:
        if g.degree != k or not g.monic().divides(xn1(ctx)):
            raise NotADivisor("g must be a monic degree-k divisor of x^n - 1")
        return g.monic()
    # the least degree-k exponent vector, the first of P_k in odometer order
    least = exponent_vectors(xn1_factorization(ctx).factors, one=PolyQ.one(ctx.fq), k=k, first=True)
    if not least:
        raise NoDegreeKDivisor(f"x^{ctx.n} - 1 has no degree-{k} divisor over F_{ctx.q}")
    return least[0][1]


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
    w_x = xn1_factorization(ctx).W()
    w_R = 1 << sum(1 for p in ctx.fact_qn_minus_1.primes if r % p)  # R = rad(q^n - 1)/rad(r)
    w_G = 1 << exponents(ctx, g, "g").count(0)  # G = rad(x^n - 1)/rad(g)
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


def _exact_D(q: int, primes, polys) -> Fraction:
    """1 - sum 1/p over the primes - sum q^-deg f over the polynomials."""
    return Fraction(1) - sum(Fraction(1, p) for p in primes) - sum(Fraction(1, q**f.degree) for f in polys)


def _sieve_report(q: int, n: int, theta: int, weight: int, h, d: int, H, l1: tuple, l2: tuple,
                  l3: tuple, D: Fraction, inputs: tuple, unlisted: int = 0) -> SieveReport:
    """The one sieve verdict: vacuous when D <= 0, else, over the l1, l2 and l3
    terms and `unlisted` modelled ones, S = (terms - 1)/D + 2 and the
    verdict is q^(n/2 - theta) > weight * S."""
    twice = n - 2 * theta
    lhs = _half_power_value(q, twice)
    if D <= 0:
        return SieveReport(h, d, H, l1, l2, l3, D, None, BoundVerdict(lhs, None, False, theta, inputs))
    S = Fraction(len(l1) + len(l2) + len(l3) + unlisted - 1) / D + 2
    rhs = weight * S
    verdict = BoundVerdict(lhs, rhs, _half_power_gt(q, twice, rhs), theta, inputs)
    return SieveReport(h, d, H, l1, l2, l3, D, S, verdict)


def sieve_terms(q: int, n: int, r: int, k: int, h: PolyQ, d: int, H: PolyQ,
                g: PolyQ | None = None, theta_mult: int | None = None) -> SieveReport:
    """Exact sieve terms for seeds (h, d, H) and the resulting verdict.  R is
    squarefree, so l1 and W(d) read the primes of q^n - 1; G has exponent 1
    exactly where g has 0."""
    ctx = field_for(q, n)
    if r < 1 or ctx.N % r:
        raise NotADivisor(f"r = {r} does not divide q^n - 1")
    g = _select_g(ctx, k, g)
    gv, hv, Hv, rd = check_seeds(ctx, g, r, h, d, H)
    primes_R = [p for p in ctx.fact_qn_minus_1.primes if rd.R % p == 0]
    irreducibles = xn1_factorization(ctx).irreducibles
    l1 = tuple(p for p in primes_R if d % p)
    l2 = tuple(f for f, gj, Hj in zip(irreducibles, gv, Hv) if gj == 0 and not Hj)
    l3 = tuple(f for f, hj in zip(irreducibles, hv) if not hj)
    # W(h) W(d) W(H) = 2^(factors of h + primes of d + factors of H)
    omega = sum(map(bool, hv)) + len(primes_R) - len(l1) + sum(map(bool, Hv))
    weight = 2 * r * rad_int(r) << omega
    h, H = h.monic(), H.monic()
    inputs = (("q", q), ("n", n), ("r", r), ("k", k), ("h", h), ("d", d), ("H", H), ("g", g))
    return _sieve_report(q, n, theta_for(q, n, k, theta_mult), weight, h, d, H, l1, l2, l3,
                         _exact_D(q, l1, l2 + l3), inputs)


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
    primes = sorted(ctx.fact_qn_minus_1.primes)
    others = sorted((f for f in xn1_factorization(ctx).irreducibles if f != x_minus_1), key=PolyQ.sort_key)
    tried = 0
    for a in range(len(primes) + 1):
        d = prod(primes[:a])
        rem_primes = tuple(primes[a:])
        for b in range(len(others) + 1):
            tried += 1
            H = prod(others[:b], start=PolyQ.one(fq))
            l2 = tuple(others[b:])
            l3 = l2 + (x_minus_1,)
            inputs = (("q", q), ("n", n), ("theta", theta), ("d", d), ("H", H))
            report = _sieve_report(q, n, theta, 2 << (a + 2 * b), H, d, H, rem_primes, l2, l3,
                                   _exact_D(q, rem_primes, l2 + l3), inputs)
            if report.verdict.holds:
                return SieveSearchOutcome(True, report, tried)
    return SieveSearchOutcome(False, None, tried)


def lemma54_eval(q: int, n: int, d: int, n0: int, theta: int) -> SieveReport:
    """Sieve bound with d as the only multiplicative seed and h = H = 1.

    The remaining primes are modeled as the first l primes congruent to
    1 mod n0 whose running product stays within (q^n - 1)/d, giving the
    lower bound D >= 1 - S_l - (2n-1)/q and S <= (l + 2n - 2)/D + 2;
    the verdict evaluates q^(n/2 - theta) > 2 W(d) S.
    """
    if q < 2 or n < 1:
        raise ValueError(f"lemma54_eval needs q >= 2 and n >= 1, not q = {q}, n = {n}")
    if n0 < 1:
        raise ValueError(f"n0 = {n0} must be at least 1")
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
    # the 2n - 1 polynomial terms are modelled, not listed
    return _sieve_report(q, n, theta, 2 * factor_int(d).W(), 1, d, 1, tuple(taken), (), (), D,
                         inputs, unlisted=2 * n - 1)
