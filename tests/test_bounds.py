from fractions import Fraction

import pytest

from knpair.bounds import (
    _half_power_gt,
    asymptotic_threshold,
    basic_inequality,
    lemma54_eval,
    rho_ratio,
    sieve_terms,
    theta_for,
    w_xn1_bound,
)
from knpair.bounds import test_sieve as sieve_search
from knpair import intarith
from knpair.errors import NoDegreeKDivisor, NotADivisor, NotCoprime
from knpair.ffield import field_for
from knpair.fqpoly import PolyQ, degree_k_divisors, factor_poly
from knpair.intarith import factor_hints, factor_int
from knpair.modstruct import decompose_g, decompose_r, xn1, xn1_factorization


def test_theta_selection():
    assert theta_for(4, 14, 1) == 3  # gcd(4,14) = 2
    assert theta_for(5, 14, 1) == 2
    assert theta_for(4, 14, 1, theta_mult=2) == 2
    assert theta_for(3, 4, 2) == 4  # gcd(3,4) = 1
    assert theta_for(2, 4, 2) == 6


def test_eq10_fails_4_14():
    v = basic_inequality(4, 14, 1, 1)
    assert v.lhs == 256 and v.rhs == 4096 and not v.holds and v.theta == 3


def test_eq10_r1_factor_reduces_to_2():
    v = basic_inequality(2, 5, 1, 0)
    fact_x = xn1_factorization(field_for(2, 5))
    w_x = fact_x.W()
    w_R = factor_int(31).W()
    assert v.rhs == 2 * w_x * w_R * w_x  # W(G) = W(x^n-1) at g = 1


def test_eq9_sharper_than_eq10():
    # eq10 pass implies eq9 pass on a spread of pairs
    pairs = [(4, 14), (5, 14), (7, 14), (5, 15), (2, 8), (3, 7), (5, 6), (13, 6), (9, 8)]
    for q, n in pairs:
        e10 = basic_inequality(q, n, 1, 1)
        e9 = basic_inequality(q, n, 1, 1, form="eq9_exact")
        if e10.holds:
            assert e9.holds


def test_no_degree_k_divisor():
    with pytest.raises(NoDegreeKDivisor):
        basic_inequality(7, 5, 1, 2)  # x^5-1 over F_7 has no degree-2 divisor


def test_w_bounds_examples():
    assert w_xn1_bound(5, 4, "lemma41_general") == 16.0
    exact_54 = xn1_factorization(field_for(5, 4)).W()
    assert exact_54 == 16  # equality case: n | q - 1
    assert w_xn1_bound(3, 4, "lemma41_general") == 8.0
    assert xn1_factorization(field_for(3, 4)).W() == 8
    tq = w_xn1_bound(2, 3, "lemma41_threequarter")
    assert tq == 2 ** 2.25
    assert tq >= xn1_factorization(field_for(2, 3)).W() == 4


def test_w_bound_dominates_exact():
    for q, n in [(2, 6), (3, 5), (4, 4), (5, 4), (7, 3), (9, 4)]:
        exact = xn1_factorization(field_for(q, n)).W()
        assert w_xn1_bound(q, n, "lemma41_general") >= exact
        assert w_xn1_bound(q, n, "lemma41_ndivides") >= exact


def test_asymptotic_table1_row():
    assert asymptotic_threshold(214183, 14, 1, 1, 7.6, "2^n").holds
    assert not asymptotic_threshold(214182, 14, 1, 1, 7.6, "2^n").holds


def test_asymptotic_table2_entry():
    c_q = 2 * (4**2 - 1) / 3
    v = asymptotic_threshold(4, 351, 1, 1, 9, "2^{n/3+c_q}", c_q=c_q)
    assert v.holds
    assert not asymptotic_threshold(4, 350, 1, 1, 9, "2^{n/3+c_q}", c_q=c_q).holds


def test_asymptotic_small_n_never_holds():
    for q in (2, 5, 101, 214183):
        for n in (1, 2):  # n <= 2*theta with theta = 2
            assert not asymptotic_threshold(q, n, 1, 1, 7.6, "2^n").holds


def test_rho_ratio_values():
    assert rho_ratio(2, 5) == Fraction(1, 5)
    assert rho_ratio(2, 9) == Fraction(2, 9)
    assert rho_ratio(2, 21) == Fraction(4, 21)
    assert rho_ratio(3, 16) == Fraction(5, 16)
    with pytest.raises(NotCoprime):
        rho_ratio(2, 6)


def test_sieve_terms_trivial_seed_matches_eq10_radicals():
    q, n = 5, 6
    ctx = field_for(q, n)
    rd = decompose_r(1, ctx)
    g = degree_k_divisors(xn1(ctx), 1)[0]
    gd = decompose_g(g, ctx)
    rad_x = xn1_factorization(ctx).radical()
    rep = sieve_terms(q, n, 1, 1, rad_x, rd.R, gd.G)
    assert rep.D == 1 and rep.S == 1 and isinstance(rep.D, Fraction)  # l1, l2, l3 all empty
    w_rad = factor_poly(rad_x).W()
    w_R = factor_int(rd.R).W()
    w_G = factor_poly(gd.G).W()
    assert rep.verdict.rhs == 2 * w_rad * w_R * w_G


def test_sieve_terms_bad_seeds():
    q, n = 5, 6
    ctx = field_for(q, n)
    for d in (11, 0, -1):  # R = rad(5^6 - 1) = 2 * 3 * 7 * 31
        with pytest.raises(NotADivisor):
            sieve_terms(q, n, 1, 1, xn1(ctx), d, PolyQ.one(ctx.fq))


def test_sieve_terms_reads_R_off_the_field_factorization(monkeypatch):
    # q is prime and q^2 - 1 has a 30-digit prime factor: given that
    # factorization as a hint, no bound may need Pollard to factor R or d
    q = 21600000000000152640000000000127367
    hint = {q * q - 1: [(2, 4), (3, 2), (11, 2), (197, 1), (10000000000000061, 1),
                        (30000000000000029, 1), (453077148970091719595586692959, 1)]}

    def no_pollard(n, effort):
        raise AssertionError(f"Pollard called on {n}")

    monkeypatch.setattr(intarith, "_pollard_brent", no_pollard)
    with factor_hints(hint):
        ctx = field_for(q, 2)
        poly = xn1(ctx)
        g = degree_k_divisors(poly, 1)[0]
        R = decompose_r(1, ctx).R
        G = decompose_g(g, ctx).G
        assert basic_inequality(q, 2, 1, 1).rhs == 2 * 4 * 2**7 * 2
        rep = sieve_terms(q, 2, 1, 1, poly, R, G)
        assert rep.l1_primes == () and rep.D == 1 and rep.S == 1
        assert rep.verdict.rhs == 2 * 4 * 2**7 * 2  # W(h) W(R) W(G)
        rep = sieve_terms(q, 2, 1, 1, poly, 2 * 197, G)
        assert rep.l1_primes == (3, 11, 10000000000000061, 30000000000000029, 453077148970091719595586692959)
        assert rep.verdict.rhs == 2 * 4 * 2**2 * 2 * rep.S


def test_lemma54_regime_65_7():
    rep = lemma54_eval(65, 7, 64, 7, 2)
    assert rep.D > Fraction(6608, 10000)
    assert rep.S <= Fraction(64042, 1000)
    assert rep.verdict.holds


def test_lemma54_lower_bound_vs_exact_sieve():
    # exact D from actual factorizations dominates the Lemma 5.4 lower bound
    q, n = 67, 7
    ctx = field_for(q, n)
    rd = decompose_r(1, ctx)
    one = PolyQ.one(ctx.fq)
    exact = sieve_terms(q, n, 1, 1, one, q - 1 if rd.R % (q - 1) == 0 else 1, one)
    lower = lemma54_eval(q, n, q - 1, 7, 2)
    assert exact.D >= lower.D


@pytest.mark.parametrize("q, n", [(0, 3), (1, 3), (-5, 3), (5, 0), (5, -1)])
def test_lemma54_rejects_q_below_2_and_n_below_1(q, n):
    # q = 0 divided by zero and q = -5 reached a complex power; q = 65, no
    # prime power, still evaluates (test_lemma54_regime_65_7)
    with pytest.raises(ValueError, match="q >= 2 and n >= 1"):
        lemma54_eval(q, n, 1, 3, 2)


def test_lemma54_n0_one_uses_all_primes():
    rep = lemma54_eval(9, 4, 1, 1, 2)
    assert rep.l1_primes[:4] == (2, 3, 5, 7)


def test_lemma54_d8_primes_are_1_mod_8():
    rep = lemma54_eval(4, 8, 4**4 - 1, 8, 3)
    assert all(p % 8 == 1 for p in rep.l1_primes)


def test_test_sieve_implied_by_eq10():
    for q, n in [(7, 14), (5, 15), (23, 22), (2, 13), (3, 13)]:
        if basic_inequality(q, n, 1, 1).holds:
            assert sieve_search(q, n, theta_for(q, n, 1)).found


@pytest.mark.parametrize("q, n, theta", [(167, 6, 2), (47, 23, 3), (7, 14, 2), (5, 15, 3), (3, 13, 2),
                                         (16, 9, 2), (9, 10, 2), (25, 8, 2), (31, 10, 2), (49, 8, 2)])
def test_test_sieve_report_against_sieve_terms(q, n, theta):
    # the grid search evaluates the general sieve at r = k = 1, g = x - 1,
    # h = H; x^23 - 1 over F_47 has 2^23 divisors, past any divisor lattice
    out = sieve_search(q, n, theta)
    assert out.found
    rep = out.report
    fq = field_for(q, n).fq
    ref = sieve_terms(q, n, 1, 1, rep.H, rep.d, rep.H, g=PolyQ(fq, (fq.neg(fq.one), fq.one)),
                      theta_mult=theta)
    assert (rep.D, rep.S, rep.verdict.rhs, rep.verdict.holds) == (ref.D, ref.S, ref.verdict.rhs, True)
    assert rep.verdict.lhs == ref.verdict.lhs
    assert rep.l1_primes == ref.l1_primes and rep.l2_polys == ref.l2_polys
    assert set(rep.l3_polys) == set(ref.l3_polys) and len(rep.l3_polys) == len(ref.l3_polys)


def test_test_sieve_small_cases():
    assert not sieve_search(2, 5, 2).found
    assert not sieve_search(5, 6, 2).found
    assert sieve_search(167, 6, 2).found
    out = sieve_search(47, 23, 3)
    assert out.found and out.report.verdict.holds
    assert out.report.D > 0


def test_half_power_gt_against_fraction_form():
    # q^(twice/2) > rhs, decided on integers, against the Fraction power it replaced
    rhs_values = [Fraction(0), Fraction(-3, 2), Fraction(1), Fraction(1, 7), Fraction(7, 3), Fraction(16),
                  Fraction(17), Fraction(15, 1), Fraction(4095, 4), Fraction(4096, 4), Fraction(1, 4096)]
    for q in (2, 3, 4, 5, 16, 167):
        for twice in range(-9, 12):
            exact = Fraction(q) ** twice
            # q^(twice // 2) is equality when twice is even
            for rhs in rhs_values + [exact, Fraction(q) ** (twice // 2)]:
                expected = rhs <= 0 or exact > rhs * rhs
                assert _half_power_gt(q, twice, rhs) == expected, (q, twice, rhs)
