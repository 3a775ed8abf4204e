import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

import knpair
from knpair import _polyops
from knpair.bounds import _select_g
from knpair.errors import NoDegreeKDivisor, TooManyDivisors, ZeroPolynomial
from knpair.ffield import field_for, make_field
from knpair.fqpoly import (
    PolyQ,
    arith_poly,
    degree_k_divisors,
    divisors_of,
    factor_poly,
    format_poly,
    parse_poly,
    phi_q,
    poly_arith,
)

from conftest import BENCHMARK_MODULI


def xn1(q, n):
    return PolyQ.xn_minus_1(field_for(q, n).fq, n)


def test_gcd_examples():
    fq2 = field_for(2, 3).fq
    x3_1 = PolyQ.xn_minus_1(fq2, 3)
    x_1 = PolyQ(fq2, (1, 1))
    assert poly_arith(x3_1, x_1, "gcd") == x_1
    assert poly_arith(x3_1, PolyQ.zero(fq2), "gcd") == x3_1.monic()
    fq3 = field_for(3, 4).fq
    g = poly_arith(PolyQ.xn_minus_1(fq3, 4), PolyQ.xn_minus_1(fq3, 2), "gcd")
    assert g == PolyQ.xn_minus_1(fq3, 2).monic()


def test_divmod_invariant():
    fq = field_for(5, 2).fq
    f = PolyQ(fq, (2, 0, 3, 1))
    g = PolyQ(fq, (1, 4, 1))
    qt, rm = poly_arith(f, g, "divmod")
    assert qt * g + rm == f
    assert rm.degree < g.degree


def test_factor_x3_minus_1_over_f2():
    fact = factor_poly(xn1(2, 3))
    polys = [(format_poly(f), e) for f, e in fact.factors]
    assert polys == [("1,1", 1), ("1,1,1", 1)]


def test_factor_x14_minus_1_over_f4():
    fact = factor_poly(xn1(4, 14))
    degrees = sorted((f.degree, e) for f, e in fact.factors)
    assert degrees == [(1, 2), (3, 2), (3, 2)]  # (x^7-1)^2 structure


def test_factor_x4_minus_1_over_f5():
    fact = factor_poly(xn1(5, 4))
    assert all(f.degree == 1 for f in fact.irreducibles)
    assert len(fact.factors) == 4


def _factor_against_sympy(f: PolyQ) -> None:
    """factor_poly and sympy's gf_factor agree on the unit, the monic
    irreducible factors and their multiplicities (t = 1 only)."""
    p = f.fq.p
    unit, parts = gf_factor([c % p for c in f.coeffs[::-1]], p, ZZ)  # leading coefficient first
    want = sorted((tuple(c % p for c in g[::-1]), e) for g, e in parts)
    fact = factor_poly(f)
    assert fact.unit == unit % p
    assert sorted((g.coeffs, e) for g, e in fact.factors) == want


@pytest.mark.parametrize("p,n", sorted({(p, n) for p, t, n in BENCHMARK_MODULI if t == 1}))
def test_factor_xn1_against_sympy(p, n):
    _factor_against_sympy(PolyQ.xn_minus_1(make_field(p, 1, 1).fq, n))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 167])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factor_poly_against_sympy(p, data):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=14).filter(lambda c: c[-1]))
    _factor_against_sympy(PolyQ(make_field(p, 1, 1).fq, tuple(coeffs)))


def test_factor_remultiplies_and_certifies():
    for q, n in [(2, 6), (3, 6), (4, 4), (9, 3), (7, 4), (8, 3)]:
        f = xn1(q, n)
        fact = factor_poly(f)
        prod = PolyQ.one(f.fq)
        for g, e in fact.factors:
            prod = prod * g**e
            # independent irreducibility: no nontrivial gcd with x^(q^d) - x, d < deg
            for d in range(1, g.degree):
                frob = _polyops.pow_mod(f.fq, [0, f.fq.one], q**d, list(g.coeffs))
                diff = _polyops.sub(f.fq, frob, [0, f.fq.one])
                assert _polyops.deg(_polyops.gcd(f.fq, diff, list(g.coeffs))) == 0
        assert prod == f.monic()


def test_pow_rejects_negative_exponent():
    # e >>= 1 stays at -1, so a negative exponent would square the base without
    # end; a fresh interpreter with a timeout turns such a hang into a failure
    f = PolyQ(field_for(5, 1).fq, (1, 1))
    assert f**0 == PolyQ.one(f.fq) and f**3 == f * f * f
    script = ("from knpair.ffield import field_for\n"
              "from knpair.fqpoly import PolyQ\n"
              "PolyQ(field_for(5, 1).fq, (1, 1)) ** -1\n")
    src = str(Path(knpair.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 1 and "ValueError: PolyQ ** -1" in proc.stderr


def test_factor_deterministic():
    f = xn1(9, 6)
    assert factor_poly(f).factors == factor_poly(f).factors
    a = [format_poly(g) for g, _ in factor_poly(f).factors]
    b = [format_poly(g) for g, _ in factor_poly(f).factors]
    assert a == b


def test_arith_poly_examples():
    fq2 = field_for(2, 3).fq
    assert phi_q(PolyQ(fq2, (1, 1))) == 1  # x - 1 over F_2
    assert arith_poly(xn1(2, 3), "phi_q") == 3
    fq5 = field_for(5, 1).fq
    assert phi_q(PolyQ(fq5, (4, 1))) == 4  # units of F_5
    assert arith_poly(xn1(3, 4), "W") == 8
    assert arith_poly(xn1(2, 3), "moebius_prime") == 1
    assert arith_poly(PolyQ(fq2, (1, 1)), "moebius_prime") == -1
    rad = arith_poly(xn1(2, 4), "rad")
    assert rad == PolyQ(fq2, (1, 1))  # rad((x-1)^4) = x - 1 ... over F_2 with n=4


def test_rad_squarefree_and_divides():
    for q, n in [(2, 4), (3, 6), (4, 6), (5, 4)]:
        f = xn1(q, n)
        rad = arith_poly(f, "rad")
        assert rad.divides(f)
        assert all(e == 1 for _, e in factor_poly(rad).factors)


def test_phi_q_sum_rule():
    # sum over monic divisors h | g of Phi_q(h) = q^deg(g)
    for q, n in [(2, 3), (2, 4), (3, 4), (4, 3), (5, 2)]:
        f = xn1(q, n)
        for g in divisors_of(f):
            total = sum(phi_q(h) if h.degree > 0 else 1 for h in divisors_of(g))
            assert total == q**g.degree


def test_divisors_examples():
    fq2 = field_for(2, 3).fq
    f = xn1(2, 3)
    assert degree_k_divisors(f, 1) == [PolyQ(fq2, (1, 1))]
    assert len(divisors_of(f)) == 4
    assert divisors_of(f, "degree_equals", k=0) == [PolyQ.one(fq2)]


def test_divisors_deterministic_odometer():
    f = xn1(3, 4)
    divs = divisors_of(f)
    assert divs == divisors_of(f)
    assert divs[0] == PolyQ.one(f.fq)
    assert len(divs) == len(set(divs))


def test_divisors_ceiling():
    with pytest.raises(TooManyDivisors):
        divisors_of(xn1(2, 12), ceiling=3)


def test_divisors_of_rejects_unknown_filter():
    with pytest.raises(ValueError, match="bogus"):
        divisors_of(xn1(2, 3), "bogus")


def unpruned_degree_k_divisors(f, k):
    """The degree filter that cuts a branch only when it overshoots k; the oracle of the pruned one."""
    out, factors = [], factor_poly(f).factors

    def emit(idx, acc, deg_left):
        if idx < 0:
            if deg_left == 0:
                out.append(acc)
            return
        g, e = factors[idx]
        power = PolyQ.one(f.fq)
        for j in range(e + 1):
            if j * g.degree > deg_left:
                break
            emit(idx - 1, acc * power, deg_left - j * g.degree)
            power = power * g
    emit(len(factors) - 1, PolyQ.one(f.fq), k)
    return out


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11) for n in range(1, 13)
                                 if q**n <= 1 << 30])
def test_degree_k_divisors_against_unpruned(q, n):
    # same divisors in the same odometer order, p | n (repeated factors) included
    f = PolyQ.xn_minus_1(field_for(q, 1).fq, n)
    for k in range(-1, n + 2):
        want = unpruned_degree_k_divisors(f, k)
        assert degree_k_divisors(f, k) == want, k
        # the bounds' g is the least degree-k exponent vector, read without listing P_k
        if want:
            assert _select_g(field_for(q, n), k, None) == want[0], k
        else:
            with pytest.raises(NoDegreeKDivisor):
                _select_g(field_for(q, n), k, None)
    h = PolyQ(f.fq, (1, 1, 0, 1))
    g = h * h * f  # squared factors of several degrees beside those of x^n - 1
    for k in range(g.degree + 1):
        assert degree_k_divisors(g, k) == unpruned_degree_k_divisors(g, k), k


def test_squarefree_filter():
    f = xn1(2, 4)  # (x-1)^4
    sf = divisors_of(f, "squarefree_monic")
    assert sorted(d.degree for d in sf) == [0, 1]


def test_zero_polynomial_rejected():
    fq = field_for(2, 3).fq
    with pytest.raises(ZeroPolynomial):
        factor_poly(PolyQ.zero(fq))
    with pytest.raises(ZeroPolynomial):
        arith_poly(PolyQ.zero(fq), "rad")


def test_poly_literal_roundtrip():
    fq = field_for(4, 3).fq
    f = PolyQ(fq, (2, 0, 1, 3))
    assert parse_poly(fq, format_poly(f)) == f
