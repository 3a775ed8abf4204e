import random
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from sympy import factorint, isprime, nextprime, primerange

from knpair import intarith
from knpair.errors import FactorizationIncomplete, InvalidHint, NuTooLarge
from knpair.intarith import (
    IntFactorization,
    arith_int,
    c_nu,
    divisors,
    euler_phi,
    factor_hints,
    factor_int,
    is_prime,
    moebius,
    primes_below,
    rad_int,
    squarefree_divisor_count,
)

from conftest import BENCHMARK_MODULI


def test_factor_prime():
    assert factor_int(7).factors == ((7, 1),)


def test_factor_1023():
    assert factor_int(1023).factors == ((3, 1), (11, 1), (31, 1))


def test_factor_2_28_minus_1():
    # needed by the (q,n) = (4,14) inequality check
    assert factor_int(2**28 - 1).factors == ((3, 1), (5, 1), (29, 1), (43, 1), (113, 1), (127, 1))


def test_factor_one():
    assert factor_int(1).factors == ()


def test_factor_large_semiprime_cofactor():
    n = 47**23 - 1
    f = factor_int(n)
    assert f.value == n
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_hints_used_verbatim():
    n = 2**28 - 1
    hint = {n: ((3, 1), (5, 1), (29, 1), (43, 1), (113, 1), (127, 1))}
    with factor_hints(hint) as used:
        assert factor_int(n).factors == hint[n]
    assert used == {n}


def test_bad_hint_rejected():
    with factor_hints({15: ((3, 1), (6, 1))}), pytest.raises(InvalidHint):
        factor_int(15)  # 6 not prime
    with factor_hints({15: ((3, 2),)}), pytest.raises(InvalidHint):
        factor_int(15)  # wrong product


def test_hint_scope_is_per_thread_and_ends_with_block():
    bad = {15: ((3, 1), (6, 1))}
    with factor_hints(bad):
        got = []
        th = threading.Thread(target=lambda: got.append(factor_int(15).factors))
        th.start()
        th.join(timeout=10)
        assert got == [((3, 1), (5, 1))]  # another thread does not see the hint
    assert factor_int(15).factors == ((3, 1), (5, 1))


def test_effort_bound_raises():
    # two 40-digit-ish primes: rho with a tiny budget cannot split this
    p = 2**89 - 1
    q = 2**107 - 1
    with pytest.raises(FactorizationIncomplete):
        factor_int(p * q, effort=4)


def test_arith_examples():
    assert arith_int(12, "rad") == 6
    assert arith_int(1023, "W") == 8
    assert arith_int(1, "moebius") == 1
    assert euler_phi(10) == 4
    assert moebius(30) == -1
    assert moebius(12) == 0
    assert rad_int(72) == 6
    assert squarefree_divisor_count(60) == 8
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_sieve_oracle_agreement():
    """phi, moebius, rad, W against a smallest-prime-factor sieve."""
    limit = 10**6
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    import random

    rng = random.Random(20240901)
    sample = list(range(1, 20001)) + [rng.randrange(20001, limit + 1) for _ in range(2000)]
    for n in sample:
        m = n
        parts = []
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
        phi = rad = 1
        mu = 1
        for p, e in parts:
            phi *= (p - 1) * p ** (e - 1)
            rad *= p
            mu = 0 if e > 1 else -mu
        f = factor_int(n)
        assert f.factors == tuple(parts)
        assert f.phi() == phi and f.radical() == rad and f.moebius() == mu
        assert f.W() == 2 ** len(parts)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_W_multiplicative_on_coprimes(a, b):
    from math import gcd

    if gcd(a, b) == 1:
        assert squarefree_divisor_count(a * b) == squarefree_divisor_count(a) * squarefree_divisor_count(b)


def test_c_nu_exact_for():
    from mpmath import mp

    M = IntFactorization(15, ((3, 1), (5, 1)))
    got = c_nu(3.0, M)
    with mp.workprec(200):
        want = (2 / mpf(3) ** (mpf(1) / 3)) * (2 / mpf(5) ** (mpf(1) / 3))
        assert abs(got - want) < mpf(10) ** -30
        assert got >= want  # rounded upward


def test_c_nu_empty_product():
    M = IntFactorization(3, ((3, 1),))
    assert c_nu(1.0, M) == 1  # no prime <= 2 divides 3


def test_c_nu_bound_property():
    # W(M) <= C_nu * M^(1/nu) for a few M and nu
    for n in (1023, 5040, 2**20 - 1):
        M = factor_int(n)
        for nu in (2.0, 4.0, 7.6):
            assert M.W() <= c_nu(nu, M) * mpf(n) ** (1 / mpf(nu)) * (1 + mpf(10) ** -25)


def test_c_nu_bound_monotone_in_nu():
    # the usable quantity C_nu * M^(1/nu) tightens monotonically as nu grows
    for n in (9699690, 1023, 86400):
        M = factor_int(n)
        vals = [c_nu(nu, M) * mpf(n) ** (1 / mpf(nu)) for nu in (3.0, 4.0, 5.0, 8.0, 12.0)]
        slack = mpf(10) ** -25
        assert all(a >= b - slack for a, b in zip(vals, vals[1:]))


def test_c_nu_rejects_large_nu():
    with pytest.raises(NuTooLarge):
        c_nu(93.46)


def test_primes_below():
    assert primes_below(20) == (2, 3, 5, 7, 11, 13, 17, 19)


def test_primes_from_one_sieve(monkeypatch):
    # one sieve, rebuilt only for a new largest limit; smaller limits are cut
    # from it, so asking again in decreasing order sieves nothing
    built = []
    real = intarith._eratosthenes
    monkeypatch.setattr(intarith, "_eratosthenes", lambda limit: built.append(limit) or real(limit))
    monkeypatch.setattr(intarith, "_sieve", (0, array("I")))
    limits = [2, 3, 4, 30, 97, 1000, 1024, 7919, 7920]
    for limit in limits + limits[::-1] + [0, 1]:
        assert list(intarith._primes(limit)) == list(primerange(limit))
    assert built == limits
    assert intarith._sieve[0] == 7920 and list(intarith._sieve[1]) == list(primerange(7920))


def test_primes_racing_threads(monkeypatch):
    # threads that grow the sieve while others cut from it: every answer must
    # match its own limit, whichever (limit, primes) pair a thread read
    monkeypatch.setattr(intarith, "_sieve", (0, array("I")))
    want = {limit: list(primerange(limit)) for limit in range(2, 4000, 97)}
    wrong = []

    def worker(offset):
        for i in range(len(want)):
            limit = list(want)[(i * 7 + offset) % len(want)]
            if list(intarith._primes(limit)) != want[limit]:
                wrong.append(limit)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_is_prime_edges():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(2**127 - 1)  # BPSW path (above the deterministic MR limit)
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime(2**89 * 3)


def test_factor_int_and_is_prime_against_sympy():
    # trial division sieves only as far as isqrt(n) needs; the factorizations
    # must not change, including for prime factors between 2^16 and 10^6
    rng = random.Random(2024)
    mid = [nextprime(rng.randrange(1 << 16, 10**6)) for _ in range(12)] + [65537, 999983]
    values = {p ** (t * n) - 1 for p, t, n in BENCHMARK_MODULI}
    values.update(a * b for a in mid for b in mid[:4])
    values.update(a * rng.randrange(2, 10**4) for a in mid)
    values.update(a * nextprime(10**6 + rng.randrange(10**5)) for a in mid)
    values.update(a**2 * 3**rng.randrange(1, 9) for a in mid)
    values.update(rng.randrange(2, 1 << 48) for _ in range(60))
    for n in sorted(values):
        assert dict(factor_int(n).factors) == factorint(n), n
        assert is_prime(n) == isprime(n), n
    for a in mid:
        assert is_prime(a) and factor_int(a).factors == ((a, 1),)
    for n in range(1, 3000):
        assert dict(factor_int(n).factors) == factorint(n) and is_prime(n) == isprime(n), n
