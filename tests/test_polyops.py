"""Ben-Or's irreducibility test against oracles with other criteria.

`rabin_is_irreducible` is Rabin's test, kept here only as a reference:
f of degree d is irreducible iff x^(q^d) = x mod f and
gcd(x^(q^(d/l)) - x, f) = 1 for every prime l dividing d.  It shares the
polynomial arithmetic of `_polyops` but not Ben-Or's loop.  For t = 1
sympy's `gf_irreducible_p` is a second oracle that shares no code, and every
exhaustive degree is also checked against Gauss's count of monic
irreducibles.
"""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from knpair import _polyops
from knpair.ffield import make_field
from knpair.intarith import moebius

EXHAUSTIVE_LIMIT = 20_000  # larger degrees are checked on a seeded sample
SAMPLE = 1_500


def rabin_is_irreducible(fq, f: list[int]) -> bool:
    d = _polyops.deg(f)
    if d < 1:
        return False
    x = _polyops.mod(fq, [0, fq.one], f)
    primes = [ell for ell in range(2, d + 1) if d % ell == 0 and all(ell % m for m in range(2, ell))]
    for ell in primes:
        h = _polyops.sub(fq, _polyops.pow_mod(fq, x, fq.q ** (d // ell), f), x)
        if _polyops.deg(_polyops.gcd(fq, h, f)) != 0:
            return False
    return _polyops.sub(fq, _polyops.pow_mod(fq, x, fq.q**d, f), x) == []


def monic(q: int, d: int, v: int) -> list[int]:
    """The monic polynomial of degree d whose lower coefficients pack to v base q."""
    coeffs = []
    for _ in range(d):
        v, c = divmod(v, q)
        coeffs.append(c)
    return coeffs + [1]


def gauss_count(q: int, d: int) -> int:
    return sum(moebius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_is_irreducible_against_rabin(p, t):
    fq = make_field(p, t, 1).fq
    q = fq.q
    rng = random.Random(q)
    for d in range(1, 7):
        exhaustive = q**d <= EXHAUSTIVE_LIMIT
        codes = range(q**d) if exhaustive else rng.sample(range(q**d), SAMPLE)
        found = 0
        for v in codes:
            f = monic(q, d, v)
            got = _polyops.is_irreducible(fq, f)
            assert got == rabin_is_irreducible(fq, f), (q, f)
            if t == 1:
                assert got == gf_irreducible_p(f[::-1], p, ZZ), (q, f)
            found += got
        if exhaustive:
            assert found == gauss_count(q, d), (q, d)


def test_is_irreducible_degenerate_inputs():
    fq = make_field(2, 1, 1).fq
    assert not _polyops.is_irreducible(fq, [])
    assert not _polyops.is_irreducible(fq, [1])
    assert _polyops.is_irreducible(fq, [0, 1])  # x
    assert not _polyops.is_irreducible(fq, [0, 1, 1])  # x (x + 1)
