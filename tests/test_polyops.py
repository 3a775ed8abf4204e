"""The F_q[x] kernels and Ben-Or's irreducibility test against oracles.

For t = 1, products, divisions, gcds, powers and squares are checked against
sympy's galoistools.  For t > 1 they are checked against the generic
per-coefficient loops the kernels replaced, kept below and run on `SlowFq`,
F_q arithmetic from digit vectors and the base modulus that shares no code
with Fq's log tables.

`rabin_is_irreducible` is Rabin's test, kept here only as a reference:
f of degree d is irreducible iff x^(q^d) = x mod f and
gcd(x^(q^(d/l)) - x, f) = 1 for every prime l dividing d.  It shares the
polynomial arithmetic of `_polyops` but not Ben-Or's loop.  For t = 1
sympy's `gf_irreducible_p` is a second oracle that shares no code, and every
exhaustive degree is also checked against Gauss's count of monic
irreducibles.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_irreducible_p, gf_mul, gf_pow_mod

from knpair import _polyops
from knpair.errors import ReducibleModulus
from knpair.ffield import make_field
from knpair.fqpoly import PolyQ
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


def has_root(fq, f: list[int]) -> bool:
    """Whether f vanishes at some code of F_q, by Horner at every one."""
    for a in range(fq.q):
        v = 0
        for c in reversed(f):
            v = fq.add(fq.mul(v, a), c)
        if v == 0:
            return True
    return False


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_rootless_entry_against_rabin(p, t):
    # the moduli search hands Ben-Or only the candidates its root sieve kept,
    # and Ben-Or skips their i = 1 gcd; on every rootless monic f of the
    # exhaustive grid that entry must still agree with Rabin's test
    fq = make_field(p, t, 1).fq
    q = fq.q
    checked = 0
    for d in range(2, 7):
        if q**d > EXHAUSTIVE_LIMIT:
            break
        for v in range(q**d):
            f = monic(q, d, v)
            if not has_root(fq, f):
                assert _polyops.is_irreducible(fq, f, rootless=True) == rabin_is_irreducible(fq, f), (q, f)
                checked += 1
    assert checked


@pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (5, 1), (3, 2)])
def test_cubics_with_a_root_keep_step_one(p, t):
    # for a cubic Ben-Or runs its i = 1 gcd alone, and only that gcd sees the
    # root of (x - a) Q, Q an irreducible quadratic, a != 0 (a = 0 fails the
    # f(0) test first): a modulus override and PolyQ must still run it
    fq = make_field(p, t, 1).fq
    q = fq.q
    quadratics = [f for f in (monic(q, 2, v) for v in range(q * q)) if rabin_is_irreducible(fq, f)]
    assert len(quadratics) == gauss_count(q, 2)
    for a in range(1, q):
        for quad in quadratics:
            f = _polyops.mul(fq, [fq.neg(a), fq.one], quad)
            with pytest.raises(ReducibleModulus):
                make_field(p, t, 3, ext_modulus=f)
            assert not PolyQ(fq, tuple(f)).is_irreducible()
            assert not _polyops.is_irreducible(fq, f)
            # the sieved entry takes its caller's word that f has no root
            assert _polyops.is_irreducible(fq, f, rootless=True)


# -- the product and division kernels ------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 167])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prime_field_kernels_against_sympy(p, data):
    fq = make_field(p, 1, 1).fq
    poly = st.lists(st.integers(0, p - 1), max_size=12).map(_polyops.trim)
    a, b = data.draw(poly), data.draw(poly)
    f = data.draw(poly.filter(lambda c: len(c) > 1))
    e = data.draw(st.integers(0, 3 * p))

    def rev(c):  # sympy lists the leading coefficient first
        return c[::-1]

    assert rev(_polyops.mul(fq, a, b)) == gf_mul(rev(a), rev(b), p, ZZ)
    assert rev(_polyops.square(fq, a)) == gf_mul(rev(a), rev(a), p, ZZ)
    if b:
        quo, rem = _polyops.divmod_(fq, a, b)
        assert (rev(quo), rev(rem)) == gf_div(rev(a), rev(b), p, ZZ)
    assert rev(_polyops.gcd(fq, a, b)) == gf_gcd(rev(a), rev(b), p, ZZ)
    assert rev(_polyops.pow_mod(fq, a, e, f)) == (gf_pow_mod(rev(a), e, rev(f), p, ZZ) if e else [1])


class SlowFq:
    """F_q on codes, from digit vectors and the base modulus alone: sums
    digitwise mod p, products by schoolbook multiplication reduced by the
    monic base modulus.  Shares no code with Fq's log tables or with the
    kernels."""

    def __init__(self, fq):
        p, t, m, q = fq.p, fq.t, fq.modulus, fq.q
        self.q, self.one = q, 1
        vecs = [[a // p**i % p for i in range(t)] for a in range(q)]

        def code(v):
            return sum(d * p**i for i, d in enumerate(v))

        def vmul(u, v):
            prod = [0] * (2 * t - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    prod[i + j] += x * y
            for k in range(2 * t - 2, t - 1, -1):
                c = prod[k] % p
                for i in range(t + 1):
                    prod[k - t + i] -= c * m[i]
            return code([c % p for c in prod[:t]])

        self.addtab = [[code([(x + y) % p for x, y in zip(u, v)]) for v in vecs] for u in vecs]
        self.multab = [[vmul(u, v) for v in vecs] for u in vecs]
        self.negtab = [code([-x % p for x in v]) for v in vecs]
        self.invtab = {a: b for a in range(1, q) for b in range(1, q) if self.multab[a][b] == 1}

    def add(self, a, b):
        return self.addtab[a][b]

    def sub(self, a, b):
        return self.addtab[a][self.negtab[b]]

    def mul(self, a, b):
        return self.multab[a][b]

    def inv(self, a):
        return self.invtab[a]


@lru_cache(maxsize=None)
def slow_fq(p: int, t: int) -> SlowFq:
    return SlowFq(make_field(p, t, 1).fq)


# The per-coefficient loops that mul, divmod_ and pow_mod ran before the
# kernels replaced them, kept as the reference for t > 1.

def generic_mul(fq, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return _polyops.trim(out)


def generic_divmod(fq, a, b):
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    inv_lead = fq.inv(b[-1])
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c == 0:
            continue
        factor = fq.mul(c, inv_lead)
        quo[shift] = factor
        for i, x in enumerate(b):
            if x:
                rem[shift + i] = fq.sub(rem[shift + i], fq.mul(factor, x))
    return _polyops.trim(quo), _polyops.trim(rem)


def generic_gcd(fq, a, b):
    while b:
        a, b = b, generic_divmod(fq, a, b)[1]
    if not a:
        return a
    s = fq.inv(a[-1])
    return [fq.mul(c, s) for c in a]


def generic_pow_mod(fq, base, e, modulus):
    result = [fq.one]
    base = generic_divmod(fq, base, modulus)[1]
    while e:
        if e & 1:
            result = generic_divmod(fq, generic_mul(fq, result, base), modulus)[1]
        base = generic_divmod(fq, generic_mul(fq, base, base), modulus)[1]
        e >>= 1
    return result


EXTENSION_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 6)]  # q = 4, 8, 9, 16, 25, 64


@pytest.mark.parametrize("p,t", EXTENSION_FIELDS)
def test_fq_scalars_against_digit_arithmetic(p, t):
    fq = make_field(p, t, 1).fq
    slow = slow_fq(p, t)
    for a in range(fq.q):
        assert fq.neg(a) == slow.sub(0, a)
        if a:
            assert fq.inv(a) == slow.inv(a)
            assert fq.pow(a, -3) == slow.mul(slow.inv(a), slow.mul(slow.inv(a), slow.inv(a)))
        assert fq.pow(a, 0) == 1 and fq.pow(a, fq.q) == a
        for b in range(fq.q):
            assert fq.add(a, b) == slow.add(a, b)
            assert fq.sub(a, b) == slow.sub(a, b)
            assert fq.mul(a, b) == slow.mul(a, b)


@pytest.mark.parametrize("p,t", EXTENSION_FIELDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extension_field_kernels_against_generic_loop(p, t, data):
    fq = make_field(p, t, 1).fq
    slow = slow_fq(p, t)
    poly = st.lists(st.integers(0, fq.q - 1), max_size=10).map(_polyops.trim)
    a, b = data.draw(poly), data.draw(poly)
    f = data.draw(poly.filter(lambda c: len(c) > 1))
    e = data.draw(st.integers(0, 300))
    assert _polyops.mul(fq, a, b) == generic_mul(slow, a, b)
    assert _polyops.square(fq, a) == generic_mul(slow, a, a)
    if b:
        assert _polyops.divmod_(fq, a, b) == generic_divmod(slow, a, b)
    assert _polyops.gcd(fq, a, b) == generic_gcd(slow, a, b)
    assert _polyops.pow_mod(fq, a, e, f) == generic_pow_mod(slow, a, e, f)

