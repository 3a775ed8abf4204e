"""Dense polynomial arithmetic on coefficient lists of subfield codes.

Coefficients are integer codes interpreted by an arithmetic object ``fq``
exposing add/sub/mul/neg/inv on codes (see ffield.Fq).  Lists are
constant-term first with no trailing zeros; [] is the zero polynomial.
Shared by the modulus search in ffield and by fqpoly.PolyQ.
"""

from __future__ import annotations

from .errors import DivisionByZero


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def deg(c: list[int]) -> int:
    return len(c) - 1


def add(fq, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = fq.add(out[i], x)
    return trim(out)


def sub(fq, a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = fq.sub(out[i], x)
    return trim(out)


def mul(fq, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return trim(out)


def scale(fq, a: list[int], s: int) -> list[int]:
    if s == 0:
        return []
    return trim([fq.mul(c, s) for c in a])


def divmod_(fq, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
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
    return trim(quo), trim(rem)


def mod(fq, a: list[int], b: list[int]) -> list[int]:
    return divmod_(fq, a, b)[1]


def monic(fq, a: list[int]) -> list[int]:
    if not a or a[-1] == fq.one:
        return list(a)
    return scale(fq, a, fq.inv(a[-1]))


def gcd(fq, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(fq, a, b)
    return monic(fq, a)


def inv_mod(fq, a: list[int], modulus: list[int]) -> list[int]:
    """Inverse of a modulo an irreducible modulus, by extended Euclid."""
    r0, r1 = list(modulus), mod(fq, a, modulus)
    if not r1:
        raise DivisionByZero("inverse of zero")
    s0, s1 = [], [fq.one]
    while deg(r1) > 0:
        q, r = divmod_(fq, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(fq, s0, mul(fq, q, s1))
    if not r1:
        raise DivisionByZero("element not invertible modulo modulus")
    return mod(fq, scale(fq, s1, fq.inv(r1[0])), modulus)


def pow_mod(fq, base: list[int], e: int, modulus: list[int]) -> list[int]:
    result = [fq.one]
    base = mod(fq, base, modulus)
    while e:
        if e & 1:
            result = mod(fq, mul(fq, result, base), modulus)
        base = mod(fq, mul(fq, base, base), modulus)
        e >>= 1
    return result


def is_irreducible(fq, f: list[int]) -> bool:
    """Ben-Or test: gcd(x^(q^i) - x, f) = 1 for every i <= d/2.

    A reducible f has an irreducible factor of some degree i <= d/2, which
    divides x^(q^i) - x, so the loop stops at the degree of the smallest
    factor; x^(q^i) comes from x^(q^(i-1)) by one q-th power.  f(0) = 0
    means x divides f, so no power is taken at all.
    """
    d = deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, fq.one]
    h = x
    for _ in range(d // 2):
        h = pow_mod(fq, h, fq.q, f)
        if deg(gcd(fq, sub(fq, h, x), f)) != 0:
            return False
    return True
