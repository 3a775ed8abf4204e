"""Dense polynomial arithmetic over F_q on coefficient lists of codes.

``fq`` is an ``ffield.Fq``.  Lists are constant-term first with no trailing
zeros; [] is the zero polynomial.  Shared by the modulus search in ffield,
by FieldCtx's element arithmetic and by fqpoly.PolyQ.

Products (``mul``) and divisions (``divmod_``) run one of two kernels,
chosen by ``fq``:

- t = 1 (F_p): codes are the residues themselves.  A product coefficient
  accumulates plain int products and is reduced mod p once.  Division
  subtracts unreduced multiples of the divisor, reduces only the leading
  coefficient each step reads, and reduces the remainder once at the end.
- t > 1: a product of two codes is ``fq.alog[fq.log[x] + fq.log[y]]``, the
  antilog table being long enough that a sum of two logs needs no
  reduction.  Terms are summed with ``fq.add`` (XOR in characteristic 2,
  the add table otherwise).

A division is two steps: ``divisor`` reads what the loop needs of the
divisor (its degree, the inverse of its leading coefficient, and its other
nonzero coefficients, as logs for t > 1), and ``reduce`` runs the loop.
``divmod_`` runs the two back to back.  ``pow_mod`` prepares its modulus
once per call, not once per product, and ``is_irreducible`` prepares f once
for all its q-th powers; nothing is kept past the call.

In characteristic 2 a square takes no product: (sum c_i x^i)^2 =
sum c_i^2 x^(2i), so ``square`` places c_i^2 at x^(2i).  ``pow_mod``
squares with it, left to right over the exponent's bits.
"""

from __future__ import annotations

from collections.abc import Sequence

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
    return trim(list(map(fq.add, a, b)) + a[len(b):])


def sub(fq, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a = list(a) + [0] * (len(b) - len(a))
    return trim(list(map(fq.sub, a, b)) + a[len(b):])


def mul(fq, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if fq.t == 1:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        p = fq.p
        return trim([c % p for c in out])
    log, alog, add_ = fq.log, fq.alog, fq.add
    logs_b = [(j, log[y]) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            lx = log[x]
            for j, ly in logs_b:
                out[i + j] = add_(out[i + j], alog[lx + ly])
    return trim(out)


def square(fq, a: list[int]) -> list[int]:
    """a * a; in characteristic 2 coefficient by coefficient, with no product."""
    if fq.p != 2:
        return mul(fq, a, a)
    if not a:
        return []
    out = [0] * (2 * len(a) - 1)
    if fq.t == 1:
        out[::2] = a
    else:
        log, alog = fq.log, fq.alog
        out[::2] = [alog[2 * log[c]] for c in a]
    return out


def scale(fq, a: list[int], s: int) -> list[int]:
    if s == 0:
        return []
    return trim([fq.mul(c, s) for c in a])


def divisor(fq, b: Sequence[int]) -> tuple[int, int, list[tuple[int, int]]]:
    """What reducing by b reads of it: (top, inv_lead, low).

    top is deg b and low the (index, value) pairs of b's nonzero coefficients
    below x^top.  For t = 1, inv_lead is 1/b_top and a value is b_j itself;
    for t > 1 both are logs, of 1/b_top and of -b_j / b_top.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    top = len(b) - 1
    if fq.t == 1:
        return top, fq.inv(b[-1]), [(j, y) for j, y in enumerate(b[:top]) if y]
    log, order = fq.log, fq.q - 1
    inv_lead = log[fq.inv(b[-1])]
    # -b_j / b_top, so that adding c times one subtracts c/b_top * b_j; -1 is
    # the element of order 2, g^((q-1)/2), for odd q
    neg = inv_lead if fq.p == 2 else inv_lead + order // 2
    return top, inv_lead, [(j, (log[y] + neg) % order) for j, y in enumerate(b[:top]) if y]


def reduce(fq, a: list[int], div: tuple[int, int, list[tuple[int, int]]]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the divisor that ``divisor`` prepared."""
    top, inv_lead, low = div
    if len(a) <= top:
        return [], list(a)
    rem = list(a)
    quo = [0] * (len(a) - top)
    if fq.t == 1:
        p = fq.p
        for s in range(len(a) - top - 1, -1, -1):
            c = rem[s + top] % p
            if c:
                f = c * inv_lead % p
                quo[s] = f
                for j, y in low:
                    rem[s + j] -= f * y
        return trim(quo), trim([c % p for c in rem[:top]])
    log, alog, add_ = fq.log, fq.alog, fq.add
    for s in range(len(a) - top - 1, -1, -1):
        c = rem[s + top]
        if c:
            lc = log[c]
            quo[s] = alog[lc + inv_lead]
            for j, ly in low:
                rem[s + j] = add_(rem[s + j], alog[lc + ly])
    return trim(quo), trim(rem[:top])


def divmod_(fq, a: list[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    if b and len(a) < len(b):  # nothing to reduce: skip the preparation
        return [], list(a)
    return reduce(fq, a, divisor(fq, b))


def mod(fq, a: list[int], b: Sequence[int]) -> list[int]:
    if b and len(a) < len(b):
        return list(a)
    return reduce(fq, a, divisor(fq, b))[1]


def monic(fq, a: list[int]) -> list[int]:
    if not a or a[-1] == fq.one:
        return list(a)
    return scale(fq, a, fq.inv(a[-1]))


def gcd(fq, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(fq, a, b)
    return monic(fq, a)


def inv_mod(fq, a: list[int], modulus: Sequence[int]) -> list[int]:
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


def pow_mod(fq, base: list[int], e: int, modulus: Sequence[int]) -> list[int]:
    """base^e mod modulus for e >= 0, by left-to-right square and multiply."""
    return _pow_by(fq, base, e, divisor(fq, modulus))


def _pow_by(fq, base: list[int], e: int, div) -> list[int]:
    """pow_mod on a modulus that ``divisor`` prepared."""
    if e == 0:
        return [fq.one]
    base = reduce(fq, base, div)[1]
    result = base
    for bit in bin(e)[3:]:
        result = reduce(fq, square(fq, result), div)[1]
        if bit == "1":
            result = reduce(fq, mul(fq, result, base), div)[1]
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
    div = divisor(fq, f)
    x = [0, fq.one]
    h = x
    for _ in range(d // 2):
        h = _pow_by(fq, h, fq.q, div)
        if deg(gcd(fq, f, sub(fq, h, x))) != 0:
            return False
    return True
