"""The field tower F_p < F_q < F_{q^n}, with q = p^t.

Representation: an F_q value is an integer code in [0, q) whose base-p
digits are the coefficients of its residue polynomial (constant digit
first).  An element of F_{q^n} holds a tuple of n such codes, again
constant coefficient first, and its enumeration code packs those digits
base q.  Element enumeration order is plain code order (an odometer on
coefficients), so searches and witnesses are reproducible.

Moduli default to the lexicographically least monic irreducible of the
required degree, "least" meaning smallest packed code with the constant
term in the least significant digit.  The search (``_least_irreducible``)
drops the candidates with a root in F_q while q <= FQ_TABLE_CEILING and
hands the rest, in code order, to Ben-Or's test, which alone accepts a
modulus.

Element arithmetic (``FieldCtx._mul``, ``_inv``, ``_pow``) multiplies and
reduces coefficient lists with ``_polyops`` for odd p.  For p = 2 it runs on
a private kernel (``_F2Kernel``), built on first use and kept on
``FieldCtx.memo``, that holds an element as an int of D = t*n bits: F_{q^n}
read as F_2[z]/(F).  theta is the least code >= 2 whose powers theta^0 ..
theta^(D-1) are F_2-independent, and F is its minimal polynomial over F_2,
of degree D.  z -> theta is then a ring map F_2[z]/(F) -> F_{q^n} that is
F_2-linear and onto, between spaces of the same dimension D, so it is an
isomorphism of algebras: products, inverses and powers computed on the ints
are those of the field, and the change of basis (z^k -> theta^k) and its
inverse carry elements across.  For t = 1, theta = x, F is the extension
modulus and the change of basis is the identity.

``_Lanes`` packs an element's n*t F_p digits as lanes of one int, which
compare as codes do; search's two engines walk spans of packed vectors, and
for p = 2, where the packed value is the code, _F2Kernel's tables are its
spans and linear maps.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import repeat
from operator import add, mul, xor

from . import _polyops
from .errors import (
    CtxMismatch,
    DivisionByZero,
    DlogTooLarge,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
)
from .intarith import IntFactorization, factor_int, is_prime

FQ_TABLE_CEILING = 4096  # largest q for which a t>1 subfield gets log tables
DLOG_CEILING_DEFAULT = 1 << 24


def _identity(a: int) -> int:
    return a


class Fq:
    """Arithmetic of the subfield F_q on integer codes.

    For t = 1 this is plain arithmetic mod p.  For t > 1 multiplication and
    inversion run through discrete log/antilog tables built once from the
    base modulus; addition is digitwise mod p.  In characteristic 2 addition
    and subtraction are XOR on codes and negation is the identity.

    ``log[a]`` is the discrete log of a nonzero code, in [0, q - 1), and
    ``log[0]`` is ZERO = 2q - 3.  ``alog`` is indexed by any sum of two
    entries of ``log``: it repeats the powers of the generator up to index
    2q - 4 and is 0 from ZERO to 2 ZERO, so ``alog[log[a] + log[b]]`` is
    the product a*b, zero factors included, with no reduction mod q - 1.
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.q = p**t
        self.modulus = modulus
        self.one = 1
        if p == 2:  # digitwise addition mod 2 on base-2 codes
            self.add = self.sub = xor
            self.neg = _identity
        if t == 1:
            if p > 2:
                self.add = lambda a, b: (a + b) % p
                self.sub = lambda a, b: (a - b) % p
                self.neg = lambda a: (-a) % p
            self.mul = lambda a, b: (a * b) % p
            self.inv = self._inv_prime
            return
        if self.q > FQ_TABLE_CEILING:
            raise FieldTooLarge(f"subfield F_{self.q} exceeds the table ceiling {FQ_TABLE_CEILING}")
        self._fp = Fq(p, 1, (0, 1))
        self._build_tables()

    def _inv_prime(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero in F_q")
        return pow(a, self.p - 2, self.p)

    def code_to_vec(self, a: int) -> list[int]:
        p, digits = self.p, []
        for _ in range(self.t):
            a, d = divmod(a, p)
            digits.append(d)
        return digits

    def vec_to_code(self, v: list[int]) -> int:
        code = 0
        for d in reversed(v):
            code = code * self.p + d
        return code

    def _vec_mul_mod(self, a: int, b: int) -> int:
        va = _polyops.trim(self.code_to_vec(a))
        vb = _polyops.trim(self.code_to_vec(b))
        mod = _polyops.mod(self._fp, _polyops.mul(self._fp, va, vb), list(self.modulus))
        return self.vec_to_code(mod + [0] * (self.t - len(mod)))

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        # multiplicative structure: log/antilog against the first generator
        for g in range(2, q):
            seen = 1
            cur = g
            while cur != 1:
                cur = self._vec_mul_mod(cur, g)
                seen += 1
            if seen == q - 1:
                break
        else:
            raise ReducibleModulus(f"no generator found for F_{q}; base modulus is reducible")
        powers = [1] * (q - 1)
        zero = 2 * q - 3
        log = [zero] * q
        cur = 1
        for i in range(q - 1):
            powers[i] = cur
            log[cur] = i
            cur = self._vec_mul_mod(cur, g)
        self.log = log
        self.alog = (powers + powers)[:zero] + [0] * (zero + 1)
        self.mul = self._mul_table
        self.inv = self._inv_table
        if p == 2:
            return
        # additive structure: digitwise mod p (full table only while quadratic
        # storage stays trivial)
        self._vecs = [self.code_to_vec(a) for a in range(q)]
        negtab = [self.vec_to_code([(-x) % p for x in self._vecs[a]]) for a in range(q)]
        if q <= 256:
            addtab = [
                [self.vec_to_code([(x + y) % p for x, y in zip(self._vecs[a], self._vecs[b])]) for b in range(q)]
                for a in range(q)
            ]
            self.add = lambda a, b: addtab[a][b]
            self.sub = lambda a, b: addtab[a][negtab[b]]
        else:
            self.add = self._add_digits
            self.sub = lambda a, b: self._add_digits(a, negtab[b])
        self.neg = negtab.__getitem__

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        code = 0
        va, vb = self._vecs[a], self._vecs[b]
        for i in range(self.t - 1, -1, -1):
            code = code * p + (va[i] + vb[i]) % p
        return code

    def _mul_table(self, a: int, b: int) -> int:
        return self.alog[self.log[a] + self.log[b]]

    def _inv_table(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero in F_q")
        return self.alog[self.q - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.t == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        return self.alog[self.log[a] * e % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Fq)
                                 and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.modulus))

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, t={self.t})"


def _least_irreducible(fq, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree, by packed-code order.

    The codes run in blocks of q that share the coefficients of x^1..x^degree
    and differ in the constant term.  Above degree 1, while q <=
    FQ_TABLE_CEILING, a block first drops every constant -g(a), a in F_q,
    where g is the shared part: those candidates have the root a (a = 0
    drops the constant 0).  Ben-Or decides the rest, in code order.
    """
    q, fmul, fadd = fq.q, fq.mul, fq.add
    sieve = degree > 1 and q <= FQ_TABLE_CEILING
    for v in range(q ** (degree - 1)):
        upper = []
        w = v
        for _ in range(degree - 1):
            w, d = divmod(w, q)
            upper.append(d)
        upper.append(fq.one)
        consts = range(q)
        if sieve:
            roots = set()
            for a in range(q):
                g = 0
                for c in reversed(upper):
                    g = fadd(fmul(g, a), c)
                roots.add(fq.neg(fmul(g, a)))
            consts = [c for c in consts if c not in roots]
        for c in consts:
            cand = [c] + upper
            if _polyops.is_irreducible(fq, cand):
                return tuple(cand)
    raise ReducibleModulus(f"no irreducible of degree {degree} over F_{q}")  # unreachable


class FieldCtx:
    """Ambient context for the tower F_p < F_q < F_{q^n}."""

    def __init__(self, fq: Fq, n: int, ext_modulus: tuple[int, ...]):
        self.p, self.t, self.n = fq.p, fq.t, n
        self.q = fq.q
        self.order = self.q**n
        self.N = self.order - 1
        self.base_modulus = fq.modulus
        self.ext_modulus = ext_modulus
        self.fq = fq
        self._memo: dict = {}
        self._memo_lock = threading.RLock()

    # -- context identity ---------------------------------------------------
    def _key(self):
        return (self.p, self.t, self.n, self.base_modulus, self.ext_modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FieldCtx({self.p}^{self.t}:{self.n})"

    # -- per-field state, built once ------------------------------------------
    def memo(self, build):
        """build(self), computed on the first call and shared by every later one.

        Racing first calls build once: the build runs under the context's
        lock, re-checked inside.  The lock is reentrant because builds nest
        (the character tables build the scan tables, which build the divisor
        lattice, which factors x^n - 1).  A build that raises caches nothing.
        """
        try:
            return self._memo[build]
        except KeyError:
            pass
        with self._memo_lock:
            if build not in self._memo:
                self._memo[build] = build(self)
            return self._memo[build]

    @property
    def fact_qn_minus_1(self) -> IntFactorization:
        return self.memo(_factor_qn_minus_1)

    # -- element constructors -------------------------------------------------
    def element(self, coeffs) -> "FieldElement":
        c = tuple(coeffs)
        if len(c) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(c)}")
        if any(not 0 <= x < self.q for x in c):
            raise ValueError("coefficient code out of range")
        return FieldElement(self, c)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.n)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def from_code(self, code: int) -> "FieldElement":
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range")
        q, coeffs = self.q, []
        for _ in range(self.n):
            code, d = divmod(code, q)
            coeffs.append(d)
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """All field elements in enumeration (code) order."""
        for code in range(self.order):
            yield self.from_code(code)

    def scalar(self, c: int) -> "FieldElement":
        """Embed an F_q code as a field element."""
        return FieldElement(self, (c,) + (0,) * (self.n - 1))

    # -- raw coefficient arithmetic (tuples), used by the hot paths ----------
    def _add(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self.fq.add, a, b))

    def _sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self.fq.sub, a, b))

    def _neg(self, a: tuple) -> tuple:
        return tuple(map(self.fq.neg, a))

    def _scale(self, a: tuple, s: int) -> tuple:
        if s == 0:
            return (0,) * self.n
        return tuple(map(self.fq.mul, a, repeat(s)))

    # Characteristic 2 runs on _F2Kernel ints, built on first use; odd p
    # multiplies and reduces coefficient lists with _polyops.
    def _mul(self, a: tuple, b: tuple) -> tuple:
        if self.p == 2:
            k = self.memo(_F2Kernel)
            return k.from_z(k.mul(k.to_z(a), k.to_z(b)))
        fq = self.fq
        prod = _polyops.mul(fq, _polyops.trim(list(a)), _polyops.trim(list(b)))
        rem = _polyops.mod(fq, prod, self.ext_modulus)
        return tuple(rem + [0] * (self.n - len(rem)))

    def _inv(self, a: tuple) -> tuple:
        if self.p == 2:
            k = self.memo(_F2Kernel)
            return k.from_z(k.inv(k.to_z(a)))
        fq = self.fq
        va = _polyops.trim(list(a))
        if not va:
            raise DivisionByZero("inverse of zero element")
        inv = _polyops.inv_mod(fq, va, self.ext_modulus)
        return tuple(inv + [0] * (self.n - len(inv)))

    def _pow(self, a: tuple, e: int) -> tuple:
        if self.n == 1:
            return (self.fq.pow(a[0], e),)
        if e < 0:
            a, e = self._inv(a), -e
        if self.p == 2:
            k = self.memo(_F2Kernel)
            return k.from_z(k.pow(k.to_z(a), e))
        out = _polyops.pow_mod(self.fq, _polyops.trim(list(a)), e, self.ext_modulus)
        return tuple(out + [0] * (self.n - len(out)))

    # -- F_q-linear maps as column matrices ----------------------------------
    def _combine(self, coeffs, columns) -> tuple:
        """sum_j coeffs[j] * columns[j mod len(columns)], each column an element.

        With columns[j] the image of x^j under an F_q-linear map L, this is L
        at the element with coefficients coeffs; with columns the Frobenius
        orbit of b, it is g o b for the polynomial with coefficients coeffs.
        The wrap reads sigma^n as sigma^0, so x^n - 1 acts as zero.  For
        t = 1 the sums are plain ints, reduced mod p once.
        """
        fq, m, plain = self.fq, len(columns), self.t == 1
        fadd, fmul = (add, mul) if plain else (fq.add, fq.mul)
        acc = (0,) * self.n
        for j, c in enumerate(coeffs):
            if c:
                acc = tuple(map(fadd, acc, map(fmul, columns[j % m], repeat(c))))
        return tuple(x % self.p for x in acc) if plain else acc

    def _build_frob_powers(self) -> list[list[tuple]]:
        """Row i, for i < n, is the matrix of sigma^i: [sigma^i(x^j) for j < n].

        sigma's columns are x^(jq) mod the modulus; row i applies them to row
        i - 1, starting from the identity."""
        n, fq = self.n, self.fq
        sigma = [_polyops.pow_mod(fq, [0] * j + [1], self.q, self.ext_modulus) for j in range(n)]
        sigma = [tuple(col + [0] * (n - len(col))) for col in sigma]
        rows = [[tuple(int(i == j) for i in range(n)) for j in range(n)]]
        while len(rows) < n:
            rows.append([self._combine(col, sigma) for col in rows[-1]])
        return rows

    def _frob(self, a: tuple, i: int = 1) -> tuple:
        """a^(q^i), one product with the matrix of sigma^(i mod n)."""
        return self._combine(a, self.memo(FieldCtx._build_frob_powers)[i % self.n])

    # -- absolute trace -------------------------------------------------------
    def _trace_table(self) -> list[int]:
        """Trace of each F_p-coordinate basis element y^j x^i."""
        return self.memo(FieldCtx._build_trace_basis)

    def _build_trace_basis(self) -> list[int]:
        p, t, n = self.p, self.t, self.n
        basis_traces = []
        for i in range(n):
            for j in range(t):
                coeffs = [0] * n
                coeffs[i] = p**j  # code of y^j in F_q
                total = (0,) * n
                cur = tuple(coeffs)
                for _ in range(t * n):
                    total = self._add(total, cur)
                    cur = self._pow(cur, p)
                if any(total[i2] for i2 in range(1, n)) or total[0] >= p:
                    raise AssertionError("trace did not land in F_p")
                basis_traces.append(total[0])
        return basis_traces

    def _trace_abs(self, a: tuple) -> int:
        tb = self._trace_table()
        p, t = self.p, self.t
        acc = 0
        idx = 0
        for c in a:
            for _ in range(t):
                c, d = divmod(c, p)
                if d:
                    acc += d * tb[idx]
                idx += 1
        return acc % p


def _factor_qn_minus_1(ctx: FieldCtx) -> IntFactorization:
    return factor_int(ctx.N)


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _digit_tuples(t: int, count: int) -> list[tuple[int, ...]]:
    """Entry v: the count base-2^t digits of v, least significant first."""
    mask = (1 << t) - 1
    return [tuple(v >> (t * i) & mask for i in range(count)) for v in range(1 << (t * count))]


class _Lanes:
    """F_{q^n} as packed ints: the searches' and the table engine's form of an
    element, and the builder of _F2Kernel's tables.

    An element's code is the base-p number of its D = n*t F_p coordinates,
    digit k = i*t + j being digit j of coefficient i.  Its packed value holds
    the same digits as w-bit lanes of one int, digit k in lane k, so packed
    values compare as their codes do.  For p = 2, w = 1: the packed value is
    the code and addition is XOR.  For odd p, w = p.bit_length() + 1, so a
    lane-wise sum of two digits, at most 2p - 2, stays in its lane; adding K,
    2^(w-1) - p in every lane, sets a lane's top bit (HI) exactly where its
    sum reached p, and p is taken off there.  ``copies`` elements can sit side
    by side in one int, element c in the ``width`` bits from c*width up; add
    and span then act on all of them at once.
    """

    def __init__(self, ctx: FieldCtx, copies: int = 1):
        self.ctx = ctx
        self.p = p = ctx.p
        self.D = D = ctx.n * ctx.t
        self.w = w = 1 if p == 2 else p.bit_length() + 1
        self.width = w * D
        ones = sum(1 << w * k for k in range(D * copies))
        self.K, self.HI = ((1 << w - 1) - p) * ones, (1 << w - 1) * ones
        self.m = m = D // 2
        self.split = p**m
        self.shift = w * m
        self.mask = (1 << w * m) - 1
        # one F_q coefficient is t lanes: its packed value by code, and back
        self.coeff_bits = w * ctx.t
        self.digit = self.span([1 << w * j for j in range(ctx.t)])
        self.digit_code = _scatter(self.digit, range(ctx.q))
        # linear_map's lane groups
        self.group = g = max(1, 8 // w)
        self.group_mask = (1 << w * g) - 1

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        s = a + b
        return s - (((s + self.K) & self.HI) >> self.w - 1) * self.p

    def pack(self, coeffs: tuple) -> int:
        digit, bits = self.digit, self.coeff_bits
        return sum(digit[c] << bits * i for i, c in enumerate(coeffs))

    def unpack(self, packed: int) -> tuple:
        digit_code, bits, mask = self.digit_code, self.coeff_bits, (1 << self.coeff_bits) - 1
        return tuple(digit_code[packed >> bits * i & mask] for i in range(self.ctx.n))

    def code(self, packed: int) -> int:
        if self.p == 2:
            return packed
        code, q = 0, self.ctx.q
        for c in reversed(self.unpack(packed)):
            code = code * q + c
        return code

    def fp_basis(self, vectors: list[tuple]) -> list[int]:
        """y^j b for b in vectors and j < t, packed: an F_p basis of their F_q
        span when they are independent.  y^j has code p^j in F_q."""
        ctx = self.ctx
        return [self.pack(ctx._scale(b, self.p**j)) for b in vectors for j in range(ctx.t)]

    def span(self, vectors: list[int]) -> list[int]:
        """sum_k c_k vectors[k], packed, for every c in F_p^len(vectors), at
        index sum_k c_k p^k."""
        add, out = xor if self.p == 2 else self.add, [0]
        for v in vectors:
            c, base = 0, list(out)
            for _ in range(self.p - 1):
                c = add(c, v)
                out += [add(s, c) for s in base]
        return out

    def halves(self, vectors: list[int]) -> tuple[list[int], list[int]]:
        """The spans of the first len // 2 vectors and of the others: the span
        of all of them is every sum of one of each, at index
        low + p^(len // 2) * high, so a walk takes one span of each half."""
        half = len(vectors) // 2
        return self.span(vectors[:half]), self.span(vectors[half:])

    def decoders(self) -> tuple[list[int], list[int]]:
        """Two tables that turn a packed value into its code, for odd p: the
        code of its low m lanes and of the others, each by the packed value of
        those lanes.  Each has one entry per packed value up to the largest,
        so the pair grows with the field; only the table engine builds them."""
        return self._decoder(self.m), self._decoder(self.D - self.m)

    def _decoder(self, lanes: int) -> list[int]:
        """The code of the digits in the first ``lanes`` lanes, by packed value;
        one entry per packed value up to the largest, all digits p - 1."""
        packed = self.span([1 << self.w * k for k in range(lanes)])
        return _scatter(packed, range(len(packed)))

    def linear_map(self, images: list[int]) -> list[tuple[int, list[int]]]:
        """The F_p-linear map that sends lane k's unit to images[k], as
        (shift, table) pairs: one per group of g = max(1, 8 // w) lanes, from
        bit ``shift`` up, its table indexed by the packed value of the group's
        lanes, so it has at most max(2^8, 2^w) entries.  The map's value at a
        is the lane-wise sum of table[a >> shift & group_mask] over the pairs."""
        w, g = self.w, self.group
        # the packed values of a group's lanes, by index; a shorter last group
        # takes a prefix
        keys = self.span([1 << w * i for i in range(min(g, self.D))])
        return [(w * k, _scatter(keys, self.span(images[k:k + g]))) for k in range(0, self.D, g)]

    def apply(self, pairs: list[tuple[int, list[int]]], a: int) -> int:
        """The linear map with these linear_map tables at the packed a."""
        mask, acc = self.group_mask, 0
        if self.p == 2:
            for shift, table in pairs:
                acc ^= table[a >> shift & mask]
            return acc
        p, K, HI, top_bit = self.p, self.K, self.HI, self.w - 1
        for shift, table in pairs:
            acc += table[a >> shift & mask]
            acc -= (((acc + K) & HI) >> top_bit) * p
        return acc


def _scatter(keys: list[int], values) -> list[int]:
    """A list holding values[i] at keys[i], 0 elsewhere, up to the last key read."""
    table = [0] * (keys[len(values) - 1] + 1)
    for key, v in zip(keys, values):
        table[key] = v
    return table



def _window(b: int) -> list[int]:
    """Entry w: the carry-less product of w and b, for w < 16."""
    b2, b4, b8 = b << 1, b << 2, b << 3
    b3, b5, b6 = b2 ^ b, b4 ^ b, b4 ^ b2
    b7 = b6 ^ b
    return [0, b, b2, b3, b4, b5, b6, b7, b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b5, b8 ^ b6, b8 ^ b7]


def _clmul(a: int, win: list[int]) -> int:
    """The carry-less product of a and b, for win = _window(b): 4 bits of a a step."""
    r = 0
    s = (a.bit_length() + 3) & ~3
    while s:
        s -= 4
        r = r << 4 ^ win[a >> s & 15]
    return r


def _theta_basis(ctx: FieldCtx) -> tuple[list[int], list[int], int]:
    """(powers, inverse, F) for the least code theta >= 2 whose powers
    theta^0 .. theta^(D-1) are F_2-independent, D = t*n.

    powers[k] is the code of theta^k; inverse[b] is the z-vector whose image
    under z^k -> powers[k] is 1 << b; F, the minimal polynomial of theta, is
    read off the dependency of theta^D on the lower powers.  The powers are
    multiplied and reduced by _polyops, not by FieldCtx._mul, which this
    basis serves.
    """
    fq, t, n, ext = ctx.fq, ctx.t, ctx.n, list(ctx.ext_modulus)
    D, mask = t * n, ctx.q - 1
    # for n > 1 the codes below q lie in F_q, of degree t < D: skip them
    for theta in range(2 if n == 1 else ctx.q, ctx.order):
        base = _polyops.trim([theta >> (t * i) & mask for i in range(n)])
        pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (code, z-vector)
        powers, cur = [], [fq.one]
        for k in range(D + 1):
            code = sum(c << (t * i) for i, c in enumerate(cur))
            row, vec = code, 1 << k
            while row and (row.bit_length() - 1) in pivots:
                prow, pvec = pivots[row.bit_length() - 1]
                row, vec = row ^ prow, vec ^ pvec
            if k == D:  # theta^D + sum f_k theta^k = 0: vec is F
                inverse = []
                for b in range(D):
                    row, z = 1 << b, 0
                    while row:
                        prow, pvec = pivots[row.bit_length() - 1]
                        row, z = row ^ prow, z ^ pvec
                    inverse.append(z)
                return powers, inverse, vec
            if not row:
                break
            pivots[row.bit_length() - 1] = (row, vec)
            powers.append(code)
            cur = _polyops.mod(fq, _polyops.mul(fq, cur, base), ext)
    raise ReducibleModulus("no F_2-generator found; a modulus is reducible")  # unreachable


class _F2Kernel:
    """F_{q^n}, q = 2^t, as F_2[z]/(F): every element a D-bit int, D = t*n.

    z stands for theta (``_theta_basis``).  The tower code of sum b_k z^k is
    the XOR of the codes of theta^k over the set bits k; this map is applied
    with one table per 8 bits (``to_code``), its inverse with one table per
    coefficient (``coeff_tabs``).  Where theta's powers are the unit codes
    (t = 1: theta = x, F the extension modulus; n = 1: theta = y, F the base
    modulus) both are the identity and ``to_code`` is None.

    A product is carry-less over 4-bit windows of one factor and reduced
    8 bits at a time with ``fold[c]`` = c * z^D mod F.  Squaring is
    F_2-linear, so ``pow`` squares with one lookup per 8 bits in tables of
    the spread-and-reduced squares (``squares``).  The inverse is the
    extended Euclidean algorithm on binary polynomials: shift and XOR, no
    division.
    """

    def __init__(self, ctx: FieldCtx):
        t, n = ctx.t, ctx.n
        D = self.D = t * n
        if t == 1:
            powers, inverse = None, None
            self.F = sum(c << i for i, c in enumerate(ctx.ext_modulus))
        else:
            powers, inverse, self.F = _theta_basis(ctx)
            if powers == [1 << k for k in range(D)]:
                powers = None
        self.t = t
        lanes = _Lanes(ctx)
        # element tuple -> int: one table per coefficient (t > 1); t = 1 reads the bits
        if t > 1:
            images = [1 << b for b in range(D)] if powers is None else inverse
            self.coeff_tabs = [lanes.span(images[t * i:t * i + t]) for i in range(n)]
        # int -> tower code -> coefficient tuple, by digit groups of at most 8 bits
        self.to_code = None if powers is None else lanes.linear_map(powers)
        per = max(1, 8 // t)
        digits = {count: _digit_tuples(t, count) for count in {per, n % per or per}}
        self.groups = [(t * i, (1 << (t * min(per, n - i))) - 1, digits[min(per, n - i)])
                       for i in range(0, n, per)]
        F, high = self.F, []  # z^(D+i) mod F for i < 8
        v = F ^ (1 << D)
        for _ in range(8):
            high.append(v)
            v <<= 1
            if v >> D:
                v ^= F
        self.fold = lanes.span(high)
        # a product of two elements has degree <= 2D - 2: bits D .. 2D - 2
        self.shifts = [D + s for s in range(((D - 2) // 8) * 8, -1, -8)]
        self.squares = lanes.linear_map([self.reduce(1 << 2 * k) for k in range(D)])

    # -- change of representation ---------------------------------------------
    def to_z(self, a: tuple) -> int:
        if self.t == 1:
            return int(bytes(a).translate(_BITS_TO_TEXT)[::-1], 2)
        v = 0
        for tab, c in zip(self.coeff_tabs, a):
            v ^= tab[c]
        return v

    def from_z(self, v: int) -> tuple:
        if self.to_code is not None:
            code = 0
            for s, tab in self.to_code:
                code ^= tab[v >> s & 255]
            v = code
        out = ()
        for s, mask, tab in self.groups:
            out += tab[v >> s & mask]
        return out

    # -- arithmetic on ints ---------------------------------------------------
    def reduce(self, r: int) -> int:
        """r mod F, for r of degree <= 2D - 2."""
        D, fold = self.D, self.fold
        for sh in self.shifts:
            c = r >> sh
            if c:
                r ^= (c << sh) ^ (fold[c] << (sh - D))
        return r

    def mul(self, a: int, b: int) -> int:
        return self.reduce(_clmul(a, _window(b)))

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, left to right; the window table of a serves every product."""
        if e == 0:
            return 1
        win = _window(a)
        squares, reduce = self.squares, self.reduce
        r = a
        for bit in bin(e)[3:]:
            x = 0
            for s, tab in squares:
                x ^= tab[r >> s & 255]
            r = reduce(_clmul(x, win)) if bit == "1" else x
        return r

    def inv(self, a: int) -> int:
        """g with a*g = 1 mod F: u = g1*a and v = g2*a mod F throughout, and
        each step cancels the leading term of the longer of u and v."""
        if not a:
            raise DivisionByZero("inverse of zero element")
        u, v, g1, g2 = a, self.F, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1


class FieldElement:
    """An element of F_{q^n}: n coefficients over F_q, constant first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    def _need_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.ctx is not self.ctx and other.ctx != self.ctx:
            raise CtxMismatch("operands live in different field contexts")

    def __add__(self, other):
        self._need_same(other)
        return FieldElement(self.ctx, self.ctx._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._need_same(other)
        return FieldElement(self.ctx, self.ctx._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg(self.coeffs))

    def __mul__(self, other):
        self._need_same(other)
        return FieldElement(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._need_same(other)
        return FieldElement(self.ctx, self.ctx._mul(self.coeffs, self.ctx._inv(other.coeffs)))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx._pow(self.coeffs, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv(self.coeffs))

    def scale(self, c: int) -> "FieldElement":
        """Multiply by an F_q scalar given as a code."""
        return FieldElement(self.ctx, self.ctx._scale(self.coeffs, c))

    def frob(self, i: int = 1) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._frob(self.coeffs, i))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def code(self) -> int:
        code = 0
        for d in reversed(self.coeffs):
            code = code * self.ctx.q + d
        return code

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldElement) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


# -- construction -------------------------------------------------------------

# (p, t, n) -> the context on the default moduli; (p, t, n, base, ext) -> the
# context on those moduli, ext None for a searched one.  A context is under
# the key it was asked by and under its full key.
_CTX_CACHE: dict[tuple, FieldCtx] = {}
_CTX_LOCK = threading.Lock()


def _checked_shape(modulus, degree: int, size: int, name: str) -> tuple[int, ...]:
    modulus = tuple(modulus)
    if len(modulus) != degree + 1 or modulus[-1] != 1:
        raise ReducibleModulus(f"{name} modulus must be monic of degree {degree}")
    if any(not 0 <= c < size for c in modulus):
        raise ReducibleModulus(f"{name} modulus coefficients out of range")
    return modulus


def _moduli(p: int, t: int, n: int, fq: Fq | None, base, ext) -> tuple[Fq, tuple[int, ...]]:
    """(F_q, ext): F_q is fq, or built on base (searched when None); ext is
    tested for irreducibility, or searched when None."""
    if fq is None:
        fp = Fq(p, 1, (0, 1))
        if base is None:
            base = _least_irreducible(fp, t)
        elif not _polyops.is_irreducible(fp, list(base)):
            raise ReducibleModulus("base modulus is reducible over F_p")
        fq = Fq(p, t, base)
    if ext is None:
        ext = _least_irreducible(fq, n)
    elif not _polyops.is_irreducible(fq, list(ext)):
        raise ReducibleModulus("extension modulus is reducible over F_q")
    return fq, ext


def make_field(p: int, t: int, n: int, base_modulus=None, ext_modulus=None) -> FieldCtx:
    """Build (or fetch) the tower context for F_p < F_{p^t} < F_{(p^t)^n}.

    Without overrides each modulus is the lexicographically least monic
    irreducible of its degree, searched once per (p, t, n).  An override is
    checked for shape and range on every call, and for irreducibility only
    while no context on it is cached; a missing base modulus is the default
    one, with F_q taken from make_field(p, t, 1).  Every call that ends on the
    same moduli returns the same context; racing first calls build it once,
    under a lock re-checked inside.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if t < 1 or n < 1:
        raise ValueError("t and n must be positive")
    fq = base = ext = None
    if base_modulus is not None:
        base = _checked_shape(base_modulus, t, p, "base")
    elif ext_modulus is not None:
        fq = make_field(p, t, 1).fq
        base = fq.modulus
    if ext_modulus is not None:
        ext = _checked_shape(ext_modulus, n, p**t, "extension")
    key = (p, t, n) if base is None else (p, t, n, base, ext)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        with _CTX_LOCK:
            ctx = _CTX_CACHE.get(key)
            if ctx is None:
                fq, ext = _moduli(p, t, n, fq, base, ext)
                full = (p, t, n, fq.modulus, ext)
                ctx = _CTX_CACHE.get(full) or FieldCtx(fq, n, ext)
                _CTX_CACHE[full] = _CTX_CACHE[key] = ctx
    return ctx


@lru_cache(maxsize=None)
def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^t with p prime, or NotPrime."""
    f = factor_int(q)
    if len(f.factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    return f.factors[0]


def field_for(q: int, n: int) -> FieldCtx:
    p, t = split_prime_power(q)
    return make_field(p, t, n)


# -- spec operations ----------------------------------------------------------

def elem_arith(a: FieldElement, b: FieldElement | None, which: str, k: int | None = None) -> FieldElement:
    """String-dispatch surface over the element operators."""
    if which == "add":
        return a + b
    if which == "sub":
        return a - b
    if which == "mul":
        return a * b
    if which == "div":
        return a / b
    if which == "inv":
        return a.inv()
    if which == "pow":
        return a ** (k if k is not None else 1)
    raise ValueError(f"unknown elem_arith selector {which!r}")


def frobenius(a: FieldElement, i: int = 1) -> FieldElement:
    """a^(q^i); frobenius(a, n) = a."""
    return a.frob(i)


def trace_abs(a: FieldElement) -> int:
    """Absolute trace down to F_p, as a residue in [0, p)."""
    return a.ctx._trace_abs(a.coeffs)


def mult_order(a: FieldElement) -> int:
    """Least k >= 1 with a^k = 1, by exponent reduction over fact(q^n - 1)."""
    if a.is_zero():
        raise ZeroElement("the zero element has no multiplicative order")
    ctx = a.ctx
    k = ctx.N
    one = (1,) + (0,) * (ctx.n - 1)
    for p, e in ctx.fact_qn_minus_1.factors:
        for _ in range(e):
            if k % p == 0 and ctx._pow(a.coeffs, k // p) == one:
                k //= p
            else:
                break
    return k


def find_primitive(ctx: FieldCtx) -> FieldElement:
    """First element in enumeration order of full order q^n - 1."""
    N = ctx.N
    for code in range(1, ctx.order):
        el = ctx.from_code(code)
        if mult_order(el) == N:
            return el
    raise ZeroElement("no primitive element found")  # unreachable in a field


def dlog(a: FieldElement, base: FieldElement, ceiling: int = DLOG_CEILING_DEFAULT) -> int:
    """e in [0, q^n - 1) with base^e = a, by baby-step giant-step."""
    ctx = a.ctx
    if a.is_zero():
        raise ZeroElement("dlog of the zero element")
    if ctx.order > ceiling:
        raise DlogTooLarge(f"|F| = {ctx.order} exceeds the dlog ceiling {ceiling}")
    N = ctx.N
    m = int(N**0.5) + 1
    baby: dict[tuple, int] = {}
    cur = ctx.one().coeffs
    for j in range(m):
        baby.setdefault(cur, j)
        cur = ctx._mul(cur, base.coeffs)
    giant_step = ctx._inv(ctx._pow(base.coeffs, m))
    cur = a.coeffs
    for i in range(m + 1):
        j = baby.get(cur)
        if j is not None:
            return (i * m + j) % N
        cur = ctx._mul(cur, giant_step)
    raise ZeroElement("dlog failed; base is not primitive")


# -- literals -----------------------------------------------------------------

def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p^t:n" (or "q:n") with an optional ":mod=<ext coeffs>" override.

    The mod override lists the n+1 extension-modulus coefficients, constant
    first, each written as an F_q literal (dash-separated F_p residues).
    """
    parts = spec.split(":")
    if len(parts) < 2:
        raise ValueError(f"bad field spec {spec!r}; expected p^t:n")
    if "^" in parts[0]:
        p_s, t_s = parts[0].split("^")
        p, t = int(p_s), int(t_s)
    else:
        p, t = split_prime_power(int(parts[0]))
    n = int(parts[1])
    ext = None
    for extra in parts[2:]:
        if extra.startswith("mod="):
            fq = make_field(p, t, 1).fq
            ext = tuple(_parse_fq_literal(fq, tok) for tok in extra[4:].split(","))
        else:
            raise ValueError(f"unknown field spec extra {extra!r}")
    return make_field(p, t, n, ext_modulus=ext)


def _parse_fq_literal(fq: Fq, tok: str) -> int:
    digits = [int(x) for x in tok.strip().split("-")]
    if len(digits) > fq.t or any(not 0 <= d < fq.p for d in digits):
        raise ValueError(f"bad F_q literal {tok!r}")
    digits += [0] * (fq.t - len(digits))
    return fq.vec_to_code(digits)


def _format_fq_literal(fq: Fq, code: int) -> str:
    return "-".join(str(d) for d in fq.code_to_vec(code))


def parse_element(ctx: FieldCtx, text: str) -> FieldElement:
    """Element literal: comma-separated F_q coefficients, constant first."""
    toks = text.strip().split(",")
    if len(toks) != ctx.n:
        raise ValueError(f"expected {ctx.n} coefficients, got {len(toks)}")
    return ctx.element(_parse_fq_literal(ctx.fq, tok) for tok in toks)


def format_element(a: FieldElement) -> str:
    return ",".join(_format_fq_literal(a.ctx.fq, c) for c in a.coeffs)
