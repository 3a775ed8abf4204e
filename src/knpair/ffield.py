"""The field tower F_p < F_q < F_{q^n}, with q = p^t.

Representation: an F_q value is an integer code in [0, q) whose base-p
digits are the coefficients of its residue polynomial (constant digit
first).  An element of F_{q^n} holds a tuple of n such codes, again
constant coefficient first, and its enumeration code packs those digits
base q.  Element enumeration order is plain code order (an odometer on
coefficients), so searches and witnesses are reproducible.

Moduli default to the lexicographically least monic irreducible of the
required degree, "least" meaning smallest packed code with the constant
term in the least significant digit.
"""

from __future__ import annotations

import threading
from functools import lru_cache

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


class Fq:
    """Arithmetic of the subfield F_q on integer codes.

    For t = 1 this is plain arithmetic mod p.  For t > 1 multiplication and
    inversion run through discrete log/antilog tables built once from the
    base modulus; addition is digitwise mod p.
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.q = p**t
        self.modulus = modulus
        self.one = 1
        if t == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: (a * b) % p
            self.neg = lambda a: (-a) % p
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
        # additive structure: digitwise mod p (full table only while quadratic
        # storage stays trivial)
        self._vecs = [self.code_to_vec(a) for a in range(q)]
        self._negtab = [self.vec_to_code([(-x) % p for x in self._vecs[a]]) for a in range(q)]
        if q <= 256:
            self._addtab = [
                [self.vec_to_code([(x + y) % p for x, y in zip(self._vecs[a], self._vecs[b])]) for b in range(q)]
                for a in range(q)
            ]
        else:
            self._addtab = None
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
        alog = [1] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            alog[i] = cur
            log[cur] = i
            cur = self._vec_mul_mod(cur, g)
        self._alog, self._log = alog, log
        if self._addtab is not None:
            self.add = lambda a, b: self._addtab[a][b]
            self.sub = lambda a, b: self._addtab[a][self._negtab[b]]
        else:
            self.add = self._add_digits
            self.sub = lambda a, b: self._add_digits(a, self._negtab[b])
        self.neg = lambda a: self._negtab[a]
        self.mul = self._mul_table
        self.inv = self._inv_table

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        code = 0
        va, vb = self._vecs[a], self._vecs[b]
        for i in range(self.t - 1, -1, -1):
            code = code * p + (va[i] + vb[i]) % p
        return code

    def _mul_table(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._alog[(self._log[a] + self._log[b]) % (self.q - 1)]

    def _inv_table(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero in F_q")
        return self._alog[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq) and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.modulus))

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, t={self.t})"


def _least_irreducible(fq, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree, by packed-code order."""
    q = fq.q
    for v in range(q**degree):
        coeffs = []
        w = v
        for _ in range(degree):
            w, d = divmod(w, q)
            coeffs.append(d)
        cand = coeffs + [fq.one]
        if _polyops.is_irreducible(fq, cand):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible of degree {degree} over F_{q}")  # unreachable


class FieldCtx:
    """Ambient context for the tower F_p < F_q < F_{q^n}."""

    def __init__(self, p: int, t: int, n: int, base_modulus: tuple[int, ...], ext_modulus: tuple[int, ...], factor_hints=None):
        self.p, self.t, self.n = p, t, n
        self.q = p**t
        self.order = self.q**n
        self.N = self.order - 1
        self.base_modulus = base_modulus
        self.ext_modulus = ext_modulus
        self.fq = Fq(p, t, base_modulus)
        self.factor_hints = factor_hints
        self._fact: IntFactorization | None = None
        self._fact_lock = threading.Lock()
        self._frob_images: list[list[list[int]]] = []  # per power i: basis images
        self._frob_lock = threading.Lock()
        self._trace_basis: list[int] | None = None
        self._trace_lock = threading.Lock()

    # -- context identity ---------------------------------------------------
    def _key(self):
        return (self.p, self.t, self.n, self.base_modulus, self.ext_modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FieldCtx({self.p}^{self.t}:{self.n})"

    # -- factorization of q^n - 1 -------------------------------------------
    @property
    def fact_qn_minus_1(self) -> IntFactorization:
        if self._fact is None:
            with self._fact_lock:
                if self._fact is None:
                    self._fact = factor_int(self.N, hints=self.factor_hints)
        return self._fact

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
        sub = self.fq.sub
        return tuple(sub(x, y) for x, y in zip(a, b))

    def _neg(self, a: tuple) -> tuple:
        neg = self.fq.neg
        return tuple(neg(x) for x in a)

    def _scale(self, a: tuple, s: int) -> tuple:
        if s == 0:
            return (0,) * self.n
        mul = self.fq.mul
        return tuple(mul(x, s) for x in a)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        fq = self.fq
        prod = _polyops.mul(fq, _polyops.trim(list(a)), _polyops.trim(list(b)))
        rem = _polyops.mod(fq, prod, list(self.ext_modulus))
        return tuple(rem + [0] * (self.n - len(rem)))

    def _inv(self, a: tuple) -> tuple:
        fq = self.fq
        va = _polyops.trim(list(a))
        if not va:
            raise DivisionByZero("inverse of zero element")
        inv = _polyops.inv_mod(fq, va, list(self.ext_modulus))
        return tuple(inv + [0] * (self.n - len(inv)))

    def _pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            a, e = self._inv(a), -e
        out = (1,) + (0,) * (self.n - 1)
        while e:
            if e & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            e >>= 1
        return out

    # -- Frobenius x -> x^q as an F_q-linear map ------------------------------
    def _frob_basis(self, i: int) -> list[list[int]]:
        """Images of the power basis under x -> x^(q^i), as coefficient lists."""
        if i < len(self._frob_images):
            return self._frob_images[i]
        # entries are only appended, each one complete, so the check above
        # needs no lock; building takes it, or concurrent first calls would
        # append the same power twice and shift every later one
        with self._frob_lock:
            while len(self._frob_images) <= i:
                if not self._frob_images:
                    images = []
                    for j in range(self.n):
                        xj = [0] * j + [self.fq.one]
                        img = _polyops.pow_mod(self.fq, xj, self.q, list(self.ext_modulus))
                        images.append(img + [0] * (self.n - len(img)))
                    self._frob_images.append(images)  # power 1
                else:
                    prev = self._frob_images[-1]
                    one_step = self._frob_images[0]
                    images = [self._apply_linear(one_step, tuple(v)) for v in prev]
                    self._frob_images.append([list(v) for v in images])
        return self._frob_images[i]

    def _apply_linear(self, images: list[list[int]], v: tuple) -> tuple:
        add, mul = self.fq.add, self.fq.mul
        out = [0] * self.n
        for j, c in enumerate(v):
            if c == 0:
                continue
            col = images[j]
            if c == 1:
                for i in range(self.n):
                    if col[i]:
                        out[i] = add(out[i], col[i])
            else:
                for i in range(self.n):
                    if col[i]:
                        out[i] = add(out[i], mul(c, col[i]))
        return tuple(out)

    def _frob(self, a: tuple, i: int = 1) -> tuple:
        i %= self.n
        if i == 0:
            return a
        return self._apply_linear(self._frob_basis(i - 1), a)

    # -- absolute trace -------------------------------------------------------
    def _trace_table(self) -> list[int]:
        """Trace of each F_p-coordinate basis element y^j x^i."""
        if self._trace_basis is None:
            with self._trace_lock:
                if self._trace_basis is None:
                    self._trace_basis = self._build_trace_basis()
        return self._trace_basis

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

_CTX_CACHE: dict[tuple, FieldCtx] = {}


def make_field(p: int, t: int, n: int, base_modulus=None, ext_modulus=None, factor_hints=None) -> FieldCtx:
    """Build (or fetch) the tower context for F_p < F_{p^t} < F_{(p^t)^n}.

    Without overrides each modulus is the lexicographically least monic
    irreducible of its degree.  Overrides are re-verified.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if t < 1 or n < 1:
        raise ValueError("t and n must be positive")
    if base_modulus is not None:
        base_modulus = tuple(base_modulus)
        fp = Fq(p, 1, (0, 1))
        if len(base_modulus) != t + 1 or base_modulus[-1] != 1:
            raise ReducibleModulus("base modulus must be monic of degree t")
        if any(not 0 <= c < p for c in base_modulus):
            raise ReducibleModulus("base modulus coefficients out of range")
        if not _polyops.is_irreducible(fp, list(base_modulus)):
            raise ReducibleModulus("base modulus is reducible over F_p")
    else:
        base_modulus = _least_irreducible(Fq(p, 1, (0, 1)), t)
    fq = Fq(p, t, base_modulus)
    if ext_modulus is not None:
        ext_modulus = tuple(ext_modulus)
        if len(ext_modulus) != n + 1 or ext_modulus[-1] != fq.one:
            raise ReducibleModulus("extension modulus must be monic of degree n")
        if any(not 0 <= c < fq.q for c in ext_modulus):
            raise ReducibleModulus("extension modulus coefficients out of range")
        if not _polyops.is_irreducible(fq, list(ext_modulus)):
            raise ReducibleModulus("extension modulus is reducible over F_q")
    else:
        ext_modulus = _least_irreducible(fq, n)
    key = (p, t, n, base_modulus, ext_modulus)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, t, n, base_modulus, ext_modulus, factor_hints=factor_hints)
        _CTX_CACHE[key] = ctx
    elif factor_hints:
        ctx.factor_hints = factor_hints
    return ctx


@lru_cache(maxsize=None)
def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^t with p prime, or NotPrime."""
    f = factor_int(q)
    if len(f.factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    return f.factors[0]


def field_for(q: int, n: int, factor_hints=None) -> FieldCtx:
    p, t = split_prime_power(q)
    return make_field(p, t, n, factor_hints=factor_hints)


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

def parse_field_spec(spec: str, factor_hints=None) -> FieldCtx:
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
            fq = Fq(p, t, _least_irreducible(Fq(p, 1, (0, 1)), t) if t > 1 else (0, 1))
            ext = tuple(_parse_fq_literal(fq, tok) for tok in extra[4:].split(","))
        else:
            raise ValueError(f"unknown field spec extra {extra!r}")
    return make_field(p, t, n, ext_modulus=ext, factor_hints=factor_hints)


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
