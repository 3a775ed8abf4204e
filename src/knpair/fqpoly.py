"""Polynomials over F_q: arithmetic, factorization, Phi_q, divisor enumeration.

PolyQ wraps a coefficient tuple (constant term first, no trailing zeros;
the empty tuple is the zero polynomial) together with the subfield context.
Factorization runs squarefree decomposition, distinct-degree splitting and
Cantor-Zassenhaus equal-degree splitting; the equal-degree stage draws its
randomness from a PRNG seeded deterministically from (q, coefficients), so
factor order - and with it every divisor enumeration - is identical across
runs.  Every divisor list (divisors_of, degree_k_divisors, the divisor
lattice of x^n - 1 and the bounds' choice of g) reads one enumeration,
exponent_vectors, which is also the one place DIVISOR_CEILING is checked.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from math import prod

from . import _polyops
from .errors import CtxMismatch, DivisionByZero, TooManyDivisors, ZeroPolynomial
from .ffield import Fq, _format_fq_literal, _parse_fq_literal

DIVISOR_CEILING = 1 << 16


class PolyQ:
    """A polynomial over F_q."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq: Fq, coeffs) -> None:
        self.fq = fq
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, fq: Fq) -> "PolyQ":
        return cls(fq, ())

    @classmethod
    def one(cls, fq: Fq) -> "PolyQ":
        return cls(fq, (fq.one,))

    @classmethod
    def x(cls, fq: Fq) -> "PolyQ":
        return cls(fq, (0, fq.one))

    @classmethod
    def xn_minus_1(cls, fq: Fq, n: int) -> "PolyQ":
        coeffs = [fq.neg(fq.one)] + [0] * (n - 1) + [fq.one]
        return cls(fq, coeffs)

    # -- basic structure --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (self.fq.one,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.fq.one

    def monic(self) -> "PolyQ":
        if self.is_zero() or self.is_monic():
            return self
        return PolyQ(self.fq, _polyops.monic(self.fq, list(self.coeffs)))

    def _need_same(self, other: "PolyQ") -> None:
        if not isinstance(other, PolyQ) or other.fq != self.fq:
            raise CtxMismatch("polynomials live over different subfields")

    # -- ring operations --------------------------------------------------------
    def __add__(self, other: "PolyQ") -> "PolyQ":
        self._need_same(other)
        return PolyQ(self.fq, _polyops.add(self.fq, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        self._need_same(other)
        return PolyQ(self.fq, _polyops.sub(self.fq, list(self.coeffs), list(other.coeffs)))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        self._need_same(other)
        return PolyQ(self.fq, _polyops.mul(self.fq, list(self.coeffs), list(other.coeffs)))

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        self._need_same(other)
        q, r = _polyops.divmod_(self.fq, list(self.coeffs), list(other.coeffs))
        return PolyQ(self.fq, q), PolyQ(self.fq, r)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "PolyQ":
        if e < 0:
            raise ValueError(f"PolyQ ** {e}: the exponent must be nonnegative")
        out = PolyQ.one(self.fq)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def gcd(self, other: "PolyQ") -> "PolyQ":
        self._need_same(other)
        return PolyQ(self.fq, _polyops.gcd(self.fq, list(self.coeffs), list(other.coeffs)))

    def divides(self, other: "PolyQ") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def derivative(self) -> "PolyQ":
        fq = self.fq
        out = []
        for i in range(1, len(self.coeffs)):
            s = i % fq.p
            out.append(fq.mul(self.coeffs[i], s) if s else 0)
        return PolyQ(fq, out)

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, PolyQ) and self.fq == other.fq and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyQ[{format_poly(self)}]"

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs)

    def is_irreducible(self) -> bool:
        return _polyops.is_irreducible(self.fq, list(self.coeffs))


def poly_arith(f: PolyQ, g: PolyQ, which: str):
    """String-dispatch surface: add / mul / divmod / gcd."""
    if which == "add":
        return f + g
    if which == "mul":
        return f * g
    if which == "divmod":
        return divmod(f, g)
    if which == "gcd":
        return f.gcd(g)
    raise ValueError(f"unknown poly_arith selector {which!r}")


@dataclass(frozen=True)
class PolyFactorization:
    """input = unit * prod(factor^exponent), factors monic irreducible,
    ordered by (degree, coefficient tuple)."""

    input: PolyQ
    unit: int
    factors: tuple[tuple[PolyQ, int], ...]

    def __post_init__(self) -> None:
        prod = PolyQ.one(self.input.fq)
        prev_key = None
        for f, e in self.factors:
            if e < 1 or not f.is_monic():
                raise ZeroPolynomial("bad factor in factorization")
            if prev_key is not None and f.sort_key() <= prev_key:
                raise ZeroPolynomial("factors out of order or repeated")
            prev_key = f.sort_key()
            prod = prod * f**e
        prod = PolyQ(prod.fq, _polyops.scale(prod.fq, list(prod.coeffs), self.unit))
        if prod != self.input:
            raise ZeroPolynomial("factorization does not multiply back to input")

    @property
    def irreducibles(self) -> tuple[PolyQ, ...]:
        return tuple(f for f, _ in self.factors)

    def radical(self) -> PolyQ:
        out = PolyQ.one(self.input.fq)
        for f in self.irreducibles:
            out = out * f
        return out

    def phi_q(self) -> int:
        q = self.input.fq.q
        out = 1
        for f, e in self.factors:
            d = f.degree
            out *= q ** (d * e) - q ** (d * (e - 1))
        return out

    def moebius_prime(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    def W(self) -> int:
        return 1 << len(self.factors)


def _pth_root(f: PolyQ) -> PolyQ:
    """p-th root of a polynomial whose exponents are all multiples of p."""
    fq = f.fq
    root_exp = fq.p ** (fq.t - 1)  # c^(p^(t-1)) is the p-th root of c in F_q
    out = []
    for i in range(0, len(f.coeffs), fq.p):
        out.append(fq.pow(f.coeffs[i], root_exp))
    return PolyQ(fq, out)


def _squarefree_parts(f: PolyQ) -> list[tuple[PolyQ, int]]:
    """Yun-type squarefree decomposition adapted to characteristic p."""
    fq = f.fq
    out: list[tuple[PolyQ, int]] = []
    if f.degree < 1:
        return out
    fp = f.derivative()
    if fp.is_zero():
        for g, m in _squarefree_parts(_pth_root(f)):
            out.append((g, m * fq.p))
        return out
    c = f.gcd(fp)
    w = f // c
    i = 1
    while not w.is_one():
        y = w.gcd(c)
        z = w // y
        if not z.is_one():
            out.append((z.monic(), i))
        w = y
        c = c // y
        i += 1
    if not c.is_one():
        for g, m in _squarefree_parts(_pth_root(c)):
            out.append((g, m * fq.p))
    return out


def _distinct_degree(f: PolyQ) -> list[tuple[PolyQ, int]]:
    """Split a squarefree monic f into products of equal-degree irreducibles."""
    fq = f.fq
    out = []
    h = PolyQ.x(fq)
    rest = f
    d = 0
    x = PolyQ.x(fq)
    while rest.degree > 0:
        d += 1
        if rest.degree < 2 * d:
            out.append((rest, rest.degree))
            break
        h = PolyQ(fq, _polyops.pow_mod(fq, list(h.coeffs), fq.q, list(rest.coeffs)))
        g = (h - x).gcd(rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    return out


def _equal_degree_split(f: PolyQ, d: int, rng: random.Random) -> list[PolyQ]:
    """All irreducible (degree-d) factors of an equal-degree product."""
    fq = f.fq
    if f.degree == d:
        return [f]
    q = fq.q
    while True:
        a = PolyQ(fq, [rng.randrange(q) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = a.gcd(f)
        if 0 < g.degree < f.degree:
            split = g
        else:
            if q % 2 == 1:
                b = PolyQ(fq, _polyops.pow_mod(fq, list(a.coeffs), (q**d - 1) // 2, list(f.coeffs)))
                split = (b - PolyQ.one(fq)).gcd(f)
            else:
                # trace map to F_2 over the degree-d factor field
                acc = a % f
                cur = a % f
                for _ in range(d * fq.t - 1):
                    cur = PolyQ(fq, _polyops.pow_mod(fq, list(cur.coeffs), 2, list(f.coeffs)))
                    acc = acc + cur
                split = acc.gcd(f)
        if 0 < split.degree < f.degree:
            left = split.monic()
            right = (f // split).monic()
            return _equal_degree_split(left, d, rng) + _equal_degree_split(right, d, rng)


def factor_poly(f: PolyQ) -> PolyFactorization:
    """Complete factorization into monic irreducibles, deterministic order."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    fq = f.fq
    unit = f.coeffs[-1]
    work = f.monic()
    seed = zlib.crc32(repr((fq.q, f.coeffs)).encode())
    rng = random.Random(seed)
    found: dict[PolyQ, int] = {}
    for part, mult in _squarefree_parts(work):
        for block, d in _distinct_degree(part):
            for irr in _equal_degree_split(block.monic(), d, rng):
                found[irr] = found.get(irr, 0) + mult
    factors = tuple(sorted(found.items(), key=lambda fe: fe[0].sort_key()))
    return PolyFactorization(f, unit, factors)


def arith_poly(f: PolyQ, which: str):
    """rad / phi_q / moebius_prime / W, all off one factorization."""
    if f.is_zero():
        raise ZeroPolynomial("arith_poly of the zero polynomial")
    fact = factor_poly(f)
    if which == "rad":
        return fact.radical()
    if which == "phi_q":
        return fact.phi_q()
    if which == "moebius_prime":
        return fact.moebius_prime()
    if which == "W":
        return fact.W()
    raise ValueError(f"unknown arith_poly selector {which!r}")


def phi_q(f: PolyQ) -> int:
    return arith_poly(f, "phi_q")


def exponent_vectors(factors, caps=None, *, one: PolyQ | None = None, k: int | None = None,
                     first: bool = False, ceiling: int = DIVISOR_CEILING) -> list[tuple]:
    """Pairs (a, prod f_j^a_j), or (a, None) without ``one``, over the exponent
    vectors 0 <= a_j <= caps[j] (default e_j) of the factors (f_j, e_j) of one
    factorization, in odometer order (a_0 cycling fastest).

    The vectors grow from the last factor down, each carrying its product.
    With k (and ``one``) a vector grows only while factors 0..j-1 can make up
    the degree it lacks, so no branch dies; ``first`` keeps the least vector
    alone.  The count is checked against ``ceiling`` before any product.
    """
    caps = [e for _, e in factors] if caps is None else caps
    if k is None:
        count = prod(c + 1 for c in caps)
    else:
        # ways[j][m] counts the vectors over factors 0..j-1 of degree m <= k
        ways = [[int(m == 0) for m in range(k + 1)]]
        for (f, _), c in zip(factors, caps):
            ways.append([sum(ways[-1][m - a * f.degree] for a in range(min(c, m // f.degree) + 1))
                         for m in range(k + 1)])
        count = ways[-1][k] if k >= 0 else 0
    if count > ceiling and not first:
        raise TooManyDivisors(f"{count} divisors exceed the ceiling {ceiling}")
    out = [((), one)] if count else []
    for j in reversed(range(len(factors))):
        f = factors[j][0]
        # one step per exponent a: its head (a,), its degree and f^a (None for a = 0)
        steps, power = [((0,), 0, None)], one
        for a in range(1, caps[j] + 1):
            power = None if one is None else power * f
            steps.append(((a,), a * f.degree, power))
        # with k the products are carried, and x.degree is the degree made so far
        out = [(u + v, x if p is None else x * p) for v, x in out for u, t, p in steps
               if k is None or (x.degree + t <= k and ways[j][k - x.degree - t])]
        if first:
            del out[1:]
    return out


def divisors_of(f: PolyQ, filter_kind: str = "all_monic", k: int | None = None, ceiling: int = DIVISOR_CEILING) -> list[PolyQ]:
    """Monic divisors of f in odometer order over the factorization exponents
    (first factor's exponent cycling fastest), from exponent_vectors.

    filter_kind: all_monic | squarefree_monic | degree_equals (with k).
    """
    if filter_kind not in ("all_monic", "squarefree_monic", "degree_equals"):
        raise ValueError(f"unknown divisors_of filter {filter_kind!r}")
    if f.is_zero():
        raise ZeroPolynomial("divisors of the zero polynomial")
    if filter_kind == "degree_equals" and k is None:
        raise ValueError("degree_equals filter needs k")
    factors = factor_poly(f).factors
    caps = [1] * len(factors) if filter_kind == "squarefree_monic" else None
    k = k if filter_kind == "degree_equals" else None
    return [d for _, d in exponent_vectors(factors, caps, one=PolyQ.one(f.fq), k=k, ceiling=ceiling)]


def degree_k_divisors(f: PolyQ, k: int) -> list[PolyQ]:
    """The set P_k: monic degree-k divisors of f, in enumeration order."""
    return divisors_of(f, "degree_equals", k=k)


def parse_poly(fq: Fq, text: str) -> PolyQ:
    """Literal: comma-separated coefficients, constant first, F_q literals."""
    return PolyQ(fq, [_parse_fq_literal(fq, tok) for tok in text.strip().split(",")])


def format_poly(f: PolyQ) -> str:
    if f.is_zero():
        return "0"
    return ",".join(_format_fq_literal(f.fq, c) for c in f.coeffs)
