"""Exact integer number theory.

Factorization is fully deterministic: trial division by the primes below
10^6, sieved only as far as it divides (see _factor_cached), then
Brent-cycle Pollard rho with a fixed seed schedule, with every reported
prime certified (Miller-Rabin with the 13-witness deterministic set below
3.3e24, BPSW above).  ``prime_power`` splits a prime power from its integer
roots, with no factoring.  Externally computed factorizations may be
supplied as hints for the extent of one ``with factor_hints(hints) as
used:`` block: inside it, factor_int takes n's factorization from a hint
for n, after verifying it (primality of every part, product check), and
adds n to ``used``.  The scope is per thread, so hints reach every
factorization the block makes, through any number of calls, and nothing
outside it.

On top of that sit the multiplicative helpers the existence bounds need:
rad, Euler phi, Moebius mu, the squarefree-divisor count W(n) = 2^omega(n),
and the prime-product constant C_nu.  C_nu is always rounded upward so that
inequality verdicts derived from it are never optimistic.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING

from .errors import FactorizationIncomplete, InvalidHint, NuTooLarge

if TYPE_CHECKING:
    from mpmath import mpf

TRIAL_DIVISION_BOUND = 10**6
POLLARD_EFFORT = 1 << 21  # Brent iterations per (seed, constant) attempt
PRIME_SIEVE_CEILING = 1 << 16
SMALL_PRIMES = 1 << 10  # trial division's first pass: the primes below this

# Witnesses proving primality for all n < 3317044064679887385961981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981


def _eratosthenes(limit: int) -> array:
    """All primes < limit, by sieve of Eratosthenes, as machine integers: a
    tuple of the primes below 10^6 would hold 78,498 int objects, several
    times the memory."""
    if limit <= 2:
        return array("I")
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return array("I", compress(range(limit), flags))


# (limit, the primes below it): one sieve, grown to the largest limit asked
# for so far.  The pair is swapped in one assignment, so a thread that reads
# it always gets primes that match their limit.
_sieve: tuple[int, array] = (0, array("I"))


def _primes(limit: int) -> array:
    """All primes < limit, cut from the one sieve; it is rebuilt only when
    limit exceeds every limit asked for before."""
    global _sieve
    sieved, primes = _sieve
    if limit > sieved:
        primes = _eratosthenes(limit)
        _sieve = (limit, primes)
    return primes[: bisect_left(primes, limit)]


def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit, by sieve of Eratosthenes."""
    return tuple(_primes(limit))


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter search: D = 5, -7, 9, -11, ... with (D|n) = -1.
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequence by binary ladder on (U, V).
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Certified primality: deterministic Miller-Rabin below 3.3e24, BPSW above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_LIMIT:
        return _miller_rabin(n, _MR_WITNESSES)
    return _miller_rabin(n, (2,)) and _strong_lucas_prp(n)


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, t) with q = p^t and p prime, or None; from the integer t-th roots
    of q, so q itself is never factored."""
    if q < 2:
        return None
    for t in range(1, q.bit_length()):
        # Newton's iteration from above ends at floor(q^(1/t))
        root = 1 << -(-q.bit_length() // t)
        while (nxt := ((t - 1) * root + q // root ** (t - 1)) // t) < root:
            root = nxt
        if root**t == q and is_prime(root):
            return root, t
    return None


def _pollard_brent(n: int, effort: int) -> int | None:
    """Brent-cycle rho; returns a nontrivial factor of composite odd n, or None."""
    for attempt in range(1, 20):
        y, c, m = attempt, attempt, 128
        g, r, q = 1, 1, 1
        spent = 0
        x = ys = y
        while g == 1 and spent < effort:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


@dataclass(frozen=True)
class IntFactorization:
    """A certified prime factorization: value = prod(p^e)."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise InvalidHint(f"primes not strictly increasing: {p}")
            if e < 1:
                raise InvalidHint(f"exponent < 1 for prime {p}")
            if not is_prime(p):
                raise InvalidHint(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise InvalidHint(f"product {prod} != value {self.value}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def radical(self) -> int:
        r = 1
        for p in self.primes:
            r *= p
        return r

    def phi(self) -> int:
        out = self.value
        for p in self.primes:
            out = out // p * (p - 1)
        return out

    def moebius(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    def W(self) -> int:
        return 1 << len(self.factors)

    def divisors(self) -> list[int]:
        """All divisors, ascending."""
        out = [1]
        for p, e in self.factors:
            out = [d * p**i for d in out for i in range(e + 1)]
        return sorted(out)

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


Hints = dict[int, "list[tuple[int, int]] | tuple[tuple[int, int], ...]"]

# .hints: (hints, used) of this thread's innermost factor_hints block.  Not a
# ContextVar: importing contextvars loads a shared library, about 0.17 MiB of
# peak RSS (CPython 3.11, x86-64 Linux) in every process importing knpair.
_scope = threading.local()


@contextmanager
def factor_hints(hints: Hints):
    """Serve factor_int from hints inside the block; yields the set of values
    whose hint was used."""
    used: set[int] = set()
    outer = getattr(_scope, "hints", None)
    _scope.hints = (hints, used)
    try:
        yield used
    finally:
        _scope.hints = outer


def _trial_divide(rest: int, factors: dict[int, int], primes) -> int:
    """Divide rest by the primes in order, up to isqrt(rest); record each
    factor found and return the cofactor."""
    for p in primes:
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    return rest


def _sieve_limit(n: int) -> int:
    """A sieve limit above isqrt(n), rounded up to a power of two so that
    the sieve grows by doubling, and capped at TRIAL_DIVISION_BOUND."""
    return min(TRIAL_DIVISION_BOUND, 1 << (math.isqrt(n) + 1).bit_length())


@lru_cache(maxsize=None)
def _factor_cached(n: int, effort: int) -> IntFactorization:
    factors: dict[int, int] = {}
    # trial division sieves only as far as it divides: the primes below
    # SMALL_PRIMES first, then, for a cofactor that is neither 1 nor prime,
    # the rest up to its square root.  The primes are tried in the same order
    # as by one pass to isqrt(n), and the sieve grows no further than that.
    small = _primes(min(SMALL_PRIMES, _sieve_limit(n)))
    rest = _trial_divide(n, factors, small)
    if rest > 1 and is_prime(rest):
        factors[rest] = 1
        rest = 1
    elif rest > 1:
        primes = _primes(_sieve_limit(rest))
        rest = _trial_divide(rest, factors, primes[len(small):])
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _pollard_brent(m, effort)
        if g is None:
            raise FactorizationIncomplete(f"composite cofactor {m} of {n} survived effort bound")
        stack.extend((g, m // g))
    return IntFactorization(n, tuple(sorted(factors.items())))


def factor_int(n: int, effort: int = POLLARD_EFFORT) -> IntFactorization:
    """Certified factorization of n >= 1.

    Inside a factor_hints block, a hint for n is verified (each part prime,
    product equals n) and then used verbatim; a bad hint raises InvalidHint
    rather than being silently ignored.
    """
    if n < 1:
        raise ValueError(f"factor_int needs n >= 1, got {n}")
    if n == 1:
        return IntFactorization(1, ())
    scope = getattr(_scope, "hints", None)
    if scope is not None and n in scope[0]:
        hints, used = scope
        fact = IntFactorization(n, tuple(tuple(pe) for pe in hints[n]))
        used.add(n)
        return fact
    return _factor_cached(n, effort)


def arith_int(n: int, which: str) -> int:
    """rad / phi / moebius / W of n, all off one certified factorization."""
    f = factor_int(n)
    if which == "rad":
        return f.radical()
    if which == "phi":
        return f.phi()
    if which == "moebius":
        return f.moebius()
    if which == "W":
        return f.W()
    raise ValueError(f"unknown arith_int selector {which!r}")


def rad_int(n: int) -> int:
    return factor_int(n).radical()


def euler_phi(n: int) -> int:
    return factor_int(n).phi()


def moebius(n: int) -> int:
    return factor_int(n).moebius()


def squarefree_divisor_count(n: int) -> int:
    return factor_int(n).W()


def divisors(n: int) -> list[int]:
    return factor_int(n).divisors()


def c_nu(nu: float, M: IntFactorization | None = None, sieve_ceiling: int = PRIME_SIEVE_CEILING) -> mpf:
    """The constant C_nu = prod 2/p^(1/nu) over primes p <= 2^nu.

    With M given, the product runs only over the primes of M below 2^nu
    (so W(M) <= C_nu * M^(1/nu) with this exact value); without M it runs
    over all primes below 2^nu, which is the bound used by the asymptotic
    thresholds.  The result is rounded upward.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    # imported here: loading mpmath adds about 4 MiB to the peak RSS of every
    # process that imports knpair, and only the asymptotic thresholds need it
    from mpmath import mp, mpf

    bound_real = mpf(2) ** mpf(nu)
    if M is None:
        if bound_real > sieve_ceiling:
            raise NuTooLarge(f"2^{nu} exceeds the prime sieve ceiling {sieve_ceiling}")
        bound = int(bound_real)
        ps = list(_primes(bound + 1))
    else:
        ps = [p for p in M.primes if mpf(p) <= bound_real]
    if not ps:
        return mpf(1)
    with mp.workprec(160):
        prod = mpf(1)
        inv_nu = 1 / mpf(nu)
        for p in ps:
            prod *= 2 / mpf(p) ** inv_nu
        # upward bump: two units in the 128th bit dominate accumulated error
        return prod * (1 + mpf(2) ** -120)
