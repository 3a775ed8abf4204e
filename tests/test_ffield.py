import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_mul, gf_pow_mod, gf_rem

from knpair import _polyops, ffield
from knpair.errors import (
    CtxMismatch,
    DivisionByZero,
    DlogTooLarge,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
)
from knpair.ffield import (
    FieldCtx,
    dlog,
    elem_arith,
    field_for,
    find_primitive,
    format_element,
    frobenius,
    make_field,
    mult_order,
    parse_element,
    parse_field_spec,
    trace_abs,
)
from knpair.intarith import euler_phi, factor_int

from conftest import BENCHMARK_MODULI


def test_canonical_moduli_f8(f8):
    assert f8.ext_modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert f8.order == 8


@pytest.mark.parametrize("p,t,n,base,ext", [
    (2, 4, 8, (1, 1, 0, 0, 1), (2, 1, 0, 1, 0, 0, 0, 0, 1)),
    (2, 6, 6, (1, 1, 0, 0, 0, 0, 1), (32, 1, 1, 0, 0, 0, 1)),
    (2, 4, 12, (1, 1, 0, 0, 1), (4, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (2, 1, 12, (0, 1), (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 1, 9, (0, 1), (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)),
    (5, 1, 10, (0, 1), (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
    (7, 1, 14, (0, 1), (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (167, 1, 6, (0, 1), (12, 1, 0, 0, 0, 0, 1)),
    (3, 2, 6, (1, 0, 1), (4, 0, 1, 0, 0, 0, 1)),
    (2, 2, 14, (1, 1, 1), (1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_default_moduli_pinned(p, t, n, base, ext):
    # the least monic irreducibles; witnesses and codes in every report
    # depend on them, so a change of search order or test must not move them
    ctx = make_field(p, t, n)
    assert (ctx.base_modulus, ctx.ext_modulus) == (base, ext)


def test_default_context_found_before_any_search(monkeypatch):
    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    calls = []
    real = _polyops.is_irreducible
    monkeypatch.setattr(_polyops, "is_irreducible", lambda fq, f: calls.append(f) or real(fq, f))
    ctx = field_for(16, 4)
    assert calls
    calls.clear()
    assert field_for(16, 4) is ctx
    assert make_field(2, 4, 4) is ctx
    assert not calls
    # moduli equal to the defaults give the same context
    assert make_field(2, 4, 4, ext_modulus=ctx.ext_modulus) is ctx
    assert make_field(2, 4, 4, base_modulus=ctx.base_modulus, ext_modulus=ctx.ext_modulus) is ctx
    assert make_field(2, 4, 4, base_modulus=ctx.base_modulus) is ctx
    assert calls
    with pytest.raises(ReducibleModulus):
        make_field(2, 4, 4, ext_modulus=(1, 0, 0, 0, 1))  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ReducibleModulus):
        make_field(2, 4, 4, base_modulus=(1, 0, 0, 0, 1))
    # and the other way round: a default call after an equal override
    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    first = make_field(2, 4, 4, base_modulus=ctx.base_modulus, ext_modulus=ctx.ext_modulus)
    assert first is not ctx
    assert field_for(16, 4) is first


def test_override_tested_once(monkeypatch):
    # a cached override is checked for shape only; an uncached one is tested
    calls = []
    real = _polyops.is_irreducible
    monkeypatch.setattr(_polyops, "is_irreducible", lambda fq, f: calls.append(f) or real(fq, f))
    ext = make_field(2, 8, 2).ext_modulus
    ctx = make_field(2, 8, 2, ext_modulus=ext)
    calls.clear()
    assert make_field(2, 8, 2, ext_modulus=ext) is ctx
    assert make_field(2, 8, 2, base_modulus=ctx.base_modulus, ext_modulus=list(ext)) is ctx
    assert calls == []
    for _ in range(2):
        with pytest.raises(ReducibleModulus):
            make_field(2, 8, 2, ext_modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2
    assert len(calls) == 2
    with pytest.raises(ReducibleModulus):
        make_field(2, 8, 2, ext_modulus=(1, 0, 2))  # not monic
    with pytest.raises(ReducibleModulus):
        make_field(2, 8, 2, ext_modulus=(256, 0, 1))  # 256 is not in F_256
    assert len(calls) == 2


def test_make_field_concurrent_first_calls(monkeypatch):
    # racing first calls for one (p, t, n), with and without moduli equal to
    # the defaults, must all get one context
    want = make_field(2, 6, 2)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            monkeypatch.setattr(ffield, "_CTX_CACHE", {})
            start = threading.Barrier(8)
            got = []

            def work(override):
                start.wait(timeout=10)
                got.append(make_field(2, 6, 2, ext_modulus=want.ext_modulus if override else None))

            threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            assert len(got) == 8
            assert all(ctx is got[0] for ctx in got)
            assert got[0] == want
    finally:
        sys.setswitchinterval(old)


def test_cardinalities():
    assert make_field(2, 2, 5).order == 4**5 == 1024
    assert make_field(3, 1, 4).order == 81


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(6, 1, 2)


def test_reducible_override_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 1, 3, ext_modulus=(1, 0, 0, 1))  # x^3 + 1 = (x+1)(x^2+x+1)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, 2, base_modulus=(0, 0, 1))  # x^2 reducible


def test_field_axioms_exhaustive_f8(f8):
    one = f8.one()
    els = [f8.from_code(c) for c in range(8)]
    for a in els[1:]:
        assert a * a.inv() == one
        assert elem_arith(a, None, "inv") * a == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert (a + b) - b == a
            assert a * b == b * a
    a, b, c = els[3], els[5], els[6]
    assert (a + b) * c == a * c + b * c


def test_pow_and_lagrange():
    ctx = make_field(3, 1, 3)
    for code in range(1, ctx.order):
        g = ctx.from_code(code)
        assert g ** ctx.N == ctx.one()
        assert g**-1 == g.inv()


@pytest.mark.parametrize("q", [2, 7, 421, 4, 9, 16])
def test_pow_degree_one_against_polynomial_path(q):
    # _pow on F_q^1 takes the subfield's scalar power; the reference squares
    # and multiplies through _mul and _inv, which is the characteristic-2
    # kernel for q = 2, 4, 16 and the polynomial multiply-and-reduce otherwise
    ctx = field_for(q, 1)

    def general(a, e):
        if e < 0:
            a, e = ctx._inv(a), -e
        out = (1,)
        while e:
            if e & 1:
                out = ctx._mul(out, a)
            a = ctx._mul(a, a)
            e >>= 1
        return out

    exponents = [0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 1, 12345, -1, -2, -(q - 2), -12345]
    for c in range(q):
        for e in exponents:
            if c == 0 and e < 0:
                with pytest.raises(DivisionByZero):
                    ctx._pow((c,), e)
                with pytest.raises(DivisionByZero):
                    general((c,), e)
            else:
                assert ctx._pow((c,), e) == general((c,), e)


def test_division_by_zero(f8):
    with pytest.raises(DivisionByZero):
        f8.one() / f8.zero()
    with pytest.raises(DivisionByZero):
        f8.zero().inv()


def test_ctx_mismatch(f8):
    other = make_field(2, 1, 4)
    with pytest.raises(CtxMismatch):
        f8.one() + other.one()


def test_frobenius_fixes_subfield():
    ctx = make_field(2, 2, 3)  # F_4 inside F_64
    for c in range(4):
        el = ctx.scalar(c)
        assert frobenius(el, 1) == el


def test_frobenius_galois_exhaustive_f8(f8):
    for code in range(8):
        a = f8.from_code(code)
        assert frobenius(a, f8.n) == a
        assert frobenius(frobenius(a, 1), 1) == frobenius(a, 2)


def test_frobenius_is_automorphism():
    ctx = make_field(3, 1, 3)
    els = [ctx.from_code(c) for c in range(ctx.order)]
    for a in els[::5]:
        for b in els[::7]:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frob_basis_concurrent_first_calls():
    # racing first calls on a fresh context must build each power once
    base = make_field(3, 1, 7)
    a = base.from_code(1234).coeffs
    want3, want4 = base._pow(a, 3**3), base._pow(a, 3**4)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            ctx = FieldCtx(base.fq, base.n, base.ext_modulus)
            start = threading.Barrier(8)
            got = []

            def work():
                start.wait(timeout=10)
                got.append(ctx._frob(a, 3))

            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            assert got == [want3] * 8
            assert ctx._frob(a, 4) == want4
    finally:
        sys.setswitchinterval(old)


def test_trace_table_concurrent_first_calls():
    # racing first calls on a fresh context must build the trace table once
    base = make_field(3, 1, 7)
    want = base._trace_table()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            ctx = FieldCtx(base.fq, base.n, base.ext_modulus)
            start = threading.Barrier(8)
            got = []

            def work():
                start.wait(timeout=10)
                got.append(ctx._trace_table())

            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            assert got == [want] * 8
            assert all(table is got[0] for table in got)
    finally:
        sys.setswitchinterval(old)


def test_trace_abs_f8(f8):
    assert trace_abs(f8.zero()) == 0
    fibers = {0: 0, 1: 0}
    for code in range(8):
        fibers[trace_abs(f8.from_code(code))] += 1
    assert fibers == {0: 4, 1: 4}
    # F_p-linearity
    for a_code in range(8):
        for b_code in range(8):
            a, b = f8.from_code(a_code), f8.from_code(b_code)
            assert trace_abs(a + b) == (trace_abs(a) + trace_abs(b)) % 2


def test_trace_abs_tower():
    ctx = make_field(2, 2, 2)  # F_16 over F_4 over F_2
    fibers = {0: 0, 1: 0}
    for code in range(16):
        fibers[trace_abs(ctx.from_code(code))] += 1
    assert fibers == {0: 8, 1: 8}


def test_mult_order_basics(f8):
    assert mult_order(f8.one()) == 1
    with pytest.raises(ZeroElement):
        mult_order(f8.zero())
    count7 = sum(1 for c in range(1, 8) if mult_order(f8.from_code(c)) == 7)
    assert count7 == euler_phi(7) == 6


def test_order_census_small_fields():
    for q, n in [(2, 3), (3, 2), (4, 2), (2, 5), (5, 2)]:
        ctx = field_for(q, n)
        counts: dict[int, int] = {}
        for code in range(1, ctx.order):
            o = mult_order(ctx.from_code(code))
            counts[o] = counts.get(o, 0) + 1
        for m, cnt in counts.items():
            assert ctx.N % m == 0
            assert cnt == euler_phi(m)


def test_cyclic_square_identity():
    from math import gcd

    ctx = make_field(3, 1, 2)
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        o = mult_order(a)
        assert mult_order(a * a) == o // gcd(2, o)


def test_find_primitive_and_dlog_exhaustive_f64():
    ctx = make_field(2, 1, 6)
    g = find_primitive(ctx)
    assert mult_order(g) == 63
    assert dlog(ctx.one(), g) == 0
    assert dlog(g, g) == 1
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        assert g ** dlog(a, g) == a


def test_dlog_ceiling():
    ctx = make_field(2, 1, 5)
    g = find_primitive(ctx)
    with pytest.raises(DlogTooLarge):
        dlog(g, g, ceiling=16)


def test_literal_roundtrip():
    ctx = make_field(2, 2, 3)
    for code in (0, 1, 17, 63):
        el = ctx.from_code(code)
        assert parse_element(ctx, format_element(el)) == el


def test_parse_field_spec():
    ctx = parse_field_spec("2^1:3")
    assert (ctx.p, ctx.t, ctx.n) == (2, 1, 3)
    ctx4 = parse_field_spec("4:5")
    assert (ctx4.p, ctx4.t, ctx4.n) == (2, 2, 5)
    # explicit extension modulus override: x^3 + x^2 + 1 over F_2
    ctx_m = parse_field_spec("2^1:3:mod=1,0,1,1")
    assert ctx_m.ext_modulus == (1, 0, 1, 1)
    # over F_4 the literals are read in the default base field
    ctx4 = make_field(2, 2, 3)
    spec = "2^2:3:mod=" + ",".join("-".join(map(str, ctx4.fq.code_to_vec(c))) for c in ctx4.ext_modulus)
    assert parse_field_spec(spec) is ctx4


def test_enumeration_order_is_odometer(f8):
    seq = [el.coeffs for el in f8.elements()]
    assert seq[0] == (0, 0, 0)
    assert seq[1] == (1, 0, 0)
    assert seq[2] == (0, 1, 0)
    assert len(seq) == 8


def test_default_moduli_of_benchmark_and_reproduce_fields():
    for (p, t, n), moduli in BENCHMARK_MODULI.items():
        ctx = make_field(p, t, n)
        assert (ctx.base_modulus, ctx.ext_modulus) == moduli, (p, t, n)


TOWERS = [(2, 2, 3), (2, 3, 2), (3, 2, 3), (2, 4, 2), (5, 2, 2), (2, 6, 2), (7, 2, 2),
          (2, 1, 20), (2, 4, 4), (2, 2, 10)]


@pytest.mark.parametrize("p,t,n", TOWERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_towers(p, t, n, data):
    ctx = make_field(p, t, n)
    a, b, c = (ctx.from_code(data.draw(st.integers(0, ctx.order - 1))) for _ in range(3))
    e = data.draw(st.integers(0, 40))
    one = ctx.one()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a and a + ctx.zero() == a and a * one == a
    assert a - b + b == a and a + -a == ctx.zero()
    assert a ** (ctx.q**n) == a
    assert ctx._frob(a.coeffs) == ctx._pow(a.coeffs, ctx.q)
    assert [ctx._frob(a.coeffs, i) for i in range(2 * n + 1)] == [
        ctx._pow(a.coeffs, ctx.q**i) for i in range(2 * n + 1)]
    power = one
    for _ in range(e):
        power = power * a
    assert a**e == power
    if not a.is_zero():
        assert a * a.inv() == one and a ** -e == power.inv()


def plain_least_irreducible(fq, degree):
    """The unsieved search: every monic code of the degree in order, Ben-Or on each."""
    for v in range(fq.q**degree):
        cand = []
        for _ in range(degree):
            v, c = divmod(v, fq.q)
            cand.append(c)
        if _polyops.is_irreducible(fq, cand + [fq.one]):
            return tuple(cand + [fq.one])
    raise AssertionError("no irreducible found")


SIEVE_GRID = [(q, d) for q in range(2, 33) if len(factor_int(q).factors) == 1
              for d in range(1, 25) if q**d <= 1 << 24]


@pytest.mark.parametrize("q,d", SIEVE_GRID)
def test_least_irreducible_against_plain_search(q, d):
    # the root sieve drops candidates before Ben-Or; it must not move the
    # least irreducible, odd t > 1 (q = 9, 25, 27) included
    fq = field_for(q, 1).fq
    assert ffield._least_irreducible(fq, d) == plain_least_irreducible(fq, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_least_irreducible_above_table_ceiling(d):
    # q = 4099 > FQ_TABLE_CEILING takes the unsieved candidate loop
    fq = make_field(4099, 1, 1).fq
    assert fq.q > ffield.FQ_TABLE_CEILING
    assert ffield._least_irreducible(fq, d) == plain_least_irreducible(fq, d)


# -- the characteristic-2 kernel ------------------------------------------------

def _sympy_poly(coeffs):
    """Constant-first F_2 coefficients as a galoistools list, leading first."""
    return _polyops.trim([int(c) for c in coeffs])[::-1]


def _from_sympy(poly, n):
    out = [int(c) for c in reversed(poly)]
    return tuple(out + [0] * (n - len(out)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 13, 16, 17, 20, 24])
def test_f2_kernel_against_sympy(n):
    # t = 1: products, powers and inverses against galoistools over F_2
    ctx = make_field(2, 1, n)
    mod = _sympy_poly(ctx.ext_modulus)
    rng = random.Random(n)
    els = [ctx.from_code(rng.randrange(1, ctx.order)).coeffs for _ in range(25)]
    for a, b in zip(els, els[1:] + els[:1]):
        want = gf_rem(gf_mul(_sympy_poly(a), _sympy_poly(b), 2, ZZ), mod, 2, ZZ)
        assert ctx._mul(a, b) == _from_sympy(want, n)
        for e in (0, 1, 2, 3, rng.randrange(ctx.order), ctx.N, 2 * ctx.N + 7):
            assert ctx._pow(a, e) == _from_sympy(gf_pow_mod(_sympy_poly(a), e, mod, 2, ZZ), n)
        s, _, h = gf_gcdex(_sympy_poly(a), mod, 2, ZZ)
        assert h == [1]
        assert ctx._inv(a) == _from_sympy(gf_rem(s, mod, 2, ZZ), n)


def _reference_mul(ctx, a, b):
    fq = ctx.fq
    rem = _polyops.mod(fq, _polyops.mul(fq, _polyops.trim(list(a)), _polyops.trim(list(b))), ctx.ext_modulus)
    return tuple(rem + [0] * (ctx.n - len(rem)))


def _reference_inv(ctx, a):
    inv = _polyops.inv_mod(ctx.fq, _polyops.trim(list(a)), ctx.ext_modulus)
    return tuple(inv + [0] * (ctx.n - len(inv)))


@pytest.mark.parametrize("q,n", [(4, 3), (4, 6), (4, 10), (8, 2), (8, 6), (16, 4), (16, 12), (32, 3),
                                 (16, 1), (64, 1)])
def test_f2_kernel_against_polynomial_path(q, n):
    # t > 1 (and n = 1): the kernel against _polyops multiply-and-reduce
    ctx = field_for(q, n)
    rng = random.Random(q * 100 + n)
    els = [ctx.from_code(rng.randrange(1, ctx.order)).coeffs for _ in range(25)]
    for a, b in zip(els, els[1:] + els[:1]):
        assert ctx._mul(a, b) == _reference_mul(ctx, a, b)
        assert ctx._inv(a) == _reference_inv(ctx, a)
        e = rng.randrange(ctx.order)
        pa = _polyops.pow_mod(ctx.fq, _polyops.trim(list(a)), e, ctx.ext_modulus)
        assert ctx._pow(a, e) == tuple(pa + [0] * (n - len(pa)))


@pytest.mark.parametrize("q,n", [(4, 3), (8, 2)])
def test_f2_kernel_exhaustive(q, n):
    ctx = field_for(q, n)
    kernel = ctx.memo(ffield._F2Kernel)
    els = [ctx.from_code(c).coeffs for c in range(ctx.order)]
    assert sorted(kernel.to_z(a) for a in els) == list(range(ctx.order))
    for a in els:
        assert kernel.from_z(kernel.to_z(a)) == a
        for b in els:
            assert ctx._mul(a, b) == _reference_mul(ctx, a, b)
        if any(a):
            assert ctx._inv(a) == _reference_inv(ctx, a)


def _f2_rank(codes):
    pivots = {}
    for row in codes:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


@pytest.mark.parametrize("q,n", [(4, 3), (8, 2), (16, 4), (2, 7), (4, 1)])
def test_f2_kernel_theta_is_least_generator(q, n):
    # theta is the least code >= 2 with D independent powers, and F(theta) = 0
    ctx = field_for(q, n)
    D, t = ctx.t * n, ctx.t
    one = ctx.one().coeffs

    def powers(code):
        cur, out = one, []
        for _ in range(D + 1):
            out.append(cur)
            cur = _reference_mul(ctx, cur, ctx.from_code(code).coeffs)
        return out

    def code_of(a):
        return sum(c << (t * i) for i, c in enumerate(a))

    theta = next(c for c in range(2, ctx.order) if _f2_rank([code_of(x) for x in powers(c)[:D]]) == D)
    kernel = ctx.memo(ffield._F2Kernel)
    assert kernel.from_z(2) == ctx.from_code(theta).coeffs
    acc = 0
    for k, x in enumerate(powers(theta)):
        if kernel.F >> k & 1:
            acc ^= code_of(x)
    assert acc == 0 and kernel.F.bit_length() == D + 1
    if t == 1:  # theta = x and F the extension modulus
        assert theta == 2 and kernel.F == sum(c << i for i, c in enumerate(ctx.ext_modulus))


@pytest.mark.parametrize("q,n", [(2, 20), (4, 5), (16, 4), (8, 1)])
def test_f2_kernel_edge_cases(q, n):
    ctx = field_for(q, n)
    zero, one = ctx.zero().coeffs, ctx.one().coeffs
    a = ctx.from_code(ctx.order // 3).coeffs
    with pytest.raises(DivisionByZero):
        ctx._inv(zero)
    with pytest.raises(DivisionByZero):
        ctx._pow(zero, -1)
    assert ctx._pow(a, 0) == ctx._pow(zero, 0) == one
    assert ctx._pow(zero, 5) == zero
    assert ctx._pow(a, -1) == ctx._inv(a)
    assert ctx._pow(a, -3) == ctx._inv(ctx._mul(a, ctx._mul(a, a)))
    assert ctx._pow(a, ctx.N) == one
    assert ctx._pow(a, ctx.N + 2) == ctx._mul(a, a)
    assert ctx._pow(a, 5 * ctx.N - 1) == ctx._inv(a)


def test_f2_kernel_not_built_by_setup(monkeypatch):
    from knpair.modstruct import xn1_factorization

    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    ctx = field_for(4, 6)
    ctx.fact_qn_minus_1
    xn1_factorization(ctx)
    assert make_field(2, 2, 6) is ctx
    assert ffield._F2Kernel not in ctx._memo
    ctx._mul(ctx.one().coeffs, ctx.one().coeffs)
    assert ffield._F2Kernel in ctx._memo


@pytest.mark.parametrize("q,n,count", [(3, 4, 3), (9, 2, 3), (13, 2, 2), (4093, 1, 1)])
def test_lanes_span_against_product(q, n, count):
    # span lists sum_k c_k v_k at index sum_k c_k p^k; the reference sums
    # coefficient tuples over itertools.product, whose last factor runs
    # fastest, so each c is read reversed
    from itertools import product

    ctx = field_for(q, n)
    lanes = ffield._Lanes(ctx)
    rng = random.Random(q * 100 + n)
    vectors = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(count)]
    want = []
    for cs in product(range(ctx.p), repeat=count):
        acc = (0,) * n
        for c, v in zip(reversed(cs), vectors):
            acc = ctx._add(acc, ctx._scale(v, c))
        want.append(lanes.pack(acc))
    assert lanes.span([lanes.pack(v) for v in vectors]) == want
