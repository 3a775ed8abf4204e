import sys
import threading

import pytest

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
from knpair.intarith import euler_phi


def test_canonical_moduli_f8(f8):
    assert f8.ext_modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert f8.order == 8


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
            ctx = FieldCtx(base.p, base.t, base.n, base.base_modulus, base.ext_modulus)
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
            assert len(ctx._frob_images) == 3
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
            ctx = FieldCtx(base.p, base.t, base.n, base.base_modulus, base.ext_modulus)
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


def test_enumeration_order_is_odometer(f8):
    seq = [el.coeffs for el in f8.elements()]
    assert seq[0] == (0, 0, 0)
    assert seq[1] == (1, 0, 0)
    assert seq[2] == (0, 1, 0)
    assert len(seq) == 8
