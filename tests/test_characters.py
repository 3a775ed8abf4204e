import sys
import threading
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from knpair.characters import (
    add_char,
    add_char_fq_order,
    build_char_weights,
    char_eval,
    char_tables,
    eval_charfun,
    gamma_rd,
    mult_char,
    psi_set,
    q_gH,
    rho_e,
    upsilon_g,
)
from knpair.errors import CtxMismatch, FieldTooLarge, NotADivisor, ZeroElement
from knpair.ffield import field_for, find_primitive, make_field
from knpair.fqpoly import PolyQ, divisors_of, phi_q
from knpair.intarith import divisors as idivs
from knpair.modstruct import (
    decompose_g,
    decompose_r,
    in_Qrd,
    in_TgkH,
    is_e_free,
    is_h_free,
    mod_action,
    xn1,
)


def test_trivial_characters(f8):
    chi = mult_char(f8, 1)
    psi0 = add_char(f8.zero())
    for code in range(1, 8):
        a = f8.from_code(code)
        assert abs(char_eval(chi, a) - 1) < 1e-12
        assert abs(char_eval(psi0, a) - 1) < 1e-12


def test_mult_char_zero_rejected(f8):
    with pytest.raises(ZeroElement):
        char_eval(mult_char(f8, 7), f8.zero())


def test_char_sums_vanish_f16():
    ctx = make_field(2, 1, 4)
    for d in idivs(ctx.N):
        if d == 1:
            continue
        chi = mult_char(ctx, d)
        total = sum(char_eval(chi, ctx.from_code(c)) for c in range(1, ctx.order))
        assert abs(total) < 1e-9
    for y_code in range(1, ctx.order):
        psi = add_char(ctx.from_code(y_code))
        total = sum(char_eval(psi, ctx.from_code(c)) for c in range(ctx.order))
        assert abs(total) < 1e-9


def test_orthogonality_sum_over_characters():
    # sum over all characters at a fixed nontrivial element vanishes
    ctx = make_field(3, 1, 2)
    for code in range(2, ctx.order):
        a = ctx.from_code(code)
        if a == ctx.one():
            continue
        total = sum(char_eval(mult_char(ctx, ctx.N, j), a) for j in range(ctx.N))
        assert abs(total) < 1e-9
        total_add = sum(char_eval(add_char(ctx.from_code(y)), a) for y in range(ctx.order))
        assert abs(total_add) < 1e-9


def test_additive_homomorphism_sampled():
    ctx = make_field(5, 1, 2)
    psi = add_char(ctx.from_code(7))
    for ac in range(0, ctx.order, 3):
        for bc in range(0, ctx.order, 5):
            a, b = ctx.from_code(ac), ctx.from_code(bc)
            assert abs(char_eval(psi, a + b) - char_eval(psi, a) * char_eval(psi, b)) < 1e-9


def test_add_char_fq_order_counts(f8):
    assert add_char_fq_order(f8.zero()).is_one()
    counts: dict[tuple, int] = {}
    for y in range(8):
        h = add_char_fq_order(f8.from_code(y))
        counts[h.coeffs] = counts.get(h.coeffs, 0) + 1
    # exactly Phi_q(h) shifts per order h, summing to q^n
    for h in divisors_of(xn1(f8)):
        expect = phi_q(h) if h.degree > 0 else 1
        assert counts[h.monic().coeffs] == expect
    assert sum(counts.values()) == 8


def _add_orders_by_definition(ctx) -> list:
    """Ord(psi_y) for every shift code y: the first divisor h of x^n - 1, in
    (degree, coeffs) order, with psi_y(h o b) = 1 for every b."""
    divs = sorted(divisors_of(xn1(ctx)), key=lambda h: h.sort_key())
    images = [[mod_action(h, ctx.from_code(b)) for b in range(ctx.order)] for h in divs]
    orders = []
    for y in range(ctx.order):
        psi = add_char(ctx.from_code(y))
        orders.append(next(h for h, imgs in zip(divs, images)
                           if all(abs(char_eval(psi, img) - 1) < 1e-9 for img in imgs)))
    return orders


# t > 1 (F_4^3, F_9^2) and p | n (F_3^3, F_2^6) as well as F_8
@pytest.mark.parametrize("q,n", [(2, 3), (4, 3), (9, 2), (3, 3), (2, 6)])
def test_add_char_order_definition_exhaustive(q, n):
    # the reported order really is the least monic divisor making psi o h trivial
    ctx = field_for(q, n)
    want = _add_orders_by_definition(ctx)
    assert [add_char_fq_order(ctx.from_code(y)) for y in range(ctx.order)] == want


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (9, 2), (3, 3), (5, 2), (7, 1)])
def test_slot_sums_closed_forms(q, n):
    """The closed-form slot sums against literal sums of char_eval, on every
    (m | q^n - 1, L) and every (h, a); the characters are grouped by order
    from the definitions, not from the character tables."""
    ctx = field_for(q, n)
    tab = char_tables(ctx)
    g = find_primitive(ctx)
    power = ctx.one()
    for L in range(ctx.N):  # power = g^L
        for m in idivs(ctx.N):
            literal = sum(char_eval(mult_char(ctx, m, j), power) for j in range(m) if int_gcd(j, m) == 1)
            got = tab.mult_char_sum(m, L)
            assert type(got) is int and abs(literal - got) < 1e-9, (m, L)
        power = power * g
    orders = _add_orders_by_definition(ctx)
    for h in sorted(set(orders), key=lambda h: h.sort_key()):
        ys = [ctx.from_code(y) for y in range(ctx.order) if orders[y] == h]
        for code in range(ctx.order):
            a = ctx.from_code(code)
            literal = sum(char_eval(add_char(y), a) for y in ys)
            got = tab.add_char_sum(tab.div_index[h], code)
            assert type(got) is int and abs(literal - got) < 1e-9, (h, code)


def test_field_too_large_for_charfun():
    ctx = make_field(2, 1, 10)
    with pytest.raises(FieldTooLarge):
        rho_e(ctx.one(), 1)


def test_char_weights_bounds():
    ctx = make_field(2, 1, 4)
    rd = decompose_r(3, ctx)
    gd = decompose_g(PolyQ(ctx.fq, (1, 1)), ctx)
    w = build_char_weights(rd, gd)
    for (f_i, _), _ in w.ell_poly:
        base = w.poly_weight(f_i, PolyQ.one(ctx.fq))
        assert all(abs(val) <= base for (f, _), val in w.ell_poly if f == f_i)


def test_charfun_dispatcher(f8):
    a = f8.from_code(3)
    assert eval_charfun("rho_e", a, e=7) == rho_e(a, 7)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 2), (4, 2)])
def test_charfun_equivalence_small(q, n):
    """rho_e / upsilon_g / psi_set / gamma_rd / q_gH against direct indicators,
    exactly: every value is an int or a Fraction equal to 0 or 1."""
    ctx = field_for(q, n)
    poly = xn1(ctx)
    els = [ctx.from_code(c) for c in range(ctx.order)]
    nz = els[1:]

    def check(v, ind):
        assert isinstance(v, (int, Fraction)) and v == ind

    for e in idivs(ctx.N):
        for a in nz:
            check(rho_e(a, e), 1 if is_e_free(a, e) else 0)
    for g in divisors_of(poly):
        cog = poly // g
        for a in els:
            check(upsilon_g(a, g), 1 if is_h_free(a, g) else 0)
            check(psi_set(a, g), 1 if mod_action(cog, a).is_zero() else 0)
    for r in idivs(ctx.N):
        rd = decompose_r(r, ctx)
        for d in idivs(rd.R):
            for a in nz:
                check(gamma_rd(a, rd, d), 1 if in_Qrd(a, rd, d) else 0)
    for g in divisors_of(poly):
        gd = decompose_g(g, ctx)
        for H in divisors_of(gd.G):
            for a in nz:
                check(q_gH(a, gd, H), 1 if in_TgkH(a, gd, H) else 0)


def test_charfun_divisor_errors_and_monic_form():
    ctx = field_for(3, 2)  # x^2 - 1 = (x + 1)(x + 2) over F_3
    fq = ctx.fq
    els = [ctx.from_code(c) for c in range(ctx.order)]
    a = els[5]
    x_plus_1, x_plus_2 = PolyQ(fq, (1, 1)), PolyQ(fq, (2, 1))
    gd = decompose_g(x_plus_1, ctx)
    assert gd.G == x_plus_2
    for bad in (PolyQ.zero(fq), PolyQ(fq, (1, 0, 1))):  # zero and x^2 + 1
        with pytest.raises(NotADivisor):
            upsilon_g(a, bad)
        with pytest.raises(NotADivisor):
            psi_set(a, bad)
        with pytest.raises(NotADivisor):
            q_gH(a, gd, bad)
    with pytest.raises(NotADivisor):
        q_gH(a, gd, x_plus_1)  # divides x^n - 1 but not G
    other = PolyQ(make_field(2, 1, 3).fq, (1, 1))  # x + 1 over F_2
    with pytest.raises(CtxMismatch):
        upsilon_g(a, other)
    with pytest.raises(CtxMismatch):
        psi_set(a, other)
    with pytest.raises(CtxMismatch):
        q_gH(a, gd, other)
    # 2x + 2 and 2x + 1 are 2 (x + 1) and 2 (x + 2)
    for el in els:
        assert upsilon_g(el, PolyQ(fq, (2, 2))) == upsilon_g(el, x_plus_1)
        assert psi_set(el, PolyQ(fq, (2, 2))) == psi_set(el, x_plus_1)
        if not el.is_zero():
            assert q_gH(el, gd, PolyQ(fq, (1, 2))) == q_gH(el, gd, x_plus_2)


def test_gamma_rd_other_field_rejected():
    # a decomposition of r in another q^n - 1 would index divisors it lacks
    rd = decompose_r(7, make_field(2, 1, 3))
    with pytest.raises(CtxMismatch):
        gamma_rd(make_field(2, 1, 4).from_code(3), rd, 1)


def test_char_tables_concurrent_first_calls():
    # racing first calls on fresh tables must all get the one order table
    import knpair.characters as characters

    ctx = make_field(2, 1, 6)
    want_table = char_tables(ctx).add_order_table()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            tab = characters._CharTables(ctx)
            start = threading.Barrier(8)
            got = []

            def work():
                start.wait(timeout=10)
                got.append(tab.add_order_table())

            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            assert got == [want_table] * 8
            assert all(table is got[0] for table in got)
    finally:
        sys.setswitchinterval(old)
