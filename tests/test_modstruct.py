import random
import sys
from collections import Counter

import pytest
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import gf_pow_mod
from sympy.polys.matrices import DomainMatrix

from knpair import search
from knpair.characters import char_tables, psi_set, q_gH, upsilon_g
from knpair.errors import CtxMismatch, NotADivisor, TooManyDivisors, ZeroElement
from knpair.ffield import FieldCtx, field_for, frobenius, make_field, mult_order
from knpair.fqpoly import PolyQ, degree_k_divisors, divisors_of, factor_poly, phi_q
from knpair.intarith import divisors as idivs
from knpair.intarith import euler_phi, factor_int
from knpair.modstruct import (
    GDecomposition,
    action_columns,
    decompose_g,
    decompose_r,
    divisor_lattice,
    exponents,
    fq_order,
    in_Qrd,
    in_Sgk,
    in_TgkH,
    is_e_free,
    is_h_free,
    k_normality,
    kernel_basis,
    m_gcd_degree,
    m_poly,
    mod_action,
    xn1,
    xn1_factorization,
)


def test_mod_action_x_minus_1(f8):
    x_1 = PolyQ(f8.fq, (1, 1))
    for code in range(8):
        b = f8.from_code(code)
        assert mod_action(x_1, b) == frobenius(b) - b


def _sympy_action_matrix(ctx, h):
    """Rows of the matrix of h(sigma) for t = 1: column j is sum_i h_i x^(j p^i)
    reduced mod the extension modulus, each power taken by gf_pow_mod."""
    p, n = ctx.p, ctx.n
    modulus = list(reversed(ctx.ext_modulus))  # galoistools lists the top coefficient first
    cols = []
    for j in range(n):
        col = [0] * n
        for i, c in enumerate(h.coeffs):
            power = gf_pow_mod([1, 0], j * p**i, modulus, p, ZZ)
            for d, a in enumerate(reversed(power)):
                col[d] = (col[d] + c * a) % p
        cols.append(col)
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 6), (5, 4), (5, 5), (7, 3), (13, 2),
                                 (7, 1)])
def test_kernel_basis_against_sympy(p, n):
    # prime fields, p | n included; sympy's matrices and powers share no code
    # with the Frobenius images and the echelon reduction of modstruct
    ctx = field_for(p, n)
    K = GF(p)
    for h in divisors_of(xn1(ctx)):
        rows = _sympy_action_matrix(ctx, h)
        assert [list(col) for col in zip(*action_columns(ctx, h.coeffs))] == rows
        basis = kernel_basis(ctx, h.coeffs)
        want = DomainMatrix([[K(x) for x in row] for row in rows], (n, n), K).nullspace()
        assert len(basis) == want.shape[0] == h.degree
        if basis:
            both = [[K(x) for x in v] for v in basis] + want.to_list()
            assert DomainMatrix(both, (2 * h.degree, n), K).rank() == h.degree
        tops = [max(i for i, c in enumerate(v) if c) for v in basis]
        assert all(v[top] == 1 for v, top in zip(basis, tops))
        assert all(a < b for a, b in zip(tops, tops[1:]))


def test_mod_action_annihilator_exhaustive_f8(f8):
    poly = xn1(f8)
    for code in range(8):
        assert mod_action(poly, f8.from_code(code)).is_zero()


def test_mod_action_module_axiom():
    ctx = make_field(3, 1, 3)
    rng = random.Random(7)
    poly_pool = [PolyQ(ctx.fq, [rng.randrange(3) for _ in range(4)]) for _ in range(6)]
    for _ in range(20):
        f = rng.choice(poly_pool)
        g = rng.choice(poly_pool)
        b = ctx.from_code(rng.randrange(ctx.order))
        assert mod_action(f * g, b) == mod_action(f, mod_action(g, b))


def test_m_poly_shapes(f8):
    assert all(c.is_zero() for c in m_poly(f8.zero()))
    ones = m_poly(f8.one())
    assert all(c == f8.one() for c in ones)


def test_m_gcd_matches_fq_order_degree():
    for q, n in [(2, 3), (3, 3)]:
        ctx = field_for(q, n)
        for code in range(ctx.order):
            a = ctx.from_code(code)
            assert m_gcd_degree(a) == ctx.n - fq_order(a).degree


def test_fq_order_examples(f8):
    assert fq_order(f8.one()) == PolyQ(f8.fq, (1, 1))
    assert fq_order(f8.zero()) == PolyQ.one(f8.fq)
    fibers: dict[str, int] = {}
    for code in range(8):
        key = fq_order(f8.from_code(code)).coeffs
        fibers[key] = fibers.get(key, 0) + 1
    assert fibers == {(1,): 1, (1, 1): 1, (1, 1, 1): 3, (1, 0, 0, 1): 3}


def test_normal_iff_full_order(f8):
    poly = xn1(f8)
    for code in range(1, 8):
        a = f8.from_code(code)
        assert (fq_order(a) == poly.monic()) == (k_normality(a) == 0)


def test_k_normality_census_f8(f8):
    counts = {0: 0, 1: 0, 2: 0}
    for code in range(1, 8):
        counts[k_normality(f8.from_code(code))] += 1
    assert counts == {0: 3, 1: 3, 2: 1}
    assert k_normality(f8.one()) == f8.n - 1
    with pytest.raises(ZeroElement):
        k_normality(f8.zero())


def test_knormal_composition_lemma():
    # g o beta is k-normal for normal beta and monic degree-k divisor g
    for q, n in [(2, 4), (3, 4), (4, 3)]:
        ctx = field_for(q, n)
        normal = next(
            ctx.from_code(c) for c in range(1, ctx.order) if k_normality(ctx.from_code(c)) == 0
        )
        for k in range(n):
            for g in degree_k_divisors(xn1(ctx), k):
                assert k_normality(mod_action(g, normal)) == k


def test_e_free_definitions_agree_exhaustive_f16():
    # order-based criterion vs the direct power-test definition
    ctx = make_field(2, 1, 4)
    N = ctx.N
    powers = {d: set() for d in (3, 5, 15)}
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        for d in powers:
            powers[d].add((a**d).coeffs)
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        for e in (1, 3, 5, 15):
            direct = not any(e % d == 0 and a.coeffs in powers[d] for d in powers if d > 1 and e % d == 0)
            assert is_e_free(a, e) == direct


def test_e_free_primitive(f8):
    for code in range(1, 8):
        a = f8.from_code(code)
        assert is_e_free(a, 7) == (mult_order(a) == 7)


def test_h_free_trivial(f8):
    one_poly = PolyQ.one(f8.fq)
    for code in range(8):
        assert is_h_free(f8.from_code(code), one_poly)
    with pytest.raises(NotADivisor):
        is_h_free(f8.one(), PolyQ(f8.fq, (1, 0, 1)))  # x^2+1 does not divide x^3-1


def test_decompose_r_trivial():
    ctx = make_field(3, 1, 4)
    rd = decompose_r(1, ctx)
    assert rd.u == 1 and rd.parts == () and rd.R == ctx.fact_qn_minus_1.radical()


def test_decompose_r_3_4_r2():
    ctx = make_field(3, 1, 4)  # q^n - 1 = 80 = 2^4 * 5
    rd = decompose_r(2, ctx)
    assert rd.u == 1
    assert rd.parts == ((2, 1, 2, 4),)
    assert rd.R == 5


def test_decompose_r_unitary_part():
    ctx = make_field(2, 1, 4)  # N = 15 = 3 * 5
    rd = decompose_r(3, ctx)
    assert rd.u == 3 and rd.parts == () and rd.R == 5
    with pytest.raises(NotADivisor):
        decompose_r(7, ctx)


def test_decompose_g_squarefree():
    ctx = make_field(2, 1, 5)
    g = PolyQ(ctx.fq, (1, 1))
    gd = decompose_g(g, ctx)
    assert gd.pi == g and gd.parts == ()
    assert gd.G == (xn1(ctx) // g).monic()


def test_decompose_g_with_lambda():
    ctx = make_field(2, 1, 4)  # x^4 - 1 = (x-1)^4
    g = PolyQ(ctx.fq, (1, 1))
    gd = decompose_g(g, ctx)
    assert gd.pi.is_one()
    assert len(gd.parts) == 1
    f, b, delta, lam = gd.parts[0]
    assert (f, b) == (g, 1) and delta == g and lam == g * g
    assert gd.G.is_one()


def _decompose_g_by_factoring(g, ctx):
    # the form decompose_g replaced: factor g, and compare each exponent
    # with that of the same factor in a fresh factorization of x^n - 1
    poly = xn1(ctx)
    g = g.monic()
    if g.is_zero() or not g.divides(poly):
        raise NotADivisor("g does not divide x^n - 1")
    fact_g, fact_x = factor_poly(g), factor_poly(poly)
    e_of = dict(fact_x.factors)
    pi, parts = PolyQ.one(ctx.fq), []
    for f, b in fact_g.factors:
        if e_of[f] > b:
            parts.append((f, b, f**b, f ** (b + 1)))
        else:
            pi = pi * f**b
    return GDecomposition(g, pi, tuple(parts), fact_x.radical() // fact_g.radical(), poly)


@pytest.mark.parametrize("q, n", [(2, 4), (2, 6), (3, 6), (4, 6), (4, 4), (8, 3), (9, 6), (16, 3),
                                  (5, 4), (7, 3), (2, 9), (5, 1), (4, 1)])
def test_decompose_g_against_factoring(q, n):
    # every divisor and a scalar multiple of it, on t > 1, p | n and n = 1
    ctx = field_for(q, n)
    poly = xn1(ctx)
    for g in divisors_of(poly):
        for cand in (g, g * PolyQ(ctx.fq, (q - 1,))):
            assert decompose_g(cand, ctx) == _decompose_g_by_factoring(cand, ctx)
    other = field_for(3 if q % 2 == 0 else 2, 1).fq
    for bad, exc in [(PolyQ.zero(ctx.fq), NotADivisor), (poly * PolyQ.x(ctx.fq), NotADivisor),
                     (PolyQ.x(ctx.fq), NotADivisor), (PolyQ.one(other), CtxMismatch)]:
        for decompose in (decompose_g, _decompose_g_by_factoring):
            with pytest.raises(exc):
                decompose(bad, ctx)


def test_in_Qrd_r_primitive_characterization():
    # with d = R, membership is exactly ord = (q^n - 1)/r; exhaustive over F_81, r = 2
    ctx = make_field(3, 1, 4)
    rd = decompose_r(2, ctx)
    members = 0
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        got = in_Qrd(a, rd, rd.R)
        assert got == (mult_order(a) == ctx.N // 2)
        members += got
    assert members == euler_phi(ctx.N // 2)


def test_in_Qrd_r1_is_primitivity(f8):
    rd = decompose_r(1, f8)
    for code in range(1, 8):
        a = f8.from_code(code)
        assert in_Qrd(a, rd, rd.R) == (mult_order(a) == 7)


def test_in_TgkH_sgk_characterization_f16():
    ctx = make_field(2, 1, 4)
    poly = xn1(ctx)
    for k in range(ctx.n):
        for g in degree_k_divisors(poly, k):
            gd = decompose_g(g, ctx)
            target = (poly // g).monic()
            for code in range(1, ctx.order):
                a = ctx.from_code(code)
                assert in_Sgk(a, gd) == (fq_order(a) == target)


def test_in_TgkH_normality_case(f8):
    gd = decompose_g(PolyQ.one(f8.fq), f8)
    for code in range(1, 8):
        a = f8.from_code(code)
        assert in_TgkH(a, gd, gd.G) == (k_normality(a) == 0)


def test_sgk_sizes_phi():
    for q, n in [(2, 3), (2, 4), (3, 3), (4, 2)]:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        for k in range(n):
            for g in degree_k_divisors(poly, k):
                gd = decompose_g(g, ctx)
                size = sum(1 for c in range(1, ctx.order) if in_Sgk(ctx.from_code(c), gd))
                co = (poly // g).monic()
                assert size == (phi_q(co) if co.degree > 0 else 1)


def test_partition_lemma_including_repeated_factors():
    # q = 2, n = 4 exercises Lambda parts: x^4 - 1 = (x - 1)^4
    for q, n in [(2, 3), (2, 4), (3, 3), (2, 6), (4, 2)]:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        for k in range(n):
            gds = [decompose_g(g, ctx) for g in degree_k_divisors(poly, k)]
            for code in range(1, ctx.order):
                a = ctx.from_code(code)
                hits = [gd for gd in gds if in_Sgk(a, gd)]
                if k_normality(a) == k:
                    assert len(hits) == 1
                else:
                    assert not hits


def test_frobenius_stability():
    ctx = make_field(3, 1, 3)
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        assert fq_order(frobenius(a)) == fq_order(a)
        assert mult_order(frobenius(a)) == mult_order(a)


def _in_Qrd_by_powers(a, rd, d):
    """Q_r^d membership by powers: e-free through mult_order, then a^(N/r) = 1
    and a^(N/lambda_j) != 1."""
    N, one = a.ctx.N, a.ctx.one()
    return (is_e_free(a, d) and a ** (N // rd.r) == one
            and all(a ** (N // lam) != one for lam in rd.lambdas))


def _in_TgkH_by_action(a, gd, H):
    """T_{g,k}^H membership by the module action: H-free, killed by
    (x^n - 1)/g and by no (x^n - 1)/Lambda_i."""
    return (is_h_free(a, H) and mod_action(gd.xn1 // gd.g, a).is_zero()
            and not any(mod_action(gd.xn1 // lam, a).is_zero() for lam in gd.lambdas))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (9, 2), (2, 6), (4, 3)])
def test_membership_against_power_and_action_forms(q, n):
    # in_Qrd reads one mult_order and in_TgkH one fq_order; the oracles take
    # powers and apply the module action.  t = 2 on F_4 and F_9, p | n on
    # F_2^4, F_3^3, F_4^2 and F_2^6
    ctx = field_for(q, n)
    poly = xn1(ctx)
    nz = [ctx.from_code(c) for c in range(1, ctx.order)]
    seen = set()
    for r in idivs(ctx.N):
        rd = decompose_r(r, ctx)
        for d in idivs(rd.R):
            for a in nz:
                got = in_Qrd(a, rd, d)
                assert got == _in_Qrd_by_powers(a, rd, d), (r, d, a.code())
                seen.add(("Q", got))
    for g in divisors_of(poly):
        gd = decompose_g(g, ctx)
        for H in divisors_of(gd.G):
            for a in nz:
                got = in_TgkH(a, gd, H)
                assert got == _in_TgkH_by_action(a, gd, H), (g, H, a.code())
                seen.add(("T", got))
    assert seen == {("Q", False), ("Q", True), ("T", False), ("T", True)}


def test_Qrd_inverse_symmetry():
    ctx = make_field(3, 1, 4)
    for r in (1, 2):
        rd = decompose_r(r, ctx)
        for code in range(1, ctx.order):
            a = ctx.from_code(code)
            assert in_Qrd(a, rd, rd.R) == in_Qrd(a.inv(), rd, rd.R)


def test_in_Qrd_bad_d():
    ctx = make_field(3, 1, 4)
    rd = decompose_r(2, ctx)
    with pytest.raises(NotADivisor):
        in_Qrd(ctx.one(), rd, 3)  # 3 does not divide R = 5
    with pytest.raises(ZeroElement):
        in_Qrd(ctx.zero(), rd, rd.R)


@pytest.mark.parametrize("q, n", [(2, 9), (4, 4), (3, 5), (7, 3), (2, 6), (9, 2), (5, 3), (3, 6),
                                  (13, 4), (2, 12), (16, 3), (7, 6), (5, 1)])
def test_divisor_lattice_against_factoring(q, n):
    # the lattice and the character tables' two divisor lattices read only
    # the factorizations of x^n - 1 and q^n - 1; the path they replaced
    # factors every divisor and enumerates the divisors of each
    ctx = field_for(q, n)
    lattice = divisor_lattice(ctx)
    tab = char_tables(ctx)
    poly = xn1(ctx)
    divs = sorted(divisors_of(poly), key=lambda h: h.sort_key())
    index = {h: i for i, h in enumerate(divs)}
    assert lattice.divisors == divs
    assert lattice.div_index == index
    assert lattice.vec_index == {v: i for i, v in enumerate(lattice.vecs)}
    assert lattice.top == index[poly]
    irreducibles = xn1_factorization(ctx).irreducibles
    add = tab.add
    for i, h in enumerate(divs):
        fact = factor_poly(h)
        scaled = h * PolyQ(ctx.fq, (q - 1,))
        j = tab.divisor_index(h, "h")
        assert tab.divisor_index(scaled, "h") == j
        assert tab.co_order[i] == tab.divisor_index(poly // h, "co")
        assert exponents(ctx, h, "h") == exponents(ctx, scaled, "h") == lattice.vecs[i]
        assert add.phi[j] == fact.phi_q()
        assert add.mu[j] == fact.moebius_prime()
        assert add.subs[j] == [tab.divisor_index(d, "d") for d in divisors_of(h)]
        assert add.norm[j] == q**h.degree
        assert lattice.quot[i] == [index[h // f] if f.divides(h) else -1 for f in irreducibles]
    mult = tab.mult
    assert sorted(mult.norm) == idivs(ctx.N)
    for m in idivs(ctx.N):
        fact = factor_int(m)
        j = tab.mult_at[m]
        assert mult.norm[j] == m
        assert mult.phi[j] == fact.phi()
        assert mult.mu[j] == fact.moebius()
        assert sorted(mult.norm[d] for d in mult.subs[j]) == fact.divisors()


def test_divisor_lattice_ceiling_before_any_product(monkeypatch):
    # x^23 - 1 splits into 23 linear factors over F_47, so it has 2^23
    # divisors; the lattice is refused from that count, before any product
    ctx = field_for(47, 23)
    xn1_factorization(ctx)  # memoised before products are forbidden

    def product(*args):
        raise AssertionError("a divisor product was formed before the ceiling check")

    monkeypatch.setattr(PolyQ, "__mul__", product)
    with pytest.raises(TooManyDivisors, match="8388608"):
        divisor_lattice(ctx)


def test_charfun_factoring_does_not_scale_with_elements(monkeypatch):
    # counted at every knpair module binding, as the benchmark's tracer
    # counts them; the context is fresh, so its tables build inside the count
    import knpair.fqpoly as fqpoly

    base = make_field(2, 1, 6)  # x^6 - 1 = (x + 1)^2 (x^2 + x + 1)^2, 9 divisors
    ctx = FieldCtx(base.fq, base.n, base.ext_modulus)
    divs = divisors_of(xn1(base))
    gds = [decompose_g(g, base) for g in divs]
    Hs_of = [divisors_of(gd.G) for gd in gds]
    els = [ctx.from_code(c) for c in range(ctx.order)]
    calls = {"factor_poly": 0, "divisors_of": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        real = getattr(fqpoly, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "knpair" or modname.startswith("knpair.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counted(name, real))
    for g, gd, Hs in zip(divs, gds, Hs_of):
        for a in els:
            upsilon_g(a, g)
            psi_set(a, g)
        for H in Hs:
            for a in els[1:]:
                q_gH(a, gd, H)
    assert len(divs) == 9 and ctx.order == 64
    assert calls["factor_poly"] == 1  # x^n - 1 itself, once for the context
    assert calls["divisors_of"] == 0


def test_power_basis_orbits_built_once(monkeypatch):
    # the powers of sigma on the power basis (the Frobenius orbits of
    # x^0..x^(n-1)) and the searches' predicate kit, which keeps the packed
    # maps h(sigma) of the lattice divisors, live on the context's memo:
    # every kernel basis, both searches and the table build share one build
    # of each
    base = field_for(4, 6)
    ctx = FieldCtx(base.fq, base.n, base.ext_modulus)  # fresh memo
    builds = Counter()

    def counted(name, real):
        def build(c):
            builds[name] += 1
            return real(c)
        return build

    monkeypatch.setattr(FieldCtx, "_build_frob_powers", counted("powers", FieldCtx._build_frob_powers))
    monkeypatch.setattr(search, "_Predicates", counted("predicates", search._Predicates))
    monkeypatch.setattr(search, "field_for", lambda q, n: ctx)
    lattice = divisor_lattice(ctx)
    for h in lattice.divisors:
        assert len(kernel_basis(ctx, h.coeffs)) == h.degree
    assert not search.search_pair(4, 6, 1, 1).found
    assert search.search_pair(4, 6, 3, 0).found
    assert search.scan_tables(ctx).ord_idx[0] == 0
    assert not search.direct_search(4, 6).found
    assert builds == {"powers": 1, "predicates": 1}
