"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 is the r = k = 2 verdict.  6a covers fields with no 2-primitive
2-normal element at all; 6b covers F_5^4 and F_11^5, where such elements
exist but none has a 2-normal inverse, so the exhaustive search must reject
every candidate at k-normality of alpha^-1 and report not-found.  6b checks
that verdict against the table engine and against an enumeration in this
module that shares no code with knpair.
"""

import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import field_grid
from knpair import modstruct
from knpair.bounds import (
    _half_power_gt,
    asymptotic_threshold,
    basic_inequality,
    rho_ratio,
    sieve_terms,
    theta_for,
)
from knpair.bounds import test_sieve as sieve_search
from knpair.characters import gamma_rd, psi_set, q_gH, rho_e, upsilon_g
from knpair.ffield import field_for
from knpair.fqpoly import PolyQ, degree_k_divisors, divisors_of, factor_poly, phi_q
from knpair.intarith import divisors as idivs
from knpair.intarith import factor_int
from knpair.modstruct import (
    decompose_g,
    decompose_r,
    in_Qrd,
    in_Sgk,
    in_TgkH,
    is_e_free,
    is_h_free,
    k_normality,
    mod_action,
    xn1,
    xn1_factorization,
)
from knpair.search import (
    census,
    count_N,
    count_from_profile,
    direct_search,
    pair_profile,
    scan_tables,
    search_pair,
)


def report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_01_strong_pnbt_exceptions():
    t0 = time.perf_counter()
    ok = True
    for q, n in [(2, 3), (2, 4), (3, 4), (4, 3), (5, 4)]:
        ok &= not search_pair(q, n, 1, 0).found
    for q, n in [(2, 5), (3, 5), (7, 4), (4, 4), (5, 5)]:
        ok &= search_pair(q, n, 1, 0).found
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"strong PNBT exception set exact, {elapsed:.2f}s (< 1 s)")


def test_criterion_02_n5_exception():
    t0 = time.perf_counter()
    ok = not search_pair(4, 5, 1, 1).found
    ok &= not direct_search(4, 5).found
    for q, n in [(2, 5), (3, 5), (2, 7), (5, 6)]:
        ok &= direct_search(q, n).found
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert report(2, ok, f"(4,5) sole exception; direct-search controls, {elapsed:.2f}s (< 5 s)")


def test_criterion_03_conjecture_exceptions_n6():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 4):
        ok &= not search_pair(q, 6, 1, 1).found
    scans = {}
    for q in (3, 8, 9):
        out = search_pair(q, 6, 1, 1)
        ok &= out.found
        scans[q] = out.scanned
    ok &= scans[8] <= 2**19 and scans[9] <= 2**19
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert report(3, ok, f"n=6 exceptions exactly {{2,4}}, scans {scans}, {elapsed:.2f}s (< 2 min)")


def test_criterion_04_n3_never():
    t0 = time.perf_counter()
    ok = all(not search_pair(q, 3, 1, 1).found for q in (2, 3, 4, 5, 7, 8, 9, 11, 13))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert report(4, ok, f"no primitive 1-normal pair for n=3, {elapsed:.2f}s (< 10 s)")


def test_criterion_05_n4_necessary_condition():
    t0 = time.perf_counter()
    ok = all(not search_pair(q, 4, 1, 1).found for q in (2, 3, 7, 8, 11))
    ok &= all(search_pair(q, 4, 1, 1).found for q in (5, 13))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert report(5, ok, f"n=4 pairs only at q = 1 mod 4, {elapsed:.2f}s (< 30 s)")


def test_criterion_06a_two_primitive_two_normal_not_found():
    t0 = time.perf_counter()
    ok = not search_pair(3, 4, 2, 2).found
    ok &= not search_pair(7, 5, 2, 2).found
    elapsed = time.perf_counter() - t0
    assert report("6a", ok, f"(3,4) and (7,5) have no 2-primitive 2-normal pair, {elapsed:.2f}s")


def _independent_knormality(p: int, n: int, modulus: tuple[int, ...], c: int) -> list[int]:
    """k-normality of g^e for e in [0, p^n - 2], where g = x + c in F_p[x]/(modulus).

    Shares no code with knpair.  The modulus is given constant term first and
    monic.  The walk over the powers of g certifies that g generates the unit
    group (so the modulus is irreducible): it must meet p^n - 1 distinct
    units.  Frobenius is read off the walk, (g^e)^p = g^(e p), and the
    k-normality of alpha is n minus the F_p-rank of {alpha^(p^i) : i < n}.
    """
    N = p**n - 1
    red = [(-m) % p for m in modulus[:n]]
    cur = (1,) + (0,) * (n - 1)
    powers = []
    for _ in range(N):
        powers.append(cur)
        top = cur[-1]
        cur = tuple((s + top * r + c * a) % p for s, r, a in zip((0,) + cur[:-1], red, cur))
    assert len(set(powers)) == N, f"x + {c} does not generate the units of F_{p}^{n}"

    def rank(rows):
        rows = [list(row) for row in rows]
        rk = 0
        for col in range(n):
            piv = next((i for i in range(rk, n) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            inv = pow(rows[rk][col], p - 2, p)
            prow = [v * inv % p for v in rows[rk]]
            for i in range(rk + 1, n):
                f = rows[i][col]
                if f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
            rk += 1
        return rk

    return [n - rank([powers[e * p**i % N] for i in range(n)]) for e in range(N)]


def test_criterion_06b_two_primitive_two_normal_found():
    """No (alpha, alpha^-1) pair of 2-primitive 2-normal elements exists in
    F_5^4 or F_11^5, although 2-primitive 2-normal elements do.

    F_5^4 by hand: since 4 | 5 - 1, F_{5^4} is the direct sum of the
    eigenspaces V_a = {beta : beta^5 = a beta}, a in F_5^*, and beta in V_a
    minus 0 means beta^4 = a, so beta^16 = 1.  2-normal means exactly two
    nonzero components.  Let alpha = beta + gamma (beta in V_a, gamma in V_b)
    and alpha^-1 = delta + eps (delta in V_c, eps in V_d).  Then
    1 = beta delta + beta eps + gamma delta + gamma eps, and these four
    nonzero products lie in V_ac, V_ad, V_bc, V_bd.  A product alone in an
    eigenspace other than V_1 cannot cancel, so ac = bd and ad = bc, which
    gives a^2 = b^2, hence b = -a.  Then u = gamma/beta has u^4 = -1, so u
    lies in mu_8 inside F_25, and alpha = beta (1 + u) has order dividing
    lcm(16, 24) = 48.  A 2-primitive element has order 312 = 2^3 * 3 * 13,
    so no pair exists.

    F_11^5 by enumeration: the independent enumeration finds 2-primitive
    2-normal elements, none of them with a 2-normal inverse.

    The exhaustive streaming search, the table engine's census and the
    independent enumeration must all agree.
    """
    # (modulus constant term first, c) such that x + c generates the unit group
    fields = {(5, 4): ((2, 4, 4, 0, 1), 0), (11, 5): ((1, 0, 0, 0, 2, 1), 6)}
    t0 = time.perf_counter()
    outs = {(q, n): search_pair(q, n, 2, 2) for q, n in fields}
    elapsed = time.perf_counter() - t0
    found = [out.found for out in outs.values()]
    ok = not any(found) and elapsed < 60.0
    report("6b", ok, f"(5,4) and (11,5) have no 2-primitive 2-normal pair: found {found}, "
                     f"{elapsed:.2f}s (< 1 min)")
    for (q, n), (modulus, c) in fields.items():
        out, N = outs[q, n], q**n - 1
        assert out.found is False, f"search_pair({q},{n},2,2) reports a pair, but none exists"
        assert out.scanned == N, f"search_pair({q},{n},2,2) scanned {out.scanned} of {N} units"
        table = census(q, n, "pair_table", 2)
        assert 2 not in table, f"census({q},{n},'pair_table',2) = {table} has a k = 2 entry"

        kn = _independent_knormality(q, n, modulus, c)
        two_prim = [e for e in range(N) if gcd(e, N) == 2]
        candidates = [e for e in two_prim if kn[e] == 2]
        assert candidates, f"F_{q}^{n} has no 2-primitive 2-normal element to reject"
        pairs = [e for e in candidates if kn[-e % N] == 2]
        assert not pairs, f"independent enumeration finds {len(pairs)} pairs in F_{q}^{n}"
        oracle_table = Counter(kn[e] for e in two_prim if kn[e] == kn[-e % N])
        assert table == oracle_table, f"census {table} != independent enumeration {dict(oracle_table)}"
        if (q, n) == (5, 4):
            both = [e for e in range(N) if kn[e] == 2 and kn[-e % N] == 2]
            assert all(48 * e % N == 0 for e in both), "a 2-normal pair of order not dividing 48"


# (q, n, r, k) -> (modulus constant term first, c) such that x + c generates
# the unit group of F_q[x]/(modulus); every row is a prime field
PRIME_FIELD_NOT_FOUND = {
    (2, 3, 1, 0): ((1, 0, 1, 1), 0),
    (2, 4, 1, 0): ((1, 0, 0, 1, 1), 0),
    (3, 4, 1, 0): ((1, 1, 0, 2, 1), 1),
    (5, 4, 1, 0): ((1, 0, 2, 2, 1), 1),
    (2, 6, 1, 1): ((1, 0, 0, 0, 0, 1, 1), 0),
    (3, 4, 2, 2): ((1, 1, 0, 2, 1), 1),
    (7, 5, 2, 2): ((1, 0, 0, 0, 3, 1), 4),
}


@pytest.mark.parametrize("q,n,r,k", sorted(PRIME_FIELD_NOT_FOUND))
def test_criterion_06b_oracle_prime_field_not_found_rows(q, n, r, k):
    """The other prime-field not-found rows of search_pair, confirmed by 6b's
    independent enumeration, which shares no code with knpair: no r-primitive
    k-normal alpha has a k-normal inverse, and the enumeration's pair counts
    by k equal the table engine's census."""
    out, N = search_pair(q, n, r, k), q**n - 1
    assert not out.found and out.scanned == N
    modulus, c = PRIME_FIELD_NOT_FOUND[q, n, r, k]
    kn = _independent_knormality(q, n, modulus, c)
    r_prim = [e for e in range(N) if gcd(e, N) == r]
    assert not [e for e in r_prim if kn[e] == k and kn[-e % N] == k]
    assert census(q, n, "pair_table", r) == Counter(kn[e] for e in r_prim if kn[e] == kn[-e % N])


def test_criterion_07_sieve_algorithm_fidelity():
    exceptions = [(4, 15), (5, 16), (5, 24), (8, 14), (9, 16), (16, 15), (17, 16), (19, 18)]
    ok = all(not sieve_search(q, n, 3).found for q, n in exceptions)
    trues = [(47, 23), (23, 22), (13, 28), (7, 24), (4, 30)]
    ok &= sum(sieve_search(q, n, 3).found for q, n in trues) >= 5
    ok &= not sieve_search(2, 5, 2).found
    ok &= not sieve_search(5, 6, 2).found
    assert report(7, ok, "sieve returns False exactly on the eight exception pairs; True spot checks")


def test_criterion_08_inequality_evaluators():
    v = basic_inequality(4, 14, 1, 1)
    ok = v.lhs == 256 and not v.holds
    ok &= asymptotic_threshold(214183, 14, 1, 1, 7.6, "2^n").holds
    ok &= asymptotic_threshold(4, 351, 1, 1, 9, "2^{n/3+c_q}", c_q=Fraction(2 * 15, 3)).holds
    ok &= rho_ratio(2, 5) == Fraction(1, 5)
    ok &= rho_ratio(2, 9) == Fraction(2, 9)
    ok &= rho_ratio(2, 21) == Fraction(4, 21)
    ok &= rho_ratio(3, 16) == Fraction(5, 16)
    assert report(8, ok, "basic/asymptotic/rho evaluators reproduce the cited values exactly")


def _charfun_mismatches(q: int, n: int) -> int:
    ctx = field_for(q, n)
    poly = xn1(ctx)
    els = [ctx.from_code(c) for c in range(ctx.order)]
    nz = els[1:]
    bad = 0

    def check(value, indicator):
        nonlocal bad
        if value != indicator:  # exact Fractions
            bad += 1

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
    return bad


def _per_element(order_fn):
    """order_fn(a) computed once per (context, coefficients); the oracles ask
    for it again for every parameter, and the answer does not depend on it."""
    memo = {}

    def once(a):
        key = (a.ctx, a.coeffs)
        if key not in memo:
            memo[key] = order_fn(a)
        return memo[key]
    return once


def test_criterion_09_characteristic_function_equivalence(monkeypatch):
    monkeypatch.setattr(modstruct, "mult_order", _per_element(modstruct.mult_order))
    monkeypatch.setattr(modstruct, "fq_order", _per_element(modstruct.fq_order))
    grid = field_grid(512)
    bad = 0
    for q, n in grid:
        bad += _charfun_mismatches(q, n)
    ok = bad == 0
    assert report(9, ok, f"char sums match direct indicators on {len(grid)} fields, {bad} mismatches")


def test_criterion_10_counting_identities():
    from math import gcd as int_gcd

    from knpair.intarith import euler_phi

    grid = field_grid(4096)
    violations = 0
    for q, n in grid:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        for g in divisors_of(poly):
            total = sum(phi_q(h) if h.degree > 0 else 1 for h in divisors_of(g))
            if total != q**g.degree:
                violations += 1
        for k in range(n):
            want = 0
            for g in degree_k_divisors(poly, k):
                co = (poly // g).monic()
                want += phi_q(co) if co.degree > 0 else 1
            if census(q, n, "knormal", k) != want:
                violations += 1
        # r-primitive census: the gcd(dlog, N) histogram matches phi(N/r)
        tables0 = scan_tables(ctx)
        hist: dict[int, int] = {}
        for code in range(1, ctx.order):
            gam = int_gcd(tables0.log_codes[code], ctx.N)
            hist[gam] = hist.get(gam, 0) + 1
        for r in idivs(ctx.N):
            if hist.get(r, 0) != euler_phi(ctx.N // r):
                violations += 1
        # partition of S_k by the S_{g,k}: full pairwise membership at <= 2^9,
        # fiber-based with per-element canonical-membership checks above that
        if ctx.order <= 512:
            for k in range(n):
                gds = [decompose_g(g, ctx) for g in degree_k_divisors(poly, k)]
                for code in range(1, ctx.order):
                    a = ctx.from_code(code)
                    hits = sum(1 for gd in gds if in_Sgk(a, gd))
                    expect = 1 if k_normality(a) == k else 0
                    if hits != expect:
                        violations += 1
        else:
            tables = scan_tables(ctx)
            seen = 0
            for idx, div in enumerate(tables.divisors):
                size = sum(1 for c in range(1, ctx.order) if tables.ord_idx[c] == idx)
                seen += size
                if size:
                    g = (poly // div).monic()
                    sample = next(c for c in range(1, ctx.order) if tables.ord_idx[c] == idx)
                    if not in_Sgk(ctx.from_code(sample), decompose_g(g, ctx)):
                        violations += 1
            if seen != ctx.order - 1:
                violations += 1
    ok = violations == 0
    assert report(10, ok, f"counting identities/partition on {len(grid)} fields, {violations} violations")


def _soundness_one_field(q: int, n: int) -> tuple[int, int, int]:
    """Returns (holds_true_combos, positive_counts, violations)."""
    ctx = field_for(q, n)
    poly = xn1(ctx)
    fact_x = xn1_factorization(ctx)
    tables = scan_tables(ctx)
    div_w = {h: factor_poly(h).W() if h.degree > 0 else 1 for h in divisors_of(poly)}
    sq_h = divisors_of(poly, "squarefree_monic")
    held = positive = violations = 0
    checked_op_agreement = 0
    for r in idivs(ctx.N):
        rd = decompose_r(r, ctx)
        rrad = factor_int(r).radical()
        d_list = idivs(rd.R)
        for k in range(n):
            for g in degree_k_divisors(poly, k):
                gd = decompose_g(g, ctx)
                theta = theta_for(q, n, k)
                twice = n - 2 * theta
                H_list = divisors_of(gd.G)
                hist = None
                for h in sq_h:
                    wh = div_w[h]
                    for d in d_list:
                        wd = factor_int(d).W()
                        for H in H_list:
                            rhs = Fraction(2 * r * rrad * wh * wd * div_w[H])
                            if not _half_power_gt(q, twice, rhs):
                                continue
                            held += 1
                            if hist is None:
                                hist = pair_profile(ctx, g)
                            cnt = count_from_profile(ctx, g, hist, r, h, d, H)
                            if cnt > 0:
                                positive += 1
                            else:
                                violations += 1
                            if checked_op_agreement < 2:
                                if count_N(q, n, r, k, g, h, d, H) != cnt:
                                    violations += 1
                                checked_op_agreement += 1
    return held, positive, violations


def test_criterion_11_sufficient_condition_soundness():
    t0 = time.perf_counter()
    grid = field_grid(1 << 14, min_n=2)
    held = positive = violations = 0
    for q, n in grid:
        h, p, v = _soundness_one_field(q, n)
        held += h
        positive += p
        violations += v
    # sieve-form soundness: a holding sieve verdict implies a full-seed pair
    for q, n in [(2, 8), (3, 5), (2, 12), (5, 4), (4, 5), (7, 4), (2, 14), (3, 8)]:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        one = PolyQ.one(ctx.fq)
        rd = decompose_r(1, ctx)
        for k in (0, 1):
            pk = degree_k_divisors(poly, k)
            if not pk:
                continue
            g = pk[0]
            gd = decompose_g(g, ctx)
            first_irr = xn1_factorization(ctx).irreducibles[0]
            for h, d, H in [(one, 1, one), (first_irr, 1, one),
                            (one, rd.R, one), (poly, rd.R, gd.G)]:
                if rd.R % d:
                    continue
                rep = sieve_terms(q, n, 1, k, h, d, H, g=g)
                if rep.verdict.holds:
                    held += 1
                    full = count_N(q, n, 1, k, g, poly, rd.R, gd.G)
                    if full > 0:
                        positive += 1
                    else:
                        violations += 1
    # sieve recombination inequality on fields <= 2^10
    for q, n in [(2, 6), (2, 8), (2, 10), (3, 5), (3, 6), (4, 4), (5, 4), (2, 9)]:
        violations += _lemma_43_violations(q, n)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 1800
    assert report(
        11,
        ok,
        f"{held} holding verdicts, {positive} positive counts, {violations} violations, {elapsed:.0f}s (< 30 min)",
    )


def _lemma_43_violations(q: int, n: int) -> int:
    ctx = field_for(q, n)
    poly = xn1(ctx)
    fact_x = xn1_factorization(ctx)
    bad = 0
    for r, k in [(1, 0), (1, 1)]:
        pk = degree_k_divisors(poly, k)
        if not pk:
            continue
        g = pk[0]
        gd = decompose_g(g, ctx)
        rd = decompose_r(r, ctx)
        hist = pair_profile(ctx, g)
        one = PolyQ.one(ctx.fq)
        R_primes = factor_int(rd.R).primes
        G_irred = [f for f in fact_x.irreducibles if f.divides(gd.G)]
        for h, d, H in [(one, 1, one), (fact_x.irreducibles[0], 1, one)]:
            rem_h = [f for f in fact_x.irreducibles if not f.divides(h)]
            rem_p = [p for p in R_primes if d % p]
            rem_H = [f for f in G_irred if not f.divides(H)]
            full = count_from_profile(ctx, g, hist, r, poly, rd.R, gd.G)
            total = 0
            for hi in rem_h:
                total += count_from_profile(ctx, g, hist, r, (h * hi), d, H)
            for p in rem_p:
                total += count_from_profile(ctx, g, hist, r, h, d * p, H)
            for Hi in rem_H:
                total += count_from_profile(ctx, g, hist, r, h, d, (H * Hi).monic())
            total -= (len(rem_h) + len(rem_p) + len(rem_H) - 1) * count_from_profile(ctx, g, hist, r, h, d, H)
            if full < total:
                bad += 1
    return bad
