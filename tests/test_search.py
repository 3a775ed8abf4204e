import sys
import threading
from collections import Counter
from math import gcd

import pytest

from conftest import field_grid
from knpair.errors import CtxMismatch, FieldTooLarge, NotADivisor, RNotDivisor
from knpair.ffield import FieldCtx, field_for, find_primitive, mult_order
from knpair.fqpoly import PolyQ, degree_k_divisors, divisors_of, phi_q
from knpair.intarith import divisors as idivs
from knpair.intarith import euler_phi
from knpair.modstruct import (
    decompose_g,
    decompose_r,
    divisor_lattice,
    fq_order,
    in_Qrd,
    in_TgkH,
    is_h_free,
    k_normality,
    kernel_basis,
    mod_action,
    xn1,
)
from knpair.search import (
    _Predicates,
    census,
    count_N,
    count_from_profile,
    direct_search,
    pair_profile,
    pair_verified,
    scan_tables,
    search_pair,
)


def test_direct_search_exception_4_5():
    assert not direct_search(4, 5).found
    # alpha = beta^q - beta ranges over the image of (x - 1) o ., the elements
    # whose F_q-order divides (x^5 - 1)/(x - 1); a 1-normal one has exactly that
    # order.  The element profile holds no primitive such alpha (gcd 1) whose
    # inverse is 1-normal too (an order of degree 4).
    ctx = field_for(4, 5)
    tables = scan_tables(ctx)
    x_minus_1 = PolyQ(ctx.fq, (ctx.fq.neg(1), 1))
    image_order = divisor_lattice(ctx).div_index[xn1(ctx) // x_minus_1]
    assert tables.divisors[image_order].degree == 4
    assert not [key for key in tables.profile
                if key[0] == image_order and key[1] == 1 and tables.divisors[key[2]].degree == 4]


def test_direct_search_found_cases():
    for q, n in [(2, 5), (2, 7), (3, 5)]:
        out = direct_search(q, n)
        assert out.found
        alpha = out.witness
        assert k_normality(alpha) == 1
        assert k_normality(alpha.inv()) == 1
        assert mult_order(alpha) == alpha.ctx.N


def test_search_pair_f8_no_normal_pair():
    assert not search_pair(2, 3, 1, 0).found


def test_search_pair_exceptions_and_controls():
    assert not search_pair(5, 4, 1, 0).found
    out = search_pair(5, 5, 1, 0)
    assert out.found
    a = out.witness
    assert k_normality(a) == 0 and k_normality(a.inv()) == 0
    assert mult_order(a) == a.ctx.N


def test_search_pair_first_witness_in_enumeration_order():
    out = search_pair(2, 5, 1, 1)
    assert out.found
    ctx = out.witness.ctx
    w_code = out.witness.code()
    for code in range(1, w_code):
        a = ctx.from_code(code)
        ok = (
            k_normality(a) == 1
            and k_normality(a.inv()) == 1
            and mult_order(a) == ctx.N
        )
        assert not ok


def test_search_pair_r2():
    out = search_pair(3, 4, 2, 1)
    assert out.found and out.witness.code() == out.scanned == 9
    a = out.witness
    assert mult_order(a) == a.ctx.N // 2
    assert k_normality(a) == 1 and k_normality(a.inv()) == 1
    assert pair_verified(a, 2, 1)
    assert not pair_verified(a, 1, 1) and not pair_verified(a, 2, 2)
    assert not pair_verified(a.ctx.zero(), 2, 1)


@pytest.mark.parametrize("q,n,code", [(3, 9, 1241), (7, 6, 437)])
def test_search_pair_r2_k2_found(q, n, code):
    # census(3, 9, "pair_table", 2) has 18 pairs at k = 2, census(7, 6, ...) 288;
    # the least one comes from the dlog walk and the order table, which the
    # kernel streams of search_pair do not use
    out = search_pair(q, n, 2, 2)
    assert out.found and out.witness.code() == out.scanned == code
    ctx = out.witness.ctx
    tables = scan_tables(ctx)

    def is_pair(c):
        e = tables.log_codes[c]
        return (
            gcd(e, ctx.N) == 2
            and tables.divisors[tables.ord_idx[c]].degree == n - 2
            and tables.divisors[tables.ord_idx[ctx.from_code(c).inv().code()]].degree == n - 2
        )

    assert next(c for c in range(1, ctx.order) if is_pair(c)) == code


@pytest.mark.parametrize("q,n,r,k,code", [(3, 5, 2, 1, 63), (7, 4, 4, 1, 98), (4, 5, 11, 1, 36),
                                          (5, 5, 22, 0, 1257)])
def test_search_pair_witness_not_monic(q, n, r, k, code):
    # each witness has top coefficient 2, so it is the least passing member
    # of an orbit c * alpha^(q^i) first seen at a lesser, monic element; no
    # code below it passes mult_order and k_normality on alpha and alpha^-1
    out = search_pair(q, n, r, k)
    assert out.found and out.witness.code() == out.scanned == code
    assert next(c for c in reversed(out.witness.coeffs) if c) == 2
    ctx = out.witness.ctx
    for c in range(1, code + 1):
        a = ctx.from_code(c)
        ok = all(mult_order(x) == ctx.N // r and k_normality(x) == k for x in (a, a.inv()))
        assert ok == (c == code), c


@pytest.mark.parametrize("q,n,r,k,most", [(16, 4, 1, 1, 64), (13, 4, 2, 2, 24), (4, 6, 1, 1, 72),
                                          (4, 8, 1, 2, 128)])
def test_search_pair_inverts_once_per_orbit(monkeypatch, q, n, r, k, most):
    # none of these has a pair; each orbit c * alpha^(q^i), c in F_q^*, of
    # the k-normal elements is tested once, at its least element, with one
    # inverse, where a test per element would make 960, 252, 216 and 384
    ctx = field_for(q, n)
    real, calls = FieldCtx._inv, []

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(FieldCtx, "_inv", counted)
    out = search_pair(q, n, r, k)
    assert (out.found, out.witness, out.scanned) == (False, None, ctx.N)
    assert len(calls) <= most


# t > 1 (F_4^3, F_9^2, F_8^2), p | n (F_2^4, F_2^6, F_3^3), n = 1 and n = 2
SMALL_GRID = [(4, 3), (9, 2), (8, 2), (2, 4), (2, 6), (3, 3), (3, 4), (7, 1), (4, 1), (2, 1), (5, 2), (13, 2)]


@pytest.mark.parametrize("q,n", SMALL_GRID)
def test_search_pair_against_straight_loop(q, n):
    ctx = field_for(q, n)
    rows = []
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        rows.append((code, k_normality(a), k_normality(a.inv()), mult_order(a), mult_order(a.inv())))
    for r in idivs(ctx.N)[:8]:
        for k in range(n + 1):
            want = next((c for c, kb, ki, ob, oi in rows
                         if kb == ki == k and ob == oi == ctx.N // r), None)
            out = search_pair(q, n, r, k)
            got = (out.found, out.witness.code() if out.found else None, out.scanned)
            assert got == (want is not None, want, ctx.N if want is None else want), (r, k)


@pytest.mark.parametrize("q,n", SMALL_GRID)
def test_exact_order_streams(q, n):
    # each stream runs in code order over ker h(sigma): its odd values 2a + 1
    # are exactly the packed a of F_q-order h, and its even values 2a, the
    # marks of how far it has walked, are kernel elements at the start of a
    # run that never exceed the next value
    ctx = field_for(q, n)
    preds = _Predicates(ctx)
    lanes = preds.lanes
    want, kernel = {}, {}
    for code in range(ctx.order):
        a = ctx.from_code(code)
        order = fq_order(a)
        want.setdefault(order, set()).add(code)
        for h in preds.divisors:
            if (h % order).is_zero():  # a lies in ker h(sigma)
                kernel.setdefault(h, set()).add(code)
    got = {}
    for idx, h in enumerate(preds.divisors):
        stream = list(preds.exact_order(idx))
        assert stream[0] == 0  # a mark at the zero element, which every kernel holds
        assert all(a <= b for a, b in zip(stream, stream[1:]))
        exact = [v >> 1 for v in stream if v & 1]
        codes = [lanes.code(a) for a in exact]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert exact == [lanes.pack(ctx.from_code(code).coeffs) for code in codes]
        assert {lanes.code(v >> 1) for v in stream if not v & 1} <= kernel[h]
        got[h] = set(codes)
    assert got == want


def test_packed_descent_against_fq_order():
    # every element of every field of at most 512 elements, and of F_9^3 and
    # F_27^2 (t > 1, odd p, p | n): the packed descent's order is fq_order's,
    # which walks the Frobenius orbit and shares no code with the lane tables,
    # and conjugate_first picks the least of each orbit c * a^(q^i),
    # c in F_q^*: of the multiples of one conjugate b (FieldElement.frob),
    # the least is b scaled by the inverse of its top coefficient.  An a with
    # a_0 = 0 is the least of its orbit exactly when it is the least of its
    # members with their constant term cleared; direct_search's skip rests on it
    for q, n in field_grid(512) + [(9, 3), (27, 2)]:
        ctx = field_for(q, n)
        preds = _Predicates(ctx)
        lanes = preds.lanes
        for a in ctx.elements():
            packed = lanes.pack(a.coeffs)
            assert lanes.unpack(packed) == a.coeffs and lanes.code(packed) == a.code()
            assert preds.divisors[preds.ord_divisor_index(packed)] == fq_order(a), (q, n, a.code())
            if a.is_zero():
                assert not preds.conjugate_first(packed)
                continue
            conjugates = [a.frob(i) for i in range(n)]
            orbit = [b.scale(ctx.fq.inv(next(c for c in reversed(b.coeffs) if c))).code() for b in conjugates]
            assert preds.conjugate_first(packed) == (a.code() == min(orbit)), (q, n, a.code())
            if a.coeffs[0] == 0:
                least = min(code // q * q for code in orbit)
                assert preds.conjugate_first(packed) == (a.code() == least), (q, n, a.code())


def test_search_pair_late_hit_stops_every_stream(monkeypatch):
    # x^7 - 1 splits into 7 linear factors over F_8, so seven streams of
    # degree-6 orders merge; six of them hold no exact-order element below the
    # hit, and each may start at most one run past it
    import knpair.search as search

    real, marks = search._Predicates.exact_order, {}

    def recorded(self, idx):
        for v in real(self, idx):
            if not v & 1:
                marks.setdefault(idx, []).append(self.lanes.code(v >> 1))
            yield v

    monkeypatch.setattr(search._Predicates, "exact_order", recorded)
    out = search_pair(8, 7, 1, 1)
    assert out.found and out.witness.code() == out.scanned == 37450
    assert len(marks) == 7
    assert all(sum(code > 37450 for code in codes) <= 1 for codes in marks.values())


@pytest.mark.parametrize("q,n", [(2, 4), (2, 6), (3, 3), (4, 5), (9, 2), (7, 1)])
def test_direct_search_stream_flags_one_normal_alpha(monkeypatch, q, n):
    # direct_search's stream flags beta exactly when alpha = beta^q - beta has
    # F_q-order (x^n - 1)/(x - 1), checked by fq_order over every beta the
    # stream walked; x - 1 is repeated in x^n - 1 for F_2^4, F_2^6 and F_3^3,
    # and F_4^5 has no pair, so its stream runs to the end
    import knpair.search as search

    real, seen = search._Predicates.stream, []

    def recorded(self, basis, maps):
        for v in real(self, basis, maps):
            seen.append(v)
            yield v

    monkeypatch.setattr(search._Predicates, "stream", recorded)
    out = direct_search(q, n)
    ctx = field_for(q, n)
    lanes = _Predicates(ctx).lanes
    last = lanes.code(seen[-1] >> 1)
    assert out.found or last == ctx.order - q
    h_star = xn1(ctx) // PolyQ.xn_minus_1(ctx.fq, 1)
    want = set()
    for code in range(0, last + 1, q):  # the beta with beta_0 = 0
        beta = ctx.from_code(code)
        if fq_order(beta.frob() - beta) == h_star:
            want.add(code)
    assert {lanes.code(v >> 1) for v in seen if v & 1} == want


def test_predicates_build_no_field_sized_table():
    # F_3^15 is under the 2^24 enumeration ceiling; the table engine's two
    # packed-value decoders would take about 42 MiB there
    import tracemalloc

    ctx = field_for(3, 15)
    tracemalloc.start()
    try:
        preds = _Predicates(ctx)
        knorm = preds.knorm(preds.lanes.pack(ctx.from_code(12345).coeffs))
        first = next(preds.exact_order(preds.top))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert knorm == k_normality(ctx.from_code(12345)) and first == 0
    assert peak < 2 << 20, peak


def test_search_pair_rejects_k_outside_0_n(monkeypatch):
    import knpair.search as search

    def walk(*args):
        raise AssertionError("search_pair walked before checking k")

    monkeypatch.setattr(search, "_Predicates", walk)
    monkeypatch.setattr(search, "_Lanes", walk)
    for k in (-1, 4, 7):
        with pytest.raises(ValueError):
            search_pair(4, 3, 1, k)
    monkeypatch.undo()
    out = search_pair(4, 3, 1, 3)  # k = n: only 0 has F_q-order 1
    assert not out.found and out.scanned == 63


def test_search_pair_bad_r():
    with pytest.raises(RNotDivisor):
        search_pair(2, 3, 2, 0)


def test_enumeration_ceiling():
    with pytest.raises(FieldTooLarge):
        search_pair(2, 5, 1, 1, ceiling_bits=4)


@pytest.mark.parametrize("q,n", SMALL_GRID + [(2, 5), (2, 7), (3, 5), (3, 6), (9, 4), (4, 5), (5, 4)])
def test_direct_search_against_straight_loop(q, n):
    # every beta in code order, alpha = beta^q - beta by a power, judged by
    # mult_order and k_normality alone
    ctx = field_for(q, n)
    want = (False, None, ctx.order)
    for code in range(ctx.order):
        beta = ctx.from_code(code)
        alpha = beta**q - beta
        if (not alpha.is_zero() and k_normality(alpha) == 1 and k_normality(alpha.inv()) == 1
                and mult_order(alpha) == ctx.N):
            want = (True, alpha.code(), code + 1)
            break
    out = direct_search(q, n)
    assert (out.found, out.witness.code() if out.found else None, out.scanned) == want


def test_direct_search_agrees_with_search_pair():
    # Algorithm 2's beta^q - beta sweep vs the exhaustive pair search
    for q, n in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 5), (5, 3), (5, 4)]:
        assert direct_search(q, n).found == search_pair(q, n, 1, 1).found


def _straight_loop(q, n, r, k, g, h, d, H):
    ctx = field_for(q, n)
    rd = decompose_r(r, ctx)
    gd = decompose_g(g, ctx)
    cnt = 0
    for code in range(ctx.order):
        beta = ctx.from_code(code)
        alpha = mod_action(g, beta)
        if alpha.is_zero():
            continue
        if not is_h_free(beta, h):
            continue
        if not in_Qrd(alpha, rd, d):
            continue
        if in_TgkH(alpha.inv(), gd, H):
            cnt += 1
    return cnt


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_count_N_against_straight_loop(q, n):
    ctx = field_for(q, n)
    poly = xn1(ctx)
    for k in range(n):
        for g in degree_k_divisors(poly, k):
            gd = decompose_g(g, ctx)
            hist = pair_profile(ctx, g)
            for r in idivs(ctx.N):
                rd = decompose_r(r, ctx)
                for d in idivs(rd.R):
                    for h in divisors_of(poly)[:4]:
                        for H in divisors_of(gd.G)[:3]:
                            want = _straight_loop(q, n, r, k, g, h, d, H)
                            assert count_N(q, n, r, k, g, h, d, H) == want
                            assert count_from_profile(ctx, g, hist, r, h, d, H) == want


def test_count_N_full_seed_positivity_equivalence():
    # count with full seeds > 0 iff the exhaustive pair search finds one
    for q, n, r, k in [(2, 3, 1, 0), (2, 4, 1, 1), (3, 3, 1, 1), (2, 5, 1, 1), (3, 4, 2, 2)]:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        pk = degree_k_divisors(poly, k)
        rd = decompose_r(r, ctx)
        total = 0
        for g in pk:
            gd = decompose_g(g, ctx)
            total += count_N(q, n, r, k, g, poly, rd.R, gd.G)
        assert (total > 0) == search_pair(q, n, r, k).found


@pytest.mark.parametrize("q,n", [(2, 8), (3, 6), (4, 4), (5, 5), (9, 3), (16, 3), (27, 2), (17, 2)])
def test_scan_tables_against_direct_predicates(q, n):
    # fq_order (orbit descent), mult_order, _inv and _pow share no code with
    # the kernel walk and the linear dlog walk that build the tables
    ctx = field_for(q, n)
    tables = scan_tables(ctx)
    index = divisor_lattice(ctx).div_index
    assert tables.divisors[tables.ord_idx[0]] == fq_order(ctx.zero())
    gen = find_primitive(ctx)
    assert mult_order(gen) == ctx.N
    assert tables.log_codes[0] == -1
    assert sorted(tables.log_codes[1:]) == list(range(ctx.N))
    orders = {}
    for c in range(1, ctx.order):
        a = ctx.from_code(c)
        assert tables.divisors[tables.ord_idx[c]] == fq_order(a)
        assert gen ** tables.log_codes[c] == a
        orders[c] = index[fq_order(a)]
    want = Counter()
    for c in range(1, ctx.order):
        a = ctx.from_code(c)
        want[orders[c], ctx.N // mult_order(a), orders[a.inv().code()]] += 1
    assert tables.profile == want


def _span(ctx, basis):
    """sum_j c_j * basis[j] for every coefficient vector c, in code order of c,
    on coefficient tuples: an odometer over c with one ctx._add per carry.
    Once t > 1 the per-digit code steps are not +1 in F_q, so the deltas
    between consecutive scalar multiples are precomputed."""
    q = ctx.q
    delta = [[ctx._sub(ctx._scale(b, (c + 1) % q), ctx._scale(b, c)) for c in range(q)] for b in basis]
    digits = [0] * len(basis)
    alpha = (0,) * ctx.n
    yield alpha
    for _ in range(q ** len(basis) - 1):
        j = 0
        while True:
            c = digits[j]
            alpha = ctx._add(alpha, delta[j][c])
            if c + 1 < q:
                digits[j] = c + 1
                break
            digits[j] = 0
            j += 1
        yield alpha


def _tuple_tables(ctx):
    """ord_idx, log_codes and profile built on coefficient tuples, with no
    packed ints: the order table writes each divisor's index over _span of
    its kernel_basis, from the last divisor to the first, and the dlog walk
    adds two looked-up tuples with ctx._add per step."""
    lattice = divisor_lattice(ctx)
    n, N, q = ctx.n, ctx.N, ctx.q

    def code(coeffs):
        return sum(c * q**i for i, c in enumerate(coeffs))

    ord_idx = [lattice.top] * ctx.order
    for idx in range(lattice.top - 1, -1, -1):
        for alpha in _span(ctx, kernel_basis(ctx, lattice.divisors[idx].coeffs)):
            ord_idx[code(alpha)] = idx
    pc = find_primitive(ctx).coeffs
    images = [ctx._mul(tuple(int(i == j) for i in range(n)), pc) for j in range(n)]
    m = n // 2
    low, high = list(_span(ctx, images[:m])), list(_span(ctx, images[m:]))
    ords, log_codes = [], [-1] * ctx.order
    cur = ctx.one().coeffs
    for e in range(N):
        c = code(cur)
        ords.append(ord_idx[c])
        log_codes[c] = e
        hi, lo = divmod(c, q**m)
        cur = ctx._add(low[lo], high[hi])
    # prim^-e = prim^(-e mod N), and gcd(0, N) = N
    profile = Counter((ords[e], gcd(e, N), ords[-e % N]) for e in range(N))
    return ord_idx, log_codes, profile


def _assert_tables_match_tuple_build(q, n):
    tables = scan_tables(field_for(q, n))
    ord_idx, log_codes, profile = _tuple_tables(tables.ctx)
    assert tables.ord_idx == ord_idx, (q, n)
    assert tables.log_codes == log_codes, (q, n)
    assert tables.profile == profile, (q, n)


def test_scan_tables_against_tuple_build_grid():
    # every p, t = 1 and t > 1, n = 1 (one lane: the packed value is the code)
    for q, n in field_grid(1024):
        _assert_tables_match_tuple_build(q, n)


@pytest.mark.parametrize("q,n", [(13, 4), (7, 5), (2, 16), (3, 10)])
def test_scan_tables_against_tuple_build(q, n):
    _assert_tables_match_tuple_build(q, n)


def _profile_oracle(ctx, g, direct):
    """pair_profile by brute force over every beta.  ``direct[code]`` holds
    the direct predicates of the element with that code: the lattice index
    of its fq_order, N / mult_order (which is gcd(dlog, N)) and the index of
    the fq_order of its inverse."""
    hist = {}
    for code in range(ctx.order):
        alpha = mod_action(g, ctx.from_code(code)).code()
        if alpha:
            key = (direct[code][0],) + direct[alpha][1:]
            hist[key] = hist.get(key, 0) + 1
    return hist


@pytest.mark.parametrize("q,n", [(2, 6), (3, 6), (4, 4), (2, 8), (5, 5), (9, 3)])
def test_pair_profile_against_direct_predicates(q, n):
    # x^n - 1 has repeated factors on every one of these fields; F_4 and F_9
    # have t = 2.  The oracle walks every beta; pair_profile walks only the
    # image of (g o .) and spreads each alpha over its preimages.
    ctx = field_for(q, n)
    fq, index = ctx.fq, divisor_lattice(ctx).div_index
    direct = {0: (index[fq_order(ctx.zero())],)}
    for code in range(1, ctx.order):
        a = ctx.from_code(code)
        direct[code] = (index[fq_order(a)], ctx.N // mult_order(a), index[fq_order(a.inv())])
    for g in divisor_lattice(ctx).divisors:
        want = _profile_oracle(ctx, g, direct)
        assert pair_profile(ctx, g) == want
        if q > 2:  # a non-monic multiple has the same image and preimages
            c = q - 1
            assert pair_profile(ctx, PolyQ(fq, tuple(fq.mul(c, x) for x in g.coeffs))) == want
    full = pair_profile(ctx, PolyQ.one(fq))
    assert sum(full.values()) == ctx.N  # g = 1: every nonzero beta
    assert pair_profile(ctx, xn1(ctx)) == {}  # g = x^n - 1: the zero set is the field
    # the four census selectors fold the same element profile
    divs = divisor_lattice(ctx).divisors
    deg = {code: divs[row[0]].degree for code, row in direct.items()}
    nonzero = range(1, ctx.order)
    inv_deg = {c: divs[direct[c][2]].degree for c in nonzero}
    assert census(q, n, "fq_order_fibers") == Counter(divs[row[0]] for row in direct.values())
    for k in range(n):
        assert census(q, n, "knormal", k) == sum(1 for c in nonzero if deg[c] == n - k)
    for r in idivs(ctx.N):
        assert census(q, n, "rprimitive", r) == sum(1 for c in nonzero if direct[c][1] == r)
        assert census(q, n, "pair_table", r) == Counter(
            n - deg[c] for c in nonzero if direct[c][1] == r and deg[c] == inv_deg[c])


def test_pair_profile_rejects_non_divisor(monkeypatch):
    import knpair.search as search

    def walk(*args):
        raise AssertionError("pair_profile walked before checking g")

    monkeypatch.setattr(search, "scan_tables", walk)
    monkeypatch.setattr(search, "_Lanes", walk)  # every packed walk starts here
    ctx = field_for(2, 3)
    for g in [
        PolyQ.zero(ctx.fq),
        PolyQ(ctx.fq, (1, 0, 1, 1)),  # x^3 + x^2 + 1 is coprime to x^3 - 1
        PolyQ(ctx.fq, (1, 0, 1)),  # (x + 1)^2 shares x + 1 with x^3 - 1 but does not divide it
    ]:
        with pytest.raises(NotADivisor):
            pair_profile(ctx, g)
    with pytest.raises(CtxMismatch):
        pair_profile(ctx, PolyQ(field_for(3, 3).fq, (2, 1)))  # x - 1 over F_3


def test_count_rejects_bad_arguments_before_walking(monkeypatch):
    import knpair.search as search

    def walk(*args):
        raise AssertionError("a count walked before checking its arguments")

    monkeypatch.setattr(search, "scan_tables", walk)
    monkeypatch.setattr(search, "_Lanes", walk)  # every packed walk starts here
    ctx = field_for(2, 3)  # x^3 - 1 = (x + 1)(x^2 + x + 1), q^3 - 1 = 7 = R for r = 1
    P = lambda *c: PolyQ(ctx.fq, c)
    g, one, top = P(1, 1), P(1), xn1(ctx)  # G = x^2 + x + 1 for g = x + 1
    for h, d, H in [
        (P(1, 0, 1), 1, one),  # h = (x + 1)^2 does not divide x^3 - 1
        (top, 1, P(1, 1)),  # H = x + 1 does not divide G
        (top, 2, one),  # d = 2 does not divide R = 7
    ]:
        with pytest.raises(NotADivisor):
            count_N(2, 3, 1, 1, g, h, d, H)
        with pytest.raises(NotADivisor):
            count_from_profile(ctx, g, {}, 1, h, d, H)


def test_census_rejects_bad_arguments_before_building(monkeypatch):
    import knpair.search as search

    def build(*args):
        raise AssertionError("a census built the tables before checking its arguments")

    monkeypatch.setattr(search, "scan_tables", build)
    for what in ("rprimitive", "pair_table"):
        for r in (None, 0, 2):  # q^n - 1 = 2^20 - 1 is odd
            with pytest.raises(RNotDivisor):
                census(2, 20, what, r)
    for what, arg in [("knormal", None), ("knormal", 20), ("bogus", 1)]:
        with pytest.raises(ValueError):
            census(2, 20, what, arg)


def test_count_checks_its_arguments_once(monkeypatch):
    import knpair.search as search

    calls = []
    real = search._count_tests
    monkeypatch.setattr(search, "_count_tests", lambda *a: calls.append(a) or real(*a))
    ctx = field_for(2, 3)
    P = lambda *c: PolyQ(ctx.fq, c)
    top = xn1(ctx)
    want = count_from_profile(ctx, P(1, 1), pair_profile(ctx, P(1, 1)), 1, top, 1, P(1))
    calls.clear()
    assert count_N(2, 3, 1, 1, P(1, 1), top, 1, P(1)) == want
    assert len(calls) == 1


def test_census_knormal(f8):
    assert census(2, 3, "knormal", 0) == 3
    assert census(2, 3, "knormal", 1) == 3
    assert census(2, 3, "knormal", 2) == 1
    assert sum(census(2, 3, "knormal", k) for k in range(3)) + 1 == 8


def test_census_rprimitive():
    assert census(3, 4, "rprimitive", 2) == euler_phi(40) == 16
    assert census(2, 3, "rprimitive", 1) == 6


def test_census_fibers(f8):
    fibers = census(2, 3, "fq_order_fibers")
    sizes = {f.coeffs: c for f, c in fibers.items()}
    assert sizes == {(1,): 1, (1, 1): 1, (1, 1, 1): 3, (1, 0, 0, 1): 3}


def test_census_identities_sample():
    for q, n in [(2, 4), (3, 3), (4, 3), (5, 2)]:
        ctx = field_for(q, n)
        poly = xn1(ctx)
        for k in range(n):
            want = 0
            for g in degree_k_divisors(poly, k):
                co = (poly // g).monic()
                want += phi_q(co) if co.degree > 0 else 1
            assert census(q, n, "knormal", k) == want
        for r in idivs(ctx.N):
            assert census(q, n, "rprimitive", r) == euler_phi(ctx.N // r)


def test_census_pair_table():
    # F_8 has no primitive pair with matching k-normality at all
    assert census(2, 3, "pair_table", 1) == {}
    # F_32 has both primitive normal and primitive 1-normal pairs
    table = census(2, 5, "pair_table", 1)
    assert table.get(0, 0) > 0
    assert table.get(1, 0) > 0


def test_scanned_counts():
    out = search_pair(2, 3, 1, 0)
    assert out.scanned == 7  # all nonzero elements inspected


def test_per_field_state_concurrent_first_calls(monkeypatch):
    # racing first calls on a fresh context must build each per-field object
    # once, and every thread must get that one object
    import knpair.characters as characters
    import knpair.modstruct as modstruct
    import knpair.search as search

    builds = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            builds.append(name)  # list.append is atomic
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(search._ScanTables, "__init__", counted("scan", search._ScanTables.__init__))
    monkeypatch.setattr(characters._CharTables, "__init__", counted("char", characters._CharTables.__init__))
    monkeypatch.setattr(modstruct, "factor_poly", counted("xn1", modstruct.factor_poly))
    cases = [
        (modstruct.xn1_factorization, ["xn1"]),
        (scan_tables, ["scan", "xn1"]),
        (characters.char_tables, ["char", "scan", "xn1"]),
    ]
    # caches keyed by context equality would hand a later trial the object of
    # an earlier one, so every trial gets its own extension modulus: the 30
    # monic irreducible octics over F_2
    fq = field_for(2, 8).fq
    moduli = [m for m in (tuple((v >> i) & 1 for i in range(8)) + (1,) for v in range(256))
              if PolyQ(fq, m).is_irreducible()]
    assert len(moduli) == 30
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i, modulus in enumerate(moduli):
            get, want_builds = cases[i % 3]
            ctx = FieldCtx(fq, 8, modulus)
            start = threading.Barrier(8)
            got = []
            builds.clear()

            def work():
                start.wait(timeout=10)
                got.append(get(ctx))

            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            assert len(got) == 8
            assert all(obj is got[0] for obj in got)
            assert sorted(builds) == want_builds
    finally:
        sys.setswitchinterval(old)
