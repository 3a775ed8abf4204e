"""Rebuild queries.json: the benchmark's query pools and their verified answers.

    python3 benchmarks/record.py [workload ...]

Every entry is answered once through the same code path the benchmark times
(``workloads.execute``), then checked as follows:

* searches: a witness is re-checked with the direct predicates (order and
  k-normality of alpha and of alpha^-1); a not-found verdict is confirmed by
  the table engine's census (``pair_table``) or, for ``direct_search``, by a
  loop over the direct predicates;
* counts: ``count_N`` must equal ``count_from_profile(pair_profile(...))``
  and every ``count_from_profile`` answer must equal ``count_N``.  The
  censuses and profiles are only checked against closed forms: each
  ``fq_order_fibers`` count is Phi_q of its order, ``knormal`` sums those
  fibers, ``rprimitive(r)`` is phi(N / r), a ``pair_table`` count is at most
  the matching ``knormal`` and the row at most ``rprimitive``, and a profile
  covers the q^n - q^deg(g) elements outside the zero set of (g o .).  The
  profile's key count and digest are stored as the timed path gave them;
* bounds: the CLI's verdicts and exact lhs/rhs must equal the library's;
* character sums: the answer is the 0/1 indicator of each element from the
  direct ``modstruct`` predicates, and the sums must match it here too.

``cost_s`` is the time the answer took here.  It only orders the entries of a
pool for the paired draw, so it is stored once and not re-measured.
This script takes several minutes; the benchmark itself never runs it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import knpair  # noqa: E402
from knpair import cli, search  # noqa: E402
from knpair.fqpoly import divisors_of, phi_q  # noqa: E402
from knpair.intarith import divisors as int_divisors, euler_phi  # noqa: E402
from knpair.modstruct import decompose_g, decompose_r, k_normality, m_gcd_degree, xn1  # noqa: E402

import workloads  # noqa: E402

CRITERION_6B = ("Acceptance criterion 6b expects a 2-primitive 2-normal pair here; the exhaustive "
                "scan finds none and census(q, n, 'pair_table', 2) has no k = 2 entry, so the "
                "correct answer is not-found.")


def entry(kind, args, fields, pool, **extra) -> dict:
    return {"kind": kind, "args": args, "fields": [list(f) for f in fields], "pool": pool, **extra}


# -- pools ------------------------------------------------------------------------

# every sample runs the F_16^4 exhaustive scan; the rest is drawn by cost
SCAN_FIXED = ((16, 4, 1, 1),)
SCAN_HEAVY = ((13, 4, 2, 2), (7, 7, 1, 1))
SCAN_EARLY = ((2, 20, 1, 1), (2, 18, 1, 1), (4, 10, 1, 1), (17, 4, 1, 1))
# too slow for the per-run time budget today; answers kept for later rounds
SCAN_RECORDED = ((11, 5, 2, 2), (4, 8, 1, 2), (8, 7, 1, 1))


def scan_entries() -> list[dict]:
    rows = [(q, n, 1, 0) for q, n in cli.SPNBT_EXCEPTIONS + cli.SPNBT_CONTROLS]
    rows += [(4, 5, 1, 1)]
    rows += [(q, 6, 1, 1) for q in cli.CONJECTURE_NOT_FOUND + cli.CONJECTURE_FOUND]
    rows += [(q, n, 2, 2) for q, n, _ in cli.THM11_SPOTS]
    rows += list(SCAN_EARLY) + list(SCAN_HEAVY)
    out = [entry("search_pair", list(a), [a[:2]], "fixed") for a in SCAN_FIXED]
    out += [entry("search_pair", list(a), [a[:2]], "rows") for a in rows
            if a not in SCAN_FIXED and a not in SCAN_RECORDED]
    out += [entry("direct_search", [q, n], [(q, n)], "rows") for q, n in ((4, 5),) + cli.T13_DIRECT_FOUND]
    out += [entry("search_pair", list(a), [a[:2]], "recorded") for a in SCAN_RECORDED]
    for e in out:
        if e["args"] in ([5, 4, 2, 2], [11, 5, 2, 2]):
            e["note"] = CRITERION_6B
    return out


COUNT_FIELDS = ((3, 7), (5, 5), (4, 6), (7, 5), (13, 4))


def _coeffs(poly) -> list[int]:
    return list(poly.coeffs)


def count_entries() -> list[dict]:
    rng = random.Random("count pools")
    out = []
    for q, n in COUNT_FIELDS:
        ctx = knpair.field_for(q, n)
        tag = f"{q}^{n}"
        poly = xn1(ctx)
        divs = sorted(divisors_of(poly), key=lambda h: h.sort_key())
        rs = int_divisors(ctx.N)[:6]
        f = [(q, n)]
        out.append(entry("census", [q, n, "fq_order_fibers", None], f, "fixed"))
        out += [entry("census", [q, n, "knormal", k], f, f"knormal {tag}") for k in range(n)]
        out += [entry("census", [q, n, "rprimitive", r], f, f"rprimitive {tag}") for r in rs]
        out += [entry("census", [q, n, "pair_table", r], f, f"pair_table {tag}") for r in rs]

        def combo(g):
            r = rng.choice(rs)
            d = rng.choice(int_divisors(decompose_r(r, ctx).R))
            h = rng.choice(divs)
            H = rng.choice(divisors_of(decompose_g(g, ctx).G))
            return r, _coeffs(h), d, _coeffs(H)

        for _ in range(4):
            g = rng.choice(divs)
            r, h, d, H = combo(g)
            out.append(entry("count_N", [q, n, r, g.degree, _coeffs(g), h, d, H], f, f"count_N {tag}"))
        for g in rng.sample([h for h in divs if h.degree > 0], 2):
            prof = [q, n, _coeffs(g)]
            out.append(entry("pair_profile", prof, f, f"profile {tag}"))
            for _ in range(6):
                r, h, d, H = combo(g)
                out.append(entry("count_from_profile", [q, n, _coeffs(g), r, h, d, H], f,
                                 f"cfp {tag} {_coeffs(g)}", after=prof))
    return out


def _cli(argv, fields, pool) -> dict:
    return entry("cli", argv, fields, pool)


def bounds_entries() -> list[dict]:
    table3 = cli.TABLE3_FAIL + cli.TABLE3_HOLD
    table6 = tuple(qn for qn, _ in cli.TABLE6_FALSE + cli.TABLE6_TRUE)
    out = [
        _cli(["reproduce", "--target", "table3-spot"], table3, "fixed"),
        _cli(["reproduce", "--target", "table6-spot"], table6, "fixed"),
        # moduli searches of most of a second, which make_field repeats on
        # every call; the draw takes one question on each field
        _cli(["bound", "--q", "16", "--n", "8", "--r", "1", "--k", "1"], [(16, 8)], "big"),
        _cli(["bound", "--q", "16", "--n", "8", "--r", "5", "--k", "2", "--form", "eq9"], [(16, 8)], "big"),
        _cli(["bound", "--q", "64", "--n", "6", "--r", "1", "--k", "1"], [(64, 6)], "big"),
        _cli(["bound", "--q", "64", "--n", "6", "--r", "7", "--k", "2", "--form", "eq9"], [(64, 6)], "big"),
        # searches of 5 s (F_16^12) and 8 s (F_32^8) per make_field call: too
        # slow for the per-run time budget today; answers kept for later rounds
        _cli(["bound", "--q", "16", "--n", "12", "--r", "1", "--k", "1"], [(16, 12)], "recorded"),
        _cli(["bound", "--q", "32", "--n", "8", "--r", "1", "--k", "1"], [(32, 8)], "recorded"),
    ]
    for q, n, r, k, form, theta in ((4, 14, 1, 1, "eq10", "3"), (5, 14, 1, 1, "eq10", "auto"),
                                    (8, 14, 1, 2, "eq9", "auto"), (7, 14, 3, 1, "eq10", "2"),
                                    (5, 15, 1, 1, "eq9", "auto"), (4, 15, 3, 1, "eq10", "3")):
        argv = ["bound", "--q", str(q), "--n", str(n), "--r", str(r), "--k", str(k),
                "--form", form, "--theta", theta]
        out.append(_cli(argv, [(q, n)], "bound"))
    for q, n, theta in ((8, 14, 3), (7, 14, 2), (5, 14, 2), (9, 12, 3)):
        out.append(_cli(["sieve", "--q", str(q), "--n", str(n), "--theta", str(theta)], [(q, n)], "sieve"))
    for q, n, d_expr, theta in ((65, 7, "q-1", 2), (71, 7, "q-1", 2), (128, 7, "gcd(30,qn-1)", 3),
                                (243, 6, "q-1", 2)):
        argv = ["lemma54", "--q", str(q), "--n", str(n), "--d-expr", d_expr, "--n0", str(n),
                "--theta", str(theta)]
        out.append(_cli(argv, [], "lemma54"))
    return out


CHARFUN_FIELDS = ((2, 9), (4, 4), (3, 5), (7, 3))
CHARFUN_POOL_CAP = 12


def charfun_entries() -> list[dict]:
    rng = random.Random("charfun pools")
    out = []
    for q, n in CHARFUN_FIELDS:
        ctx = knpair.field_for(q, n)
        divs = sorted(divisors_of(xn1(ctx)), key=lambda h: h.sort_key())
        es = int_divisors(ctx.N)
        args = {
            "rho_e": es,
            "upsilon_g": [_coeffs(g) for g in divs],
            "psi_set": [_coeffs(g) for g in divs],
            "gamma_rd": [[r, d] for r in es for d in int_divisors(decompose_r(r, ctx).R)],
            "q_gH": [[_coeffs(g), _coeffs(H)] for g in divs for H in divisors_of(decompose_g(g, ctx).G)],
        }
        for fn, pool in args.items():
            if len(pool) > CHARFUN_POOL_CAP:
                pool = rng.sample(pool, CHARFUN_POOL_CAP)
            out += [entry("charfun", [q, n, fn, a], [(q, n)], f"{fn} {q}^{n}") for a in pool]
    return out


# -- answers and their checks ---------------------------------------------------

def charfun_indicators(query: workloads.Query, state: workloads.State) -> list[int]:
    """The same memberships decided by the direct modstruct predicates."""
    ms = knpair.modstruct
    ctx, fn, els, extra = workloads.charfun_args(query, state)
    if fn == "rho_e":
        test = lambda a: ms.is_e_free(a, *extra)
    elif fn == "upsilon_g":
        test = lambda a: ms.is_h_free(a, *extra)
    elif fn == "psi_set":
        co_g = ms.xn1(ctx) // extra[0]
        test = lambda a: ms.mod_action(co_g, a).is_zero()
    elif fn == "gamma_rd":
        test = lambda a: ms.in_Qrd(a, *extra)
    else:
        test = lambda a: ms.in_TgkH(a, *extra)
    return [1 if test(a) else 0 for a in els]


def answer_all(entries: list[dict]) -> None:
    state = workloads.State()
    for e in entries:
        query = workloads.query_of(e)
        t0 = time.perf_counter()
        ans = workloads.execute(query, state)
        e["cost_s"] = round(time.perf_counter() - t0, 4)
        if query.kind == "charfun":
            e["answer"] = workloads.pack_indicators(charfun_indicators(query, state))
            problem = workloads.check(workloads.query_of(e), ans)
            if problem:
                raise SystemExit(problem)
        else:
            e["answer"] = json.loads(json.dumps(ans))
        print(f"  {e['cost_s']:8.3f}s  {query.key}", flush=True)


def confirm_search(e: dict) -> None:
    ans = e["answer"]
    if e["kind"] == "search_pair":
        q, n, r, k = e["args"]
        ctx = knpair.field_for(q, n)
        if ans["found"]:
            alpha = ctx.from_code(ans["witness"])
            inv = alpha.inv()
            ok = (knpair.mult_order(alpha) == ctx.N // r == knpair.mult_order(inv)
                  and k_normality(alpha) == k == k_normality(inv))
        else:
            ok = search.census(q, n, "pair_table", r).get(k, 0) == 0
    else:
        q, n = e["args"]
        ctx = knpair.field_for(q, n)
        hits = []
        for code in range(ctx.order):
            beta = ctx.from_code(code)
            alpha = beta.frob() - beta
            if (not alpha.is_zero() and m_gcd_degree(alpha) == 1 and m_gcd_degree(alpha.inv()) == 1
                    and knpair.mult_order(alpha) == ctx.N):
                hits.append(alpha.code())
                break
        ok = (ans["witness"] == hits[0]) if ans["found"] else not hits
    if not ok:
        raise SystemExit(f"search answer not confirmed: {e['args']}")


def confirm_census(entries: list[dict]) -> None:
    """The census and profile answers against closed forms."""
    answers = {json.dumps(e["args"]): e["answer"] for e in entries}
    for e in entries:
        a, ans = e["args"], e["answer"]
        q, n = a[0], a[1]
        ctx = knpair.field_for(q, n)
        ok = True
        if e["kind"] == "census" and a[2] == "fq_order_fibers":
            ok = (sum(c for _, c in ans) == ctx.order
                  and all(c == phi_q(knpair.PolyQ(ctx.fq, f)) for f, c in ans))
            by_degree = {}
            for f, c in ans:
                by_degree[len(f) - 1] = by_degree.get(len(f) - 1, 0) + c
            for k in range(n):
                knormal = answers.get(json.dumps([q, n, "knormal", k]))
                ok = ok and knormal in (None, by_degree.get(n - k, 0))
        elif e["kind"] == "census" and a[2] == "rprimitive":
            ok = ans == euler_phi(ctx.N // a[3])
        elif e["kind"] == "census" and a[2] == "pair_table":
            ok = (sum(ans_k for _, ans_k in ans) <= euler_phi(ctx.N // a[3])
                  and all(c <= answers[json.dumps([q, n, "knormal", k])] for k, c in ans))
        elif e["kind"] == "pair_profile":
            ok = ans["total"] == ctx.order - q ** knpair.PolyQ(ctx.fq, a[2]).degree
        if not ok:
            raise SystemExit(f"census answer not confirmed: {e['kind']} {a}")


def confirm_counts(entries: list[dict]) -> None:
    for e in entries:
        a = e["args"]
        if e["kind"] == "count_N":
            q, n, r, k, g, h, d, H = a
            ctx = knpair.field_for(q, n)
            P = lambda c: knpair.PolyQ(ctx.fq, c)
            via_profile = search.count_from_profile(ctx, P(g), search.pair_profile(ctx, P(g)), r, P(h), d, P(H))
            if via_profile != e["answer"]:
                raise SystemExit(f"count_N disagrees with its profile: {a}")
        elif e["kind"] == "count_from_profile":
            q, n, g, r, h, d, H = a
            ctx = knpair.field_for(q, n)
            P = lambda c: knpair.PolyQ(ctx.fq, c)
            if search.count_N(q, n, r, P(g).degree, P(g), P(h), d, P(H)) != e["answer"]:
                raise SystemExit(f"count_from_profile disagrees with count_N: {a}")


def confirm_bounds(e: dict) -> None:
    ans = e["answer"]
    argv = e["args"]
    opt = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "reproduce":
        ok = ans["ok"] and ans["exit"] == 0
    elif argv[0] == "bound":
        form = "eq9_exact" if opt.get("--form") == "eq9" else "eq10_simplified"
        theta = opt.get("--theta", "auto")
        v = knpair.basic_inequality(int(opt["--q"]), int(opt["--n"]), int(opt["--r"]), int(opt["--k"]),
                                    form=form, theta_mult=None if theta == "auto" else int(theta))
        ok = ans["holds"] == v.holds and ans["lhs_rhs"] == json.loads(json.dumps(
            [cli._plain(v.lhs), cli._plain(v.rhs)]))
    elif argv[0] == "sieve":
        out = knpair.test_sieve(int(opt["--q"]), int(opt["--n"]), int(opt["--theta"]))
        ok = ans["holds"] == out.found and ans["pairs_tried"] == out.pairs_tried
    else:
        q, n = int(opt["--q"]), int(opt["--n"])
        d = cli.parse_d_expr(opt["--d-expr"], q, n)
        rep = knpair.bounds.lemma54_eval(q, n, d, int(opt["--n0"]), int(opt["--theta"]))
        ok = ans["holds"] == rep.verdict.holds and ans["d"] == d
    if not ok:
        raise SystemExit(f"bounds answer not confirmed: {argv}")


POOL_SPECS = {
    "scan": ("shuffle", scan_entries),
    "count": ("by_field", count_entries),
    "bounds": ("shuffle", bounds_entries),
    "charfun": ("by_field", charfun_entries),
}


def main() -> None:
    """Rebuild the pools of the workloads named on the command line (default all)."""
    names = sys.argv[1:] or list(POOL_SPECS)
    pools = workloads.load_pools() if workloads.POOLS_FILE.exists() else {}
    for name in names:
        order, build = POOL_SPECS[name]
        print(name, flush=True)
        pools[name] = {"order": order, "entries": build()}
        answer_all(pools[name]["entries"])
        if name == "scan":
            for e in pools[name]["entries"]:
                confirm_search(e)
        elif name == "count":
            confirm_census(pools[name]["entries"])
            confirm_counts(pools[name]["entries"])
        elif name == "bounds":
            for e in pools[name]["entries"]:
                confirm_bounds(e)
    pools = {name: pools[name] for name in POOL_SPECS}
    with open(workloads.POOLS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.POOLS_FILE}")


if __name__ == "__main__":
    main()
