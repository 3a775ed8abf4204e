"""Command-line surface and the reproduction harness.

Reports are JSON (sorted keys; one "timing" field varies run to run) with a
CSV projection for table-like payloads.  Exit codes: 0 = holds / found /
all-match, 3 = does-not-hold / not-found / mismatch, 2 = usage error,
4 = computational error (the payload carries the stable error code).

Hints file: one entry per line, ``N p1^e1 p2^e2 ...`` (the ``^1`` may be
omitted; ``#`` starts a comment).  Every line is verified when the file is
read, so a wrong hint is an error even if the command never factors its
value.  Hints last for one invocation and serve every factorization it
makes, and ``hints_applied`` counts the hints used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from fractions import Fraction
from math import gcd as int_gcd

from . import __version__, bounds, search
from .errors import KnpairError
from .ffield import (
    field_for,
    format_element,
    mult_order,
    parse_element,
    parse_field_spec,
)
from .fqpoly import PolyQ, factor_poly, format_poly, parse_poly
from .intarith import IntFactorization, factor_hints, factor_int
from .modstruct import fq_order, k_normality, xn1

SCHEMA_VERSION = 1

SPNBT_EXCEPTIONS = ((2, 3), (2, 4), (3, 4), (4, 3), (5, 4))
SPNBT_CONTROLS = ((2, 5), (3, 5), (7, 4), (4, 4), (5, 5))
T13_DIRECT_FOUND = ((2, 5), (3, 5), (2, 7), (5, 6))
CONJECTURE_NOT_FOUND = (2, 4)
CONJECTURE_FOUND = (3, 8, 9)
TABLE3_FAIL = ((4, 14), (5, 14), (8, 14), (4, 15), (5, 16))
TABLE3_HOLD = ((7, 14), (5, 15))
TABLE6_FALSE = (((2, 5), 2), ((5, 6), 2))
TABLE6_TRUE = (((167, 6), 2), ((193, 6), 2))
THM11_SPOTS = ((3, 4, False), (7, 5, False), (5, 4, True), (11, 5, True))


def load_hints(path: str) -> dict[int, tuple[tuple[int, int], ...]]:
    """Read a hints file; every line is verified here, used or not."""
    hints: dict[int, tuple[tuple[int, int], ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            value = int(toks[0])
            parts = []
            for tok in toks[1:]:
                if "^" in tok:
                    p_s, e_s = tok.split("^", 1)
                    parts.append((int(p_s), int(e_s)))
                else:
                    parts.append((int(tok), 1))
            hints[value] = IntFactorization(value, tuple(parts)).factors
    return hints


def parse_d_expr(expr: str, q: int, n: int) -> int:
    text = expr.strip().replace(" ", "")
    if re.fullmatch(r"\d+", text):
        return int(text)
    if text == "q-1":
        return q - 1
    m = re.fullmatch(r"q\^(\d+)-1", text)
    if m:
        return q ** int(m.group(1)) - 1
    if text == "gcd(30,qn-1)":
        return int_gcd(30, q**n - 1)
    raise ValueError(f"unsupported d-expr {expr!r}")


# -- serialization ----------------------------------------------------------------

def _plain(value):
    if isinstance(value, PolyQ):
        return format_poly(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, bounds.BoundVerdict):
        return {
            "lhs": _plain(value.lhs),
            "rhs": _plain(value.rhs),
            "holds": value.holds,
            "theta": value.theta,
            "inputs": {k: _plain(v) for k, v in value.inputs},
        }
    if isinstance(value, bounds.SieveReport):
        return {
            "h": _plain(value.h),
            "d": value.d,
            "H": _plain(value.H),
            "l1_primes": list(value.l1_primes),
            "l2_polys": [_plain(f) for f in value.l2_polys],
            "l3_polys": [_plain(f) for f in value.l3_polys],
            "D": _plain(value.D),
            "S": _plain(value.S),
            "nonpositive_D": value.nonpositive_D,
            "verdict": _plain(value.verdict),
        }
    if isinstance(value, search.SearchOutcome):
        return {
            "found": value.found,
            "witness": format_element(value.witness) if value.witness is not None else None,
            "scanned": value.scanned,
        }
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _provenance(ctx=None) -> dict:
    prov = {"tool": "knpair", "version": __version__, "schema": SCHEMA_VERSION}
    if ctx is not None:
        prov["field"] = {
            "p": ctx.p,
            "t": ctx.t,
            "n": ctx.n,
            "base_modulus": list(ctx.base_modulus),
            "ext_modulus": list(ctx.ext_modulus),
        }
    return prov


def make_report(command: str, inputs: dict, result, t0: float, ctx=None) -> dict:
    return {
        "command": command,
        "inputs": _plain(inputs),
        "result": _plain(result),
        "provenance": _provenance(ctx),
        "timing": {"seconds": round(time.perf_counter() - t0, 6)},
    }


def emit(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(report, stream, sort_keys=True, indent=2)
        stream.write("\n")
        return
    rows = report["result"].get("rows") if isinstance(report["result"], dict) else None
    buf = io.StringIO()
    writer = csv.writer(buf)
    if rows:
        header = sorted({k for row in rows for k in row})
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(k, "") for k in header])
    else:
        writer.writerow(["key", "value"])
        for k in sorted(report["result"]) if isinstance(report["result"], dict) else []:
            writer.writerow([k, json.dumps(report["result"][k], sort_keys=True)])
    stream.write(buf.getvalue())


def verify_report(report: dict) -> bool:
    """Re-check every witness a parsed report carries with search.pair_verified;
    a row that claims found without a witness fails.

    A search_pair row that reports not-found in a field of at most
    search.TABLE_CEILING elements must agree with the table engine: k is no
    key of census(q, n, "pair_table", r).  direct-search rows are not
    re-checked that way: they sweep only alpha = beta^q - beta, so their
    not-found rules out no pair.
    """
    prov = report.get("provenance", {})
    field = prov.get("field")
    result = report.get("result", {})
    # a table's rows carry their q, n, r and k; a single search keeps them in its inputs
    inputs = report.get("inputs", {})
    for row in result.get("rows", [result]):
        r, k = (int(row.get(x, inputs.get(x, 1))) for x in ("r", "k"))
        wit = row.get("witness")
        if not wit:
            if row.get("found"):
                return False
            if row.get("found") is False and row.get("algorithm", report.get("command")) != "direct-search":
                q, n = (int(row.get(x, inputs.get(x, 0))) for x in ("q", "n"))
                if not _table_confirms_not_found(q, n, r, k):
                    return False
            continue
        fspec = row.get("field", field)
        ctx = parse_field_spec(f"{fspec['p']}^{fspec['t']}:{fspec['n']}") if isinstance(fspec, dict) else None
        if ctx is None:
            return False
        alpha = parse_element(ctx, wit)
        if not search.pair_verified(alpha, r, k):
            return False
    return True


def _table_confirms_not_found(q: int, n: int, r: int, k: int) -> bool:
    """False when the table engine finds a pair that search_pair(q, n, r, k)
    reported missing; True past the table ceiling, where it cannot look."""
    ctx = field_for(q, n)
    if r < 1 or ctx.N % r:
        return False
    return ctx.order > search.TABLE_CEILING or k not in search.census(q, n, "pair_table", r)


# -- reproduce targets -------------------------------------------------------------

def _pair_row(q: int, n: int, r: int, k: int, expected: bool, ceiling: int) -> dict:
    out = search.search_pair(q, n, r, k, ceiling_bits=ceiling)
    ctx = field_for(q, n)
    return {
        "q": q,
        "n": n,
        "r": r,
        "k": k,
        "expected_found": expected,
        "found": out.found,
        "match": out.found == expected,
        "witness": format_element(out.witness) if out.witness else "",
        "scanned": out.scanned,
        "field": {"p": ctx.p, "t": ctx.t, "n": ctx.n},
    }


def run_reproduce(target: str, ceiling: int) -> dict:
    rows: list[dict] = []
    if target == "spnbt-exceptions":
        for q, n in SPNBT_EXCEPTIONS:
            rows.append(_pair_row(q, n, 1, 0, False, ceiling))
        for q, n in SPNBT_CONTROLS:
            rows.append(_pair_row(q, n, 1, 0, True, ceiling))
    elif target == "t13-exception":
        rows.append(_pair_row(4, 5, 1, 1, False, ceiling))
        out = search.direct_search(4, 5, ceiling_bits=ceiling)
        rows.append({"q": 4, "n": 5, "algorithm": "direct-search", "expected_found": False,
                     "found": out.found, "match": out.found is False, "witness": "", "scanned": out.scanned})
        for q, n in T13_DIRECT_FOUND:
            out = search.direct_search(q, n, ceiling_bits=ceiling)
            ctx = field_for(q, n)
            rows.append({"q": q, "n": n, "algorithm": "direct-search", "expected_found": True,
                         "found": out.found, "match": out.found is True,
                         "witness": format_element(out.witness) if out.witness else "",
                         "r": 1, "k": 1, "scanned": out.scanned,
                         "field": {"p": ctx.p, "t": ctx.t, "n": ctx.n}})
    elif target == "conjecture-exceptions":
        for q in CONJECTURE_NOT_FOUND:
            rows.append(_pair_row(q, 6, 1, 1, False, ceiling))
        for q in CONJECTURE_FOUND:
            rows.append(_pair_row(q, 6, 1, 1, True, ceiling))
    elif target == "table3-spot":
        for q, n in TABLE3_FAIL + TABLE3_HOLD:
            verdict = bounds.basic_inequality(q, n, 1, 1, theta_mult=3)
            expected = (q, n) in TABLE3_HOLD
            rows.append({"q": q, "n": n, "expected_holds": expected, "holds": verdict.holds,
                         "match": verdict.holds == expected,
                         "lhs": _plain(verdict.lhs), "rhs": _plain(verdict.rhs)})
    elif target == "table6-spot":
        for (q, n), theta in TABLE6_FALSE + TABLE6_TRUE:
            out = bounds.test_sieve(q, n, theta)
            expected = ((q, n), theta) in TABLE6_TRUE
            rows.append({"q": q, "n": n, "theta": theta, "expected_holds": expected,
                         "holds": out.found, "match": out.found == expected,
                         "pairs_tried": out.pairs_tried})
    elif target == "thm11-spot":
        for q, n, expected in THM11_SPOTS:
            rows.append(_pair_row(q, n, 2, 2, expected, ceiling))
    else:
        raise ValueError(f"unknown reproduce target {target!r}")
    return {"rows": rows, "ok": all(row["match"] for row in rows)}


# -- argument plumbing --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knpair", description=__doc__)
    top.add_argument("--hints", metavar="FILE", help="factorization hints file")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--ceiling", type=int, default=search.ENUM_CEILING_BITS_DEFAULT,
                     metavar="BITS", help="enumeration ceiling, log2 of field size")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor-int", help="certified factorization of N")
    p.add_argument("N", type=int)

    p = sub.add_parser("factor-poly", help="factor a polynomial over F_q")
    p.add_argument("--field", required=True)
    p.add_argument("--xn1", action="store_true", help="factor x^n - 1")
    p.add_argument("--poly", help="coefficients, constant first")

    for name in ("order", "fq-order"):
        p = sub.add_parser(name)
        p.add_argument("--field", required=True)
        p.add_argument("--elem", required=True)

    p = sub.add_parser("knormal")
    p.add_argument("--field", required=True)
    p.add_argument("--elem")
    p.add_argument("--census", type=int, metavar="K")

    p = sub.add_parser("bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--form", choices=("eq9", "eq10"), default="eq10")
    p.add_argument("--theta", choices=("auto", "2", "3"), default="auto")

    p = sub.add_parser("sieve")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=int, required=True, choices=(2, 3))

    p = sub.add_parser("lemma54")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d-expr", required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--theta", type=int, default=2, choices=(2, 3))

    p = sub.add_parser("direct-search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("search-pair")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("reproduce")
    p.add_argument("--target", required=True,
                   choices=("spnbt-exceptions", "t13-exception", "conjecture-exceptions",
                            "table3-spot", "table6-spot", "thm11-spot"))
    return top


def _dispatch(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    cmd = args.command
    if cmd == "factor-int":
        fact = factor_int(args.N)
        result = {"value": fact.value, "factors": [[p, e] for p, e in fact.factors]}
        return make_report(cmd, {"N": args.N}, result, t0), 0
    if cmd == "factor-poly":
        ctx = parse_field_spec(args.field)
        poly = xn1(ctx) if args.xn1 else parse_poly(ctx.fq, args.poly)
        fact = factor_poly(poly)
        result = {
            "poly": format_poly(poly),
            "unit": fact.unit,
            "factors": [[format_poly(f), e] for f, e in fact.factors],
        }
        return make_report(cmd, {"field": args.field}, result, t0, ctx=ctx), 0
    if cmd == "order":
        ctx = parse_field_spec(args.field)
        a = parse_element(ctx, args.elem)
        result = {"order": mult_order(a)}
        return make_report(cmd, {"field": args.field, "elem": args.elem}, result, t0, ctx=ctx), 0
    if cmd == "fq-order":
        ctx = parse_field_spec(args.field)
        a = parse_element(ctx, args.elem)
        result = {"fq_order": format_poly(fq_order(a))}
        return make_report(cmd, {"field": args.field, "elem": args.elem}, result, t0, ctx=ctx), 0
    if cmd == "knormal":
        ctx = parse_field_spec(args.field)
        if (args.elem is None) == (args.census is None):
            raise ValueError("knormal needs exactly one of --elem / --census")
        if args.elem is not None:
            a = parse_element(ctx, args.elem)
            result = {"k": k_normality(a)}
        else:
            result = {"k": args.census,
                      "count": search.census(ctx.q, ctx.n, "knormal", args.census)}
        return make_report(cmd, {"field": args.field}, result, t0, ctx=ctx), 0
    if cmd == "bound":
        form = "eq9_exact" if args.form == "eq9" else "eq10_simplified"
        theta_mult = None if args.theta == "auto" else int(args.theta)
        verdict = bounds.basic_inequality(args.q, args.n, args.r, args.k, form=form, theta_mult=theta_mult)
        code = 0 if verdict.holds else 3
        return make_report(cmd, {"q": args.q, "n": args.n, "r": args.r, "k": args.k, "form": args.form},
                           {"verdict": verdict, "holds": verdict.holds}, t0), code
    if cmd == "sieve":
        out = bounds.test_sieve(args.q, args.n, args.theta)
        result = {"holds": out.found, "pairs_tried": out.pairs_tried, "report": out.report}
        code = 0 if out.found else 3
        return make_report(cmd, {"q": args.q, "n": args.n, "theta": args.theta}, result, t0), code
    if cmd == "lemma54":
        d = parse_d_expr(args.d_expr, args.q, args.n)
        rep = bounds.lemma54_eval(args.q, args.n, d, args.n0, args.theta)
        result = {"holds": rep.verdict.holds, "report": rep, "d": d}
        code = 0 if rep.verdict.holds else 3
        return make_report(cmd, {"q": args.q, "n": args.n, "d_expr": args.d_expr, "n0": args.n0,
                                 "theta": args.theta}, result, t0), code
    if cmd == "direct-search":
        out = search.direct_search(args.q, args.n, ceiling_bits=args.ceiling)
        ctx = field_for(args.q, args.n)
        code = 0 if out.found else 3
        return make_report(cmd, {"q": args.q, "n": args.n}, out, t0, ctx=ctx), code
    if cmd == "search-pair":
        out = search.search_pair(args.q, args.n, args.r, args.k, ceiling_bits=args.ceiling)
        ctx = field_for(args.q, args.n)
        code = 0 if out.found else 3
        return make_report(cmd, {"q": args.q, "n": args.n, "r": args.r, "k": args.k}, out, t0,
                           ctx=ctx), code
    if cmd == "reproduce":
        result = run_reproduce(args.target, args.ceiling)
        code = 0 if result["ok"] else 3
        return make_report(cmd, {"target": args.target}, result, t0), code
    raise ValueError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with factor_hints(load_hints(args.hints) if args.hints else {}) as used:
            report, code = _dispatch(args)
    except KnpairError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["provenance"]["hints_applied"] = len(used)
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
