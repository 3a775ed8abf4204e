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

Commands.  Each subcommand is defined once, by its arguments and the handler
beside them, which returns (result, field context or None, holds).  ``main``
alone builds the report and exits 0 when the command holds, 3 otherwise.  A
report's "inputs" are the command's own parsed arguments, without the global
flags and without the ones left unset.  Usage errors (exit 2) include
factor-poly without exactly one of --xn1 / --poly, knormal without exactly
one of --elem / --census, lemma54 with q < 2, n < 1 or n0 < 1, and a
negative --ceiling.  The parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
import time
from fractions import Fraction
from math import gcd as int_gcd

from . import __version__, bounds, search
from .errors import KnpairError
from .ffield import (
    FieldElement,
    field_for,
    format_element,
    mult_order,
    parse_element,
    parse_field_spec,
)
from .fqpoly import PolyQ, factor_poly, format_poly, parse_poly
from .intarith import IntFactorization, factor_hints, factor_int, is_prime, prime_power
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
REPRODUCE_TARGETS = ("spnbt-exceptions", "t13-exception", "conjecture-exceptions",
                     "table3-spot", "table6-spot", "thm11-spot")


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

# the fields of each result record that a report shows
_RECORD_FIELDS = {
    bounds.BoundVerdict: ("lhs", "rhs", "holds", "theta", "inputs"),
    bounds.SieveReport: ("h", "d", "H", "l1_primes", "l2_polys", "l3_polys", "D", "S",
                         "nonpositive_D", "verdict"),
    search.SearchOutcome: ("found", "witness", "scanned"),
}


def _plain(value):
    if isinstance(value, PolyQ):
        return format_poly(value)
    if isinstance(value, FieldElement):
        return format_element(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    fields = _RECORD_FIELDS.get(type(value))
    if fields is not None:
        plain = {name: getattr(value, name) for name in fields}
        if "inputs" in plain:  # a verdict's inputs are (name, value) pairs
            plain["inputs"] = dict(plain["inputs"])
        return _plain(plain)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _field(ctx) -> dict:
    return {"p": ctx.p, "t": ctx.t, "n": ctx.n}


def _provenance(ctx=None) -> dict:
    prov = {"tool": "knpair", "version": __version__, "schema": SCHEMA_VERSION}
    if ctx is not None:
        prov["field"] = {**_field(ctx), "base_modulus": list(ctx.base_modulus),
                         "ext_modulus": list(ctx.ext_modulus)}
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
    result, writer = report["result"], csv.writer(stream)
    rows = result.get("rows")
    if rows:
        header = sorted({k for row in rows for k in row})
        writer.writerow(header)
        writer.writerows([row.get(k, "") for k in header] for row in rows)
    else:
        writer.writerow(["key", "value"])
        writer.writerows([k, json.dumps(result[k], sort_keys=True)] for k in sorted(result))


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def verify_report(report: dict) -> bool:
    """Re-check every witness a parsed report carries with search.pair_verified.
    A row that claims found without a witness fails, and so does a report this
    cannot read: a report, result or row that is no dict, a q, n, r, k or
    field coordinate that is missing where it is read or is no int, or a
    value that would not parse (checked before parsing, see _readable_witness
    and _table_confirms_not_found).

    A search_pair row that reports not-found in a field of at most
    search.TABLE_CEILING elements must agree with the table engine: k is no
    key of census(q, n, "pair_table", r).  direct-search rows are not
    re-checked that way: they sweep only alpha = beta^q - beta, so their
    not-found rules out no pair.
    """
    if not isinstance(report, dict):
        return False
    prov, result, inputs = report.get("provenance"), report.get("result"), report.get("inputs", {})
    field = prov.get("field") if isinstance(prov, dict) else None
    # a table's rows carry their q, n, r and k; a single search keeps them in its inputs
    rows = result.get("rows", [result]) if isinstance(result, dict) else None
    if not isinstance(inputs, dict) or not isinstance(rows, list):
        return False
    for row in rows:
        if not isinstance(row, dict):
            return False
        r, k = (row.get(x, inputs.get(x, 1)) for x in ("r", "k"))
        if not _ints(r, k):
            return False
        wit = row.get("witness")
        if not wit:
            if row.get("found"):
                return False
            if row.get("found") is False and row.get("algorithm", report.get("command")) != "direct-search":
                q, n = (row.get(x, inputs.get(x)) for x in ("q", "n"))
                if not _ints(q, n) or not _table_confirms_not_found(q, n, r, k):
                    return False
            continue
        fspec = row.get("field", field)
        coords = [fspec.get(x) for x in ("p", "t", "n")] if isinstance(fspec, dict) else [None]
        if not isinstance(wit, str) or not _ints(*coords) or not _readable_witness(wit, *coords):
            return False
        alpha = parse_element(parse_field_spec("{}^{}:{}".format(*coords)), wit)
        if not search.pair_verified(alpha, r, k):
            return False
    return True


def _readable_witness(wit: str, p: int, t: int, n: int) -> bool:
    """Whether wit names an element of F_{(p^t)^n}, in the form parse_element
    reads: p prime, t, n >= 1, and n F_q literals of at most t F_p digits each."""
    toks = [tok.strip().split("-") for tok in wit.split(",")]
    return (is_prime(p) and t >= 1 and len(toks) == n
            and all(len(digits) <= t and all(d.isdecimal() and int(d) < p for d in digits) for digits in toks))


def _table_confirms_not_found(q: int, n: int, r: int, k: int) -> bool:
    """False when the table engine finds a pair that search_pair(q, n, r, k)
    reported missing, or when q is no prime power, n < 1 or r does not
    divide q^n - 1; True past the table ceiling, where it cannot look.  No
    check factors q or forms a q^n past the ceiling."""
    if n < 1 or r < 1 or prime_power(q) is None or pow(q, n, r) != 1 % r:
        return False
    ceiling = search.TABLE_CEILING
    if q > ceiling or n >= ceiling.bit_length() or q**n > ceiling:
        return True
    return k not in search.census(q, n, "pair_table", r)


# -- reproduce targets -------------------------------------------------------------

def _row(q: int, n: int, expected: bool, got: bool, key: str = "found", **fields) -> dict:
    """One reproduce row: (q, n), the expected and the computed outcome under
    key, whether they match, and the row's other fields."""
    return {"q": q, "n": n, "expected_" + key: expected, key: got, "match": got == expected, **fields}


def _pair_row(q: int, n: int, r: int, k: int, expected: bool, ceiling: int) -> dict:
    out = search.search_pair(q, n, r, k, ceiling_bits=ceiling)
    return _row(q, n, expected, out.found, r=r, k=k, witness=out.witness or "", scanned=out.scanned,
                field=_field(field_for(q, n)))


def run_reproduce(target: str, ceiling: int) -> dict:
    rows: list[dict] = []
    if target == "spnbt-exceptions":
        rows = [_pair_row(q, n, 1, 0, (q, n) in SPNBT_CONTROLS, ceiling)
                for q, n in SPNBT_EXCEPTIONS + SPNBT_CONTROLS]
    elif target == "t13-exception":
        rows.append(_pair_row(4, 5, 1, 1, False, ceiling))
        for (q, n), expected in [((4, 5), False)] + [(qn, True) for qn in T13_DIRECT_FOUND]:
            out = search.direct_search(q, n, ceiling_bits=ceiling)
            # a direct-search row names r = k = 1 and its field only beside a witness
            checked = {"r": 1, "k": 1, "field": _field(field_for(q, n))} if out.witness else {}
            rows.append(_row(q, n, expected, out.found, algorithm="direct-search", witness=out.witness or "",
                             scanned=out.scanned, **checked))
    elif target == "conjecture-exceptions":
        rows = [_pair_row(q, 6, 1, 1, q in CONJECTURE_FOUND, ceiling)
                for q in CONJECTURE_NOT_FOUND + CONJECTURE_FOUND]
    elif target == "table3-spot":
        for q, n in TABLE3_FAIL + TABLE3_HOLD:
            verdict = bounds.basic_inequality(q, n, 1, 1, theta_mult=3)
            rows.append(_row(q, n, (q, n) in TABLE3_HOLD, verdict.holds, "holds",
                             lhs=verdict.lhs, rhs=verdict.rhs))
    elif target == "table6-spot":
        for (q, n), theta in TABLE6_FALSE + TABLE6_TRUE:
            out = bounds.test_sieve(q, n, theta)
            rows.append(_row(q, n, ((q, n), theta) in TABLE6_TRUE, out.found, "holds",
                             theta=theta, pairs_tried=out.pairs_tried))
    elif target == "thm11-spot":
        rows = [_pair_row(q, n, 2, 2, expected, ceiling) for q, n, expected in THM11_SPOTS]
    else:
        raise ValueError(f"unknown reproduce target {target!r}")
    return {"rows": rows, "ok": all(row["match"] for row in rows)}


# -- commands -----------------------------------------------------------------------

_COMMANDS: list = []  # (name, add_parser options, arguments, handler), in help order


def _arg(*flags, **options) -> tuple:
    return flags, options


def _command(name: str, *arguments: tuple, **parser_options):
    """Define subcommand name by its arguments (_arg pairs) and the handler
    this decorates, which returns (result, field context or None, holds)."""
    def define(handler):
        _COMMANDS.append((name, parser_options, arguments, handler))
        return handler
    return define


_FIELD = _arg("--field", required=True)
_ELEM = _arg("--elem", required=True)
_Q = _arg("--q", type=int, required=True)
_N = _arg("--n", type=int, required=True)
_R = _arg("--r", type=int, default=1)
_K = _arg("--k", type=int, default=1)


@_command("factor-int", _arg("N", type=int), help="certified factorization of N")
def _factor_int(args):
    fact = factor_int(args.N)
    return {"value": fact.value, "factors": [[p, e] for p, e in fact.factors]}, None, True


@_command("factor-poly", _FIELD, _arg("--xn1", action="store_true", help="factor x^n - 1"),
          _arg("--poly", help="coefficients, constant first"), help="factor a polynomial over F_q")
def _factor_poly(args):
    ctx = parse_field_spec(args.field)
    if args.xn1 == (args.poly is not None):
        raise ValueError("factor-poly needs exactly one of --xn1 / --poly")
    poly = xn1(ctx) if args.xn1 else parse_poly(ctx.fq, args.poly)
    fact = factor_poly(poly)
    return {"poly": poly, "unit": fact.unit, "factors": [[f, e] for f, e in fact.factors]}, ctx, True


@_command("order", _FIELD, _ELEM)
def _order(args):
    a = parse_element(parse_field_spec(args.field), args.elem)
    return {"order": mult_order(a)}, a.ctx, True


@_command("fq-order", _FIELD, _ELEM)
def _fq_order(args):
    a = parse_element(parse_field_spec(args.field), args.elem)
    return {"fq_order": fq_order(a)}, a.ctx, True


@_command("knormal", _FIELD, _arg("--elem"), _arg("--census", type=int, metavar="K"))
def _knormal(args):
    ctx = parse_field_spec(args.field)
    if (args.elem is None) == (args.census is None):
        raise ValueError("knormal needs exactly one of --elem / --census")
    if args.elem is not None:
        return {"k": k_normality(parse_element(ctx, args.elem))}, ctx, True
    return {"k": args.census, "count": search.census(ctx.q, ctx.n, "knormal", args.census)}, ctx, True


@_command("bound", _Q, _N, _R, _K, _arg("--form", choices=("eq9", "eq10"), default="eq10"),
          _arg("--theta", choices=("auto", "2", "3"), default="auto"))
def _bound(args):
    form = "eq9_exact" if args.form == "eq9" else "eq10_simplified"
    theta_mult = None if args.theta == "auto" else int(args.theta)
    verdict = bounds.basic_inequality(args.q, args.n, args.r, args.k, form=form, theta_mult=theta_mult)
    return {"verdict": verdict, "holds": verdict.holds}, None, verdict.holds


@_command("sieve", _Q, _N, _arg("--theta", type=int, required=True, choices=(2, 3)))
def _sieve(args):
    out = bounds.test_sieve(args.q, args.n, args.theta)
    return {"holds": out.found, "pairs_tried": out.pairs_tried, "report": out.report}, None, out.found


@_command("lemma54", _Q, _N, _arg("--d-expr", required=True), _arg("--n0", type=int, required=True),
          _arg("--theta", type=int, default=2, choices=(2, 3)))
def _lemma54(args):
    d = parse_d_expr(args.d_expr, args.q, args.n)
    rep = bounds.lemma54_eval(args.q, args.n, d, args.n0, args.theta)
    return {"holds": rep.verdict.holds, "report": rep, "d": d}, None, rep.verdict.holds


@_command("direct-search", _Q, _N)
def _direct_search(args):
    out = search.direct_search(args.q, args.n, ceiling_bits=args.ceiling)
    return out, field_for(args.q, args.n), out.found


@_command("search-pair", _Q, _N, _R, _K)
def _search_pair(args):
    out = search.search_pair(args.q, args.n, args.r, args.k, ceiling_bits=args.ceiling)
    return out, field_for(args.q, args.n), out.found


@_command("reproduce", _arg("--target", required=True, choices=REPRODUCE_TARGETS))
def _reproduce(args):
    result = run_reproduce(args.target, args.ceiling)
    return result, None, result["ok"]


def _bits(text: str) -> int:
    """--ceiling's type: an int >= 0; argparse names the option in the error."""
    try:
        bits = int(text)
    except ValueError:
        bits = -1
    if bits < 0:
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return bits


def build_parser() -> argparse.ArgumentParser:
    # knpair --help shows the module docstring up to its notes on commands
    top = argparse.ArgumentParser(prog="knpair", description=__doc__.partition("\nCommands.")[0])
    top.add_argument("--hints", metavar="FILE", help="factorization hints file")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--ceiling", type=_bits, default=search.ENUM_CEILING_BITS_DEFAULT,
                     metavar="BITS", help="enumeration ceiling, log2 of field size")
    sub = top.add_subparsers(dest="command", required=True)
    for name, parser_options, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, **parser_options)
        own = [p.add_argument(*flags, **options).dest for flags, options in arguments]
        p.set_defaults(handler=handler, own=own)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with factor_hints(load_hints(args.hints) if args.hints else {}) as used:
            t0 = time.perf_counter()
            result, ctx, holds = args.handler(args)
    except KnpairError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {dest: getattr(args, dest) for dest in args.own if getattr(args, dest) is not None}
    report = make_report(args.command, inputs, result, t0, ctx=ctx)
    report["provenance"]["hints_applied"] = len(used)
    emit(report, args.format)
    return 0 if holds else 3


if __name__ == "__main__":
    sys.exit(main())
