import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import knpair
from knpair import cli, ffield
from knpair.cli import load_hints, main, parse_d_expr, verify_report
from knpair.fqpoly import PolyQ, factor_poly, format_poly
from knpair.modstruct import xn1_factorization


REPORTS = Path(__file__).with_name("cli_reports.json")
# one cheap invocation of each command, a search and a reproduce as CSV, the
# help and two errors; tests/cli_reports.json holds what each prints, its timing removed,
# and its exit code (rewrite it with: PYTHONPATH=src python tests/test_cli.py)
REPORT_ARGVS = [
    ["factor-int", "1023"],
    ["factor-poly", "--field", "2^1:3", "--xn1"],
    ["factor-poly", "--field", "4:5", "--poly", "1,0,1"],
    ["order", "--field", "2^1:3", "--elem", "0,1,0"],
    ["fq-order", "--field", "2^1:3", "--elem", "1,0,0"],
    ["knormal", "--field", "2^1:3", "--census", "1"],
    ["knormal", "--field", "2^1:3", "--elem", "1,1,0"],
    ["bound", "--q", "4", "--n", "14", "--theta", "3"],
    ["sieve", "--q", "8", "--n", "14", "--theta", "3"],
    ["lemma54", "--q", "65", "--n", "7", "--d-expr", "q-1", "--n0", "7"],
    ["direct-search", "--q", "3", "--n", "5"],
    ["search-pair", "--q", "2", "--n", "5"],
    ["reproduce", "--target", "table3-spot"],
    ["--format", "csv", "search-pair", "--q", "4", "--n", "5"],
    ["--format", "csv", "reproduce", "--target", "table6-spot"],
    ["--help"],
    ["bound", "--help"],
    ["order", "--field", "2^1:3", "--elem", "0,0,0"],  # exit 4, no report
    ["frobnicate"],  # exit 2, no report
]


def run_stripped(argv):
    """Exit code and stdout of one invocation, with the report's timing removed."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, re.sub(r',\n  "timing": \{\n    "seconds": [^\n]*\n  \}', "", buf.getvalue())


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    out = buf.getvalue()
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_factor_int_roundtrip():
    code, rep = run_cli("factor-int", "1023")
    assert code == 0
    assert rep["result"]["factors"] == [[3, 1], [11, 1], [31, 1]]
    assert rep["provenance"]["schema"] == 1


def test_factor_poly_xn1():
    code, rep = run_cli("factor-poly", "--field", "2^1:3", "--xn1")
    assert code == 0
    assert rep["result"]["factors"] == [["1,1", 1], ["1,1,1", 1]]


def test_order_and_fq_order():
    code, rep = run_cli("order", "--field", "2^1:3", "--elem", "0,1,0")
    assert code == 0 and rep["result"]["order"] == 7
    code, rep = run_cli("fq-order", "--field", "2^1:3", "--elem", "1,0,0")
    assert code == 0 and rep["result"]["fq_order"] == "1,1"


def test_knormal_census():
    code, rep = run_cli("knormal", "--field", "2^1:3", "--census", "1")
    assert code == 0 and rep["result"]["count"] == 3


def test_bound_exit_codes():
    code, rep = run_cli("bound", "--q", "4", "--n", "14", "--r", "1", "--k", "1")
    assert code == 3 and not rep["result"]["holds"]
    assert rep["result"]["verdict"]["lhs"] == 256
    code, rep = run_cli("bound", "--q", "7", "--n", "14", "--r", "1", "--k", "1")
    assert code == 0 and rep["result"]["holds"]


def test_bound_searches_moduli_once(monkeypatch):
    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    searched = []
    real = ffield._least_irreducible
    monkeypatch.setattr(ffield, "_least_irreducible", lambda fq, d: searched.append((fq.q, d)) or real(fq, d))
    code, rep = run_cli("bound", "--q", "16", "--n", "8")
    assert code in (0, 3) and "holds" in rep["result"]
    assert searched == [(2, 4), (16, 8)]  # base modulus, then extension modulus
    searched.clear()
    assert run_cli("bound", "--q", "16", "--n", "8", "--k", "2")[0] in (0, 3)
    assert searched == []  # a later question on the field searches nothing


def test_import_and_bound_leave_mpmath_unloaded():
    # only c_nu and asymptotic_threshold import mpmath, and no CLI command
    # reaches them; a fresh interpreter is needed to see sys.modules clean
    src = str(Path(knpair.__file__).resolve().parents[1])
    script = ("import sys, knpair, knpair.cli\n"
              "knpair.cli.main(['bound', '--q', '4', '--n', '14'])\n"
              "sys.exit(3 if 'mpmath' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr or "mpmath was imported"


def test_sieve_command():
    code, rep = run_cli("sieve", "--q", "8", "--n", "14", "--theta", "3")
    assert code == 3 and not rep["result"]["holds"]


def test_lemma54_command_and_d_expr():
    assert parse_d_expr("q-1", 65, 7) == 64
    assert parse_d_expr("q^4-1", 2, 8) == 15
    assert parse_d_expr("gcd(30,qn-1)", 7, 5) == 6
    assert parse_d_expr("12", 5, 4) == 12
    with pytest.raises(ValueError):
        parse_d_expr("q**3", 5, 4)
    code, rep = run_cli("lemma54", "--q", "65", "--n", "7", "--d-expr", "q-1", "--n0", "7")
    assert code == 0 and rep["result"]["holds"]


@pytest.mark.parametrize("n0", ["0", "-2"])
def test_lemma54_n0_below_one_exits_2(n0):
    # an n0 below 1 would never advance the prime walk; a fresh interpreter with a
    # timeout turns such a hang into a failure
    src = str(Path(knpair.__file__).resolve().parents[1])
    argv = ["lemma54", "--q", "65", "--n", "7", "--d-expr", "q-1", "--n0", n0]
    proc = subprocess.run([sys.executable, "-m", "knpair.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2 and "n0" in proc.stderr


def test_bound_near_full_degree_returns():
    # x^23 - 1 splits into 23 linear factors over F_47, and g is its first
    # degree-21 divisor in odometer order: the product of the first 21 factors.
    # The timeout turns a walk over dead branches into a failure.
    src = str(Path(knpair.__file__).resolve().parents[1])
    argv = ["bound", "--q", "47", "--n", "23", "--k", "21"]
    proc = subprocess.run([sys.executable, "-m", "knpair.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode in (0, 3), proc.stderr
    f = PolyQ.xn_minus_1(ffield.field_for(47, 1).fq, 23)
    first = PolyQ.one(f.fq)
    for g, _ in factor_poly(f).factors[:21]:
        first = first * g
    assert json.loads(proc.stdout)["result"]["verdict"]["inputs"]["g"] == format_poly(first)


def test_bound_reads_g_without_listing_P_k(monkeypatch):
    # P_11 of x^23 - 1 over F_47 has C(23, 11) = 1352078 members, beyond the
    # divisor ceiling, and the bound reads only the least of them, the product
    # of the first 11 of the 23 linear factors, in under a hundred products
    xn1_factorization(ffield.field_for(47, 23))  # memoised before products are counted
    real, made = PolyQ.__mul__, []

    def counted(f, g):
        made.append(1)
        assert len(made) <= 1000, "the bound lists P_k"
        return real(f, g)

    monkeypatch.setattr(PolyQ, "__mul__", counted)
    code, rep = run_cli("bound", "--q", "47", "--n", "23", "--k", "11")
    monkeypatch.undo()
    assert code in (0, 3)
    f = PolyQ.xn_minus_1(ffield.field_for(47, 1).fq, 23)
    first = PolyQ.one(f.fq)
    for g, _ in factor_poly(f).factors[:11]:
        first = first * g
    assert first.degree == 11
    assert rep["result"]["verdict"]["inputs"]["g"] == format_poly(first)


def test_bound_and_table3_factor_xn1_once_per_field(monkeypatch):
    # counted at every knpair module binding, as the benchmark's tracer counts
    # them; the contexts are fresh, so each x^n - 1 is factored inside the count
    import knpair.fqpoly as fqpoly

    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    real, factored = fqpoly.factor_poly, Counter()

    def counted(f):
        factored[f] += 1
        return real(f)

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "knpair" or modname.startswith("knpair.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, key, counted)
    assert run_cli("bound", "--q", "4", "--n", "14")[0] in (0, 3)
    assert run_cli("reproduce", "--target", "table3-spot")[0] == 0
    fields = [(4, 14), (5, 14), (8, 14), (4, 15), (5, 16), (7, 14), (5, 15)]
    assert factored == Counter(PolyQ.xn_minus_1(ffield.field_for(q, 1).fq, n) for q, n in fields)


def test_search_pair_exits():
    code, rep = run_cli("search-pair", "--q", "4", "--n", "5", "--r", "1", "--k", "1")
    assert code == 3 and not rep["result"]["found"]
    code, rep = run_cli("search-pair", "--q", "2", "--n", "5", "--r", "1", "--k", "1")
    assert code == 0 and rep["result"]["found"]
    assert verify_report(rep)


def test_search_pair_rejects_k_outside_0_n():
    for k in ("-1", "4"):
        code, out = run_cli("search-pair", "--q", "4", "--n", "3", "--r", "1", "--k", k)
        assert code == 2 and out == ""


def test_verify_report_rejects_tampered_witness():
    code, rep = run_cli("search-pair", "--q", "3", "--n", "4", "--r", "2", "--k", "1")
    assert code == 0 and verify_report(rep)
    ctx = ffield.field_for(3, 4)
    witness = ffield.parse_element(ctx, rep["result"]["witness"])
    for tampered in (ctx.from_code(witness.code() + 1), witness * witness, ctx.one()):
        rep["result"]["witness"] = ffield.format_element(tampered)
        assert not verify_report(rep)


def test_direct_search_witness_verifies():
    code, rep = run_cli("direct-search", "--q", "3", "--n", "5")
    assert code == 0
    assert rep["result"]["witness"]
    assert verify_report(rep)


def test_reproduce_spnbt():
    code, rep = run_cli("reproduce", "--target", "spnbt-exceptions")
    assert code == 0 and rep["result"]["ok"]
    rows = rep["result"]["rows"]
    assert len(rows) == 10
    not_found = {(r["q"], r["n"]) for r in rows if not r["found"]}
    assert not_found == {(2, 3), (2, 4), (3, 4), (4, 3), (5, 4)}


def test_reproduce_witnesses_verify_on_load():
    _, rep = run_cli("reproduce", "--target", "conjecture-exceptions")
    text = json.dumps(rep, sort_keys=True)
    assert verify_report(json.loads(text))


def test_csv_projection():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--format", "csv", "reproduce", "--target", "spnbt-exceptions"])
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 11  # header + 10 rows
    assert "found" in lines[0]


def test_hints_file(tmp_path):
    hp = tmp_path / "hints.txt"
    hp.write_text("# comment\n268435455 3 5 29 43 113 127\n")
    hints = load_hints(str(hp))
    assert hints[268435455] == ((3, 1), (5, 1), (29, 1), (43, 1), (113, 1), (127, 1))
    code, rep = run_cli("--hints", str(hp), "factor-int", "268435455")
    assert code == 0
    assert rep["provenance"]["hints_applied"] == 1


def test_bad_hints_exit_code(tmp_path):
    hp = tmp_path / "bad.txt"
    hp.write_text("15 3 6\n")  # 6 is not prime
    code, _ = run_cli("--hints", str(hp), "factor-int", "15")
    assert code == 4


def test_hints_last_one_invocation(tmp_path, monkeypatch):
    # a fresh cache, so this process has not factored 2^10 - 1 for the field yet
    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    hp = tmp_path / "bad.txt"
    hp.write_text("1023 3 11 33\n")  # 33 is not prime
    args = ("order", "--field", "2^1:10", "--elem", "0,1,0,0,0,0,0,0,0,0")
    assert run_cli("--hints", str(hp), *args)[0] == 4
    code, rep = run_cli(*args)  # the bad hint must not outlive its invocation
    assert code == 0 and 1023 % rep["result"]["order"] == 0
    assert rep["provenance"]["hints_applied"] == 0


def test_hints_applied_counts_hints_used(tmp_path):
    hp = tmp_path / "hints.txt"
    hp.write_text("268435455 3 5 29 43 113 127\n1023 3 11 31\n")
    code, rep = run_cli("--hints", str(hp), "factor-int", "1023")
    assert code == 0 and rep["result"]["factors"] == [[3, 1], [11, 1], [31, 1]]
    assert rep["provenance"]["hints_applied"] == 1


def test_bound_honours_hints(tmp_path, monkeypatch):
    # a fresh cache, so the command factors 2^28 - 1 for the field itself
    monkeypatch.setattr(ffield, "_CTX_CACHE", {})
    hp = tmp_path / "hints.txt"
    hp.write_text("268435455 3 5 29 43 113 127\n")
    code, rep = run_cli("--hints", str(hp), "bound", "--q", "2", "--n", "28")
    assert code in (0, 3) and "holds" in rep["result"]
    assert rep["provenance"]["hints_applied"] == 1


def test_hints_verified_on_load(tmp_path):
    # a wrong hint is an error even when the command never factors its value
    hp = tmp_path / "bad.txt"
    hp.write_text("15 3 6\n")
    code, _ = run_cli("--hints", str(hp), "factor-int", "1023")
    assert code == 4
    hp.write_text("268435455 3 5 29 43 113 129\n")  # 129 = 3 * 43
    assert run_cli("--hints", str(hp), "bound", "--q", "2", "--n", "28")[0] == 4


def test_usage_error_exit_code():
    code, _ = run_cli("knormal", "--field", "2^1:3")  # neither --elem nor --census
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["factor-poly", "--field", "4:5"], "exactly one of --xn1 / --poly"),
    (["factor-poly", "--field", "4:5", "--xn1", "--poly", "1,1"], "exactly one of --xn1 / --poly"),
    (["lemma54", "--q", "0", "--n", "3", "--d-expr", "1", "--n0", "3"], "q >= 2 and n >= 1"),
    (["lemma54", "--q", "-5", "--n", "3", "--d-expr", "1", "--n0", "3"], "q >= 2 and n >= 1"),
    (["lemma54", "--q", "5", "--n", "0", "--d-expr", "1", "--n0", "3"], "q >= 2 and n >= 1"),
    # exited 2 with "negative shift count", which names no option
    (["--ceiling", "-1", "search-pair", "--q", "4", "--n", "3"], "argument --ceiling: expected an int >= 0"),
    (["--ceiling", "x", "search-pair", "--q", "4", "--n", "3"], "argument --ceiling: expected an int >= 0"),
])
def test_usage_errors_exit_2_without_a_report(argv, message, capsys):
    # these ended in a traceback (exit 1), or in factor-poly's case ignored --poly
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_ceiling_zero_is_a_field_too_large_error(capsys):
    assert main(["--ceiling", "0", "search-pair", "--q", "4", "--n", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "field-too-large"


def test_parser_built_once_per_process(monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        # a report, a usage error, a computational error, and a report again
        for argv in (["factor-int", "15"], ["frobnicate"],
                     ["--ceiling", "0", "search-pair", "--q", "4", "--n", "3"], ["factor-int", "21"]):
            run_stripped(argv)
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_reproduce_table3_spot():
    code, rep = run_cli("reproduce", "--target", "table3-spot")
    assert code == 0 and rep["result"]["ok"]


def test_reproduce_table6_spot():
    code, rep = run_cli("reproduce", "--target", "table6-spot")
    assert code == 0 and rep["result"]["ok"]


def test_reproduce_t13():
    code, rep = run_cli("reproduce", "--target", "t13-exception")
    assert code == 0 and rep["result"]["ok"]
    assert verify_report(rep)


def test_reproduce_thm11_reports_mismatches_honestly():
    # ground truth disagrees with the found-expectations for (5,4) and (11,5);
    # the harness must flag the mismatches and exit nonzero, not mask them
    code, rep = run_cli("reproduce", "--target", "thm11-spot")
    assert code == 3 and not rep["result"]["ok"]
    by_pair = {(r["q"], r["n"]): r for r in rep["result"]["rows"]}
    assert by_pair[(3, 4)]["match"] and by_pair[(7, 5)]["match"]
    assert not by_pair[(5, 4)]["match"] and not by_pair[(11, 5)]["match"]


def test_verify_report_rejects_found_without_witness():
    code, rep = run_cli("search-pair", "--q", "3", "--n", "4", "--r", "2", "--k", "1")
    assert code == 0 and verify_report(rep)
    rep["result"]["witness"] = None
    assert not verify_report(rep)
    _, rep = run_cli("search-pair", "--q", "4", "--n", "5", "--r", "1", "--k", "1")
    assert verify_report(rep)  # not found, no witness: nothing to check
    rep["result"]["found"] = True
    assert not verify_report(rep)


def test_verify_report_confirms_not_found_with_the_table_engine():
    # census(3, 4, "pair_table", 2) has pairs at k = 1, so a search-pair report
    # that claims none there is refused
    code, rep = run_cli("search-pair", "--q", "3", "--n", "4", "--r", "2", "--k", "1")
    assert code == 0 and verify_report(rep)
    rep["result"].update(found=False, witness=None)
    assert not verify_report(rep)
    # the same claim in a reproduce row, and a direct-search row, which sweeps
    # only beta^q - beta and is never checked against the tables
    _, rep = run_cli("reproduce", "--target", "t13-exception")
    assert verify_report(rep)
    row = next(r for r in rep["result"]["rows"] if "algorithm" not in r)
    row.update(q=3, n=4, r=2, k=1)
    assert not verify_report(rep)
    row.update(algorithm="direct-search")
    assert verify_report(rep)


def test_verify_report_sizes_not_found_rows_before_building_a_field(monkeypatch):
    # a not-found row whose q is a large semiprime is refused at once, and a
    # prime power past the table ceiling passes unconfirmed; neither factors
    # q, builds a field or counts
    import time

    from knpair import search

    _, rep = run_cli(*SEARCH)
    assert verify_report(rep)

    def refuse(*args, **kwargs):
        raise AssertionError("factored q, built a field or counted")

    for module, name in [(cli, "factor_int"), (cli, "field_for"), (search, "field_for"),
                         (search, "census"), (ffield, "make_field")]:
        monkeypatch.setattr(module, name, refuse)
    semiprime = (10**19 + 51) * (10**19 + 273)
    start = time.perf_counter()
    rep["inputs"].update(q=semiprime, n=2)
    assert not verify_report(rep)
    assert not cli._table_confirms_not_found(semiprime, 2, 1, 1)
    assert time.perf_counter() - start < 1
    for q, n in [(2**61 - 1, 2), (3, 13), (2, 21), (1031, 2)]:
        rep["inputs"].update(q=q, n=n, r=1)
        assert verify_report(rep), (q, n)
    # r must still divide q^n - 1: 17 does not divide (2^61 - 1)^2 - 1
    assert ((2**61 - 1) ** 2 - 1) % 17
    assert not cli._table_confirms_not_found(2**61 - 1, 2, 17, 1)
    assert cli._table_confirms_not_found(2**61 - 1, 2, 3, 1)


def test_verify_report_rejects_table_row_found_without_witness():
    _, rep = run_cli("reproduce", "--target", "spnbt-exceptions")
    assert verify_report(rep)
    row = next(r for r in rep["result"]["rows"] if (r["q"], r["n"]) == (2, 3))
    assert not row["found"] and not row["witness"]
    row["found"] = True
    assert not verify_report(rep)


def _rows(rep):
    return rep["result"]["rows"]


SEARCH = ("search-pair", "--q", "4", "--n", "5")  # not found
FOUND = ("search-pair", "--q", "2", "--n", "5")
SPNBT = ("reproduce", "--target", "spnbt-exceptions")  # row 0 not found, row -1 found


@pytest.mark.parametrize("argv, tamper", [
    # these three raised instead of returning False
    (SEARCH, lambda rep: [rep["inputs"].pop(x) for x in ("q", "n")]),
    (SPNBT, lambda rep: _rows(rep)[0].update(k="a")),
    (SEARCH, lambda rep: rep.update(result=[rep["result"]])),
    (SPNBT, lambda rep: _rows(rep).append(1)),
    (SPNBT, lambda rep: rep["result"].update(rows={})),
    (SPNBT, lambda rep: rep.update(inputs=[])),
    (SPNBT, lambda rep: _rows(rep)[-1].update(r=1.0)),
    (SPNBT, lambda rep: _rows(rep)[0].update(q="2")),
    (SPNBT, lambda rep: _rows(rep)[-1]["field"].pop("t")),
    (SPNBT, lambda rep: _rows(rep)[-1].update(witness=[1, 0, 0, 0, 0])),
    (FOUND, lambda rep: rep.update(provenance=[rep["provenance"]])),
    # these three raised ValueError or NotPrime instead of returning False
    (FOUND, lambda rep: rep["result"].update(witness="1")),
    (FOUND, lambda rep: rep["provenance"]["field"].update(p=4)),
    (SPNBT, lambda rep: _rows(rep)[0].update(q=6)),
    (FOUND, lambda rep: rep["result"].update(witness="1,0,2,0,0")),
    (FOUND, lambda rep: rep["result"].update(witness="1,0,x,0,0")),
    (FOUND, lambda rep: rep["provenance"]["field"].update(t=0)),
    (SPNBT, lambda rep: _rows(rep)[0].update(n=0)),
], ids=["no-q-n", "k-not-int", "result-list", "row-not-dict", "rows-not-list", "inputs-not-dict",
        "r-float", "q-str", "field-without-t", "witness-not-str", "provenance-list",
        "witness-too-short", "p-not-prime", "q-not-prime-power", "digit-past-p", "digit-not-int", "t-zero",
        "n-zero"])
def test_verify_report_refuses_what_it_cannot_read(argv, tamper):
    _, rep = run_cli(*argv)
    assert verify_report(rep) and not verify_report([rep])
    tamper(rep)
    assert not verify_report(rep)


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=" ".join)
def test_report_bytes_match_fixture(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    code, out = run_stripped(argv)
    assert '"seconds"' not in out
    assert {"exit": code, "stdout": out} == json.loads(REPORTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    fixture = {" ".join(argv): dict(zip(("exit", "stdout"), run_stripped(argv))) for argv in REPORT_ARGVS}
    REPORTS.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
