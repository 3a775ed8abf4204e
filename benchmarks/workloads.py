"""The benchmark's workloads, as importable functions.

A workload turns a seed into a plan: the fields it touches and an ordered
list of queries, drawn from the fixed pools in ``queries.json``.  Only the
drawn inputs reach knpair.  ``setup`` pays what every CLI invocation pays
before it touches an element, ``serve`` answers the queries one at a time
through ``execute`` (knpair's public functions), and ``check`` compares an
answer with the verified one stored in the pool.  A tracer attaches to a
run through the ``span`` argument of ``setup`` and ``serve``::

    plan = draw("scan", 1)
    state = State()
    setup(plan, state)
    served = serve(plan, state)
    problems = [check(q, a) for q, a in zip(plan.queries, served.answers)]

The seed draws half of every pool (``_balanced_draw``) so that each seed
gives a plan of about the same total cost.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOLS_FILE = BENCH_DIR / "queries.json"
WORKLOADS = ("scan", "count", "bounds", "charfun")
CHARFUN_TOLERANCE = 1e-6
# characteristic functions evaluated over the nonzero elements only
NONZERO_ONLY = ("rho_e", "gamma_rd", "q_gH")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple
    fields: tuple  # (q, n) of every field the query builds through field_for
    answer: object = None

    @property
    def key(self) -> str:
        return json.dumps([self.kind, list(self.args)], separators=(",", ":"))


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    queries: tuple[Query, ...]

    @property
    def modules(self) -> tuple[str, ...]:
        """The knpair modules a process imports before it serves this plan."""
        cli = any(query.kind == "cli" for query in self.queries)
        return ("knpair", "knpair.cli") if cli else ("knpair",)

    @property
    def fields(self) -> tuple[tuple[int, int], ...]:
        seen: dict[tuple[int, int], None] = {}
        for query in self.queries:
            for qn in query.fields:
                seen[tuple(qn)] = None
        return tuple(seen)


@dataclass
class State:
    """What the queries of one plan share inside one process."""

    contexts: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)


def load_pools() -> dict:
    with open(POOLS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def query_of(entry: dict) -> Query:
    """The query of one pool entry of queries.json."""
    return Query(entry["kind"], tuple(_freeze(a) for a in entry["args"]),
                 tuple(tuple(f) for f in entry["fields"]), entry.get("answer"))


def _freeze(value):
    return tuple(_freeze(v) for v in value) if isinstance(value, list) else value


def _balanced_draw(rng: random.Random, entries: list[dict]) -> list[dict]:
    """Half of a pool, at nearly the same cost for every seed.

    Entries are ranked by recorded cost, most expensive first, and taken four
    at a time: a >= b >= c >= d gives either a and d or b and c, whose costs
    sum to nearly the same.  Two or three left over give one of the first two,
    plus the third if there is one.
    """
    ranked = sorted(entries, key=lambda e: (-e["cost_s"], json.dumps(e["args"])))
    full = len(ranked) - len(ranked) % 4
    picked = []
    for i in range(0, full, 4):
        a, b, c, d = ranked[i:i + 4]
        picked += rng.choice(((a, d), (b, c)))
    rest = ranked[full:]
    if len(rest) >= 2:
        picked.append(rng.choice(rest[:2]))
    if len(rest) % 2:
        picked.append(rest[-1])
    return picked


def draw(workload: str, seed: int) -> Plan:
    """The plan for one workload and seed; the same seed gives the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pools = load_pools()
    rng = random.Random(f"{workload}:{seed}")
    entries = pools[workload]["entries"]
    by_pool: dict[str, list[dict]] = {}
    for entry in entries:
        by_pool.setdefault(entry["pool"], []).append(entry)
    chosen: list[dict] = []
    for name, group in by_pool.items():
        if name == "fixed":
            chosen.extend(group)
        elif name != "recorded":
            chosen.extend(_balanced_draw(rng, group))
    keys = {json.dumps(e["args"]) for e in chosen}
    # a count_from_profile query runs only after the pair_profile it reads
    chosen = [e for e in chosen if "after" not in e or json.dumps(e["after"]) in keys]
    if pools[workload]["order"] == "shuffle":
        rng.shuffle(chosen)
    else:  # "by_field": fields in seeded order, pool order within a field
        fields = sorted({tuple(e["fields"][0]) for e in chosen})
        rng.shuffle(fields)
        rank = {f: i for i, f in enumerate(fields)}
        position = {id(e): i for i, e in enumerate(entries)}
        chosen.sort(key=lambda e: (rank[tuple(e["fields"][0])], position[id(e)]))
    return Plan(workload, seed, tuple(query_of(e) for e in chosen))


# -- running a plan -------------------------------------------------------------

def no_span(name: str, query: int = -1):
    """The span factory of an untraced run: records nothing."""
    return contextlib.nullcontext()


@dataclass
class Served:
    """The outcome of serving a plan, one entry per query in plan order."""

    answers: list = field(default_factory=list)  # None where the query raised
    errors: dict = field(default_factory=dict)  # query index -> what it raised


def no_pause() -> None:
    """The ``between`` callback of a run that times no calibration pieces."""


def setup(plan: Plan, state: State, span=no_span, between=no_pause) -> None:
    """For each field of the plan: its context, q^n - 1 and x^n - 1 factored.

    ``between()`` is called before each field and after the last, as in ``serve``.
    """
    import knpair

    with span("setup"):
        for q, n in plan.fields:
            between()
            ctx = knpair.ffield.field_for(q, n)
            ctx.fact_qn_minus_1
            knpair.modstruct.xn1_factorization(ctx)
            state.contexts[(q, n)] = ctx
        between()


def serve(plan: Plan, state: State, span=no_span, between=no_pause) -> Served:
    """Answer the plan's queries one at a time: a closed loop with one client.

    ``span(name, query_index)`` is entered around each query.  ``between()``
    is called before each query and after the last; child.py times the
    host's speed there.  A query that raises is recorded and counts as
    failed; the next one still runs.
    """
    out = Served()
    for i, query in enumerate(plan.queries):
        between()
        try:
            with span(f"query.{query.kind}", i):
                out.answers.append(execute(query, state))
        except Exception as exc:  # counts against error_rate
            out.answers.append(None)
            out.errors[i] = f"{query.key}: {type(exc).__name__}: {exc}"
    between()
    return out


def _ctx(state: State, q: int, n: int):
    import knpair

    ctx = state.contexts.get((q, n))
    if ctx is None:
        ctx = state.contexts[(q, n)] = knpair.ffield.field_for(q, n)
    return ctx


def _poly(ctx, coeffs):
    import knpair

    return knpair.fqpoly.PolyQ(ctx.fq, coeffs)


def execute(query: Query, state: State):
    """Answer one query through knpair's public functions."""
    import knpair

    kind, a = query.kind, query.args
    if kind == "search_pair":
        out = knpair.search.search_pair(*a)
        return {"found": out.found, "witness": out.witness.code() if out.witness else None}
    if kind == "direct_search":
        out = knpair.search.direct_search(*a)
        return {"found": out.found, "witness": out.witness.code() if out.witness else None}
    if kind == "census":
        q, n, what, arg = a
        res = knpair.search.census(q, n, what, arg)
        if isinstance(res, dict):
            return sorted([list(k.coeffs) if hasattr(k, "coeffs") else k, v] for k, v in res.items())
        return res
    if kind == "count_N":
        q, n, r, k, g, h, d, H = a
        ctx = _ctx(state, q, n)
        return knpair.search.count_N(q, n, r, k, _poly(ctx, g), _poly(ctx, h), d, _poly(ctx, H))
    if kind == "pair_profile":
        q, n, g = a
        ctx = _ctx(state, q, n)
        hist = knpair.search.pair_profile(ctx, _poly(ctx, g))
        state.profiles[(q, n, g)] = hist
        return _profile_digest(hist)
    if kind == "count_from_profile":
        q, n, g, r, h, d, H = a
        ctx = _ctx(state, q, n)
        hist = state.profiles[(q, n, g)]
        return knpair.search.count_from_profile(ctx, _poly(ctx, g), hist, r, _poly(ctx, h), d, _poly(ctx, H))
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = knpair.cli.main(list(a))
        return _cli_digest(list(a), code, buf.getvalue())
    if kind == "charfun":
        return _charfun_values(query, state)
    raise ValueError(f"unknown query kind {kind!r}")


def _profile_digest(hist: dict) -> dict:
    items = sorted([list(k), v] for k, v in hist.items())
    blob = json.dumps(items, separators=(",", ":")).encode()
    return {"keys": len(items), "total": sum(hist.values()), "sha256": hashlib.sha256(blob).hexdigest()}


def _verdict(report) -> list:
    verdict = report["verdict"] if report else None
    return [verdict["lhs"], verdict["rhs"]] if verdict else [None, None]


def _cli_digest(argv: list[str], code: int, text: str) -> dict:
    """The exact parts of a CLI report: exit code, verdicts and lhs/rhs."""
    result = json.loads(text)["result"]
    cmd = argv[0]
    out = {"exit": code}
    if cmd == "bound":
        out.update(holds=result["holds"], lhs_rhs=_verdict(result))
    elif cmd == "sieve":
        out.update(holds=result["holds"], pairs_tried=result["pairs_tried"], lhs_rhs=_verdict(result["report"]))
    elif cmd == "lemma54":
        out.update(holds=result["holds"], d=result["d"], lhs_rhs=_verdict(result["report"]))
    elif cmd == "reproduce":
        keep = ("holds", "lhs", "rhs", "pairs_tried", "match")
        out.update(ok=result["ok"], rows=[{k: row[k] for k in keep if k in row} for row in result["rows"]])
    return out


def _elements(state: State, ctx, nonzero: bool):
    key = (ctx.q, ctx.n)
    els = state.elements.get(key)
    if els is None:
        els = state.elements[key] = [ctx.from_code(c) for c in range(ctx.order)]
    return els[1:] if nonzero else els


def charfun_args(query: Query, state: State):
    """(ctx, function name, elements, extra arguments) of a charfun query."""
    import knpair

    q, n, fn, arg = query.args
    ctx = _ctx(state, q, n)
    els = _elements(state, ctx, fn in NONZERO_ONLY)
    if fn == "rho_e":
        return ctx, fn, els, (arg,)
    if fn in ("upsilon_g", "psi_set"):
        return ctx, fn, els, (_poly(ctx, arg),)
    if fn == "gamma_rd":
        r, d = arg
        return ctx, fn, els, (knpair.modstruct.decompose_r(r, ctx), d)
    if fn == "q_gH":
        g, H = arg
        gd = knpair.modstruct.decompose_g(_poly(ctx, g), ctx)
        return ctx, fn, els, (gd, _poly(ctx, H))
    raise ValueError(f"unknown characteristic function {fn!r}")


def _charfun_values(query: Query, state: State) -> list[complex]:
    import knpair

    _, fn, els, extra = charfun_args(query, state)
    func = getattr(knpair.characters, fn)
    return [func(a, *extra) for a in els]


def pack_indicators(bits: list[int]) -> str:
    """0/1 values, element code order, as hex (bit i is element i)."""
    return format(sum(b << i for i, b in enumerate(bits)), "x")


def unpack_indicators(text: str, count: int) -> list[int]:
    value = int(text, 16)
    return [(value >> i) & 1 for i in range(count)]


def check(query: Query, answer) -> str | None:
    """None when the answer is right, else a one-line description."""
    if query.kind == "charfun":
        q, n, fn, _ = query.args
        count = q**n - (fn in NONZERO_ONLY)
        if len(answer) != count:
            return f"{query.key}: {len(answer)} values, want one per element, {count}"
        want = unpack_indicators(query.answer, count)
        bad = sum(1 for v, w in zip(answer, want)
                  if abs(v - w) >= CHARFUN_TOLERANCE or round(v.real) != w)
        if bad:
            return f"{query.key}: {bad} of {len(want)} values differ from the direct predicates"
        return None
    got = json.loads(json.dumps(answer))
    if got != query.answer:
        return f"{query.key}: got {json.dumps(got)[:200]}, want {json.dumps(query.answer)[:200]}"
    return None
