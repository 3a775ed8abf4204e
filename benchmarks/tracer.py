"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps knpair's public functions from outside the program.  A
wrapper is installed wherever its name is looked up at call time: on the
class for methods (``FieldCtx._mul``), and in every ``knpair`` module that
holds a reference to the function (``from .ffield import field_for`` binds a
second name in each importing module).

Every wrapped call takes part in self-time accounting: a layer's self time
is its own duration minus the time of the wrapped calls it made.  Calls into
the per-element layers (element ops, gcd, factorization, predicates) number
in the millions, so they are only aggregated; calls into the coarse layers
are also kept as spans ``(id, name, start, end, parent, query)`` in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (metric prefix, module, owner class or None, attribute, keep spans)
# Per-element layers are aggregated only; the coarse ones also keep a span per call.
TARGETS = (
    ("ffield.make_field", "knpair.ffield", None, "make_field", True),
    ("ffield.field_for", "knpair.ffield", None, "field_for", True),
    ("ffield.mul", "knpair.ffield", "FieldCtx", "_mul", False),
    ("ffield.inv", "knpair.ffield", "FieldCtx", "_inv", False),
    ("ffield.pow", "knpair.ffield", "FieldCtx", "_pow", False),
    ("ffield.frob", "knpair.ffield", "FieldCtx", "_frob", False),
    ("ffield.mult_order", "knpair.ffield", None, "mult_order", False),
    ("ffield.find_primitive", "knpair.ffield", None, "find_primitive", True),
    ("fqpoly.factor_poly", "knpair.fqpoly", None, "factor_poly", False),
    ("fqpoly.gcd", "knpair._polyops", None, "gcd", False),
    ("fqpoly.divisors_of", "knpair.fqpoly", None, "divisors_of", False),
    ("intarith.factor_int", "knpair.intarith", None, "factor_int", False),
    ("intarith.is_prime", "knpair.intarith", None, "is_prime", False),
    ("modstruct.fq_order", "knpair.modstruct", None, "fq_order", False),
    ("modstruct.m_gcd_degree", "knpair.modstruct", None, "m_gcd_degree", False),
    ("modstruct.decompose", "knpair.modstruct", None, "decompose_r", False),
    ("modstruct.decompose", "knpair.modstruct", None, "decompose_g", False),
    ("characters.char_tables.build", "knpair.characters", "_CharTables", "__init__", True),
    ("characters.char_tables.build", "knpair.characters", "_CharTables", "add_order_table", True),
    ("characters.charfun", "knpair.characters", None, "rho_e", False),
    ("characters.charfun", "knpair.characters", None, "upsilon_g", False),
    ("characters.charfun", "knpair.characters", None, "psi_set", False),
    ("characters.charfun", "knpair.characters", None, "gamma_rd", False),
    ("characters.charfun", "knpair.characters", None, "q_gH", False),
    ("search.search_pair", "knpair.search", None, "search_pair", True),
    ("search.direct_search", "knpair.search", None, "direct_search", True),
    ("search.scan_tables.build", "knpair.search", "_ScanTables", "__init__", True),
    ("search.count", "knpair.search", None, "count_N", True),
    ("search.count", "knpair.search", None, "pair_profile", True),
    ("search.count", "knpair.search", None, "count_from_profile", True),
    ("search.count", "knpair.search", None, "census", True),
    ("bounds", "knpair.bounds", None, "basic_inequality", True),
    ("bounds", "knpair.bounds", None, "test_sieve", True),
    ("bounds", "knpair.bounds", None, "lemma54_eval", True),
    ("bounds", "knpair.bounds", None, "sieve_terms", True),
    ("bounds", "knpair.bounds", None, "asymptotic_threshold", True),
    ("bounds", "knpair.bounds", None, "rho_ratio", True),
    ("cli.main", "knpair.cli", None, "main", True),
    ("cli.emit", "knpair.cli", None, "emit", True),
)


class Layer:
    """Aggregates of one layer: calls, total time and self time."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder and per-layer aggregates for one process."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple | None] = []  # None while the span is open
        self.query = -1  # index of the query being served; spans carry it
        self.scanned = 0
        self.searches = 0
        self.found = 0
        self.factor_inputs: set = set()
        self._child_time = [0.0]  # one accumulator per open call, outermost first
        self._span_ids = [-1]  # innermost open span that is kept
        self._installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------
    def _enter(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, t0: float, keep: bool, parent: int) -> None:
        t1 = time.perf_counter()
        dur = t1 - t0
        child = self._child_time.pop()
        self._child_time[-1] += dur
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        layer.calls += 1
        layer.total_s += dur
        layer.self_s += dur - child
        if keep:
            sid = self._span_ids.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, self.query)

    def _open_span(self) -> int:
        """Reserve a kept span; returns the id of its parent (-1 for none)."""
        parent = self._span_ids[-1]
        self._span_ids.append(len(self.spans))
        self.spans.append(None)
        return parent

    @contextmanager
    def span(self, name: str, query: int = -1):
        """A kept span opened by the benchmark itself (setup, one query).

        ``query`` is the index of the query it serves; the spans opened
        inside it carry that index.
        """
        self.query = query
        parent = self._open_span()
        t0 = self._enter()
        try:
            yield
        finally:
            self._leave(name, t0, True, parent)

    # -- wrappers ----------------------------------------------------------------
    def _wrap(self, name: str, fn, keep: bool):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open_span() if keep else -1
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, t0, keep, parent)
            if observe is not None:
                observe(tracer, args, out)
            return out
        return wrapper

    def _wrapper_for(self, name: str, fn, keep: bool, attr: str):
        wrapper = self._wrap(name, fn, keep)
        built = _BUILT_ONCE.get(attr)
        if built is None:
            return wrapper

        @functools.wraps(fn)
        def when_building(obj, *args, **kwargs):
            return fn(obj, *args, **kwargs) if built(obj) else wrapper(obj, *args, **kwargs)
        return when_building

    def install(self) -> None:
        """Install every wrapper; knpair must already be imported."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "knpair" or name.startswith("knpair."))}
        for metric, modname, owner, attr, keep in TARGETS:
            mod = mods.get(modname)
            if mod is None:  # not imported by this workload, so never called
                continue
            if owner is not None:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                self._installed.append((cls, attr, orig))
                setattr(cls, attr, self._wrapper_for(metric, orig, keep, attr))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrapper_for(metric, orig, keep, attr)
            for holder in mods.values():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._installed.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._installed):
            setattr(holder, key, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------------
    def _layer(self, name: str) -> Layer:
        return self.layers.get(name) or Layer()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this process, by name (see README.md)."""
        out: dict[str, float] = {}
        for prefix in ("ffield.make_field", "ffield.mul", "ffield.inv", "ffield.pow", "ffield.frob",
                       "fqpoly.factor_poly", "fqpoly.gcd", "intarith.factor_int", "intarith.is_prime",
                       "modstruct.fq_order", "modstruct.m_gcd_degree", "characters.charfun", "bounds",
                       "cli.main"):
            layer = self._layer(prefix)
            out[f"{prefix}.calls"] = layer.calls
            out[f"{prefix}.self_s"] = layer.self_s
        for prefix in ("ffield.mult_order", "ffield.find_primitive", "fqpoly.divisors_of",
                       "modstruct.decompose", "search.search_pair", "search.direct_search",
                       "search.count", "cli.emit"):
            out[f"{prefix}.self_s"] = self._layer(prefix).self_s
        for prefix in ("characters.char_tables", "search.scan_tables"):
            out[f"{prefix}.build_s"] = self._layer(f"{prefix}.build").total_s
        calls = self._layer("fqpoly.factor_poly").calls
        out["fqpoly.factor_poly.distinct_ratio"] = len(self.factor_inputs) / calls if calls else 0.0
        scan_time = self._layer("search.search_pair").total_s + self._layer("search.direct_search").total_s
        out["search.scanned"] = self.scanned
        out["search.scan_rate"] = self.scanned / scan_time if scan_time else 0.0
        out["search.found_ratio"] = self.found / self.searches if self.searches else 0.0
        return out


def _observe_search(tracer: Tracer, args, out) -> None:
    tracer.searches += 1
    tracer.scanned += out.scanned
    tracer.found += bool(out.found)


def _observe_factor(tracer: Tracer, args, out) -> None:
    f = args[0]
    tracer.factor_inputs.add((f.fq.p, f.fq.t, f.fq.modulus, f.coeffs))


# Lazy per-field tables: the getter runs on every character sum, but only its
# first call per context builds.
_BUILT_ONCE = {"add_order_table": lambda tables: tables._order_table is not None}

_OBSERVERS = {
    "search.search_pair": _observe_search,
    "search.direct_search": _observe_search,
    "fqpoly.factor_poly": _observe_factor,
}


def deterministic_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between runs with the same seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in ("search.scanned", "fqpoly.factor_poly.distinct_ratio")}
