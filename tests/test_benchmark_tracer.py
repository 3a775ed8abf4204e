"""The benchmark's per-layer tracer still finds every name it wraps.

``benchmarks/tracer.py`` wraps knpair functions by name from outside the
program, so renaming one of them breaks traced benchmark runs.  The tracer
is loaded from its source without writing anything under ``benchmarks/``.
"""

import types
from pathlib import Path

import knpair
import knpair.characters as characters
import knpair.cli  # noqa: F401  (the bounds workload traces the CLI)

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    mod = types.ModuleType("benchmark_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def _namespaces() -> dict:
    return {name: dict(vars(mod)) for name, mod in vars(knpair).items()
            if isinstance(mod, types.ModuleType) and mod.__name__.startswith("knpair.")}


def test_tracer_installs_and_restores():
    tracer_mod = _load_tracer()
    orig_table = characters._CharTables.__dict__["add_order_table"]
    orig_init = characters._CharTables.__dict__["__init__"]
    orig_rho = characters.rho_e
    before = _namespaces()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert characters.rho_e is not orig_rho
        assert characters._CharTables.__dict__["add_order_table"] is not orig_table
    finally:
        tracer.uninstall()
    assert characters._CharTables.__dict__["add_order_table"] is orig_table
    assert characters._CharTables.__dict__["__init__"] is orig_init
    assert characters.rho_e is orig_rho
    assert _namespaces() == before
