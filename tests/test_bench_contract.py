"""The names the benchmark in `bench/` uses from the package.

`bench/test_bench.py` runs every workload and is too slow for tier-1; this
guard only loads `bench/tracing.py` and `bench/workloads.py`, so a change
that deletes or renames a name the benchmark relies on fails here.
"""

import importlib.util
from pathlib import Path

from fgdict import fg_ast, fg_parser, gen, relate, tl_ast, translate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_every_boundary_and_restores_it():
    tracing = _load("tracing")
    before = [getattr(module, attr) for module, attr, *_ in tracing.BOUNDARIES]
    rec = tracing.Recorder()
    try:
        rec.install()
        during = [getattr(module, attr) for module, attr, *_ in tracing.BOUNDARIES]
    finally:
        rec.uninstall()
    after = [getattr(module, attr) for module, attr, *_ in tracing.BOUNDARIES]
    assert all(w is not b for w, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_names_the_workloads_call_exist():
    for module, name in [
        (fg_ast, "require_wellformed"),
        (fg_ast, "program_exprs"),
        (fg_parser, "print_expr"),
        (relate, "verdict_json"),
        (translate, "require_translation"),
        (tl_ast, "print_program"),
        (tl_ast, "parse_program"),
        (tl_ast, "validate_program"),
    ]:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_compile_workload_config_builds():
    workloads = _load("workloads")
    gen.GenConfig(seed=0, **workloads.COMPILE_CONFIG)
