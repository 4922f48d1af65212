"""The names the benchmark in `bench/` uses from the package, and the
shapes of the calls it makes.

`bench/test_bench.py` runs every workload and is too slow for tier-1; this
guard only loads `bench/tracing.py` and `bench/workloads.py` and reads the
calls in the latter, so a change that deletes or renames a name the
benchmark relies on, or a parameter that one of its calls passes, fails
here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from fgdict import gen, relate

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


def _package_calls(path):
    """(module, name, positional count, keyword names, line) of each call
    `module.name(...)` in `path` on a module it imports `from fgdict`,
    except calls that pass `*` or `**` arguments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"fgdict.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fgdict"
               for alias in node.names}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            continue
        yield (modules[node.func.value.id], node.func.attr, len(node.args),
               tuple(k.arg for k in node.keywords), node.lineno)


def test_names_the_workloads_call_exist():
    """Each call binds to the signature of the function it names."""
    shapes = set()
    for module, name, n_args, keywords, line in _package_calls(BENCH / "workloads.py"):
        assert hasattr(module, name), f"workloads.py:{line}: {module.__name__}.{name}"
        signature = inspect.signature(getattr(module, name))
        try:
            signature.bind(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as e:
            raise AssertionError(f"workloads.py:{line}: {module.__name__}.{name}: {e}") from e
        shapes.add((module.__name__, name, n_args, keywords))
    assert {("fgdict.relate", "diff_run", 1, ("fuel", "rel_fuel")),
            ("fgdict.relate", "diff_run", 1, ()),
            ("fgdict.relate", "verdict_json", 4, ("seed",))} <= shapes
    assert type(relate.DEFAULT_RELATION_FUEL) is int


def test_compile_workload_config_builds():
    workloads = _load("workloads")
    gen.GenConfig(seed=0, **workloads.COMPILE_CONFIG)
