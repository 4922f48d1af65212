"""Records: the frozen, slotted dataclasses every AST node, outcome, verdict
and diagnostic is, built through their slots."""

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import fgdict
from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.diagnostics import record
from fgdict.gen import GenConfig, gen_program
from fgdict.tl_ast import MethodVar, TLVar
from fgdict.translate import require_translation

MODULES = [importlib.import_module(f"fgdict.{m.name}")
           for m in pkgutil.iter_modules(fgdict.__path__)]


def _frozen_dataclasses(module):
    return [cls for _name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen]


def _is_record(cls):
    """Whether `cls` is slotted and its `__init__` stores each field through
    that field's member descriptor."""
    if "__slots__" not in vars(cls):
        return False
    setters = cls.__init__.__globals__
    return all(getattr(setters.get(f"_set_{f.name}"), "__self__", None) is vars(cls)[f.name]
               for f in dataclasses.fields(cls))


RECORDS = sorted((cls for m in MODULES for cls in _frozen_dataclasses(m) if _is_record(cls)),
                 key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _instance(cls, offset=0):
    """An instance of `cls` whose every field holds its own int."""
    return cls(*range(offset, offset + len(dataclasses.fields(cls))))


def test_every_frozen_dataclass_but_four_is_a_record():
    """So a new node class cannot quietly take the dataclass's slower
    `__init__`: every FG and TL node class but `Program` is a record."""
    plain = {f"{cls.__module__}.{cls.__qualname__}"
             for m in MODULES for cls in _frozen_dataclasses(m) if not _is_record(cls)}
    assert plain == {"fgdict.fg_ast.Program", "fgdict.gen._Checked",
                     "fgdict.diagnostics.SourceSpan", "fgdict.gen.GenConfig"}
    assert {fg.Var, fg.MethodDecl, tl.TLVar, tl.TLProgram} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_is_frozen_slotted_and_holds_its_arguments(cls):
    obj = _instance(cls)
    assert not hasattr(obj, "__dict__")
    for i, f in enumerate(dataclasses.fields(cls)):
        assert getattr(obj, f.name) == i
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, -1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
        assert getattr(obj, f.name) == i
    # A name that is no field is refused as a field is.
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del obj.extra
    assert _instance(cls) == obj and hash(_instance(cls)) == hash(obj)
    assert _instance(cls, 1) != obj
    assert dataclasses.replace(obj) == obj


def test_records_hold_no_class_that_slots_replaced():
    """`dataclass(slots=True)` builds each class twice.  No function or
    descriptor of a record refers to the first class, so it is freed."""
    for cls in RECORDS:
        for name, attr in vars(cls).items():
            held = [c.cell_contents for c in getattr(attr, "__closure__", None) or ()]
            held.append(getattr(attr, "__objclass__", cls))
            assert not [h for h in held if isinstance(h, type) and h is not cls
                        and h.__qualname__ == cls.__qualname__], (cls, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_keeps_its_signature_and_defaults(cls):
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    obj = cls(*range(len(required)))
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert getattr(obj, f.name) is f.default
    assert cls(**{f.name: i for i, f in enumerate(required)}) == obj
    with pytest.raises(TypeError):
        cls(*range(len(dataclasses.fields(cls)) + 1))


def test_nodes_of_different_classes_differ():
    assert TLVar("x") != MethodVar("x")
    assert fg.IntLit(1) != tl.TLInt(1)
    # Spans take no part in equality or hashing.
    a, b = fg.Var("x"), fg.Var("x", span=fg.SourceSpan("f", 0, 1, 1, 1))
    assert a == b and hash(a) == hash(b)


@pytest.fixture(scope="module")
def translated():
    prog = gen_program(GenConfig(seed=3, mode=fg.EXT))
    res = require_translation(prog, hoist_helpers=True)
    assert res.tl_program.bindings
    return prog, res.tl_program


@pytest.mark.parametrize("how", [
    copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p)), dataclasses.replace,
], ids=["copy", "deepcopy", "pickle", "replace"])
def test_translated_program_round_trips(translated, how):
    prog, tlp = translated
    again = how(tlp)
    assert again == tlp and hash(again) == hash(tlp)
    assert tl.print_program(again) == tl.print_program(tlp)
    main = how(prog.main)
    assert main == prog.main and hash(main) == hash(prog.main)


def test_equal_translations_hash_equally(translated):
    prog, tlp = translated
    again = require_translation(prog, hoist_helpers=True).tl_program
    assert again is not tlp and again == tlp and hash(again) == hash(tlp)


def test_record_refuses_what_its_init_would_skip():
    with pytest.raises(TypeError, match="__post_init__"):
        @record
        class Checked:
            n: int

            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="default_factory"):
        @record
        class Listed:
            items: list = dataclasses.field(default_factory=list)


FG_NODES = [cls for cls in RECORDS if cls.__module__ == "fgdict.fg_ast"
            and "span" in {f.name for f in dataclasses.fields(cls)}]


def test_span_is_the_last_field_of_every_fg_node():
    """So every FG node can take its span as its last positional argument."""
    assert {fg.Var, fg.StructLit, fg.Call, fg.BinOp, fg.TypeDecl, fg.MethodDecl} <= \
        set(FG_NODES)
    for cls in FG_NODES:
        assert dataclasses.fields(cls)[-1].name == "span", cls


@pytest.mark.parametrize("module", ["fg_parser", "fg_interp", "fg_ast"])
def test_fg_nodes_are_built_with_a_positional_span(module):
    """A keyword argument makes a record's `__init__` about half as dear
    again as a positional one (`Var("x", span=s)` 390 ns against 260 ns in
    CPython 3.11), on every node the parser and machine build."""
    names = {cls.__name__ for cls in FG_NODES}
    path = Path(fgdict.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keyed = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
             and any(k.arg == "span" for k in node.keywords)]
    assert keyed == []
