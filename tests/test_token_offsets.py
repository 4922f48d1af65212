"""Token offsets: `TokenReader.where` of every token of both readers, EOF
included, against the reference that summed the lengths of the matches of a
second, non-capturing lexer pattern (`helpers.reference_where`)."""

import glob
import json
from pathlib import Path

import pytest

from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.diagnostics import FgError
from fgdict.fg_parser import _Parser, parse_program, print_program
from fgdict.gen import GenConfig, gen_program
from fgdict.translate import translate_program
from helpers import reference_where


def _fg_sources():
    """(text, mode) of the corpus, the ladder rungs, and the printed
    programs of generator seeds 0-99 in both modes."""
    manifest = json.loads(Path("corpus/manifest.json").read_text(encoding="utf-8"))
    out = [(Path("corpus", e["path"]).read_text(encoding="utf-8"), e["mode"])
           for e in manifest["files"]]
    out += [(Path(path).read_text(encoding="utf-8"), fg.CORE)
            for path in sorted(glob.glob("bench/ladder/*.fg"))]
    return out + [(print_program(gen_program(GenConfig(seed=seed, mode=mode))), mode)
                  for mode in (fg.CORE, fg.EXT) for seed in range(100)]


@pytest.fixture(scope="module")
def sources():
    """The FG texts, and the inline and hoisted TL of each."""
    fg_texts = _fg_sources()
    tl_texts = []
    for text, mode in fg_texts:
        prog = parse_program(text, mode=mode)
        for hoist in (False, True):
            res = translate_program(prog, hoist_helpers=hoist)
            assert res.ok
            tl_texts.append(tl.print_program(res.tl_program))
    return fg_texts, tl_texts


def _check(reader, text):
    want = reference_where(type(reader), text, reader.filename)
    assert [reader.where(i) for i in range(len(reader.tokens))] == want
    return len(want)


def test_fg_offsets_are_the_reference(sources):
    fg_texts, _tl = sources
    n = sum(_check(_Parser(text, mode, "f.fg"), text) for text, mode in fg_texts)
    assert n > 40_000


def test_tl_offsets_are_the_reference(sources):
    _fg, tl_texts = sources
    n = sum(_check(tl._TLParser(text, "f.tl"), text) for text in tl_texts)
    assert n > 100_000


def _edges(comment):
    return ["", " \n\t  \n", f"a {comment} a comment at EOF", f"{comment} only a comment",
            "a\r\nb(\r\n\r\n c)\r\n", "a  \t\n b  \n  ", f"\n\n   {comment} x\r\n  a"]


@pytest.mark.parametrize("make, comment", [
    (lambda text: _Parser(text, fg.EXT, "f.fg"), "//"),
    (lambda text: tl._TLParser(text, "f.tl"), "--"),
], ids=["fg", "tl"])
def test_offsets_at_the_edges_are_the_reference(make, comment):
    for text in _edges(comment):
        _check(make(text), text)
    # A bad character fails the reader as it is made, at that character's span.
    text = f"a {comment} note\r\n  @ b"
    with pytest.raises(FgError) as err:
        make(text)
    span = err.value.diagnostics[0].span
    want = reference_where(type(make("")), text, span.file)
    assert (span.file, span.start, span.end, span.line, span.column) == want[1]
    assert want[1][1:] == (text.index("@"), text.index("@") + 1, 2, 3)
