"""Span pins for the parser: a SHA-256 over every syntax node's class and
span, for each corpus file and for three generated nesting inputs. The
nodes are walked with `oracle.children`, so a span reached through a tuple
(an import's span, a parameter's type) is pinned as well. Any change to the
span the parser gives a node changes a digest.

The table below was generated before the lexer stopped building a span per
token; a change that claims identical spans must leave it unchanged.

Run this file as a script to print the table:
    PYTHONPATH=src python tests/test_ast_spans.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from oracle import children

from slc.diagnostics import Span
from slc.parser import parse_module

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
LEVELS = 1_000

# Each input nests LEVELS deep; the else-if chain and the parentheses spread
# over lines, so both line and column tracking are pinned.
NESTING = {
    "parens.sl": "module deep\n-- parenthesised\nfn main() -> Unit { print(show64("
    + "(" * LEVELS + "1:U64" + ")\n" * LEVELS + ")) }\n",
    "option.sl": "module deep\nfn f() -> " + "Option[" * LEVELS + "U64" + "]" * LEVELS
    + " {\n  " + "Some( " * LEVELS + "1:U64" + ")" * LEVELS + "\n}\n",
    "else_if.sl": "module deep\nfn f(a: Bool) -> U64 {\n"
    + "  if a { 1:U64 } else\n" * LEVELS + "  { 0:U64 }\n}\n",
}


def sources() -> dict[str, str]:
    out = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.sl"))}
    out.update(NESTING)
    return out


def span_digest(text: str, file: str) -> str:
    """SHA-256 of one line per object of the parsed module, in pre-order:
    a node's class name, or a span's file and endpoints."""
    module = parse_module(text, file)
    assert not isinstance(module, list), module
    h = hashlib.sha256()
    stack = [module]
    while stack:
        node = stack.pop()
        if isinstance(node, Span):
            h.update(f"{node.file}:{node.start}-{node.end}\n".encode())
        else:
            h.update(f"{type(node).__name__}\n".encode())
        stack.extend(reversed(children(node)))
    return h.hexdigest()


def table() -> dict[str, str]:
    return {name: span_digest(text, name) for name, text in sources().items()}


EXPECTED: dict[str, str] = {
    'assoc_left.sl': '1ad8e98f66f979e53b22399c61bc4de3e11a826ddd79ef268db6f7f7fc217a66',
    'assoc_lib.sl': 'a778c4456555ddef480ed57dee223ff9d197a096e059da468c8df3606c5803e6',
    'assoc_mix.sl': '3b0e0962588e369cf3208b4d7acb59229e9ab5fc8ce81632cedb32e6c44b0048',
    'assoc_right.sl': '927b6289ba9b76c453fe1a87dcf005e0e00e406b71e86d9728e72dfa0fbaadd6',
    'bounded_overlap_bad.sl': '107e757fd833a819d5cd68cfafc83c3d628f8578cb8acb1cca48ac9dee653c44',
    'bounded_overlap_free.sl': 'c252d358ff2d3bec49823e8468ebf8d5ded47c3df4beb378edd28d5287794b16',
    'bounded_overlap_ok.sl': '6645a2f4611e9b02c531c3cafdb65ae5e591ebe16331404d316dd77490525152',
    'convert_pair.sl': 'c1c75452fdf5911f902d96c0280bf3160eba9683a77fc9a7eb1eeabc0e6a99c4',
    'diamond_base.sl': '9af8f5c030ddbd3e8f7125f6ece5449d5d572f19b5ff9b3d63e7321260f49294',
    'diamond_left.sl': 'a06a566eb3004cf2064a08e77700b8c0b8f45815c32e57fb3ba96539f6124b7b',
    'diamond_point.sl': '8b94ccd7976f8d4a998df5ebb2e0bc70da613ce3a200ef1b1e6d4dd2e692a80d',
    'diamond_right.sl': 'b3a3706fffaf07462196dbcfa4e3f9b8b11dd8cd5104df479925ad74f2a0850a',
    'diamond_top.sl': 'dbf81d072819275297526861c7072fa7378f575c49da78808a7af8f98bcd1ef3',
    'dup_instances.sl': 'dab73cafc88da226473b4c679073083509c7f1bd754dc684724569c40ed3d05c',
    'elements_equal.sl': '66bffb34659581d089c7eea186008d0dec7c8a4151ca0ea02786f08bd4c2a01c',
    'eq_concepts.sl': '1b903911a66792fde7ca6e139d18e9c1baf2a3bd1ac4e6a3a2967c3d4969d94f',
    'iter_fold.sl': 'b4a32f5362eea408b85508426afa6b38c18b0193846ad90b306101e6338f14e1',
    'iter_lib.sl': '5b99a45ff8cd5b2f569b57d4d653e88b64b5c62925983a2a019c04ea48e9d0d2',
    'option_iter.sl': '7559a6accfa0d6403ca2b0b2506b89f770d84fddde52e12e46010e25cc2ce264',
    'option_show.sl': '9bdb34722eb73a98ec0ad868ab4d6e6269e49d54edab9c331a7aa943c0887524',
    'option_show_ok.sl': '43adf6f6fae00f01746f1b3ecc4c4eaa566528928a0a73497a3db5e6770a9cf8',
    'orphan_blanket_self.sl': '26d52b7a8aba460bbfbc066f07a8039adedbe8aa53d3d2a6e9a1f5557b5086e7',
    'orphan_foreign_wrap.sl': '9dee3104855c5da38527354eac19bbc9ed0bf515e4732260caf7bccc291d037a',
    'orphan_from_arg.sl': 'd4c3d80a1b7c5c075e405145702fbf1640131ef61ccbbcb36f7e5f7c354ca882',
    'orphan_lib.sl': 'e6df569d85d7e270d8caebbc0b10d2f253798488f2bcd6e0c0f15ab433035560',
    'orphan_local_self.sl': 'f54bc3172011433b36ab0bcbeb424846e4c58fb0d166fa07557b82dc78c046e1',
    'orphan_local_type.sl': '6e76bf8484196219b194b5416dffa893f87018321df0739cd8373b2e1616489e',
    'range_iter.sl': '3a0d39d1a5a268dc2f9e114f57d45e053f5e77a40cb750d7515b3f3db80d0c2f',
    'show_lib.sl': '9e8b172022fc8e34c1d0812534072abcc0f34eb5d2ad466b1e0d0020502d5224',
    'string_conv.sl': 'b898191f81cc1628589ad8bb0da4b805b20f96e0f46a64a889d9541a6c4f4a99',
    'string_conv_overlap.sl': '3fd0327d8e386a05cc0b00aff4edddb58e443207926920375b5682405232b9a7',
    'unstable_log.sl': '503331db7dd9011ba840a70fbca1607e3348b4298aa60a2a2096d82d1f6c36b7',
    'parens.sl': 'd1cd2825c4ed010876ec4ade6d8e67592b175ff9ace54421a45831c9e2ca45f0',
    'option.sl': '2a87e7ddfa26591cc76d6fa4b74ce308d45639efbd718a74af7917c44869af64',
    'else_if.sl': '7c8c5126c96df8dc61a76afc1a4f76b74269b94a30df25412f8cb1d7e4e23561',
}


def reachable_spans(result) -> list[Span]:
    """Every span held by a parse result: a module's, or its diagnostics'."""
    spans, stack = [], list(result) if isinstance(result, list) else [result]
    while stack:
        node = stack.pop()
        if isinstance(node, Span):
            spans.append(node)
        else:
            stack.extend(children(node))
    return spans


def misplaced(spans: list[Span]) -> list[Span]:
    """The spans that do not start at a 1-based line and column, or that end
    before they start. `Span` itself does not check this, so that building
    one costs no more than storing its fields."""
    return [s for s in spans if not (1 <= s.start[0] and 1 <= s.start[1] and s.start <= s.end)]


def test_every_span_starts_in_the_text_and_not_after_its_end():
    for name, text in sources().items():
        spans = reachable_spans(parse_module(text, name))
        assert spans and not misplaced(spans), name


def test_every_ast_span_matches_the_pinned_table():
    got = table()
    assert sorted(got) == sorted(EXPECTED)
    changed = [name for name, d in got.items() if EXPECTED[name] != d]
    assert not changed, f"spans changed in {changed}"


if __name__ == "__main__":
    sys.stdout.write("EXPECTED: dict[str, str] = {\n")
    for name, d in table().items():
        sys.stdout.write(f"    {name!r}: {d!r},\n")
    sys.stdout.write("}\n")
