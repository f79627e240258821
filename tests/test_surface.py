"""Parsing, printing, and round-trip behavior of the surface syntax."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import children

from slc import ast as A
from slc.diagnostics import Span
from slc.lexer import LexError
from slc.parser import parse_module, tokenize
from slc.printer import ast_equal, pretty_print

ITER_SRC = """\
-- iterator demo
module demo

concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}

fn fold[A, B](xs: A, acc: B, f: (B, A.Element) -> B) -> B where Iterator[A] {
  match next(xs) {
    Some(p) => fold(snd(p), f(acc, fst(p)), f),
    None => acc
  }
}

model bytes64: Iterator[U64] {
  type Element = U8
  fn next(it: U64) -> Option[(U8, U64)] {
    if eq64(it, 0:U64) { None } else { Some((trunc8(band(it, 255:U64)), shr(it, 8:U64))) }
  }
}

fn main() -> Unit {
  print(show8(fold(0x2a2a:U64, 0:U8, add8)))
}
"""


def parse_ok(src, file="test.sl"):
    result = parse_module(src, file)
    assert not isinstance(result, list), result
    return result


def test_parse_iterator_module_shape():
    m = parse_ok(ITER_SRC)
    assert m.name == "demo"
    kinds = [type(d).__name__ for d in m.decls]
    assert kinds == ["ConceptAST", "FunAST", "ModelAST", "FunAST"]
    concept = m.decls[0]
    assert concept.params == ("Self",)
    assert concept.assoc_names == ("Element",)
    assert len(concept.requirements) == 1
    model = m.decls[2]
    assert model.name == "bytes64"
    assert model.assoc_binds[0].member == "Element"
    assert len(model.bodies) == 1


def test_empty_file_is_parse_error():
    result = parse_module("", "empty.sl")
    assert isinstance(result, list)
    assert result[0].code == "E-PARSE"
    assert "module header" in result[0].message


def test_assoc_binding_ast_hand_construction():
    src = "module m\nconcept C[Self] { type E }\nmodel M1: C[U64] { type E = U8 }\n"
    m = parse_ok(src)
    model = m.decls[1]
    assert isinstance(model, A.ModelAST)
    assert model.name == "M1"
    bind = model.assoc_binds[0]
    assert bind.member == "E"
    assert isinstance(bind.rhs, A.TName) and bind.rhs.base == "U8"
    # span-insensitive comparison against a hand-built binding
    expected = A.AssocBindAST(bind.span, "E", A.TName(bind.rhs.span, "U8", (), ()))
    assert ast_equal(bind, expected)


def test_duplicate_import_rejected():
    result = parse_module("module m\nimport a\nimport a\n", "x.sl")
    assert isinstance(result, list)
    assert result[0].code == "E-PARSE"


def test_parse_is_deterministic():
    a = parse_ok(ITER_SRC)
    b = parse_ok(ITER_SRC)
    assert a == b


def test_round_trip_iterator_module():
    m = parse_ok(ITER_SRC)
    printed = pretty_print(m)
    again = parse_ok(printed, "printed.sl")
    assert ast_equal(m, again)
    # printing is a fixpoint after one round
    assert pretty_print(again) == printed


@pytest.mark.parametrize(
    "src",
    [
        "module m\nconcept C[Self] { }\n",
        "module m\ndata Range[a] { UpTo(a, a) }\n",
        "module m\nfn f[T](x: T) -> T where Ord[T], T == Option[T] { x }\n",
        "module m\nfn g(x: (U64, U8)) -> U64 { fst(x) }\n",
        "module m\nfn h(f: () -> U64) -> U64 { f() }\n",
        "module m\nfn k(x: Option[(U8, U64)]) -> U64 { match x { Some(p) => snd(p), _ => 0:U64 } }\n",
        "module m\nfn s() -> String { let x = \"a\\n\"; concat(x, \"b\") }\n",
        "module m\nfn l() -> U64 { (fn(x: U64) => x)(1:U64) }\n",
        "module m\nfn c() -> String { convert(5:U64):String }\n",
        "module m\nimport other\nfn w() -> U64.Key { 7:U64 }\n",
        "module m\nfn b() -> Bool { if true { false } else { true } }\n",
        "module m\nfn e() -> Bool { if true { false } else { if false { true } else { false } } }\n",
    ],
)
def test_round_trip_fragments(src):
    m = parse_ok(src)
    printed = pretty_print(m)
    again = parse_ok(printed, "printed.sl")
    assert ast_equal(m, again)


def test_span_containment():
    m = parse_ok(ITER_SRC)

    def check(node, parent_span):
        if hasattr(node, "span"):
            assert parent_span.contains(node.span), (node, parent_span)
            parent_span = node.span
        for child in children(node):
            check(child, parent_span)

    for decl in m.decls:
        check(decl, m.span)


def test_non_utf8_input():
    from slc.parser import parse_module_bytes

    result = parse_module_bytes(b"module m\n\xff\xfe", "bad.sl")
    assert isinstance(result, list)
    assert result[0].code == "E-ENCODING"


def test_self_must_come_first():
    result = parse_module("module m\nconcept C[T] { }\n", "x.sl")
    assert isinstance(result, list)
    assert "Self" in result[0].message


@pytest.mark.parametrize(
    "src, message, start, end",
    [
        ('"ab\ncd"', "unterminated string literal", (1, 1), (1, 4)),
        ('"ab', "unterminated string literal", (1, 1), (1, 4)),
        ('"a\\', "unterminated string escape", (1, 1), (1, 4)),
        ('"a\\q"', "unknown string escape '\\q'", (1, 1), (1, 4)),
        ('"a\\\nb"', "unknown string escape '\\\n'", (1, 1), (1, 4)),
        ("0x", "malformed hexadecimal literal", (1, 1), (1, 3)),
        ("0xg", "malformed hexadecimal literal", (1, 1), (1, 3)),
        ("x @", "unexpected character '@'", (1, 3), (1, 3)),
        ("²", "unexpected character '²'", (1, 1), (1, 1)),
        ("x 1²", "unexpected character '²'", (1, 4), (1, 4)),
    ],
)
def test_lex_errors_pin_message_and_span(src, message, start, end):
    with pytest.raises(LexError) as caught:
        tokenize(src, "f.sl")
    diag = caught.value.diagnostic
    assert (diag.code, diag.message, diag.span.start, diag.span.end) == ("E-PARSE", message, start, end)


def test_tokens_carry_kind_text_span_and_value():
    tokens = tokenize('\n  "x\\n\\t\\"\\\\" 3.5 0XfF ٣ _ _a', "f.sl")
    assert [(t.kind, t.text, t.span.start, t.span.end, t.value) for t in tokens] == [
        ("string", 'x\n\t"\\', (2, 3), (2, 13), 'x\n\t"\\'),
        ("float", "3.5", (2, 15), (2, 17), "3.5"),
        ("int", "0XfF", (2, 19), (2, 22), 255),
        ("int", "٣", (2, 24), (2, 24), 3),
        ("_", "_", (2, 26), (2, 26), None),
        ("ident", "_a", (2, 28), (2, 29), None),
        ("eof", "", (2, 30), (2, 30), None),
    ]


LEX_FRAGMENTS = [
    "module", "m", "fn", "_", "x1", "U64", "42", "0x1F", "3.14", "٣", '"a\\tb"',
    "==", "=>", "->", "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "=",
    " ", "\t", "\n", "-- note\n",
    '"', "\\q", "0x", "@", "²", "é", "\r",
]


@given(st.lists(st.sampled_from(LEX_FRAGMENTS), max_size=20).map("".join))
def test_tokenize_is_total_and_spans_cover_token_text(src):
    try:
        tokens = tokenize(src, "p.sl")
    except LexError as exc:
        assert exc.diagnostic.code == "E-PARSE"
        return
    assert tokens[-1].kind == "eof"
    lines = src.split("\n")
    for tok in tokens[:-1]:
        (line, first), (end_line, last) = tok.span.start, tok.span.end
        assert line == end_line
        if tok.kind != "string":
            assert lines[line - 1][first - 1 : last] == tok.text


@given(st.lists(st.sampled_from(LEX_FRAGMENTS), max_size=20).map("".join))
def test_string_spans_cover_their_quotes_and_eof_follows_the_text(src):
    try:
        tokens = tokenize(src, "p.sl")
    except LexError:
        return
    lines = src.split("\n")
    for tok in tokens:
        if tok.kind == "string":
            (line, first), (end_line, last) = tok.span.start, tok.span.end
            quoted = lines[line - 1][first - 1 : last]
            assert line == end_line and len(quoted) >= 2
            assert quoted[0] == quoted[-1] == '"'
            assert json.loads(quoted, strict=False) == tok.text  # same escapes as JSON
    eof = (len(lines), len(lines[-1]) + 1)
    assert (tokens[-1].kind, tokens[-1].span.start, tokens[-1].span.end) == ("eof", eof, eof)


def test_spans_are_built_for_syntax_nodes_not_tokens(corpus_dir, monkeypatch):
    """Tokens carry plain positions; the parser builds a span only for a
    node it returns (or a diagnostic), never one it throws away."""
    built = []
    init = Span.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Span, "__init__", counting_init)
    for path in sorted(corpus_dir.glob("*.sl")):
        text = path.read_text(encoding="utf-8")
        tokenize(text, path.name)
        assert built == [], path.name
        held, stack = set(), [parse_ok(text, path.name)]
        while stack:
            node = stack.pop()
            if isinstance(node, Span):
                held.add(id(node))
            stack.extend(children(node))
        assert 0 < len(built) <= len(held), path.name
        built.clear()


@pytest.mark.parametrize("literal", ["255:U8", "255 : U8", "(255):U8", "((255)):U8", "0xff:U8"])
def test_annotated_literals_narrow_to_one_node(literal):
    body = parse_ok(f"module m\nfn f() -> U8 {{ {literal} }}\n").decls[0].body
    assert (type(body), body.value, body.width) == (A.EInt, 255, "U8")
    assert (body.span.start, body.span.end) == ((2, 16), (2, 15 + len(literal)))


@pytest.mark.parametrize("literal", ["256:U8", "(256):U8", "18446744073709551616:U64"])
def test_annotated_literals_out_of_range_are_parse_errors(literal):
    [diag] = parse_module(f"module m\nfn f() -> U8 {{ {literal} }}\n", "m.sl")
    width = literal.rpartition(":")[2]
    assert (diag.code, diag.message) == ("E-PARSE", f"literal out of range for {width}")
    assert (diag.span.start, diag.span.end) == ((2, 16), (2, 15 + len(literal)))
