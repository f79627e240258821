"""Parsing, printing, and round-trip behavior of the surface syntax."""

import hashlib
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import span_contains
from oracle import children
from test_ast_spans import misplaced, reachable_spans, sources

from slc import ast as A
from slc.diagnostics import Abort, Span
from slc.lexer import KIND, TEXT, VALUE, token_span
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
            assert span_contains(parent_span, node.span), (node, parent_span)
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
    with pytest.raises(Abort) as caught:
        tokenize(src, "f.sl")
    diag = caught.value.diagnostic
    assert (diag.code, diag.message, diag.span.start, diag.span.end) == ("E-PARSE", message, start, end)


def test_tokens_carry_kind_text_span_and_value():
    tokens = tokenize('\n  "x\\n\\t\\"\\\\" 3.5 0XfF ٣ _ _a', "f.sl")
    assert [(t[KIND], t[TEXT], token_span(t).start, token_span(t).end, t[VALUE]) for t in tokens] == [
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
    except Abort as exc:
        assert exc.diagnostic.code == "E-PARSE"
        return
    assert tokens[-1][KIND] == "eof"
    lines = src.split("\n")
    for tok in tokens[:-1]:
        (line, first), (end_line, last) = token_span(tok).start, token_span(tok).end
        assert line == end_line
        if tok[KIND] != "string":
            assert lines[line - 1][first - 1 : last] == tok[TEXT]


@given(st.lists(st.sampled_from(LEX_FRAGMENTS), max_size=20).map("".join))
def test_string_spans_cover_their_quotes_and_eof_follows_the_text(src):
    try:
        tokens = tokenize(src, "p.sl")
    except Abort:
        return
    lines = src.split("\n")
    for tok in tokens:
        if tok[KIND] == "string":
            (line, first), (end_line, last) = token_span(tok).start, token_span(tok).end
            quoted = lines[line - 1][first - 1 : last]
            assert line == end_line and len(quoted) >= 2
            assert quoted[0] == quoted[-1] == '"'
            assert json.loads(quoted, strict=False) == tok[TEXT]  # same escapes as JSON
    eof = (len(lines), len(lines[-1]) + 1)
    assert (tokens[-1][KIND], token_span(tokens[-1]).start, token_span(tokens[-1]).end) == ("eof", eof, eof)


@given(st.lists(st.sampled_from(LEX_FRAGMENTS), max_size=20).map("".join))
def test_spans_of_parses_and_their_errors_are_well_formed(src):
    """Whether the parse succeeds or fails, at module level or inside a
    body, every span it gives starts at a 1-based position no later than
    its end."""
    for text in (src, f"module m\nfn f() -> U64 {{ {src} }}\n"):
        spans = reachable_spans(parse_module(text, "p.sl"))
        assert spans and not misplaced(spans), text


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


# The first E-PARSE of each way the parser can fail: its message and span.
# Each row reaches one `fail` or `expect` of `parser.py` (an `expect` that
# follows a test of the same token cannot fail and has no row).
M = "module m\n"
F = M + "fn f() -> U64 "
B = F + "{ "
N = 12_000  # parser.MAX_NESTING

PARSE_FAILURES = [
    ('empty file', "", 'expected module header', (1, 1), (1, 1)),
    ('module header', "fn f", "expected module header, found 'fn'", (1, 1), (1, 2)),
    ('module name', "module", "expected module name, found 'end of file'", (1, 7), (1, 7)),
    ('import name', M + "import", "expected module name, found 'end of file'", (2, 7), (2, 7)),
    ('duplicate import', M + "import a\nimport a", "duplicate import of 'a'", (3, 1), (3, 8)),
    ('declaration', M + ")", "expected declaration, found ')'", (2, 1), (2, 1)),
    ('concept name', M + "concept", "expected concept name, found 'end of file'", (2, 8), (2, 8)),
    ('concept bracket', M + "concept C", "expected '[', found 'end of file'", (2, 10), (2, 10)),
    ('concept Self missing', M + "concept C[", "expected 'Self', found 'end of file'", (2, 11), (2, 11)),
    ('concept Self first', M + "concept C[T]", "first concept parameter must be 'Self'", (2, 11), (2, 11)),
    ('concept type parameter', M + "concept C[Self,", "expected type parameter, found 'end of file'", (2, 16), (2, 16)),
    ('concept close bracket', M + "concept C[Self}", "expected ']', found '}'", (2, 15), (2, 15)),
    ('concept where', M + "concept C[Self] where", "expected a type, found 'end of file'", (2, 22), (2, 22)),
    ('concept brace', M + "concept C[Self]", "expected '{', found 'end of file'", (2, 16), (2, 16)),
    ('concept assoc name', M + "concept C[Self] { type }", "expected associated type name, found '}'", (2, 24), (2, 24)),
    ('concept requirement name', M + "concept C[Self] { fn }", "expected requirement name, found '}'", (2, 22), (2, 22)),
    ('concept requirement paren', M + "concept C[Self] { fn f }", "expected '(', found '}'", (2, 24), (2, 24)),
    ('concept requirement arrow', M + "concept C[Self] { fn f() }", "expected '->', found '}'", (2, 26), (2, 26)),
    ('concept item', M + "concept C[Self] { data }", "expected 'type' or 'fn' inside concept", (2, 19), (2, 22)),
    ('concept end of file', M + "concept C[Self] {", "expected 'type' or 'fn' inside concept", (2, 18), (2, 18)),
    ('model concept name', M + "model", "expected concept name, found 'end of file'", (2, 6), (2, 6)),
    ('named model concept name', M + "model M:", "expected concept name, found 'end of file'", (2, 9), (2, 9)),
    ('model bracket', M + "model C", "expected '[', found 'end of file'", (2, 8), (2, 8)),
    ('model close bracket', M + "model C[U64", "expected ']', found 'end of file'", (2, 12), (2, 12)),
    ('model brace', M + "model C[U64]", "expected '{', found 'end of file'", (2, 13), (2, 13)),
    ('model assoc name', M + "model C[U64] { type }", "expected associated type name, found '}'", (2, 21), (2, 21)),
    ('model assoc equals', M + "model C[U64] { type E }", "expected '=', found '}'", (2, 23), (2, 23)),
    ('model item', M + "model C[U64] { data }", "expected 'type' binding or 'fn' body inside model", (2, 16), (2, 19)),
    ('model body type parameters', M + "model C[U64] { fn f[T]() -> U64 { 1 } }", 'requirement bodies take no type parameters', (2, 20), (2, 20)),
    ('function name', M + "fn", "expected function name, found 'end of file'", (2, 3), (2, 3)),
    ('function type parameter', M + "fn f[", "expected type parameter, found 'end of file'", (2, 6), (2, 6)),
    ('function close bracket', M + "fn f[T", "expected ']', found 'end of file'", (2, 7), (2, 7)),
    ('function paren', M + "fn f", "expected '(', found 'end of file'", (2, 5), (2, 5)),
    ('parameter name', M + "fn f(", "expected parameter name, found 'end of file'", (2, 6), (2, 6)),
    ('parameter colon', M + "fn f(x", "expected ':', found 'end of file'", (2, 7), (2, 7)),
    ('parameter comma', M + "fn f(x: U64 y", "expected ',', found 'y'", (2, 13), (2, 13)),
    ('function arrow', M + "fn f()", "expected '->', found 'end of file'", (2, 7), (2, 7)),
    ('function body brace', M + "fn f() -> U64", "expected '{', found 'end of file'", (2, 14), (2, 14)),
    ('data name', M + "data", "expected data type name, found 'end of file'", (2, 5), (2, 5)),
    ('data type parameter', M + "data D[", "expected type parameter, found 'end of file'", (2, 8), (2, 8)),
    ('data close bracket', M + "data D[a", "expected ']', found 'end of file'", (2, 9), (2, 9)),
    ('data brace', M + "data D", "expected '{', found 'end of file'", (2, 7), (2, 7)),
    ('data comma', M + "data D { A B }", "expected ',', found 'B'", (2, 12), (2, 12)),
    ('constructor name', M + "data D { 1 }", "expected constructor name, found '1'", (2, 10), (2, 10)),
    ('constructor field paren', M + "data D { A(U64 }", "expected ')', found '}'", (2, 16), (2, 16)),
    ('data without constructors', M + "data D { }", 'data type needs at least one constructor', (2, 1), (2, 10)),
    ('conformance constraint', F + "where U64 { 1 }", 'expected a conformance constraint `Concept[T, ...]`', (2, 21), (2, 23)),
    ('equality right side', F + "where T == { 1 }", "expected a type, found '{'", (2, 26), (2, 26)),
    ('tuple type arity', M + "fn f() -> (U64, U8, Bool) { 1 }", 'tuple types have exactly two components', (2, 11), (2, 25)),
    ('tuple type paren', M + "fn f() -> (U64 { 1 }", "expected ')', found '{'", (2, 16), (2, 16)),
    ('type name', M + "fn f() -> 1 { 1 }", "expected a type, found '1'", (2, 11), (2, 11)),
    ('type argument bracket', M + "fn f() -> Option[U64 { 1 }", "expected ']', found '{'", (2, 22), (2, 22)),
    ('function type result', M + "fn f(g: (U64) -> ) -> U64 { 1 }", "expected a type, found ')'", (2, 18), (2, 18)),
    ('let name', B + "let }", "expected binding name, found '}'", (2, 21), (2, 21)),
    ('let equals', B + "let x 1 }", "expected '=', found '1'", (2, 23), (2, 23)),
    ('let semicolon', B + "let x = 1 }", "expected ';', found '}'", (2, 27), (2, 27)),
    ('let annotation', B + "let x: = 1; x }", "expected a type, found '='", (2, 24), (2, 24)),
    ('block close', B + "1 2 }", "expected '}' closing block, found '2'", (2, 19), (2, 19)),
    ('block without value', B + "}", 'block must end with an expression', (2, 15), (2, 17)),
    ('block ending in statement', B + "1; }", 'block must end with an expression', (2, 15), (2, 20)),
    ('lambda paren', B + "fn x => 1 }", "expected '(', found 'x'", (2, 20), (2, 20)),
    ('lambda parameter name', B + "fn(1) => 1 }", "expected parameter name, found '1'", (2, 20), (2, 20)),
    ('lambda arrow', B + "fn(x) 1 }", "expected '=>', found '1'", (2, 23), (2, 23)),
    ('lambda parameter comma', B + "fn(x y) => 1 }", "expected ',', found 'y'", (2, 22), (2, 22)),
    ('match brace', B + "match x }", "expected '{', found '}'", (2, 25), (2, 25)),
    ('match comma', B + "match x { A => 1 B => 2 } }", "expected ',', found 'B'", (2, 34), (2, 34)),
    ('match constructor pattern', B + "match x { 1 => 2 } }", "expected constructor pattern, found '1'", (2, 27), (2, 27)),
    ('match pattern binder', B + "match x { A(1) => 2 } }", "expected pattern binder, found '1'", (2, 29), (2, 29)),
    ('match arm arrow', B + "match x { A 1 } }", "expected '=>', found '1'", (2, 29), (2, 29)),
    ('match without arms', B + "match x { } }", 'match needs at least one arm', (2, 17), (2, 27)),
    ('if then brace', B + "if x 1 }", "expected '{', found '1'", (2, 22), (2, 22)),
    ('if else', B + "if x { 1 } }", "expected 'else', found '}'", (2, 28), (2, 28)),
    ('if else brace', B + "if x { 1 } else 2 }", "expected '{', found '2'", (2, 33), (2, 33)),
    ('literal out of range, annotated', B + "256:U8 }", 'literal out of range for U8', (2, 17), (2, 22)),
    ('literal out of range, parenthesised', B + "(256):U8 }", 'literal out of range for U8', (2, 17), (2, 24)),
    ('tuple arity', B + "(1, 2, 3) }", 'tuples have exactly two components', (2, 17), (2, 25)),
    ('parenthesis close', B + "(1 }", "expected ')', found '}'", (2, 20), (2, 20)),
    ('expression', B + ") }", "expected an expression, found ')'", (2, 17), (2, 17)),
    ('expression at end of file', B + "f(", "expected an expression, found 'end of file'", (2, 19), (2, 19)),
    ('argument comma', B + "f(1 2) }", "expected ',', found '2'", (2, 21), (2, 21)),
    ('annotation type', B + "1: }", "expected a type, found '}'", (2, 20), (2, 20)),
    ('nesting, parentheses', B + "(" * N + "1" + ")" * N + " }", 'nesting exceeds the parser limit of 12000 levels', (2, 12017), (2, 12017)),
    ('nesting, annotated literal at the limit', B + "(" * (N - 1) + "1:U64" + ")" * (N - 1) + " }", 'nesting exceeds the parser limit of 12000 levels', (2, 12018), (2, 12020)),
    ('nesting, type arguments', M + "fn f() -> " + "Option[" * N + "U64" + "]" * N + " { 1 }", 'nesting exceeds the parser limit of 12000 levels', (2, 84011), (2, 84013)),
    ('nesting, else-if', B + "if a { 1 } else " * N + "{ 1 } }", 'nesting exceeds the parser limit of 12000 levels', (2, 192004), (2, 192004)),
]


@pytest.mark.parametrize(
    "src, message, start, end",
    [row[1:] for row in PARSE_FAILURES],
    ids=[row[0] for row in PARSE_FAILURES],
)
def test_first_parse_error_of_each_failure_path(src, message, start, end):
    [diag] = parse_module(src, "p.sl")
    assert (diag.code, diag.message, diag.span.start, diag.span.end) == ("E-PARSE", message, start, end)


def token_digest(text: str, file: str) -> str:
    """SHA-256 of the token stream, one `(kind, text, line, col, last, value)`
    line per token, `eof` included: the line and columns of its first and
    last characters, resolved from its span."""
    h = hashlib.sha256()
    for tok in tokenize(text, file):
        (line, col), (_, last) = token_span(tok).start, token_span(tok).end
        h.update(f"{(tok[KIND], tok[TEXT], line, col, last, tok[VALUE])!r}\n".encode())
    return h.hexdigest()


# Run `python tests/test_surface.py` to print this table.
TOKEN_DIGESTS: dict[str, str] = {
    'assoc_left.sl': '4ac156de38134c456383697873557089d5079cda2c65f712712ec8f37a0e8de9',
    'assoc_lib.sl': '64e364efe85b691bc9e4804809145c5cbb0c6bab3db4712c92749ce926741bcb',
    'assoc_mix.sl': '5f71f43d3aa03a1dd230185671475a2ad4ffc2d4706fd6df1ecf9f7c36ab5391',
    'assoc_right.sl': 'dafe70c2f0d892a3f74f6c6c9724bc730f712fcc3d35aacd2c8adc05b32d9dc7',
    'bounded_overlap_bad.sl': 'a361d53ce09013611c346103d10e616b69945143acbd9d81bfd39a16c43c2052',
    'bounded_overlap_free.sl': '7d634f33fae7fc96ac7b7022c49b52e109df4ac362a22bb699e914fc59c1ef4f',
    'bounded_overlap_ok.sl': 'c5f597b5500f2d8f9dbc2c7b6b2e07ec2d09b6d342f0d219c04ca0c57e76ea5b',
    'convert_pair.sl': '6b621343285d72dce6f48f9a0e49d0ac29f169f66d4bf812a68a128b500785f0',
    'diamond_base.sl': '5320fc2cbc7e65a9734eea7ea7d0d4ca0646fdf1c917e078c892e1daf07ee8de',
    'diamond_left.sl': 'b8f5ca570f2ddd73efd44a106f55b34b809e57cfa65f1f62c3e25661313036a3',
    'diamond_point.sl': 'b1162eff779552e0d17e4fdd2ddfe23e54b4a3cac7504ca30c41399effd4baef',
    'diamond_right.sl': '962455010de58cf9018d1cff7b40ad9b107ef7da3b1d5db42d141866d95149cb',
    'diamond_top.sl': '1e2a3d0179d600f56b816350e17970f4d3485c7f5476b2072defa80c67364cec',
    'dup_instances.sl': '75e9892ae4a78409b81c1f203f5c461436b2d57ed0c8956a5901549b68363b45',
    'elements_equal.sl': '7982e40ff29761d9d83b1d7dec859d97b785a9cd0e43f2483ee5c46fd7fc17d5',
    'eq_concepts.sl': 'a53f211d05c2a8bb03b7fd4b315a0d370273d88477d705f78aba2f02f1c32824',
    'iter_fold.sl': 'eaa8cf43ed095b15da70ea07b770714b7e1dda89dda3f8518e42cf81c51a7f76',
    'iter_lib.sl': '6a9c25c58aa1986dedd08b285f04f80184eba890e2b0aa5f2ac14785ae8a7579',
    'option_iter.sl': 'bf842274948d95cbc72d65b2028864639d2e95dea4266c40f8338fe6cb1cb915',
    'option_show.sl': '4c04fea0c79b3a521e16d25021aa0d7403b7d636e2f06481def58281fe1b4da8',
    'option_show_ok.sl': '5932cbef646270a3d7084851204234a3ee6c6a334f2769c8ff6526a3f01ce4c8',
    'orphan_blanket_self.sl': 'd59650e605814c1af14c66aa8c2c9792e979a4c351431f95bd2dd44135727fc7',
    'orphan_foreign_wrap.sl': '32312120838e71db3dca16652e1084adacf60dc7514411ee5d2dfcc2428f0a74',
    'orphan_from_arg.sl': 'ae171c0affeeca8d9cf4590064a3a3948ad7adb5f39b8915369671ea639b5bd4',
    'orphan_lib.sl': '7b6d0d889bfd6362f2f3eb3a3f226f5e9c89443ecabeca6fd412dd940f22c32d',
    'orphan_local_self.sl': '9adb48da1acdb67d25630a9c0c59c9193c4fba2c2f4b0627538b65c14d4091b4',
    'orphan_local_type.sl': 'b328cbe43ffff7624f86cbd40606f99bc27a986c430318fc2952851caccffa3d',
    'range_iter.sl': '267a72773140b92f1071b199b29d4236f8fcf7c59fd3922eba2ac7699408a6a9',
    'show_lib.sl': '9ed06f7bc44b6844cfb77d953782dd36d78c31bfeab568e7f758512b9ca2f9a9',
    'string_conv.sl': '92aac195c16199a7ab47dd8aac9e89a47e8d18e8cfbcdc022bb27f6f8108ac00',
    'string_conv_overlap.sl': 'bb9bdc0561e7c9cdad00c1bd456a909929f19425cb50e0e85bf2dce006e58161',
    'unstable_log.sl': '5597b563a06cf9c325d0836283b11261a1184702eb8cb0987b40192b7a666096',
    'parens.sl': '566d6de4f9e5fc3dd915abf5a8dd22b0086d9d10ff75827ae7ac3d66376cb779',
    'option.sl': 'ca30633fb04d20b70eb7a02924e4c33aba89ed674804c6a97a11542a2fcec9cf',
    'else_if.sl': '6bbe75f2f93d44a55c4012e2a388058a472feb71a39cb6d371b3eb40fed76fb9',
}


def test_every_token_stream_matches_the_pinned_table():
    got = {name: token_digest(text, name) for name, text in sources().items()}
    assert sorted(got) == sorted(TOKEN_DIGESTS)
    changed = [name for name, d in got.items() if TOKEN_DIGESTS[name] != d]
    assert not changed, f"token streams changed in {changed}"


if __name__ == "__main__":
    sys.stdout.write("TOKEN_DIGESTS: dict[str, str] = {\n")
    for name, text in sources().items():
        sys.stdout.write(f"    {name!r}: {token_digest(text, name)!r},\n")
    sys.stdout.write("}\n")
