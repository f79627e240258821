"""Lexer for `.sl` sources: one master regular expression matched at
successive offsets (the "Writing a Tokenizer" recipe of the `re` docs).

Tokens carry 1-based (line, column) spans, found by bisecting the offsets at
which lines start; only `\\n` ends a line. `--` starts a line comment.
Identifiers start with a letter (`str.isalpha`) or `_` and go on with `\\w`;
numbers are `\\d` digits, the decimal digits `int()` accepts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

from .diagnostics import Diagnostic, Span

KEYWORDS = frozenset({
    "module", "import", "concept", "model", "fn", "type", "data",
    "where", "match", "let", "if", "else", "true", "false",
})

# The string group stops before the closing quote, or at the first fault: a
# newline, a bad escape or the end of the file.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|--[^\n]*)+)
  | (?P<string>"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<punct>==|=>|->|[()\[\]{},;:.=])
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "float" | "string" | keyword | punctuation | "_" | "eof"
    text: str
    span: Span
    value: object = None


class LexError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diagnostic = diag
        super().__init__(diag.message)


def tokenize(text: str, file: str) -> list[Token]:
    starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def at(offset: int) -> tuple[int, int]:
        line = bisect_right(starts, offset)
        return (line, offset - starts[line - 1] + 1)

    def fail(msg: str, begin: int, end: int):
        raise LexError(Diagnostic("E-PARSE", msg, Span(file, at(begin), at(end))))

    tokens: list[Token] = []
    pos, n = 0, len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            fail(f"unexpected character {text[pos]!r}", pos, pos)
        kind, lexeme, end = m.lastgroup, m.group(), m.end()
        if kind == "skip":
            pos = end
            continue
        value = None
        if kind == "word":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                fail(f"unexpected character {lexeme[0]!r}", pos, pos)
            kind = lexeme if lexeme in KEYWORDS or lexeme == "_" else "ident"
        elif kind == "punct":
            kind = lexeme
        elif kind == "string":
            if text.startswith("\\", end):
                if end + 1 == n:
                    fail("unterminated string escape", pos, n)
                fail(f"unknown string escape '\\{text[end + 1]}'", pos, end + 1)
            if not text.startswith('"', end):
                fail("unterminated string literal", pos, end)
            value = lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:])
            end += 1
        elif kind == "hex":
            if end - pos == 2:
                fail("malformed hexadecimal literal", pos, end)
            kind, value = "int", int(lexeme, 16)
        elif kind == "int":
            value = int(lexeme)
        else:
            value = lexeme  # float
        line, col = at(pos)
        tokens.append(Token(kind, lexeme, Span(file, (line, col), (line, col + end - pos - 1)), value))
        pos = end
    eof = at(n)
    tokens.append(Token("eof", "", Span(file, eof, eof)))
    return tokens
