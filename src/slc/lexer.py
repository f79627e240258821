"""Lexer for `.sl` sources: one regular expression, matched once over the
text, gives (gap, lexeme) pairs, the gap being the blanks and comments before
the lexeme. Keywords and punctuation come from one table, other kinds from the
lexeme's first character. Tokens hold plain ints, a line and the columns of
their first and last characters, carried through the newlines of each gap;
only `\\n` ends a line. `Token.span` builds a `Span` on request, for a syntax
node or a diagnostic. `--` starts a line comment. Identifiers start with a
letter (`str.isalpha`) or `_` and go on with `\\w`; numbers are `\\d` digits,
the decimal digits `int()` accepts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, Span

KEYWORDS = frozenset({
    "module", "import", "concept", "model", "fn", "type", "data",
    "where", "match", "let", "if", "else", "true", "false",
})
_KINDS = {k: k for k in (*KEYWORDS, "_", "==", "=>", "->", *"()[]{},;:.=")}

# A string up to its closing quote, or up to its first fault: a newline, a
# bad escape or the end of the file.
_STRING = r'"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'
# A lone `"` is a string that faults. `.` also takes any unexpected character,
# so every match starts where the last one ended, and `\Z` ends the text
# (findall reports it twice after a trailing gap).
_TOKEN = re.compile(r"""((?:[ \t\r\n]+|--[^\n]*)*)
    (%s" | 0[xX][0-9a-fA-F]* | \d+\.\d+ | \d+ | \w+ | ==|=>|-> | . | \Z)""" % _STRING, re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "float" | "string" | keyword | punctuation | "_" | "eof"
    text: str
    line: int
    col: int  # of the first character
    last: int  # column of the last character; no token spans lines
    value: object
    file: str

    @property
    def span(self) -> Span:
        return Span(self.file, (self.line, self.col), (self.line, self.last))


class LexError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diagnostic = diag
        super().__init__(diag.message)


def tokenize(text: str, file: str) -> list[Token]:
    def fail(msg: str, line: int, first: int, last: int):
        raise LexError(Diagnostic("E-PARSE", msg, Span(file, (line, first), (line, last))))

    new = tuple.__new__  # Token(...) without the Python-level __new__
    tokens: list[Token] = []
    line = col = 1
    for gap, lexeme in _TOKEN.findall(text):
        if gap:
            if "\n" in gap:
                line += gap.count("\n")
                col = len(gap) - gap.rindex("\n")
            else:
                col += len(gap)
        end = col + len(lexeme)
        kind, value = _KINDS.get(lexeme), None
        if kind is None:
            if not lexeme:
                break
            c = lexeme[0]
            if c.isalpha() or c == "_":
                kind = "ident"
            elif c.isdecimal():
                if lexeme[1:2] in ("x", "X"):
                    if len(lexeme) == 2:
                        fail("malformed hexadecimal literal", line, col, end)
                    kind, value = "int", int(lexeme, 16)
                elif "." in lexeme:
                    kind, value = "float", lexeme
                else:
                    kind, value = "int", int(lexeme)
            elif c == '"' and len(lexeme) > 1:
                kind = "string"
                value = lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
            elif c == '"':  # a string that faults before its closing quote
                rest = text.split("\n", line - 1)[-1][col - 1 :]
                n = len(re.match(_STRING, rest)[0])
                fault, stop = rest[n : n + 2], col + n
                if fault[:1] != "\\":
                    fail("unterminated string literal", line, col, stop)
                what = f"unknown string escape '{fault}'" if fault[1:] else "unterminated string escape"
                fail(what, line, col, stop + 1)
            else:
                fail(f"unexpected character {c!r}", line, col, col)
        tokens.append(new(Token, (kind, lexeme, line, col, end - 1, value, file)))
        col = end
    tokens.append(new(Token, ("eof", "", line, col, col, None, file)))
    return tokens
