"""Lexer for `.sl` sources: one regular expression, matched once over the
text, gives (gap, lexeme) pairs, the gap being the blanks, newlines and
comments before the lexeme. One loop turns the pairs into tokens, moving the
line and column past each gap: a lexeme it has seen as a keyword,
punctuation or identifier is looked up in one table, any other is classified
by its first character, and an identifier then joins the table.

A token is the plain tuple `(kind, text, line, col, last, value, file)`, read
through the index constants below: a line and the columns of its first and
last characters, as ints. `token_span` builds a token's `Span` on request,
for a syntax node or a diagnostic. `--` starts a line comment. Identifiers
start with a letter (`str.isalpha`) or `_` and go on with `\\w`; numbers are
`\\d` digits, the decimal digits `int()` accepts.
"""

from __future__ import annotations

import re

from .diagnostics import Abort, Diagnostic, Span

KEYWORDS = frozenset({
    "module", "import", "concept", "model", "fn", "type", "data",
    "where", "match", "let", "if", "else", "true", "false",
})
_KINDS = {k: k for k in (*KEYWORDS, "_", "==", "=>", "->", *"()[]{},;:.=")}

# A string up to its closing quote, or up to its first fault: a newline, a
# bad escape or the end of the file.
_STRING = r'"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'
# A word that does not start with a digit comes first, as the commonest
# lexeme. A lone `"` is a string that faults. `.` also takes any unexpected
# character, so every match starts where the last one ended, and `\Z` ends the
# text (findall reports it twice after a trailing gap). A gap is blanks, then
# any comments each with the blanks after it; it takes every newline, so `.`
# never meets one.
_TOKEN = re.compile(r"""([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)
    ([^\W\d]\w* | [()\[\]{},;:] | ==|=>|-> | %s" | 0[xX][0-9a-fA-F]* | \d+\.\d+ | \d+ | . | \Z)
    """ % _STRING, re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


# A token's fields. `kind` is "ident" | "int" | "float" | "string" | keyword |
# punctuation | "_" | "eof"; `col` and `last` are the columns of its first and
# last characters, on its one line.
KIND, TEXT, LINE, COL, LAST, VALUE, FILE = range(7)
Token = tuple  # (kind, text, line, col, last, value, file)


def token_span(tok: Token) -> Span:
    return Span(tok[FILE], (tok[LINE], tok[COL]), (tok[LINE], tok[LAST]))


def _long_decimal(digits: str) -> int:
    """The value of a decimal literal of more digits than one `int()` call
    converts (`sys.int_info`): exact when all but its last 20 digits are
    zeros, and otherwise `1 << 64`, which like the literal lies beyond the
    range of every integer type."""
    head, tail = digits[:-20], digits[-20:]
    return 1 << 64 if any(map(int, set(head))) else int(tail)


def tokenize(text: str, file: str) -> list[Token]:
    def fail(msg: str, line: int, first: int, last: int):
        raise Abort(Diagnostic("E-PARSE", msg, Span(file, (line, first), (line, last))))

    kinds = dict(_KINDS)
    tokens: list[Token] = []
    append = tokens.append
    line = col = 1
    for gap, lexeme in _TOKEN.findall(text):
        if gap:
            if "\n" in gap:
                line += gap.count("\n")
                col = len(gap) - gap.rfind("\n")
            else:
                col += len(gap)
        end = col + len(lexeme)
        kind = kinds.get(lexeme)
        if kind is not None:
            append((kind, lexeme, line, col, end - 1, None, file))
            col = end
            continue
        if not lexeme:
            break
        c, value = lexeme[0], None
        if c.isalpha() or c == "_":
            kind = kinds[lexeme] = "ident"
        elif c.isdecimal():
            if lexeme[1:2] in ("x", "X"):
                if len(lexeme) == 2:
                    fail("malformed hexadecimal literal", line, col, end)
                kind, value = "int", int(lexeme, 16)
            elif "." in lexeme:
                kind, value = "float", lexeme
            else:
                kind = "int"
                try:
                    value = int(lexeme)
                except ValueError:
                    value = _long_decimal(lexeme)
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
        append((kind, lexeme, line, col, end - 1, value, file))
        col = end
    append(("eof", "", line, col, col, None, file))
    return tokens
