"""Lexer for `.sl` sources: one regular expression, matched once over the
text, gives (gap, lexeme) pairs, the gap being the blanks, newlines and
comments before the lexeme. One loop turns the pairs into tokens, moving one
character offset past each gap and lexeme: a lexeme it has seen as a
keyword, punctuation or identifier is looked up in one table, any other is
classified by its first character, and an identifier then joins the table.

A token is the plain tuple `(kind, text, lo, hi, value, source)`, read
through the index constants below: the offsets of its first character and
of one past its last, and the file's `Source`, which alone turns offsets
into lines and columns. `token_span` builds a token's `Span` on request,
for a syntax node or a diagnostic. `--` starts a line comment. Identifiers
start with a letter (`str.isalpha`) or `_` and go on with `\\w`; numbers are
`\\d` digits, the decimal digits `int()` accepts.
"""

from __future__ import annotations

import re

from .diagnostics import Abort, Diagnostic, Source, Span

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
# punctuation | "_" | "eof"; `text` is a string's value, not its lexeme.
KIND, TEXT, LO, HI, VALUE, SOURCE = range(6)
Token = tuple  # (kind, text, lo, hi, value, source)


def token_span(tok: Token) -> Span:
    return Span(tok[SOURCE], tok[LO], tok[HI])


def _long_decimal(digits: str) -> int:
    """The value of a decimal literal of more digits than one `int()` call
    converts (`sys.int_info`): exact when all but its last 20 digits are
    zeros, and otherwise `1 << 64`, which like the literal lies beyond the
    range of every integer type."""
    head, tail = digits[:-20], digits[-20:]
    return 1 << 64 if any(map(int, set(head))) else int(tail)


def tokenize(text: str, file: str) -> list[Token]:
    source = Source(file, text)

    def fail(msg: str, lo: int, hi: int):
        raise Abort(Diagnostic("E-PARSE", msg, Span(source, lo, hi)))

    kinds = dict(_KINDS)
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    for gap, lexeme in _TOKEN.findall(text):
        pos += len(gap)
        end = pos + len(lexeme)
        kind = kinds.get(lexeme)
        if kind is not None:
            append((kind, lexeme, pos, end, None, source))
            pos = end
            continue
        if not lexeme:
            break
        c, value = lexeme[0], None
        if c.isalpha() or c == "_":
            kind = kinds[lexeme] = "ident"
        elif c.isdecimal():
            if lexeme[1:2] in ("x", "X"):
                if len(lexeme) == 2:
                    fail("malformed hexadecimal literal", pos, end + 1)
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
            stop = pos + len(re.match(_STRING, text[pos:])[0])
            fault = text[stop : stop + 2]
            if fault[:1] != "\\":
                fail("unterminated string literal", pos, stop + 1)
            what = f"unknown string escape '{fault}'" if fault[1:] else "unterminated string escape"
            fail(what, pos, stop + 2)
        else:
            fail(f"unexpected character {c!r}", pos, end)
        append((kind, lexeme, pos, end, value, source))
        pos = end
    append(("eof", "", pos, pos, None, source))
    return tokens
