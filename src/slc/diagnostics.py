"""Spans and diagnostics shared by every compiler stage.

Diagnostic codes form a stable catalog; the CLI contract promises that no
other codes are ever emitted and that output ordering is deterministic.
"""

from __future__ import annotations

import re
from bisect import bisect_right


# Every code the toolchain may emit, with its default severity.
CATALOG = {
    "E-PARSE": "error",
    "E-ENCODING": "error",
    "E-NAME": "error",
    "E-ARITY": "error",
    "E-TYPE-MISMATCH": "error",
    "E-MISSING-REQ": "error",
    "E-UNBOUND-ASSOC": "error",
    "E-NEEDS-NAME": "error",
    "E-CANNOT-INFER": "error",
    "E-NO-MODEL": "error",
    "E-AMBIGUOUS": "error",
    "E-DEPTH": "error",
    "E-NORM-DIVERGE": "error",
    "E-OVERLAP": "error",
    "E-DUPLICATE": "error",
    "E-CONSTRUCTOR-DUP": "error",
    "E-BLANKET-SELF": "error",
    "E-BLANKET-DUP": "error",
    "E-ORPHAN": "error",
    "E-CYCLE": "error",
    "E-UNRESOLVED-IMPORT": "error",
    "E-LINK-CONFLICT": "error",
    "E-NO-ENTRY": "error",
    "E-MULTI-ENTRY": "error",
    "E-CORE-ILLTYPED": "error",
    "E-RT-MATCH": "error",
    "E-RT-FUEL": "error",
    "E-NO-GOAL": "error",
    "W-INCOHERENT": "warning",
}


def slot_names(record) -> tuple[str, ...]:
    """The `__slots__` of `record`'s class and its bases, bases first."""
    return tuple(n for c in reversed(type(record).__mro__) for n in vars(c).get("__slots__", ()))


class Record:
    """A `__slots__` class compared and hashed by its type and slot values."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in slot_names(self)
        )

    def __hash__(self):
        return hash((type(self), *[getattr(self, name) for name in slot_names(self)]))


class Source:
    """A file's name and text, whose table of line starts is built when a
    position is first read. A source whose text is not at hand is empty and
    starts at `line`."""

    def __init__(self, name: str, text: str, line: int = 1):
        self.name, self.text, self.line, self.starts = name, text, line, None

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based (line, col) of the character at `offset`."""
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        i = bisect_right(self.starts, offset)
        return self.line + i - 1, offset - self.starts[i - 1] + 1


class Span:
    """A source region: offsets into `source` of its first character and one
    past its last. `start` and `end`, the first and last characters' 1-based
    (line, col), are resolved when read; an empty span ends where it starts."""

    __slots__ = ("source", "lo", "hi")
    def __init__(self, source: Source, lo: int, hi: int):
        self.source, self.lo, self.hi = source, lo, hi

    @classmethod
    def at(cls, file: str, line: int = 1, col: int = 1) -> Span:
        """An empty span at `line`:`col` of `file`, whose text is not at hand."""
        return cls(Source(file, "", line), col - 1, col - 1)

    @property
    def file(self) -> str:
        return self.source.name

    @property
    def start(self) -> tuple[int, int]:
        return self.source.position(self.lo)

    @property
    def end(self) -> tuple[int, int]:
        return self.source.position(max(self.lo, self.hi - 1))

    def __eq__(self, other):
        return type(other) is Span and (self.file, self.lo, self.hi) == (other.file, other.lo, other.hi)

    def __hash__(self):
        return hash((self.file, self.lo, self.hi))

    def covers(self, line: int, col: int) -> bool:
        return self.start <= (line, col) <= self.end

    def to_json(self) -> dict:
        return {"file": self.file, "start": list(self.start), "end": list(self.end)}

    def __str__(self):
        return "{}:{}:{}".format(self.file, *self.start)


class Related:
    """A secondary location attached to a diagnostic (e.g. the other model)."""

    __slots__ = ("span", "note")
    def __init__(self, span: Span, note: str = ""):
        self.span, self.note = span, note

    def to_json(self) -> dict:
        return {"span": self.span.to_json(), "note": self.note}


class Diagnostic:
    __slots__ = ("code", "message", "span", "module", "related")
    def __init__(self, code: str, message: str, span: Span, module: str = "",
                 related: tuple[Related, ...] = ()):
        self.code, self.message, self.span, self.module = code, message, span, module
        self.related = related
        assert self.code in CATALOG, self.code

    @property
    def severity(self) -> str:
        return CATALOG[self.code]

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "module": self.module,
            "span": self.span.to_json(),
            "message": self.message,
            "related": [r.to_json() for r in self.related],
        }

    def render(self, color: bool = False) -> str:
        sev = self.severity
        if color:
            tint = "\x1b[31m" if sev == "error" else "\x1b[33m"
            sev_txt = f"{tint}{sev}[{self.code}]\x1b[0m"
        else:
            sev_txt = f"{sev}[{self.code}]"
        where = f" (module {self.module})" if self.module else ""
        lines = [f"{self.span}: {sev_txt}: {self.message}{where}"]
        for rel in self.related:
            note = f": {rel.note}" if rel.note else ""
            lines.append(f"  related: {rel.span}{note}")
        return "\n".join(lines)


class Abort(Exception):
    """Ends a parse, or the check of one declaration, at its diagnostic."""

    def __init__(self, diag: Diagnostic):
        self.diagnostic = diag
        super().__init__(diag.message)


def sort_diagnostics(diags: list[Diagnostic], topo_index: dict[str, int]) -> list[Diagnostic]:
    """Canonical ordering: (module topological index, span, code), a span by
    its file and its first and last characters' offsets."""

    def key(d: Diagnostic):
        span = d.span
        return (topo_index.get(d.module, -1), span.file, span.lo, max(span.lo, span.hi - 1), d.code, d.message)

    return sorted(diags, key=key)


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)
