"""Spans around the calls `sl` makes into each layer, recorded from outside.

The wrappers replace module attributes after `slc.cli` is imported, so the
program's own files stay untouched. A name that another module imported
with `from X import name` is a separate binding and is wrapped where it is
called from. Spans are kept in memory as (name, start, end, parent) and
folded into per-layer self time, total time and call counts when the op ends.
Layer counters are taken at the same boundaries.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# The phase spans every op records: they give check_s and run_s.
PHASES = (
    ("cli", "check_sources", "linker.check_sources"),
    ("cli", "elaborate", "corekit.elaborate"),
    ("cli", "core_check", "corekit.core_check"),
    ("cli", "run_program", "evaluator.run_program"),
)

# The layer spans a traced op adds: (module of the binding, attribute, span name).
LAYERS = (
    ("cli", "main", "cli.main"),
    ("parser", "tokenize", "lexer.tokenize"),
    ("linker", "parse_module_bytes", "parser.parse_module_bytes"),
    ("linker", "check_module", "sema.check_module"),
    ("linker", "check_def_site", "coherence.check_def_site"),
    ("linker", "link", "linker.link"),
    ("resolver.Resolver", "resolve", "resolver.resolve"),
    ("resolver", "candidates", "resolver.candidates"),
    ("coherence", "is_duplicate", "coherence.pair_check"),
    ("coherence", "heads_overlap", "coherence.pair_check"),
    ("sema", "normalize", "types.normalize"),
    ("resolver", "normalize", "types.normalize"),
    ("corekit", "normalize", "types.normalize"),
    ("coherence", "normalize", "types.normalize"),
)

PAIR_CONTEXTS = {"linker.link": "link", "coherence.check_def_site": "def_site"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        count = getattr(self, "_count_" + attr, None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ counters

    def _count_tokenize(self, args, tokens):
        self.counts["lexer.tokens"] += len(tokens)

    def _count_check_sources(self, args, result):
        self.counts["sema.goals"] += sum(len(m.goal_log) for m in result.modules.values())

    def _count_candidates(self, args, found):
        goal, scope = args
        self.counts["resolver.candidates.examined"] += len(scope.models_of(goal.constraint.concept))
        self.counts["resolver.candidates.matched"] += len(found)

    def _count_normalize(self, args, result):
        self.counts["types.normalize.unchanged"] += result is args[0]

    def _count_is_duplicate(self, args, duplicate):
        self._pair(bool(duplicate))

    def _count_heads_overlap(self, args, witness):
        self._pair(witness is not None)

    def _pair(self, conflict: bool):
        names = (self.spans[index][0] for index in reversed(self.stack))
        where = next((PAIR_CONTEXTS[n] for n in names if n in PAIR_CONTEXTS), "other")
        self.counts[f"coherence.pair_checks.{where}"] += 1
        self.counts["coherence.pair_conflicts"] += conflict

    # ------------------------------------------------------------ results

    def layers(self) -> dict[str, list[float]]:
        """Per span name: [self seconds, total seconds, calls, self seconds
        inside `linker.check_sources`]."""
        spans = self.spans
        in_check = [False] * len(spans)
        for index, (name, _, _, parent) in enumerate(spans):
            in_check[index] = name == "linker.check_sources" or (parent >= 0 and in_check[parent])
        child = [0.0] * len(spans)
        out: dict[str, list[float]] = {}
        for index in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[index]
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            own = duration - child[index]
            entry = out.setdefault(name, [0.0, 0.0, 0, 0.0])
            entry[0] += own
            entry[1] += duration
            entry[2] += 1
            entry[3] += own if in_check[index] else 0.0
        return out


def install(slc_modules: dict, traced: bool) -> Recorder:
    """Wrap the phase bindings, and with `traced` every layer binding."""
    recorder = Recorder()
    for owner, attr, name in PHASES + (LAYERS if traced else ()):
        target = slc_modules[owner.split(".")[0]]
        if "." in owner:
            target = getattr(target, owner.split(".")[1])
        recorder.wrap(target, attr, name)
    return recorder
