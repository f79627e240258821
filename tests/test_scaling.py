"""Scaling guard: on a wide program of sibling modules, the constructor index
keeps coherence pair checks at the planted conflict and head matches linear
in the number of modules, parsing, checking and the core pass each cost a
fixed number of opcodes per module, and `run`'s core pass barely grows with
modules its `main` does not reach. On a chain of imports, or among siblings
that reuse names, checking costs the same per module however many there are,
and no check leaves cyclic garbage. A clean check resolves no source
position, and resolving them for diagnostics costs linear time. A chain of
lets costs the same per let however long it is, in time and memory, in
checking, in the core check and in the evaluator's compilation and run,
whatever its bounds, and takes no Python frame per let."""

import gc
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import CORPUS, check_inline, slc_env
from test_acceptance import POLICIES, PROGRAMS

import slc
from slc import coherence
from slc.coherence import CoherencePolicy
from slc.corekit import core_check, elaborate
from slc.decls import CalleeSig, ModelDecl, ModelWorld
from slc.diagnostics import Source, Span
from slc.evaluator import Interp, run_program
from slc.parser import parse_module_bytes
from slc.resolver import Goal, Resolver
from slc.types import Conf

LOCAL_TYPES = 10
SRC = Path(slc.__file__).parent


def wide_program(siblings: int, reuse_names: bool = False) -> dict[str, str]:
    """A base module with `Show`, a shared type and `Show[Option[a]]`, plus
    `siblings` modules that each import only the base, define local types
    with `Show` models and use them. Siblings 1 and `siblings - 2` both
    model the shared type. With `reuse_names`, every sibling gives its
    types, constructors and function the same names."""
    files = {
        "base": """\
module base
concept Show[Self] { fn show(x: Self) -> String }
data Shared { MkShared }
model Show[Option[a]] where Show[a] {
  fn show(o: Option[a]) -> String { match o { Some(x) => concat("some ", show(x)), None => "none" } }
}
"""
    }
    planted = {1, siblings - 2}
    for k in range(siblings):
        own = "" if reuse_names else f"{k:02d}"
        ids = [f"{own}x{j}" if own else str(j) for j in range(LOCAL_TYPES)]
        lines = [f"module s{k:02d}", "import base"]
        for j, i in enumerate(ids):
            lines += [
                f"data T{i} {{ C{i} }}",
                f'model Show[T{i}] {{ fn show(x: T{i}) -> String {{ "t{j}" }} }}',
            ]
        if k in planted:
            lines.append(f'model Show[Shared] {{ fn show(x: Shared) -> String {{ "shared {k}" }} }}')
        body = '""'
        for i in ids:
            body = f"concat({body}, concat(show(C{i}), show(Some(C{i}))))"
        lines.append(f"fn use{own}() -> String {{ {body} }}")
        files[f"s{k:02d}"] = "\n".join(lines) + "\n"
    return files


def linked_wide_program(siblings: int) -> dict[str, str]:
    """`wide_program` with the second planted `Show[Shared]` model dropped,
    so that it links."""
    files = wide_program(siblings)
    planted = f"s{siblings - 2:02d}"
    files[planted] = "".join(
        line for line in files[planted].splitlines(keepends=True) if "Shared" not in line
    )
    return files


def counted_check(monkeypatch, siblings: int) -> tuple[int, int]:
    """(pair_conflict calls, ModelDecl.match calls) for one check."""
    calls = {"pair": 0, "match": 0}
    pair_conflict, match = coherence.pair_conflict, ModelDecl.match

    def counted_pair(*args):
        calls["pair"] += 1
        return pair_conflict(*args)

    def counted_match(self, targets):
        calls["match"] += 1
        return match(self, targets)

    with monkeypatch.context() as patch:
        patch.setattr(coherence, "pair_conflict", counted_pair)
        patch.setattr(ModelDecl, "match", counted_match)
        result = check_inline("use-site", **wide_program(siblings))
    [conflict] = result.diagnostics
    assert conflict.code == "E-LINK-CONFLICT"
    assert conflict.module == f"s{siblings - 2:02d}"
    assert "s01.<model 10>" in conflict.message
    return calls["pair"], calls["match"]


@pytest.mark.parametrize("siblings", [4, 12])
def test_only_the_planted_pair_is_checked(monkeypatch, siblings):
    pairs, _ = counted_check(monkeypatch, siblings)
    assert pairs == 1


def test_head_matches_grow_linearly_with_modules(monkeypatch):
    _, small = counted_check(monkeypatch, 4)
    _, large = counted_check(monkeypatch, 12)
    assert large <= 3 * small, (small, large)


def opcodes(run, modules: tuple[str, ...] | None = None) -> int:
    """Opcodes Python executes in `run()`, counted with `sys.settrace`, or
    only those in the functions of `modules`, names of `slc` modules. The
    collector is off while it runs, so that freeing dead interned terms,
    whose weak references run Python callbacks, lands outside the count."""
    count = 0
    files = None if modules is None else {str(SRC / f"{name}.py") for name in modules}

    def count_opcodes(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return count_opcodes

    def trace(frame, event, arg):  # on entering a frame
        if files is not None and frame.f_code.co_filename not in files:
            return None
        frame.f_trace_opcodes = True
        return count_opcodes

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
        if enabled:
            gc.enable()
    return count


def core_pass_opcodes(siblings: int, app: str | None = None) -> int:
    """Opcodes `elaborate` and `core_check` run on `wide_program` with the
    second planted `Show[Shared]` model dropped, so that it links. With an
    `app` module, only what its `main` reaches is elaborated, as `run` does."""
    files = linked_wide_program(siblings)
    if app is not None:
        files["app"] = app
    result = check_inline("use-site", **files)
    assert result.ok, result.diagnostics
    program = result.program
    roots = None if app is None else [program.entry]
    diagnostics = []
    count = opcodes(lambda: diagnostics.extend(core_check(elaborate(program, roots))))
    assert diagnostics == []
    return count


def check_opcodes(siblings: int, reuse_names: bool = False, modules=None) -> int:
    """Opcodes `check_sources` runs on `wide_program`, planted conflict
    included, in all of it or in the functions of `modules`."""
    files = wide_program(siblings, reuse_names)
    return opcodes(lambda: check_inline("use-site", **files), modules)


def test_core_pass_opcodes_per_module():
    """Each sibling adds ten models, their dictionaries and a use of each:
    every core node is elaborated and checked at a small fixed cost, and
    each instantiation is built once."""
    assert (core_pass_opcodes(12) - core_pass_opcodes(4)) / 8 <= 57_000


def test_run_core_pass_skips_unreached_modules():
    """`main` uses one sibling, so `run` elaborates and checks the same 13
    definitions whatever the number of siblings, and reads the data types
    and concepts they name from the program's index, which sema filled: 10
    opcodes per sibling when set (218 while `Elaborator.__init__` filed
    every module's declarations), against about 47,000 when the whole
    program is elaborated and checked."""
    app = "module app\nimport s00\nfn main() -> Unit { print(use00()) }\n"
    assert (core_pass_opcodes(12, app) - core_pass_opcodes(4, app)) / 8 <= 40


def test_check_opcodes_per_module():
    """Each sibling adds ten data types, their models and a function that
    uses each: sema checks every expression through one rule and looks each
    global name up once per module, a call walks its callee's signature
    plan, a goal without givens goes straight to its candidates, and the
    lexer and parser read each token once. 119,198 opcodes per sibling when
    set (166,172 before that; 120,889 with one declaration index per
    program; 120,485 with plain-tuple tokens and spans that check nothing;
    120,272 before tokens and spans held offsets in place of lines and
    columns, 116,687 after; 104,353 with signature plans, the direct path
    for goals without givens and one resolver for a module's bodies without
    givens; 96,874 with each declaration's signature, requirement plan and
    head plan built once per program, and the pair engine's visited set)."""
    assert (check_opcodes(12) - check_opcodes(4)) / 8 <= 96_900


SEMA_MODULES = ("sema", "types", "decls", "resolver")


def test_sema_opcodes_per_module():
    """Of those, what sema and the modules it calls spend per sibling: a
    model body is checked against its requirement's plan by the module's
    one checker for bodies with no givens, a callee's signature comes from
    the index, and a candidate's type arguments and context are read off
    the match. 44,725 opcodes per sibling when set, against 51,822 while
    each module planned every callee it called and each model body
    instantiated its concept again."""
    per_sibling = (check_opcodes(12, modules=SEMA_MODULES) - check_opcodes(4, modules=SEMA_MODULES)) / 8
    assert per_sibling <= 44_750


def test_callee_signatures_are_built_once_per_declaration(monkeypatch):
    """A callee's signature and plan are built as its declaration is filed,
    or as a builtin is first called, once per program. So each sibling adds
    only its own: its ten constructors' and its function's. `show`, `Some`
    and `concat`, which every sibling calls, are planned once however many
    siblings call them (each sibling planned them again while signatures
    were built per module)."""
    built = []
    init = CalleeSig.__init__

    def counted(self, kind, display, *rest):
        built.append(display)
        init(self, kind, display, *rest)

    monkeypatch.setattr(CalleeSig, "__init__", counted)

    def signatures(siblings: int) -> Counter:
        built.clear()
        check_inline("use-site", **wide_program(siblings))
        return Counter(built)

    small, large = signatures(4), signatures(12)
    assert large.total() - small.total() == 8 * (LOCAL_TYPES + 1)
    assert [(small[name], large[name]) for name in ("Show.show", "Some", "concat")] == [(1, 1)] * 3


SHOW_MODULE = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
data T { C }
model Show[T] { fn show(x: T) -> String { "t" } }
model Show[Option[a]] where Show[a] { fn show(o: Option[a]) -> String { "o" } }
"""


def calls_program(call: str, calls: int) -> str:
    """`SHOW_MODULE` with a function that concatenates `calls` copies of
    `call`, one `concat` each."""
    body = '""'
    for _ in range(calls):
        body = f"concat({body}, {call})"
    return SHOW_MODULE + f"fn use() -> String {{ {body} }}\n"


@pytest.mark.parametrize("call, bound", [("show(C)", 750), ("show(Some(C))", 1_275)])
def test_check_opcodes_per_call(call, bound):
    """Checking one more `concat(..., call)`, parsing left out: a callee's
    signature plan says which arguments to synthesize and which variable
    each binds, so a call builds its goal from the binding with one
    `_intern` and substitutes nothing else, and a goal with no givens in
    scope and no projection goes straight to its candidates, found once per
    goal. Opcodes per call when set: 739 for `show(C)` and 1,259 for
    `show(Some(C))`, against 1,215 and 2,348 while every call applied a
    substitution to each parameter, goal and result and every goal was
    normalized and its candidates found again; the `concat` holding each is
    about 240 of them."""

    def sema_opcodes(calls: int) -> int:
        source = calls_program(call, calls)
        return opcodes(lambda: check_inline(m=source)) - opcodes(
            lambda: parse_module_bytes(source.encode(), "m.sl")
        )

    assert (sema_opcodes(30) - sema_opcodes(10)) / 20 <= bound


def test_ground_goal_resolve_opcodes():
    """One ground goal with a context-free model, resolved without givens:
    no normalization, no givens loop, a head compared by identity and one
    candidate, then the same goal again from the world's table. 208 and
    121 opcodes when set, against 275 each before."""
    result = check_inline(m=calls_program("show(C)", 1))
    module = result.modules["m"]
    [model] = [m for m in module.models if not m.vars]

    def resolve_opcodes(again: bool) -> int:
        world = ModelWorld(module.world.index, module.world.visible, home="m")
        world.models_like(model.concept, model.head[0])  # its bucket, filled once per world
        resolver = Resolver(world, CoherencePolicy("use-site"))
        goal = Goal(Conf(model.concept, tuple(model.head)), Span.at("<goal>"))
        if again:
            resolver.resolve(goal)
        return opcodes(lambda: resolver.resolve(goal))

    first, again = resolve_opcodes(False), resolve_opcodes(True)
    assert first <= 212 and again <= 125, (first, again)


def test_a_clean_check_resolves_no_position(monkeypatch):
    """Spans hold offsets into their file, and a check with nothing to
    report never turns one into a line and column."""

    def position(self, offset):
        raise AssertionError(f"{self.name}: offset {offset} resolved")

    monkeypatch.setattr(Source, "position", position)
    assert check_inline("use-site", **linked_wide_program(12)).ok


def test_diagnostic_positions_cost_linear_time():
    """Each of `n` duplicate functions in one file is an E-NAME, and turning
    the diagnostics into JSON resolves their positions. That costs linear
    time: a reader that scanned the text again for each span would make it
    quadratic."""

    def to_json_opcodes(n: int) -> int:
        diags = check_inline(dup="module dup\n" + "fn f() -> Unit { () }\n" * n).diagnostics
        assert [d.code for d in diags] == ["E-NAME"] * (n - 1)
        return opcodes(lambda: [d.to_json() for d in diags])

    assert to_json_opcodes(2_000) <= 2.1 * to_json_opcodes(1_000)


def test_parse_opcodes_per_module():
    """The lexer and parser alone, on the same siblings: about 123 opcodes
    for each of a sibling's 444 tokens. 54,739 opcodes per sibling when set;
    55,156 while tokens were named tuples, each newline was a lexeme and
    `Span.__init__` asserted its fields; 74,858 before the lexer's one
    table and the flat expression chain; 51,154 since tokens and spans hold
    character offsets, not lines and columns."""

    def parse_opcodes(siblings: int) -> int:
        sources = [(f"{name}.sl", text.encode()) for name, text in wide_program(siblings).items()]
        return opcodes(lambda: [parse_module_bytes(data, path) for path, data in sources])

    assert (parse_opcodes(12) - parse_opcodes(4)) / 8 <= 51_400


def chain_program(modules: int) -> dict[str, str]:
    """`modules` modules in one import chain, each with ten data types, a
    `Show` model for each, and ten functions that return the constructors
    of the module before it. The first module declares `Show`."""
    files = {}
    for k in range(modules):
        lines = [f"module c{k:03d}"] + ([f"import c{k - 1:03d}"] if k else [])
        if not k:
            lines.append("concept Show[Self] { fn show(x: Self) -> String }")
        for j in range(10):
            lines.append(f"data D{k:03d}x{j} {{ C{k:03d}x{j} }}")
            lines.append(f'model Show[D{k:03d}x{j}] {{ fn show(x: D{k:03d}x{j}) -> String {{ "d" }} }}')
            if k:
                lines.append(f"fn f{k:03d}x{j}() -> D{k - 1:03d}x{j} {{ C{k - 1:03d}x{j} }}")
        files[f"c{k:03d}"] = "\n".join(lines) + "\n"
    return files


def test_check_opcodes_per_module_stay_flat_along_an_import_chain():
    """A program has one declaration index, which each module sees through
    its import closure, and a module's model world filters a bucket of it
    only when asked: so a module costs about the same at the end of a long
    chain as at the end of a short one. From 40 to 80 modules it costs 1.00
    times as much as from 10 to 20 when set, against 1.38 times while each
    module's world was rebuilt from every visible model, and 1.76 times
    when every module indexed all its transitive imports again (before its
    `Show` models were added)."""

    def chain_opcodes(modules: int) -> int:
        files = chain_program(modules)
        result = []
        count = opcodes(lambda: result.append(check_inline("use-site", **files)))
        assert result[0].ok, result[0].diagnostics
        return count

    short = (chain_opcodes(20) - chain_opcodes(10)) / 10
    long = (chain_opcodes(80) - chain_opcodes(40)) / 40
    assert long <= 1.2 * short, (short, long)


def test_check_opcodes_per_module_stay_flat_when_siblings_reuse_names():
    """Siblings that give their types, constructors and function the same
    names file them under the same keys of the program's index. A lookup
    walks the modules that filed the name or the modules it sees, whichever
    are fewer, so a sibling costs about the same however many siblings were
    checked before it: from 40 to 80 siblings it costs 1.00 times as much
    as from 10 to 20 when set, against 1.09 times while every lookup walked
    the entries of every module."""

    def per_sibling(small: int, large: int) -> float:
        return (check_opcodes(large, True) - check_opcodes(small, True)) / (large - small)

    short, long = per_sibling(10, 20), per_sibling(40, 80)
    assert long <= 1.05 * short, (short, long)


# The bound of `let x{i}` in each shape of `let_chain`.
LET_BOUNDS = {
    "add64": "add64(x{j}, 1:U64)",
    "lambda": "fn(y: U64) => add64(y, x0)",
    "match": "match Some(x{j}) {{ Some(v) => add64(v, 1:U64) }}",
}


def let_chain(lets: int, shape: str = "add64") -> str:
    """A module whose `main` binds `lets` variables after `x0 = 0` in one
    chain and prints `lets`. By `shape`, each bound is one more than the
    variable before (`add64`), the same through a match whose arm binds it
    (`match`), or a lambda that adds `x0` to its argument (`lambda`), the
    last of which `main` applies to `lets`."""
    bound = LET_BOUNDS[shape]
    body = "".join(f"  let x{i} = {bound.format(j=i - 1)};\n" for i in range(1, lets + 1))
    last = f"x{lets}({lets}:U64)" if shape == "lambda" else f"x{lets}"
    return f"module m\nfn main() -> Unit {{\n  let x0 = 0:U64;\n{body}  print(show64({last}))\n}}\n"


def let_chain_pass(phase: str, lets: int):
    """`phase` of `sl run` on `let_chain(lets)`, as a function of nothing;
    `run`, the whole of `run_program`, runs the lambda chain."""
    source = let_chain(lets, "lambda" if phase == "run" else "add64")
    if phase == "check_sources":
        return lambda: check_inline(m=source)
    result = check_inline(m=source)
    assert result.ok, result.diagnostics
    core = elaborate(result.program, [result.program.entry])
    if phase == "core_check":
        return lambda: core_check(core)
    if phase == "run":
        return lambda: run_program(core)
    return lambda: Interp(core).global_value(core.entry)  # compiles `main`


def peak_bytes(run) -> int:
    """The peak of memory that tracemalloc sees allocated while `run()` runs,
    with the collector off as in `opcodes`."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


LET_PHASES = ["check_sources", "core_check", "compile"]


@pytest.mark.parametrize("phase", LET_PHASES)
def test_let_chain_opcodes_per_let_stay_flat(phase):
    """Sema and the core check bind each `let` in the one environment dict
    and unbind it on the way out, and the evaluator compiles a chain of lets
    as one node, finding each variable's slot in a map: so a `let` costs the
    same at the end of a long chain as of a short one. Opcodes per let from
    1,000 to 4,000 lets when set: 1,774 and 1,770 in `check_sources`, 261
    and 260 in `core_check`, 325 and 324 in compilation. Copying a dict or a
    tuple is one opcode, so the copies each `let` once made show in the
    memory test below, not here."""
    short = opcodes(let_chain_pass(phase, 1_000)) / 1_000
    long = opcodes(let_chain_pass(phase, 4_000)) / 4_000
    assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("phase", [*LET_PHASES, "run"])
def test_let_chain_memory_per_let_stays_flat(phase):
    """The same passes, and `run_program` on a chain of lambdas, hold memory
    linear in the number of lets: no `let` copies the environment or the
    scope of the lets before it, and a closure keeps the one value it reads,
    not the frame it was made in. Peak bytes per let from 500 to 2,000 lets
    when set: 3,134 and 3,102 in `check_sources`, 42 and 40 in `core_check`,
    669 and 675 in compilation, against 9,413 and 30,180, 7,184 and 28,393,
    3,079 and 9,083 while each let copied them; 1,444 and 1,391 in `run`,
    against 3,113 and 9,109 while each closure kept a copy of its frame.
    (tracemalloc walks the whole Python stack on each allocation, so larger
    chains make this test slow, not its bound loose.)"""
    short = peak_bytes(let_chain_pass(phase, 500)) / 500
    long = peak_bytes(let_chain_pass(phase, 2_000)) / 2_000
    assert long <= 1.1 * short, (short, long)


def test_let_chain_runs_in_linear_time():
    """The evaluator stores each let's value into the one frame of `main`,
    and a lambda copies only the values it reads, so `run_program`
    (compiling `main` included) of a chain four times as long takes about
    four times as long, whatever the bounds: from 5,000 to 20,000 lets when
    set, 4.5 to 4.9 times with `add64` bounds (14 times while each `let`
    copied the frame tuple), and 4.0 and 4.4 times with lambda and binding
    match bounds (16 to 23 times while their lets ran on tuple copies of
    the frame). Best of five runs of each, with the collector off as `sl
    run` nearly has it (`cli.YOUNG_THRESHOLD`), so that its passes over the
    compiled chain do not count."""

    def run_seconds(lets: int, shape: str) -> float:
        result = check_inline(m=let_chain(lets, shape))
        core = elaborate(result.program, [result.program.entry])
        best = float("inf")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                _, transcript = run_program(core)
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        assert transcript == [str(lets)]
        return best

    for shape in LET_BOUNDS:
        short, long = run_seconds(5_000, shape), run_seconds(20_000, shape)
        assert long <= 6 * short, (shape, short, long)


# Checks and runs the program on stdin in a fresh interpreter whose
# recursion limit is 3,000, and prints its transcript.
LOW_LIMIT_RUN = """\
import sys
import slc
sys.setrecursionlimit(3_000)
from slc.coherence import CoherencePolicy
from slc.corekit import core_check, elaborate
from slc.evaluator import run_program
from slc.linker import check_sources
result = check_sources([("m.sl", sys.stdin.buffer.read())], CoherencePolicy("use-site"))
assert result.ok, result.diagnostics
core = elaborate(result.program, [result.program.entry])
assert core_check(core) == []
print(*run_program(core)[1])
"""


def test_let_chains_need_no_python_frame_per_let():
    """Sema, the elaborator, the core check and the evaluator each walk a
    chain of lets in one loop, so a 10,000-let `main` checks and runs at a
    recursion limit of 3,000, far below the one `import slc` sets. (Sema
    once recursed three frames per let, and a `main` of 40,000 lets escaped
    `sl check` as a RecursionError.)"""
    proc = subprocess.run(
        [sys.executable, "-c", LOW_LIMIT_RUN], input=let_chain(10_000).encode(),
        capture_output=True, env=slc_env(), timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (0, b"10000\n"), proc.stderr.decode()[-2000:]


@pytest.mark.parametrize("policy", POLICIES)
def test_checking_leaves_no_cyclic_garbage(policy):
    """Everything `check_sources` builds is freed by reference counting, so
    the collector finds no garbage after checking `wide_program` or any of
    the corpus programs, under any policy."""
    programs = [wide_program(6)] + [
        {name.removesuffix(".sl"): (CORPUS / name).read_text() for name in names}
        for names in PROGRAMS.values()
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for files in programs:
            check_inline(policy, **files)
            assert gc.collect() == 0, sorted(files)
    finally:
        if enabled:
            gc.enable()
