"""Elaboration to the dictionary-passing core and its type checker."""

import pytest
from conftest import CORPUS, check_inline, corpus_sources
from oracle import children

from slc import cli
from slc.coherence import CoherencePolicy
from slc.corekit import (
    CApp,
    CBuiltin,
    CCtor,
    CDict,
    CGlobal,
    CIf,
    CLam,
    CLet,
    CLit,
    CMatch,
    CoreExpr,
    CProj,
    CTuple,
    CTyApp,
    CVar,
    core_check,
    core_to_json,
    elaborate,
)
from slc.evaluator import run_program
from slc.linker import check_sources
from slc.types import U64, App, Con

ITER = """\
module iter

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


def build(policy="use-site", **files):
    result = check_inline(policy, **files)
    assert result.ok, result.diagnostics
    return elaborate(result.program)


def test_fold_gains_one_dictionary_parameter():
    core = build(iter=ITER)
    fold = core.defs["iter.fold"]
    assert isinstance(fold.expr, CLam)
    names = [n for n, _ in fold.expr.params]
    assert names == ["$d0", "xs", "acc", "f"]  # dictionary first, then values

    # the requirement call threads the dictionary explicitly: d.next(xs)
    def find_proj(e):
        if isinstance(e, CProj):
            return e
        return next(filter(None, map(find_proj, children(e))), None)

    proj = find_proj(fold.expr.body)
    assert proj is not None
    assert proj.field == "next"
    assert isinstance(proj.record, CVar) and proj.record.name == "$d0"


def test_model_without_context_is_plain_dictionary():
    core = build(iter=ITER)
    d = core.defs["dict$iter.bytes64"]
    assert isinstance(d.expr, CDict)
    assert list(d.expr.fields) == ["next"]
    assert not d.tyvars


def test_conditional_model_is_dictionary_function():
    src = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
concept Stepped[Self] {
  fn lessThan(x: Self, y: Self) -> Bool
  fn step(x: Self) -> Self
}
data Range[a] { UpTo(a, a) }
model steps: Stepped[U64] {
  fn lessThan(x: U64, y: U64) -> Bool { lt64(x, y) }
  fn step(x: U64) -> U64 { add64(x, 1:U64) }
}
model ranges: Iterator[Range[a]] where Stepped[a] {
  type Element = a
  fn next(it: Range[a]) -> Option[(a, Range[a])] {
    match it {
      UpTo(lo, hi) => if lessThan(lo, hi) { Some((lo, UpTo(step(lo), hi))) } else { None }
    }
  }
}
fn count(r: Range[U64]) -> U64 {
  match next(r) { Some(p) => add64(1:U64, count(snd(p))), None => 0:U64 }
}
fn main() -> Unit { print(show64(count(UpTo(1:U64, 4:U64)))) }
"""
    core = build(m=src)
    ranges = core.defs["dict$m.ranges"]
    assert ranges.tyvars  # parametric over the element type
    assert isinstance(ranges.expr, CLam)  # takes the Stepped dictionary
    assert [n for n, _ in ranges.expr.params] == ["$d0"]
    assert core_check(core) == []
    # count's call site builds the dictionary by applying the builder
    count = core.defs["m.count"]

    def find_dict_app(e):
        if (
            isinstance(e, CApp)
            and hasattr(e.fn, "fn")
            and isinstance(getattr(e.fn, "fn", None), CGlobal)
            and e.fn.fn.name == "dict$m.ranges"
        ):
            return e
        return next(filter(None, map(find_dict_app, children(e))), None)

    assert find_dict_app(count.expr) is not None


def test_zero_context_function_has_no_dict_params():
    core = build(m="module m\nfn id64(x: U64) -> U64 { x }\n")
    d = core.defs["m.id64"]
    assert [n for n, _ in d.expr.params] == ["x"]


def test_elaborated_program_core_checks():
    core = build(iter=ITER)
    assert core_check(core) == []


def test_hand_built_bad_projection_fails_core_check():
    core = build(iter=ITER)
    fold = core.defs["iter.fold"]
    body = fold.expr.body

    # corrupt: project a field that does not exist
    def corrupt(e):
        if isinstance(e, CProj):
            e.field = "missing"
            return True
        return any(corrupt(child) for child in children(e))

    assert corrupt(body)
    diags = core_check(core)
    assert diags and diags[0].code == "E-CORE-ILLTYPED"


def test_run_never_evaluates_core_that_fails_core_check(monkeypatch, capsys):
    """`core_check` is the one gate between elaboration and evaluation, and
    the evaluator checks nothing it rules out: `run` reports the rejection
    and never reaches `run_program`."""

    def corrupted(program, roots=None):
        core = elaborate(program, roots)
        nodes = [core.defs["iter_lib.fold"].expr]
        while nodes:  # project a field that does not exist
            node = nodes.pop()
            if isinstance(node, CProj):
                node.field = "missing"
            nodes.extend(c for c in children(node) if isinstance(c, CoreExpr))
        return core

    ran = []
    monkeypatch.setattr(cli, "elaborate", corrupted)
    monkeypatch.setattr(cli, "run_program", lambda *args: ran.append(args))
    monkeypatch.delenv("SL_COLOR", raising=False)
    monkeypatch.chdir(CORPUS)
    assert cli.main(["run", "iter_lib.sl", "iter_fold.sl"]) == 1
    assert capsys.readouterr() == (
        "",
        "<core>:1:1: error[E-CORE-ILLTYPED]: " + ILLTYPED
        + "dictionary iter_lib.Iterator has no field missing\n",
    )
    assert ran == []


def test_equality_constraints_erased_and_core_checks():
    src = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
model eq8: Equatable[U8] { fn equal(x: U8, y: U8) -> Bool { eq8(x, y) } }
model bytes64: Iterator[U64] {
  type Element = U8
  fn next(it: U64) -> Option[(U8, U64)] {
    if eq64(it, 0:U64) { None } else { Some((trunc8(band(it, 255:U64)), shr(it, 8:U64))) }
  }
}
fn elementsEqual[A, B](xs: A, ys: B) -> Bool
    where Iterator[A], Iterator[B], Equatable[A.Element], A.Element == B.Element {
  match next(xs) {
    Some(p) => match next(ys) {
      Some(q) => if equal(fst(p), fst(q)) { elementsEqual(snd(p), snd(q)) } else { false },
      None => false
    },
    None => match next(ys) { Some(_) => false, None => true }
  }
}
fn main() -> Unit { print(showbool(elementsEqual(0x2a2a:U64, 0x2a2a:U64))) }
"""
    core = build(m=src)
    assert core_check(core) == []
    ee = core.defs["m.elementsEqual"]
    # three Conf constraints become dictionaries; the Eq constraint is erased
    assert [n for n, _ in ee.expr.params][:3] == ["$d0", "$d1", "$d2"]
    assert "$d3" not in [n for n, _ in ee.expr.params]
    value, transcript = run_program(core)
    assert transcript == ["true"]


def test_superclass_dictionary_projection():
    src = """\
module m
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
concept Ordered[Self] where Equatable[Self] { fn less(x: Self, y: Self) -> Bool }
model e1: Equatable[U64] { fn equal(x: U64, y: U64) -> Bool { eq64(x, y) } }
model o1: Ordered[U64] { fn less(x: U64, y: U64) -> Bool { lt64(x, y) } }
fn nondecreasing[T](x: T, y: T) -> Bool where Ordered[T] {
  if less(x, y) { true } else { equal(x, y) }
}
fn main() -> Unit { print(showbool(nondecreasing(2:U64, 2:U64))) }
"""
    core = build(m=src)
    assert core_check(core) == []
    ordered_dict = core.defs["dict$m.o1"]
    assert isinstance(ordered_dict.expr, CDict)
    assert "super$0" in ordered_dict.expr.fields
    value, transcript = run_program(core)
    assert transcript == ["true"]


def test_distinct_named_models_make_distinct_dictionaries():
    sources = {
        "assoc_lib": "module assoc_lib\nconcept Keyed[Self] { type Key }\n",
        "assoc_left": """\
module assoc_left
import assoc_lib
model keyLeft: Keyed[U64] { type Key = Bool }
fn leftKey() -> U64.Key { true }
""",
        "assoc_right": """\
module assoc_right
import assoc_lib
model keyRight: Keyed[U64] { type Key = U64 }
fn rightKey() -> U64.Key { 7:U64 }
""",
        "top": """\
module top
import assoc_left
import assoc_right
fn main() -> Unit { print("ok") }
""",
    }
    result = check_inline("scoped", **sources)
    assert result.ok, result.diagnostics
    core = elaborate(result.program)
    assert core_check(core) == []
    left = core.defs["dict$assoc_left.keyLeft"].expr
    right = core.defs["dict$assoc_right.keyRight"].expr
    assert isinstance(left, CDict) and isinstance(right, CDict)
    assert left.tag != right.tag
    assert left.bindings["Key"] != right.bindings["Key"]


def test_core_json_is_stable():
    core1 = build(iter=ITER)
    core2 = build(iter=ITER)
    assert core_to_json(core1) == core_to_json(core2)


def test_erasure_leaves_no_constraint_residue():
    core = build(iter=ITER)
    import json

    text = json.dumps(core_to_json(core))
    assert "Conf" not in text and "GivenLeaf" not in text and "ModelNode" not in text


ILLTYPED = "core program does not type check (elaborator bug): "
IDENTITY = """\
module m
fn f(x: U64) -> U64 { x }
fn main() -> Unit { print(show64(f(1:U64))) }
"""


@pytest.mark.parametrize(
    "body, message",
    [
        (CLit("u8", 1), "definition m.f: declared (U64) -> U64, elaborated body has (U64) -> U8"),
        (CIf(CLit("bool", True), CLit("u64", 1), CLit("u8", 1)), "if branches disagree: U64 vs U8"),
        (CApp(CGlobal("m.f"), [CLit("u8", 1)]), "argument expects U64, got U8"),
        (
            CMatch(
                CCtor("std.Option", "None", [U64], []),
                [("Some", ["y"], CVar("y")), ("None", [], CLit("u8", 0))],
            ),
            "match arms disagree: U64 vs U8",
        ),
        (
            CMatch(CCtor("std.Option", "Some", [U64], [CLit("u8", 1)]), [(None, [], CVar("x"))]),
            "Some: field expects U64, got U8",
        ),
    ],
)
def test_core_check_messages(body, message):
    core = build(m=IDENTITY)
    core.defs["m.f"].expr = CLam([("x", U64)], body)
    assert [(d.code, d.message) for d in core_check(core)] == [
        ("E-CORE-ILLTYPED", ILLTYPED + message)
    ]


def test_core_check_dictionary_messages():
    core = build(iter=ITER)
    record = core.defs["dict$iter.bytes64"].expr
    record.fields["next"] = CLam([("it", U64)], CLit("u8", 0))
    assert [d.message for d in core_check(core)] == [
        ILLTYPED + "dictionary field next of iter.Iterator: expected "
        "(U64) -> Option[(U8, U64)], got (U64) -> U8"
    ]
    del record.fields["next"]
    assert [d.message for d in core_check(core)] == [
        ILLTYPED + "dictionary for iter.Iterator has fields [], wants ['next']"
    ]


SHOWN = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }
fn f(x: U64) -> U64 { x }
fn g[T](x: T) -> T { x }
fn main() -> Unit { print(show64(f(1:U64))) }
"""
NO_DICT = App(Con("Dict$m.Nope", 1, "m"), (U64,))
NONE = CCtor("std.Option", "None", [U64], [])


@pytest.mark.parametrize(
    "body, message",
    [
        (CVar("y"), "unbound core variable y"),
        (CGlobal("m.nosuch"), "unknown global m.nosuch"),
        (CGlobal("m.g"), "generic global m.g used without type arguments"),
        (CTyApp(CVar("x"), [U64]), "type application to a non-global"),
        (CTyApp(CGlobal("m.nosuch"), [U64]), "unknown global m.nosuch"),
        (CTyApp(CGlobal("m.g"), [U64, U64]), "m.g expects 1 type arguments"),
        (CBuiltin("fst"), "generic builtin fst must be applied"),
        (CProj(CVar("x"), "show"), "projection .show from non-dictionary type U64"),
        (CLam([("d", NO_DICT)], CProj(CVar("d"), "show")), "unknown concept dictionary m.Nope"),
        (CProj(CGlobal("dict$m.showU64"), "nope"), "dictionary m.Show has no field nope"),
        (CCtor("m.Nope", "X", [], []), "unknown data type m.Nope"),
        (CCtor("std.Option", "Nope", [U64], []), "std.Option has no constructor Nope"),
        (CCtor("std.Option", "None", [], []), "None: wrong number of type arguments"),
        (CCtor("std.Option", "Some", [U64], []), "Some: wrong arity"),
        (CApp(CBuiltin("add64"), [CVar("x")]), "add64: wrong arity"),
        (
            CApp(CBuiltin("add64"), [CVar("x"), CLit("u8", 1)]),
            "builtin add64 cannot accept (U64, U8)",
        ),
        (CApp(CVar("x"), []), "application of non-function type U64"),
        (CApp(CGlobal("m.f"), []), "arity mismatch: 1 vs 0"),
        (CDict("m.Nope", [U64], {}, {}, "t"), "unknown concept m.Nope"),
        (CMatch(CVar("x"), [(None, [], CVar("x"))]), "match on non-data type U64"),
        (CMatch(NONE, [("Nope", [], CVar("x"))]), "Option has no constructor Nope"),
        (CMatch(NONE, [("Some", [], CVar("x"))]), "Some: pattern arity"),
        (CIf(CVar("x"), CVar("x"), CVar("x")), "if condition not Bool"),
        # Names and arities the evaluator relies on `core_check` for.
        (CApp(CBuiltin("add64"), [CVar("ghost"), CVar("x")]), "unbound core variable ghost"),
        (CApp(CBuiltin("add64"), [CVar("x"), CVar("ghost")]), "unbound core variable ghost"),
        (CCtor("std.Option", "Some", [U64], [CVar("ghost")]), "unbound core variable ghost"),
        (CTuple(CVar("ghost"), CVar("x")), "unbound core variable ghost"),
        (
            CApp(CProj(CGlobal("dict$m.showU64"), "show"), [CVar("ghost")]),
            "unbound core variable ghost",
        ),
        (CApp(CBuiltin("concat"), []), "concat: wrong arity"),
        (CLet("_", CVar("x"), CVar("_")), "unbound core variable _"),
        (
            CMatch(CCtor("std.Option", "Some", [U64], [CVar("x")]), [("Some", ["_"], CVar("_"))]),
            "unbound core variable _",
        ),
    ],
)
def test_core_check_rejects(body, message):
    core = build(m=SHOWN)
    core.defs["m.f"].expr = CLam([("x", U64)], body)
    assert [(d.code, d.message) for d in core_check(core)] == [
        ("E-CORE-ILLTYPED", ILLTYPED + message)
    ]


class CUnknown(CoreExpr):
    """A node kind no pass knows."""

    __slots__ = ()


@pytest.mark.parametrize(
    "body, message",
    [
        (CBuiltin("nosuch"), "unknown builtin nosuch"),
        (CApp(CBuiltin("nosuch"), [CVar("x")]), "unknown builtin nosuch"),
        (CLit("u16", 1), "unknown literal kind u16"),
        (CUnknown(), "unknown core node CUnknown"),
        (CMatch(NONE, []), "match with no arms"),
        (
            CDict("m.Show", [U64, U64], {}, {}, "t"),
            "dictionary of m.Show at 2 subjects, wants 1",
        ),
        (
            CLam([("d", App(Con("Dict$m.Show", 2, "m"), (U64, U64)))], CProj(CVar("d"), "show")),
            "dictionary of m.Show at 2 subjects, wants 1",
        ),
    ],
)
def test_core_check_reports_what_it_cannot_type(body, message):
    """Hand-built core the checker has no rule for is reported as one
    E-CORE-ILLTYPED diagnostic, never raised."""
    core = build(m=SHOWN)
    core.defs["m.f"].expr = CLam([("x", U64)], body)
    assert [(d.code, d.message) for d in core_check(core)] == [
        ("E-CORE-ILLTYPED", ILLTYPED + message)
    ]


# ---------------------------------------------------------------- what `run` elaborates


def cglobal_closure(core, root: str) -> set[str]:
    """Names of the definitions of `core` that `root` reaches through `CGlobal` nodes."""
    seen, names = set(), [root]
    while names:
        name = names.pop()
        if name in seen:
            continue
        seen.add(name)
        nodes = [core.defs[name].expr]
        while nodes:
            node = nodes.pop()
            if isinstance(node, CGlobal):
                names.append(node.name)
            nodes.extend(c for c in children(node) if isinstance(c, CoreExpr))
    return seen


@pytest.mark.parametrize(
    "policy, files",
    [
        ("use-site", ["show_lib.sl", "option_show_ok.sl"]),
        ("use-site", ["iter_lib.sl", "range_iter.sl"]),
        ("use-site", ["iter_lib.sl", "eq_concepts.sl", "elements_equal.sl"]),
        ("scoped", [f"diamond_{m}.sl" for m in ("base", "point", "left", "right", "top")]),
    ],
)
def test_run_elaborates_exactly_what_main_reaches(policy, files):
    """Seeded with the entry, elaboration yields the `CGlobal` closure of
    `main` in the whole program, each definition as the whole program has it."""
    result = check_sources(corpus_sources(*files), CoherencePolicy(policy))
    assert result.ok, result.diagnostics
    whole = elaborate(result.program)
    run = elaborate(result.program, roots=[result.program.entry])
    closure = cglobal_closure(whole, whole.entry)
    assert set(run.order) == set(run.defs) == closure
    assert len(run.order) == len(closure) < len(whole.order)
    assert run.entry == whole.entry
    shared = [d for d in core_to_json(whole)["defs"] if d["name"] in closure]
    assert sorted(core_to_json(run)["defs"], key=lambda d: d["name"]) == sorted(
        shared, key=lambda d: d["name"]
    )
    assert core_check(run) == []


REACH = """\
module m
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
concept Ordered[Self] where Equatable[Self] { fn less(x: Self, y: Self) -> Bool }
concept Show[Self] { fn show(x: Self) -> String }
model e1: Equatable[U64] { fn equal(x: U64, y: U64) -> Bool { eq64(x, y) } }
model o1: Ordered[U64] { fn less(x: U64, y: U64) -> Bool { lt64(x, y) } }
model unusedShow: Show[Bool] { fn show(x: Bool) -> String { showbool(x) } }
fn unusedGeneric[T](x: T) -> String where Show[T] { show(x) }
fn isEven(n: U64) -> Bool { if eq64(n, 0:U64) { true } else { isOdd(sub64(n, 1:U64)) } }
fn isOdd(n: U64) -> Bool { if eq64(n, 0:U64) { false } else { isEven(sub64(n, 1:U64)) } }
fn atMost[T](x: T, y: T) -> Bool where Ordered[T] { if less(x, y) { true } else { equal(x, y) } }
fn main() -> Unit { print(showbool(if isOdd(3:U64) { atMost(2:U64, 2:U64) } else { false })) }
"""


def test_run_collects_mutual_recursion_and_superclass_models():
    """`isEven` is reached only from `isOdd`, and `e1` only as the superclass
    dictionary inside `o1`; neither the unused model nor the unused generic
    function is elaborated."""
    result = check_inline(m=REACH)
    assert result.ok, result.diagnostics
    core = elaborate(result.program, roots=[result.program.entry])
    assert sorted(core.defs) == [
        "dict$m.e1", "dict$m.o1", "m.atMost", "m.isEven", "m.isOdd", "m.main"
    ]
    assert {"dict$m.unusedShow", "m.unusedGeneric"} <= set(elaborate(result.program).defs)
    assert core_check(core) == []
    assert run_program(core)[1] == ["true"]


NO_ENTRY = (
    "<runtime>:1:1: error[E-NO-ENTRY]: program has no entry point "
    "(define exactly one `fn main() -> Unit`)\n"
)


def test_run_without_main_elaborates_nothing(monkeypatch, capsys):
    """A program with models and functions but no `main`: `run` elaborates
    no definition and reports E-NO-ENTRY as before; `--emit-core` still
    elaborates all four."""
    made = []

    def recording(program, roots=None):
        made.append(elaborate(program, roots))
        return made[-1]

    monkeypatch.setattr(cli, "elaborate", recording)
    monkeypatch.delenv("SL_COLOR", raising=False)
    monkeypatch.chdir(CORPUS)
    assert cli.main(["run", "eq_concepts.sl"]) == 1
    [core] = made
    assert core.order == [] and core.defs == {} and core.entry is None
    assert capsys.readouterr() == ("", NO_ENTRY)
    assert cli.main(["run", "--emit-core", "eq_concepts.sl"]) == 0
    assert len(made[-1].defs) == 4  # three models and `nondecreasing`
