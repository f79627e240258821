"""Resolution: candidates, commitment, policy arbitration, stability."""

from conftest import CORPUS, check_inline, check_inline_policy, codes, corpus_sources, option_type
from oracle import children

from slc.coherence import CoherencePolicy
from slc.resolver import GivenLeaf, ModelNode, Goal, candidates
from slc.types import Conf, U64, U8

OVERLAP = """\
module m

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

concept StringConvertible[Self] {
  fn toString(x: Self) -> String
}

model stringU8: StringConvertible[U8] {
  fn toString(x: U8) -> String { show8(x) }
}

model stringIter: StringConvertible[a] where Iterator[a], StringConvertible[a.Element] {
  fn toString(xs: a) -> String {
    concat("[", concat(fold(xs, "", fn(s, x) => concat(s, concat(toString(x), ","))), "]"))
  }
}

model stringU64: StringConvertible[U64] {
  fn toString(x: U64) -> String { show64(x) }
}

fn main() -> Unit {
  print(toString(0x2a2a:U64))
}
"""


def test_candidates_ordering_and_content():
    result = check_inline(m=OVERLAP.replace("fn main() -> Unit {\n  print(toString(0x2a2a:U64))\n}", ""))
    assert result.ok, result.diagnostics
    program = result.program
    world = program.world
    sc = result.modules["m"].concepts["StringConvertible"].id
    from slc.diagnostics import Span

    goal = Goal(Conf(sc, (U64,)), Span.at("x"))
    cands = candidates(goal, world)
    assert [c.model.name for c in cands] == ["stringIter", "stringU64"]
    goal8 = Goal(Conf(sc, (U8,)), Span.at("x"))
    cands8 = candidates(goal8, world)
    assert [c.model.name for c in cands8] == ["stringU8", "stringIter"]
    goal_str = Goal(Conf(sc, (option_type(U64),)), Span.at("x"))
    # Option[U64] only matches the blanket model
    assert [c.model.name for c in candidates(goal_str, world)] == ["stringIter"]
    # a type nothing converts: the empty candidate list is a valid answer
    from slc.types import STRING

    it = result.modules["m"].concepts["Iterator"].id
    none = Goal(Conf(it, (STRING,)), Span.at("x"))
    assert candidates(none, world) == []


def test_plain_use_site_ambiguous():
    result = check_inline("use-site", m=OVERLAP)
    assert not result.ok
    assert "E-AMBIGUOUS" in codes(result)
    amb = next(d for d in result.diagnostics if d.code == "E-AMBIGUOUS")
    assert len(amb.related) == 2  # both candidate models listed with spans


def test_prioritize_specific_selects_concrete():
    policy = CoherencePolicy("use-site", prioritize_specific=True)
    result = check_inline_policy(policy, m=OVERLAP)
    assert result.ok, result.diagnostics
    main = result.modules["m"].funs["main"]
    res = main.goal_records[0].resolution
    assert isinstance(res, ModelNode)
    world = result.program.world
    picked = next(m for m in world.index.models if m.uid == res.model)
    assert picked.name == "stringU64"


def test_incoherent_ok_picks_declaration_order_and_warns():
    policy = CoherencePolicy("use-site", incoherent_ok=True)
    result = check_inline_policy(policy, m=OVERLAP)
    assert result.ok, result.diagnostics
    assert "W-INCOHERENT" in codes(result)
    main = result.modules["m"].funs["main"]
    res = main.goal_records[0].resolution
    world = result.program.world
    picked = next(m for m in world.index.models if m.uid == res.model)
    assert picked.name == "stringIter"  # declared before stringU64
    # its children: Iterator[U64] via model, StringConvertible[U8] via stringU8
    inner = res.children[1]
    inner_model = next(m for m in world.index.models if m.uid == inner.model)
    assert inner_model.name == "stringU8"


def test_depth_limit_fires_on_cyclic_contexts():
    src = """\
module m
concept Ping[Self] { fn ping(x: Self) -> Self }
concept Pong[Self] { fn pong(x: Self) -> Self }
model a: Ping[t] where Pong[t] { fn ping(x: t) -> t { pong(x) } }
model b: Pong[t] where Ping[t] { fn pong(x: t) -> t { ping(x) } }
fn main() -> Unit { let x = ping(1:U64); print("done") }
"""
    result = check_inline(m=src)
    assert not result.ok
    assert "E-DEPTH" in codes(result)


def test_no_backtracking_into_contexts():
    # The first candidate commits and its failing context is an error even
    # though the second candidate would have succeeded.
    src = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
concept T[Self] { fn t(x: Self) -> String }
model viaShow: T[Option[x]] where Show[x] {
  fn t(o: Option[x]) -> String { "via-show" }
}
fn main() -> Unit { print(t(Some(1:U64))) }
"""
    result = check_inline(m=src)
    assert not result.ok
    # committed to viaShow; Show[U64] has no model
    assert "E-NO-MODEL" in codes(result)


def test_givens_shadow_models():
    src = """\
module m
concept C[Self] { fn f(x: Self) -> Self }
model c1: C[U64] { fn f(x: U64) -> U64 { x } }
fn g[T](x: T) -> T where C[T] { f(x) }
fn main() -> Unit { let y = g(1:U64); print("ok") }
"""
    result = check_inline(m=src)
    assert result.ok
    g = result.modules["m"].funs["g"]
    assert isinstance(g.goal_records[0].resolution, GivenLeaf)


def test_scoped_policy_inner_scope_shadows_imports():
    lib = """\
module lib
concept C[Self] { fn f(x: Self) -> String }
model fromLib: C[U64] { fn f(x: U64) -> String { "lib" } }
fn useLib() -> String { f(1:U64) }
"""
    app = """\
module app
import lib
model fromApp: C[U64] { fn f(x: U64) -> String { "app" } }
fn useApp() -> String { f(2:U64) }
"""
    result = check_inline("scoped", lib=lib, app=app)
    assert result.ok, result.diagnostics
    lib_goal = result.modules["lib"].funs["useLib"].goal_records[0]
    app_goal = result.modules["app"].funs["useApp"].goal_records[0]
    assert lib_goal.resolution.model == "lib#0"
    assert app_goal.resolution.model == "app#0"  # own model shadows the import


def test_scoped_policy_same_scope_ambiguity():
    src = """\
module m
concept C[Self] { fn f(x: Self) -> String }
model one: C[U64] { fn f(x: U64) -> String { "one" } }
model two: C[U64] { fn f(x: U64) -> String { "two" } }
fn use() -> String { f(1:U64) }
"""
    result = check_inline("scoped", m=src)
    assert not result.ok
    assert "E-AMBIGUOUS" in codes(result)


def test_resolution_traces_are_replayable():
    result1 = check_inline(m=OVERLAP.replace("0x2a2a:U64", "0x11:U64"))
    result2 = check_inline(m=OVERLAP.replace("0x2a2a:U64", "0x11:U64"))
    log1 = [r.trace.to_json() for r in result1.modules["m"].goal_log]
    log2 = [r.trace.to_json() for r in result2.modules["m"].goal_log]
    assert log1 == log2


def test_resolution_renders_nothing_until_a_trace_is_shown(monkeypatch):
    """Checking builds every goal's node without rendering a term or a
    constraint; `explain`'s renderer turns those nodes into the same text
    as nodes built with rendering allowed."""
    import slc.resolver
    from slc.cli import main, render_trace
    from slc.linker import check_sources

    names = ("elements_equal.sl", "eq_concepts.sl", "iter_lib.sl")
    paths = [str(CORPUS / n) for n in names]

    def refuse(*_):
        raise AssertionError("rendered while resolving")

    def shown(result) -> list[str]:
        return [
            "\n".join(render_trace(r.trace.to_json()))
            for module in result.modules.values()
            for r in module.goal_log
        ]

    with monkeypatch.context() as patch:
        patch.setattr(slc.resolver, "render", refuse)
        patch.setattr(slc.resolver, "render_constraint", refuse)
        assert main(["check", *paths]) == 0
        quiet = check_sources(corpus_sources(*names), CoherencePolicy("use-site"))
    assert quiet.ok
    loud = check_sources(corpus_sources(*names), CoherencePolicy("use-site"))
    text = shown(quiet)
    assert text == shown(loud)
    outcomes = {line.split(":")[0].strip() for t in text for line in t.splitlines()}
    assert {"committed", "from the context", "proved by normalization"} <= outcomes


def test_resolutions_are_closed():
    """Every ModelNode's children cover exactly its instantiated context."""
    result = check_inline(
        m="""\
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
fn total(r: Range[U64]) -> U64 {
  match next(r) { Some(p) => add64(fst(p), total(snd(p))), None => 0:U64 }
}
"""
    )
    assert result.ok
    world = result.program.world

    def assert_closed(res):
        if isinstance(res, ModelNode):
            model = next(m for m in world.index.models if m.uid == res.model)
            assert len(res.children) == len(model.context)
            for child in res.children:
                assert_closed(child)

    for record in result.modules["m"].goal_log:
        if record.resolution is not None:
            assert_closed(record.resolution)


def test_check_stability_reports_unstable_goal():
    log_module = OVERLAP.replace(
        "fn main() -> Unit {\n  print(toString(0x2a2a:U64))\n}",
        """\
fn log[M](x: M) -> Unit where Iterator[M], StringConvertible[M.Element] {
  print(toString(x))
}

fn main() -> Unit {
  log(0x2a2a:U64)
}
""",
    )
    policy = CoherencePolicy("use-site", incoherent_ok=True)
    result = check_inline_policy(policy, m=log_module)
    assert result.ok, result.diagnostics
    from slc.resolver import check_stability

    program = result.program
    log_fn = result.modules["m"].funs["log"]
    assignment = {log_fn.typarams[0].uid: U64}
    report = check_stability(log_fn, assignment, program.world, policy)
    assert len(report.entries) == 1
    assert len(report.unstable) == 1
    assert "StringConvertible" in report.unstable[0].goal


def test_check_stability_all_stable_for_unique_world():
    src = """\
module m
concept C[Self] { fn f(x: Self) -> String }
model c1: C[U64] { fn f(x: U64) -> String { "x" } }
fn g[T](x: T) -> String where C[T] { f(x) }
fn main() -> Unit { print(g(1:U64)) }
"""
    result = check_inline(m=src)
    assert result.ok
    from slc.resolver import check_stability

    g = result.modules["m"].funs["g"]
    report = check_stability(
        g,
        {g.typarams[0].uid: U64},
        result.program.world,
        CoherencePolicy("use-site"),
    )
    assert report.entries and all(e.stable for e in report.entries)


def test_stability_empty_report_for_goalless_fn():
    src = "module m\nfn id(x: U64) -> U64 { x }\n"
    result = check_inline(m=src)
    from slc.resolver import check_stability

    fn = result.modules["m"].funs["id"]
    report = check_stability(fn, {}, result.program.world, CoherencePolicy("use-site"))
    assert report.entries == []


def test_generic_model_child_resolution_for_unique_goal():
    # Option[F64] reaches only the bounded model; its child is the F64 witness.
    src = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
concept ToText[Self] { fn toText(x: Self) -> String }
model showF64: Show[F64] { fn show(x: F64) -> String { showf64(x) } }
model textShowOption: ToText[Option[a]] where Show[a] {
  fn toText(o: Option[a]) -> String { match o { Some(x) => show(x), None => "nothing" } }
}
model textOptionU64: ToText[Option[U64]] {
  fn toText(o: Option[U64]) -> String { "u64" }
}
fn main() -> Unit { print(toText(Some(1.5:F64))) }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    world = result.program.world
    record = result.modules["m"].funs["main"].goal_records[0]
    res = record.resolution
    assert isinstance(res, ModelNode)
    picked = next(m for m in world.index.models if m.uid == res.model)
    assert picked.name == "textShowOption"
    child = res.children[0]
    assert isinstance(child, ModelNode)
    child_model = next(m for m in world.index.models if m.uid == child.model)
    assert child_model.name == "showF64"


def test_call_site_instantiation_records_type_args():
    src = """\
module m
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
fn main() -> Unit { print(show8(fold(0x2a2a:U64, 0:U8, add8))) }
"""
    result = check_inline(m=src)
    assert result.ok
    from slc.decls import TCall
    from slc.types import U64, U8, render

    def find_fold_call(e):
        if isinstance(e, TCall) and e.kind == "fun" and e.target == ("m", "fold"):
            return e
        return next(filter(None, map(find_fold_call, children(e))), None)

    call = find_fold_call(result.modules["m"].funs["main"].body)
    assert call is not None
    assert call.tyargs == [U64, U8]


# ---------------------------------------------------------------- constructor index

BLANKET_AND_KEYED = """\
module m
concept D[Self] { fn d(x: Self) -> String }
concept C[Self] { fn c(x: Self) -> String }
concept Iter[Self] {
  type Element
  fn first(x: Self) -> Self.Element
}
model cU64: C[U64] { fn c(x: U64) -> String { "u64" } }
model cAny: C[a] where D[a] { fn c(x: a) -> String { d(x) } }
model cOpt: C[Option[a]] { fn c(x: Option[a]) -> String { "opt" } }
fn viaParam[T](x: T) -> String where D[T] { c(x) }
fn viaProjection[I](it: I) -> String where Iter[I], D[I.Element] { c(first(it)) }
"""


def _c_goals(result, fun):
    traces = [r.trace.to_json() for r in result.modules["m"].funs[fun].goal_records]
    return [
        (t["goal"], t["outcome"], t["picked"], [c["model"] for c in t["candidates"]])
        for t in traces
        if t["goal"].startswith("C[")
    ]


def test_rigid_self_goal_resolved_by_blanket_model():
    result = check_inline("use-site", m=BLANKET_AND_KEYED)
    assert result.ok, result.diagnostics
    assert _c_goals(result, "viaParam") == [("C[T]", "committed", "m.cAny", ["m.cAny"])]


def test_projection_self_goal_resolved_by_blanket_model():
    result = check_inline("use-site", m=BLANKET_AND_KEYED)
    assert result.ok, result.diagnostics
    assert _c_goals(result, "viaProjection") == [
        ("C[I.Element]", "committed", "m.cAny", ["m.cAny"])
    ]


def _ambiguity(result):
    [amb] = result.diagnostics
    assert amb.code == "E-AMBIGUOUS"
    return amb.module, amb.span.start, amb.message, [(r.span.file, r.span.start) for r in amb.related]


def test_ambiguous_candidates_keep_world_order_around_a_wildcard():
    src = """\
module m
concept C[Self] { fn c(x: Self) -> String }
model cU8: C[U8] { fn c(x: U8) -> String { "u8" } }
model cOptU64: C[Option[U64]] { fn c(x: Option[U64]) -> String { "exact" } }
model cAny: C[a] { fn c(x: a) -> String { "any" } }
model cOptAny: C[Option[a]] { fn c(x: Option[a]) -> String { "opt" } }
fn use() -> String { c(Some(1:U64)) }
"""
    assert _ambiguity(check_inline("use-site", m=src)) == (
        "m",
        (7, 22),
        "ambiguous resolution for C[Option[U64]]: 3 candidates apply "
        "(m.cOptU64, m.cAny, m.cOptAny)",
        [("m.sl", (4, 1)), ("m.sl", (5, 1)), ("m.sl", (6, 1))],
    )


def test_ambiguous_candidates_keep_world_order_across_modules():
    base = """\
module base
concept C[Self] { fn c(x: Self) -> String }
model cU8: C[U8] { fn c(x: U8) -> String { "u8" } }
model cOptU64: C[Option[U64]] { fn c(x: Option[U64]) -> String { "exact" } }
"""
    mid = 'module mid\nimport base\nmodel cAny: C[a] { fn c(x: a) -> String { "any" } }\n'
    top = """\
module top
import mid
model cOptAny: C[Option[a]] { fn c(x: Option[a]) -> String { "opt" } }
fn use() -> String { c(Some(1:U64)) }
"""
    assert _ambiguity(check_inline("use-site", top=top, base=base, mid=mid)) == (
        "top",
        (4, 22),
        "ambiguous resolution for C[Option[U64]]: 3 candidates apply "
        "(base.cOptU64, mid.cAny, top.cOptAny)",
        [("base.sl", (4, 1)), ("mid.sl", (3, 1)), ("top.sl", (3, 1))],
    )


def test_blanket_and_sibling_keyed_model_are_ambiguous_at_use_site():
    base = """\
module base
concept C[Self] { fn c(x: Self) -> String }
model cAny: C[a] { fn c(x: a) -> String { "any" } }
"""
    sib = """\
module sib
import base
model cU64: C[U64] { fn c(x: U64) -> String { "u64" } }
fn use() -> String { c(1:U64) }
"""
    assert _ambiguity(check_inline("use-site", base=base, sib=sib)) == (
        "sib",
        (4, 22),
        "ambiguous resolution for C[U64]: 2 candidates apply (base.cAny, sib.cU64)",
        [("base.sl", (3, 1)), ("sib.sl", (3, 1))],
    )


def test_two_parameter_goals_pick_by_second_argument():
    src = """\
module m
concept Conv[Self, T] { fn conv(x: Self) -> T }
model toU8: Conv[U64, U8] { fn conv(x: U64) -> U8 { trunc8(x) } }
model toText: Conv[U64, String] { fn conv(x: U64) -> String { show64(x) } }
fn narrow() -> U8 { conv(300:U64):U8 }
fn text() -> String { conv(7:U64):String }
"""
    result = check_inline("use-site", m=src)
    assert result.ok, result.diagnostics
    traces = {
        name: [r.trace.to_json() for r in result.modules["m"].funs[name].goal_records]
        for name in ("narrow", "text")
    }
    picks = {
        name: [(t["goal"], t["picked"], [c["model"] for c in t["candidates"]]) for t in ts]
        for name, ts in traces.items()
    }
    assert picks == {
        "narrow": [("Conv[U64, U8]", "m.toU8", ["m.toU8"])],
        "text": [("Conv[U64, String]", "m.toText", ["m.toText"])],
    }


EQ_FAILED = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
model boolIter: Iterator[Bool] {
  type Element = Bool
  fn next(it: Bool) -> Option[(Bool, Bool)] { None }
}
fn bytes[A](xs: A) -> U64 where Iterator[A], A.Element == U8 { 0:U64 }
fn main() -> Unit { print(show64(bytes(true))) }
"""


def test_equality_goal_with_distinct_normal_forms_fails(tmp_path, capsys):
    """`bytes(true)` needs Bool.Element == U8, and `boolIter` binds the
    Element of Bool to Bool: the goal ends `eq-failed`, reported as a
    mismatch of the normal forms and shown as such by `explain`."""
    from slc.cli import main

    result = check_inline(m=EQ_FAILED)
    message = "cannot prove Bool.Element == U8 (normal forms Bool and U8 differ)"
    assert [(d.code, d.message) for d in result.diagnostics] == [("E-TYPE-MISMATCH", message)]
    path = tmp_path / "m.sl"
    path.write_text(EQ_FAILED)
    assert main(["explain", f"{path}:11:34", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"resolution at {path}:11:34\n"
        "goal Bool == U8\n"
        "  outcome: eq-failed\n"
    )
