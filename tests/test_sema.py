"""Module checking: name resolution, bodies, constraints, obligations."""

import pytest

from conftest import check_inline, codes
from stability import fun_records

from slc.types import render, render_constraint

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


def test_iterator_module_checks():
    result = check_inline(iter=ITER)
    assert result.ok, result.diagnostics
    module = result.modules["iter"]
    assert set(module.funs) == {"fold", "main"}
    assert module.models[0].name == "bytes64"
    assert module.models[0].assoc["Element"].name == "U8"


def test_user_type_named_like_a_function_is_not_callable():
    result = check_inline(
        m="""module m

data Fn1[A, B] { MkFn1(A, B) }

fn f(x: Fn1[U64, U64]) -> U64 { x(1) }
"""
    )
    assert codes(result) == ["E-TYPE-MISMATCH"]
    assert "Fn1[U64, U64] is not callable" in result.diagnostics[0].message


def test_fold_call_instantiates_type_params():
    result = check_inline(iter=ITER)
    # main discharges Iterator[U64] at the fold call
    goals = [r for r in fun_records(result.modules["iter"], "main")]
    assert len(goals) == 1
    assert "Iterator" in str(goals[0].constraint.concept)
    from slc.resolver import ModelNode

    assert isinstance(goals[0].resolution, ModelNode)
    assert goals[0].resolution.model == "iter#0"


def test_fold_without_context_fails_at_next():
    src = ITER.replace(" where Iterator[A]", "")
    result = check_inline(iter=src)
    assert not result.ok
    assert "E-TYPE-MISMATCH" in codes(result)


def test_unannotated_literal_in_generic_position():
    src = ITER.replace("fold(0x2a2a:U64, 0:U8, add8)", "fold(0x2a2a, 0:U8, add8)")
    result = check_inline(iter=src)
    assert not result.ok
    assert "E-CANNOT-INFER" in codes(result)


@pytest.mark.parametrize("width, limit", [("U64", 2**64), ("U8", 2**8)])
def test_unannotated_literal_range_follows_the_expected_width(width, limit):
    def checked(value):
        return check_inline(m=f"module m\nfn f() -> {width} {{ let x: {width} = {value}; x }}\n")

    assert checked(limit - 1).ok
    result = checked(limit)
    assert codes(result) == ["E-TYPE-MISMATCH"]
    assert result.diagnostics[0].message == f"literal out of range for {width}"


def test_missing_requirement():
    src = """\
module m
concept C[Self] { fn f(x: Self) -> Self }
model c1: C[U64] { }
"""
    result = check_inline(m=src)
    assert "E-MISSING-REQ" in codes(result)


def test_unbound_assoc():
    src = """\
module m
concept C[Self] { type T }
model c1: C[U64] { }
"""
    result = check_inline(m=src)
    assert "E-UNBOUND-ASSOC" in codes(result)


def test_unknown_name():
    src = "module m\nfn f() -> U64 { nonsense(1:U64) }\n"
    result = check_inline(m=src)
    assert "E-NAME" in codes(result)


def test_arity_error():
    src = "module m\nfn f() -> U64 { add64(1:U64) }\n"
    result = check_inline(m=src)
    assert "E-ARITY" in codes(result)


@pytest.mark.parametrize(
    "fun, message",
    [
        (
            "fn wrap(x: U64) -> U64 { Some(x) }",
            "type mismatch in result of Some: expected U64, found Option[a]",
        ),
        (
            "fn first[T](x: Option[T]) -> U64 { 0:U64 }\nfn h(x: U64) -> U64 { first(x) }",
            "type mismatch in argument 1 of first: expected Option[T], found U64",
        ),
    ],
)
def test_generic_call_mismatch_expects_the_declared_side(fun, message):
    """A call's result is checked against the type its context declares, an
    argument against the callee's parameter type."""
    result = check_inline(m=f"module m\n{fun}\n")
    assert [(d.code, d.message) for d in result.diagnostics] == [("E-TYPE-MISMATCH", message)]


def test_superclass_obligation_missing():
    src = """\
module m
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
concept Ordered[Self] where Equatable[Self] { fn less(x: Self, y: Self) -> Bool }
model o1: Ordered[U64] { fn less(x: U64, y: U64) -> Bool { lt64(x, y) } }
"""
    result = check_inline(m=src)
    assert "E-NO-MODEL" in codes(result)


def test_superclass_obligation_satisfied_and_projected():
    src = """\
module m
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
concept Ordered[Self] where Equatable[Self] { fn less(x: Self, y: Self) -> Bool }
model e1: Equatable[U64] { fn equal(x: U64, y: U64) -> Bool { eq64(x, y) } }
model o1: Ordered[U64] { fn less(x: U64, y: U64) -> Bool { lt64(x, y) } }
fn nondecreasing[T](x: T, y: T) -> Bool where Ordered[T] {
  if less(x, y) { true } else { equal(x, y) }
}
fn main() -> Unit { print(showbool(nondecreasing(1:U64, 2:U64))) }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.resolver import GivenLeaf

    nd = fun_records(result.modules["m"], "nondecreasing")
    eq_goal = [r for r in nd if "Equatable" in r.constraint.concept]
    assert len(eq_goal) == 1
    leaf = eq_goal[0].resolution
    assert isinstance(leaf, GivenLeaf)
    assert leaf.index == 0 and leaf.via == (0,)


def test_conditional_model_and_resolution_chain():
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
fn sum(r: Range[U64]) -> U64 {
  match next(r) { Some(p) => add64(fst(p), sum(snd(p))), None => 0:U64 }
}
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.resolver import ModelNode

    res = fun_records(result.modules["m"], "sum")[0].resolution
    assert isinstance(res, ModelNode)
    assert res.model == "m#1"  # the ranges model
    assert len(res.children) == 1
    assert isinstance(res.children[0], ModelNode)
    assert res.children[0].model == "m#0"  # the Stepped[U64] model


def test_equality_constraints_check():
    src = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
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
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics


def test_equality_constraint_required():
    src = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
concept Equatable[Self] { fn equal(x: Self, y: Self) -> Bool }
fn broken[A, B](xs: A, ys: B) -> Bool
    where Iterator[A], Iterator[B], Equatable[A.Element] {
  match next(xs) {
    Some(p) => match next(ys) {
      Some(q) => equal(fst(p), fst(q)),
      None => false
    },
    None => true
  }
}
"""
    result = check_inline(m=src)
    assert not result.ok
    assert "E-TYPE-MISMATCH" in codes(result)


def test_normalization_divergence_reported():
    src = "module m\nfn weird[T](x: T) -> T where T == Option[T] { x }\n"
    result = check_inline(m=src)
    assert not result.ok
    assert "E-NORM-DIVERGE" in codes(result)


def test_a_goal_whose_normalization_diverges_is_reported_by_the_resolver():
    """A superclass obligation is resolved under the model's context, and
    with the equality `a == Option[a]` in it, normalizing the goal never
    ends: the resolver reports that goal, at the model, before the model's
    body reports its own parameter type."""
    src = (
        "module m\n"
        "concept Show[Self] { fn show(x: Self) -> String }\n"
        "concept Pretty[Self] where Show[Self] { fn pretty(x: Self) -> String }\n"
        'model Pretty[Option[a]] where a == Option[a] { fn pretty(x: Option[a]) -> String { "p" } }\n'
    )
    result = check_inline(m=src)
    found = [(d.code, d.message, d.span.start, d.span.end) for d in result.diagnostics]
    assert found == [
        (
            "E-NORM-DIVERGE",
            "normalization did not terminate while solving Show[Option[a]]",
            (4, 1),
            (4, 90),
        ),
        ("E-NORM-DIVERGE", "normalization of Option[a] did not terminate", (4, 48), (4, 88)),
    ]
    [record] = result.modules["m"].goal_log
    trace = record.trace.to_json()
    assert (trace["goal"], trace["outcome"], trace["note"]) == (
        "Show[Option[a]]",
        "norm-diverge",
        "normalization diverged at Option[a]",
    )


def test_needs_name_under_scoped():
    src = """\
module m
concept C[Self] { fn f(x: Self) -> Self }
model C[U64] { fn f(x: U64) -> U64 { x } }
"""
    result = check_inline("scoped", m=src)
    assert "E-NEEDS-NAME" in codes(result)
    result2 = check_inline("use-site", m=src)
    assert result2.ok


MODEL_PATH = """\
module m
concept K[Self] {{
  type Key
  fn key(x: Self) -> Self.Key
}}
model kb: K[U64] {{
  type Key = Bool
  fn key(x: U64) -> Bool {{ true }}
}}
fn f() -> {path} {{ true }}
"""


@pytest.mark.parametrize(
    "policy, path, expected",
    [
        ("scoped", "kb.Key", []),
        ("scoped", "kb.Nope", [("E-NAME", "concept K has no associated type 'Nope'")]),
        ("use-site", "kb.Key", [("E-NAME", "unknown type 'kb'")]),
    ],
)
def test_model_path_projects_once(policy, path, expected):
    """Under scoped, `kb.Key` is the binding of the model `kb`, projected
    once: it checks as Bool. Other policies have no model paths."""
    result = check_inline(policy, m=MODEL_PATH.format(path=path))
    assert [(d.code, d.message) for d in result.diagnostics] == expected
    if not expected:
        fun = result.modules["m"].funs["f"]
        assert render(fun.ret) == "m.kb.Key"
        assert render(fun.body.type) == "Bool"


def signature_digest(module) -> str:
    """A canonical rendering of a checked module's declarations, to compare
    re-checked modules."""

    def sig(req) -> str:
        return f"({','.join(render(t) for _, t in req.params)})->{render(req.ret)}"

    parts = [f"module {module.name} imports={','.join(sorted(module.imports))}"]
    for cid in sorted(module.concepts):
        c = module.concepts[cid]
        sups = ";".join(sorted(render_constraint(s) for s in c.supers))
        reqs = ";".join(f"{r}:{sig(c.requirements[r])}" for r in c.req_order)
        parts.append(
            f"concept {c.name}[{','.join(v.name for v in c.params)}]"
            f" supers[{sups}] assoc[{','.join(c.assoc_names)}] reqs[{reqs}]"
        )
    for m in module.models:
        ctx = ";".join(render_constraint(c) for c in m.context)
        binds = ";".join(f"{k}={render(v)}" for k, v in sorted(m.assoc.items()))
        parts.append(
            f"model {m.name or '_'}:{m.concept}[{','.join(render(h) for h in m.head)}]"
            f" where[{ctx}] binds[{binds}] reqs[{','.join(sorted(m.bodies))}]"
        )
    for fname in sorted(module.funs):
        f = module.funs[fname]
        ctx = ";".join(render_constraint(c) for c in f.context)
        params = ",".join(render(t) for _, t in f.params)
        parts.append(
            f"fn {f.name}[{','.join(v.name for v in f.typarams)}]({params})"
            f"->{render(f.ret)} where[{ctx}]"
        )
    for dname in sorted(module.datas):
        d = module.datas[dname]
        ctors = ";".join(f"{c.name}({','.join(render(t) for t in c.fields)})" for c in d.ctors)
        parts.append(f"data {d.name}[{','.join(v.name for v in d.params)}] {ctors}")
    return "\n".join(parts)


def test_recheck_pretty_printed_module_is_equal():
    from printer import pretty_print

    result = check_inline(iter=ITER)
    assert result.ok
    printed = pretty_print(result.graph.asts["iter"])
    again = check_inline(iter=printed)
    assert again.ok
    assert signature_digest(result.modules["iter"]) == signature_digest(again.modules["iter"])


def test_multi_param_concepts():
    src = """\
module m
concept Convertible[Self, B] { fn convert(x: Self) -> B }
model c1: Convertible[U64, String] { fn convert(x: U64) -> String { show64(x) } }
model c2: Convertible[a, Option[a]] { fn convert(x: a) -> Option[a] { Some(x) } }
fn main() -> Unit {
  print(convert(5:U64):String);
  match convert(7:U64):Option[U64] {
    Some(x) => print(show64(x)),
    None => print("none")
  }
}
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics


def test_convert_without_annotation_cannot_infer():
    src = """\
module m
concept Convertible[Self, B] { fn convert(x: Self) -> B }
model c1: Convertible[U64, String] { fn convert(x: U64) -> String { show64(x) } }
fn main() -> Unit { let x = convert(5:U64); print("?") }
"""
    result = check_inline(m=src)
    assert not result.ok
    assert "E-CANNOT-INFER" in codes(result)


def test_bind_assocs_binds_own_projections_and_leaves_tagged_ones_alone():
    from slc.decls import bind_assocs
    from slc.types import OPTION, STRING, U64, App, Assoc, Var, fresh_uid

    t = Var("t", fresh_uid())
    own = (App(OPTION, (t,)),)
    bindings = {"Item": U64}
    projection = Assoc("m.C", "Item", own)
    # `Self.Item` over the head as written becomes the binding, also nested
    assert bind_assocs("m.C", own, bindings, App(OPTION, (projection,))) == App(OPTION, (U64,))
    # a projection tagged with a model path names its own model
    tagged = Assoc("m.C", "Item", own, "m.named")
    assert bind_assocs("m.C", own, bindings, tagged) == tagged
    # another concept, other subjects or an unbound member stay projections
    for other in (Assoc("m.D", "Item", own), Assoc("m.C", "Item", (t,)), STRING):
        assert bind_assocs("m.C", own, bindings, other) == other
    unbound = Assoc("m.C", "Other", (projection,))
    assert bind_assocs("m.C", own, bindings, unbound) == Assoc("m.C", "Other", (U64,))


ID = "fn id[T](x: T) -> T { x }\n"
REQ = "concept C[Self] { fn g(x: Self) -> Self }\n"


@pytest.mark.parametrize(
    "decls, code, message",
    [
        # E-CANNOT-INFER
        (
            "fn f() -> U64 { let x = 1; x }",
            "E-CANNOT-INFER",
            "integer literal needs a width (write e.g. `0:U64` or `0:U8`)",
        ),
        (
            "fn f() -> U64 { let x = None; 0:U64 }",
            "E-CANNOT-INFER",
            "cannot infer the type arguments of None; annotate it",
        ),
        (
            ID + "fn f() -> U64 { let g = id; 0:U64 }",
            "E-CANNOT-INFER",
            "generic function id can only be used fully applied",
        ),
        (
            "fn f() -> U64 { let g = fst; 0:U64 }",
            "E-CANNOT-INFER",
            "builtin fst is generic and must be applied directly",
        ),
        (
            "fn f() -> U64 { let g = fn(x) => x; 0:U64 }",
            "E-CANNOT-INFER",
            "lambda parameter 'x' needs a type annotation here",
        ),
        (
            ID + "fn f() -> U64 { let x = id(None); 0:U64 }",
            "E-CANNOT-INFER",
            "cannot infer type parameter(s) T of id; add an annotation",
        ),
        # E-ARITY
        (
            "fn f() -> U64 { let x = Some; 0:U64 }",
            "E-ARITY",
            "constructor Some takes 1 arguments; apply it",
        ),
        (
            "fn f() -> Option[U64] { Some }",
            "E-ARITY",
            "constructor Some takes 1 arguments; apply it",
        ),
        (
            "fn f() -> U64 { let g: (U64) -> U64 = fn(x, y) => x; 0:U64 }",
            "E-ARITY",
            "lambda takes 2 parameters but its type wants 1",
        ),
        (
            "fn f(g: (U64) -> U64) -> U64 { g(1:U64, 2:U64) }",
            "E-ARITY",
            "function expects 1 arguments, got 2",
        ),
        ("fn f() -> U64 { add64(1:U64) }", "E-ARITY", "add64 takes 2 arguments, got 1"),
        # E-TYPE-MISMATCH
        ("fn f() -> U8 { 256 }", "E-TYPE-MISMATCH", "literal out of range for U8"),
        ("fn f() -> Bool { 1 }", "E-TYPE-MISMATCH", "integer literal cannot have type Bool"),
        (
            "fn f() -> U64 { fn(x) => x }",
            "E-TYPE-MISMATCH",
            "lambda cannot have non-function type U64",
        ),
        (
            "fn f() -> (U64) -> U64 { fn(x: U8) => 1:U64 }",
            "E-TYPE-MISMATCH",
            "type mismatch in lambda parameter 'x': expected U64, found U8",
        ),
        (
            "fn f(x: U64) -> U64 { x(1:U64) }",
            "E-TYPE-MISMATCH",
            "expression of type U64 is not callable",
        ),
        (
            "fn f() -> U64 { (true : Bool) }",
            "E-TYPE-MISMATCH",
            "type mismatch in annotated expression: expected U64, found Bool",
        ),
        (
            "fn f() -> U64 { (true, 1:U64) }",
            "E-TYPE-MISMATCH",
            "type mismatch in this expression: expected U64, found (Bool, U64)",
        ),
        (
            "fn f() -> (U64, Bool) { (true, 1:U64) }",
            "E-TYPE-MISMATCH",
            "type mismatch in this expression: expected U64, found Bool",
        ),
        (
            "fn f() -> Option[U64] { Nil }",
            "E-TYPE-MISMATCH",
            "type mismatch in result of Nil: expected Option[U64], found List[a]",
        ),
        # E-NAME
        ("fn f() -> U64 { nonsense(1:U64) }", "E-NAME", "unknown name 'nonsense'"),
        ("fn f() -> U64 { let x = nonsense; 0:U64 }", "E-NAME", "unknown name 'nonsense'"),
        (
            REQ + "fn f() -> U64 { let h = g; 0:U64 }",
            "E-NAME",
            "requirement 'g' must be applied to arguments",
        ),
        (
            "data D { f }\nfn f() -> U64 { f() }",
            "E-NAME",
            "name 'f' is ambiguous in this scope",
        ),
    ],
)
def test_first_failure_message_of_each_expression_rule(decls, code, message):
    result = check_inline(m=f"module m\n{decls}\n")
    assert [(d.code, d.message) for d in result.diagnostics][:1] == [(code, message)]


@pytest.mark.parametrize(
    "decls, name",
    [("data D { f }\nfn f() -> U64 { 0:U64 }", "f"), (REQ + "fn g() -> U64 { 0:U64 }", "g")],
)
def test_bare_global_name_is_checked_for_ambiguity(decls, name):
    """A bare name is looked up as a callee is: a constructor, function or
    requirement that share it are ambiguous whether the name is called or
    not."""
    for use in (f"let x = {name}; 0:U64", f"{name}()"):
        result = check_inline(m=f"module m\n{decls}\nfn h() -> U64 {{ {use} }}\n")
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E-NAME", f"name '{name}' is ambiguous in this scope")
        ]


def test_requirement_shadows_a_builtin_also_when_not_applied():
    src = "module m\nconcept C[Self] { fn print(x: Self) -> Unit }\n"
    result = check_inline(m=src + "fn h() -> Unit { let p = print; () }\n")
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E-NAME", "requirement 'print' must be applied to arguments")
    ]


def test_a_local_named_like_a_constructor_is_not_deferred():
    """An argument that names a bound local has that local's type, even when
    a generic constructor has the same name."""
    for param in ("y", "None"):
        src = f"module m\n{ID}fn g({param}: U64) -> U64 {{ let z = id({param}); z }}\n"
        result = check_inline(m=src)
        assert result.ok, result.diagnostics


def test_model_bodies_are_checked_against_their_own_model_after_a_failed_header():
    """A model whose header fails is not checked further, and each later
    model's bodies are checked against that model's own declaration."""
    result = check_inline(
        m="""\
module m
concept Show[Self] { fn show(x: Self) -> String }
model Show[U8, U8] { fn show(x: U8) -> String { "bad" } }
model Show[U64] { fn show(x: U64) -> String { show64(x) } }
"""
    )
    [arity] = result.diagnostics
    assert (arity.code, arity.span.start) == ("E-ARITY", (3, 1))
    assert "show" in result.modules["m"].models[0].bodies


DUPLICATES = """\
module dups
data D { A }
data D { B }
data D { C }
fn f() -> D { A }
fn f() -> U64 { B }
fn g() -> D { f() }
"""


def test_the_first_declaration_of_a_name_wins():
    """A later declaration of a name that a module already declares is an
    E-NAME whose related span is the first declaration; it is neither filed
    nor checked, so uses, in the module and in its importers, meet the first."""
    result = check_inline(
        dups=DUPLICATES,
        user="module user\nimport dups\nfn h() -> D { f() }\nfn k() -> D { A }\n",
    )
    found = [(d.code, d.span.start, [r.span.start for r in d.related]) for d in result.diagnostics]
    assert found == [
        ("E-NAME", (3, 1), [(2, 1)]),
        ("E-NAME", (4, 1), [(2, 1)]),
        ("E-NAME", (6, 1), [(5, 1)]),
    ]
    dups = result.modules["dups"]
    assert [c.name for c in dups.datas["D"].ctors] == ["A"]
    assert dups.funs["f"].body is not None and set(dups.funs) == {"f", "g"}
    assert set(result.modules["user"].funs) == {"h", "k"}

    # Data types and concepts share one level, in source order.
    result = check_inline(
        m="module m\ndata D { A }\nconcept D[Self] { fn f(x: Self) -> U64 }\nfn g() -> D { A }\n"
    )
    [dup] = result.diagnostics
    assert (dup.span.start, dup.related[0].span.start) == ((3, 1), (2, 1))


# A generic model `kb` whose `kb.T` names a type with `kb`'s own variable,
# so that under the scoped policy a use of the path mentions a variable of
# another declaration.
KB_LIB = """\
module lib
concept K[Self] { type T
  fn k(x: Self) -> Self }
model kb: K[Option[a]] { type T = a
  fn k(x: Option[a]) -> Option[a] { x } }
concept E[Self] { fn e(x: Self) -> Self }
"""
C_T = "concept C[Self] { type T\n  fn g(x: Self) -> Self }\n"


@pytest.mark.parametrize(
    "policy, decls, code, message, start, end",
    [
        ("use-site", "data D { A, A }", "E-NAME", "duplicate constructor 'A'", (3, 13), (3, 13)),
        (
            "scoped",
            "concept C[Self] where E[kb.T] { fn g(x: Self) -> Self }",
            "E-NAME",
            "superclass constraints may mention only the concept's parameters",
            (3, 23),
            (3, 29),
        ),
        (
            "use-site",
            "concept C[Self] { type T\n  type T\n  fn g(x: Self) -> Self }",
            "E-NAME",
            "duplicate associated type 'T' in concept C",
            (3, 1),
            (5, 25),
        ),
        (
            "use-site",
            "concept C[Self] { fn g(x: Self) -> Self\n  fn g(x: Self) -> Self }",
            "E-NAME",
            "duplicate requirement 'g' in concept C",
            (4, 3),
            (4, 23),
        ),
        (
            "use-site",
            C_T + "model c: C[U64] { type T = U8\n  type T = U8\n  fn g(x: U64) -> U64 { x } }",
            "E-NAME",
            "associated type 'T' bound twice",
            (6, 3),
            (6, 13),
        ),
        (
            "scoped",
            C_T + "model c: C[U64] { type T = kb.T\n  fn g(x: U64) -> U64 { x } }",
            "E-NAME",
            "binding variable 'a' does not occur in the model head",
            (5, 19),
            (5, 31),
        ),
        (
            "use-site",
            REQ + "model c: C[U64] { fn g(x: U64) -> U64 { x }\n  fn h(x: U64) -> U64 { x } }",
            "E-NAME",
            "concept C has no requirement 'h'",
            (5, 3),
            (5, 27),
        ),
        (
            "use-site",
            "fn f[T, T](x: T) -> U64 { 0:U64 }",
            "E-NAME",
            "duplicate type parameter 'T'",
            (3, 1),
            (3, 33),
        ),
        (
            "use-site",
            REQ + "model c: C[U64] { fn g(x: U64, y: U64) -> U64 { x } }",
            "E-ARITY",
            "requirement 'g' takes 1 parameters",
            (4, 19),
            (4, 51),
        ),
        (
            "use-site",
            "fn f[T](x: T[U64]) -> U64 { 0:U64 }",
            "E-ARITY",
            "type variable 'T' cannot be applied to arguments",
            (3, 12),
            (3, 17),
        ),
        (
            "use-site",
            "fn f(x: Option[U64, U64]) -> U64 { 0:U64 }",
            "E-ARITY",
            "type constructor Option expects 1 arguments, got 2",
            (3, 9),
            (3, 24),
        ),
        (
            "use-site",
            REQ + "model c: C[x[U64]] { fn g(x: x[U64]) -> x[U64] { x } }",
            "E-NAME",
            "unknown type constructor 'x'",
            (4, 12),
            (4, 17),
        ),
        (
            "use-site",
            "fn f[T](x: T.Nope) -> U64 { 0:U64 }",
            "E-NAME",
            "no visible concept declares an associated type 'Nope'",
            (3, 12),
            (3, 17),
        ),
        (
            "use-site",
            "fn f(x: U64) -> U64 { match x { _ => x } }",
            "E-TYPE-MISMATCH",
            "match scrutinee has type U64, which is not a sum type",
            (3, 29),
            (3, 29),
        ),
        (
            "use-site",
            "fn f(x: Option[U64]) -> U64 { match x { Some(a, b) => a, None => 0:U64 } }",
            "E-ARITY",
            "constructor Some has 1 fields, pattern binds 2",
            (3, 41),
            (3, 55),
        ),
        (
            "use-site",
            'fn main(x: U64) -> Unit { print("a") }',
            "E-NO-ENTRY",
            "fn main must take no parameters and return Unit",
            (3, 1),
            (3, 38),
        ),
        (
            "use-site",
            C_T + "model c: C[U64] { type T = U8\n  type Nope = U8\n  fn g(x: U64) -> U64 { x } }",
            "E-NAME",
            "concept C has no associated type 'Nope'",
            (6, 3),
            (6, 16),
        ),
    ],
)
def test_declaration_diagnostics_and_their_spans(policy, decls, code, message, start, end):
    """Each of these checks reports one diagnostic, at the span that the
    declaration or the type expression at fault covers."""
    result = check_inline(policy, lib=KB_LIB, m=f"module m\nimport lib\n{decls}\n")
    found = [(d.code, d.message, d.span.file, d.span.start, d.span.end) for d in result.diagnostics]
    assert found == [(code, message, "m.sl", start, end)]


# Programs whose inner binders shadow an outer binding of another type, each
# with its diagnostics: a binding that leaked out of its scope, or was not
# restored after it, would change the verdict.
SHADOWING = [
    pytest.param(
        """\
module m
fn main() -> Unit {
  let x = true;
  let g = fn(x: U64) => add64(x, 1:U64);
  print(if x { show64(g(1:U64)) } else { "no" })
}
""",
        [],
        id="lambda-parameter-shadows-a-let",
    ),
    pytest.param(
        """\
module m
fn f(x: Bool, o: Option[U64]) -> Bool {
  let y = match o { Some(x) => eq64(x, 1:U64), None => x };
  if x { y } else { false }
}
fn main() -> Unit { print(showbool(f(true, Some(1:U64)))) }
""",
        [],
        id="arm-binder-shadows-a-parameter",
    ),
    pytest.param(
        """\
module m
fn main() -> Unit {
  let g = fn(x: U64, x: Bool) => x;
  print(showbool(g(1:U64, true)))
}
""",
        [],
        id="duplicate-lambda-parameters-last-wins",
    ),
    pytest.param(
        """\
module m
data P { Mk(U64, Bool) }
fn main() -> Unit { print(showbool(match Mk(1:U64, true) { Mk(x, x) => x })) }
""",
        [],
        id="duplicate-arm-binders-last-wins",
    ),
    pytest.param(
        """\
module m
data P { Mk(U64, Bool) }
fn main() -> Unit {
  let x = true;
  add64(1:U64, 2:U64);
  print(showbool(match Mk(1:U64, false) { Mk(_, _) => x }))
}
""",
        [],
        id="underscore-binds-nothing",
    ),
    pytest.param(
        """\
module m
fn f(x: Bool, o: Option[U64]) -> U64 {
  let y = match o { Some(x) => x, None => 0:U64 };
  add64(x, y)
}
fn main() -> Unit { print(show64(f(true, None))) }
""",
        [("E-TYPE-MISMATCH", "type mismatch in this expression: expected U64, found Bool")],
        id="parameter-type-after-the-match",
    ),
]


@pytest.mark.parametrize("source, diagnostics", SHADOWING)
def test_inner_binders_shadow_outer_bindings(source, diagnostics):
    result = check_inline(m=source)
    assert [(d.code, d.message) for d in result.diagnostics] == diagnostics
