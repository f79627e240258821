"""Corpus-wide properties: round-trips, span health, entailment, inference."""

from pathlib import Path

import pytest

from conftest import CORPUS, check_inline, span_contains
from oracle import children

from slc.ast import ExprAST, FunAST, ModelAST
from slc.parser import parse_module
from slc.printer import ast_equal, pretty_print

ALL_SL = sorted(CORPUS.glob("*.sl"))


@pytest.mark.parametrize("path", ALL_SL, ids=lambda p: p.name)
def test_corpus_round_trip(path: Path):
    src = path.read_text()
    first = parse_module(src, str(path))
    assert not isinstance(first, list), first
    printed = pretty_print(first)
    second = parse_module(printed, str(path))
    assert not isinstance(second, list), second
    assert ast_equal(first, second)


@pytest.mark.parametrize("path", ALL_SL, ids=lambda p: p.name)
def test_corpus_parse_deterministic(path: Path):
    src = path.read_text()
    assert parse_module(src, str(path)) == parse_module(src, str(path))


@pytest.mark.parametrize("path", ALL_SL, ids=lambda p: p.name)
def test_corpus_span_containment(path: Path):
    module = parse_module(path.read_text(), str(path))
    assert not isinstance(module, list)

    exprs: set[int] = set()  # ids of the expression nodes checked

    def check(node, parent_span):
        if hasattr(node, "span"):
            assert span_contains(parent_span, node.span), (node.span, parent_span)
            parent_span = node.span
        if isinstance(node, ExprAST):
            exprs.add(id(node))
        for child in children(node):
            check(child, parent_span)

    for decl in module.decls:
        check(decl, module.span)
    funs = [d for d in module.decls if isinstance(d, FunAST)]
    funs += [f for d in module.decls if isinstance(d, ModelAST) for f in d.bodies]
    assert all(id(f.body) in exprs for f in funs), "a function body was never checked"


ENTAILS_SRC = """\
module m
concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}
model bytes64: Iterator[U64] {
  type Element = U8
  fn next(it: U64) -> Option[(U8, U64)] {
    if eq64(it, 0:U64) { None } else { Some((trunc8(band(it, 255:U64)), shr(it, 8:U64))) }
  }
}
"""


def entails(givens, wanted, scope, policy):
    """The resolution of `wanted` from `givens` and the models of `scope`,
    or None."""
    from slc.diagnostics import Span
    from slc.resolver import Goal, Resolver

    site = Span.at("<entails>")
    res, _, _ = Resolver(scope, policy, givens=givens).resolve(Goal(wanted, site))
    return res


def test_entails_given_matches_directly():
    from slc.coherence import CoherencePolicy
    from slc.resolver import GivenLeaf
    from slc.types import Conf, Var, fresh_uid

    result = check_inline(m=ENTAILS_SRC)
    assert result.ok
    program = result.program
    iterator = result.modules["m"].concepts["Iterator"].id
    a = Var("a", fresh_uid())
    wanted = Conf(iterator, (a,))
    res = entails([wanted], wanted, program.world, CoherencePolicy("use-site"))
    assert isinstance(res, GivenLeaf)


def test_entails_rigid_variable_fails_without_given():
    from slc.coherence import CoherencePolicy
    from slc.types import Conf, Var, fresh_uid

    result = check_inline(m=ENTAILS_SRC)
    program = result.program
    iterator = result.modules["m"].concepts["Iterator"].id
    a = Var("a", fresh_uid())
    res = entails([], Conf(iterator, (a,)), program.world, CoherencePolicy("use-site"))
    assert res is None


def test_entails_symmetric_equality_via_normalization():
    from slc.coherence import CoherencePolicy
    from slc.resolver import EqLeaf, GivenLeaf
    from slc.types import U8, Assoc, Eq, Var, fresh_uid

    result = check_inline(m=ENTAILS_SRC)
    program = result.program
    iterator = result.modules["m"].concepts["Iterator"].id
    a, b = Var("a", fresh_uid()), Var("b", fresh_uid())
    el_a = Assoc(iterator, "Element", (a,))
    el_b = Assoc(iterator, "Element", (b,))
    given = Eq(el_a, el_b)
    res = entails([given], Eq(el_b, el_a), program.world, CoherencePolicy("use-site"))
    assert isinstance(res, (EqLeaf, GivenLeaf))  # both sides normalize equal

    # a ground equality discharged purely by rewriting
    ground = Eq(Assoc(iterator, "Element", (program.world.index.models[0].head[0],)), U8)
    res2 = entails([], ground, program.world, CoherencePolicy("use-site"))
    assert isinstance(res2, EqLeaf)


def infer_expr(e, mc):
    """Synthesize the type of one expression inside a checked module, with no
    locals and no givens."""
    from slc.sema import ExprChecker

    tex = ExprChecker(mc, tyvars={}, rigid=frozenset(), givens=[]).synth(e, {})
    return tex.type, tex


def test_infer_expr_on_checked_module():
    from slc.parser import parse_module
    from slc.sema import ModuleChecker
    from slc.std import program_index
    from slc.coherence import CoherencePolicy
    from slc.types import U8, render

    result = check_inline(m=ENTAILS_SRC)
    assert result.ok
    # re-run a checker to host the expression (tables already proven good)
    module_ast = result.graph.asts["m"]
    mc = ModuleChecker(module_ast, [], program_index(), CoherencePolicy("use-site"))
    mc.run()
    expr = parse_module(
        "module probe\nfn probe() -> U8 { trunc8(band(7:U64, 255:U64)) }\n", "p.sl"
    ).decls[0].body
    ty, checked = infer_expr(expr, mc)
    assert ty == U8
    assert render(checked.type) == "U8"


def test_infer_expr_rejects_unbound_names():
    from slc.parser import parse_module
    from slc.diagnostics import Abort
    from slc.sema import ModuleChecker
    from slc.std import program_index
    from slc.coherence import CoherencePolicy

    result = check_inline(m=ENTAILS_SRC)
    module_ast = result.graph.asts["m"]
    mc = ModuleChecker(module_ast, [], program_index(), CoherencePolicy("use-site"))
    mc.run()
    expr = parse_module("module probe\nfn p() -> U8 { ghost }\n", "p.sl").decls[0].body
    with pytest.raises(Abort):
        infer_expr(expr, mc)
