"""Definition-site checks: overlap, duplicates, disjointness, orphan rules."""

from conftest import check_inline, codes, corpus_sources

SHOW_PLUS_OPTION_MODELS = """\
module m

concept Show[Self] { fn show(x: Self) -> String }
concept ToText[Self] { fn toText(x: Self) -> String }

model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }

model textShown: ToText[Option[t]] where Show[t] {
  fn toText(o: Option[t]) -> String { match o { Some(x) => show(x), None => "nothing" } }
}

model textU64: ToText[Option[U64]] {
  fn toText(o: Option[U64]) -> String { match o { Some(x) => show64(x), None => "NaN" } }
}
"""


def test_overlapping_pair_coexists_under_use_site():
    result = check_inline("use-site", m=SHOW_PLUS_OPTION_MODELS)
    assert result.ok, result.diagnostics


def test_overlapping_pair_rejected_by_strict():
    result = check_inline("def-site-strict", m=SHOW_PLUS_OPTION_MODELS)
    assert "E-CONSTRUCTOR-DUP" in codes(result)


def test_overlapping_pair_rejected_by_disjoint_when_bound_provable():
    # Show[U64] is visible, so the bounded model reaches Option[U64] too.
    result = check_inline("def-site-disjoint", m=SHOW_PLUS_OPTION_MODELS)
    assert "E-OVERLAP" in codes(result)


def test_overlap_accepted_by_disjoint_when_bound_refutable():
    src = SHOW_PLUS_OPTION_MODELS.replace(
        'model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }\n', ""
    )
    result = check_inline("def-site-disjoint", m=src)
    assert result.ok, result.diagnostics


def test_nonground_bounds_rejected_unconditionally():
    src = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
concept Display[Self] { fn display(x: Self) -> String }
concept ToText[Self] { fn toText(x: Self) -> String }
model a: ToText[Option[t]] where Show[t] {
  fn toText(o: Option[t]) -> String { "s" }
}
model b: ToText[Option[t]] where Display[t] {
  fn toText(o: Option[t]) -> String { "d" }
}
"""
    result = check_inline("def-site-disjoint", m=src)
    assert "E-OVERLAP" in codes(result)
    # and they are duplicates for the use-site policy
    result2 = check_inline("use-site", m=src)
    assert "E-DUPLICATE" in codes(result2)


def test_duplicate_by_head_renaming():
    src = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
concept ToText[Self] { fn toText(x: Self) -> String }
model one: ToText[Option[a]] where Show[a] {
  fn toText(o: Option[a]) -> String { "shown" }
}
model two: ToText[Option[a]] where ToText[a] {
  fn toText(o: Option[a]) -> String { "nested" }
}
"""
    result = check_inline("use-site", m=src)
    assert codes(result) == ["E-DUPLICATE"]


def test_blanket_self_rejected_by_strict():
    src = """\
module m
concept ToText[Self] { fn toText(x: Self) -> String }
model blanket: ToText[a] { fn toText(x: a) -> String { "?" } }
"""
    result = check_inline("def-site-strict", m=src)
    assert "E-BLANKET-SELF" in codes(result)


def test_two_blankets_rejected_by_disjoint():
    src = """\
module m
concept A[Self] { fn fa(x: Self) -> Self }
concept B[Self] { fn fb(x: Self) -> Self }
concept T[Self] { fn ft(x: Self) -> Self }
model m1: T[a] where A[a] { fn ft(x: a) -> a { x } }
model m2: T[b] where B[b] { fn ft(x: b) -> b { x } }
"""
    result = check_inline("def-site-disjoint", m=src)
    assert "E-BLANKET-DUP" in codes(result)


ORPHAN_LIB = """\
module lib
concept Printable[Self] { fn label(x: Self) -> String }
concept From[Self, A] { fn absorb(x: Self, src: A) -> Self }
"""


def orphan_case(body: str):
    return check_inline("def-site-disjoint", lib=ORPHAN_LIB, use="module use\nimport lib\n" + body)


def test_orphan_local_self_type():
    result = orphan_case(
        """\
data Tag { MkTag }
model printTag: Printable[Tag] { fn label(x: Tag) -> String { "tag" } }
"""
    )
    assert result.ok, result.diagnostics


def test_orphan_local_wrapper_with_bound():
    result = orphan_case(
        """\
data TagBox[t] { MkTagBox(t) }
model printBox: Printable[TagBox[t]] where Printable[t] {
  fn label(x: TagBox[t]) -> String { match x { MkTagBox(y) => label(y) } }
}
"""
    )
    assert result.ok, result.diagnostics


def test_orphan_foreign_constructor_local_argument():
    result = orphan_case(
        """\
data Tag { MkTag }
model printOpt: Printable[Option[Tag]] {
  fn label(x: Option[Tag]) -> String { "opt" }
}
"""
    )
    assert "E-ORPHAN" in codes(result)


def test_orphan_foreign_self_local_concept_arg():
    result = orphan_case(
        """\
data Payload { MkPayload }
model fromPayload: From[String, Payload] {
  fn absorb(x: String, src: Payload) -> String { concat(x, "!") }
}
"""
    )
    assert result.ok, result.diagnostics


def test_orphan_blanket_self_before_local():
    result = orphan_case(
        """\
data Seed { MkSeed }
model anyFromSeed: From[t, Seed] { fn absorb(x: t, src: Seed) -> t { x } }
"""
    )
    assert "E-ORPHAN" in codes(result)


def test_orphan_local_self_blanket_arg():
    result = orphan_case(
        """\
data Basket { MkBasket }
model basketFromAny: From[Basket, t] { fn absorb(x: Basket, src: t) -> Basket { x } }
"""
    )
    assert result.ok, result.diagnostics


def test_orphan_never_fires_for_local_concept():
    src = """\
module m
concept Local[Self] { fn f(x: Self) -> Self }
model a: Local[Option[U64]] { fn f(x: Option[U64]) -> Option[U64] { x } }
model b: Local[t] { fn f(x: t) -> t { x } }
"""
    result = check_inline("def-site-disjoint", m=src)
    assert "E-ORPHAN" not in codes(result)


def test_strict_acceptance_implies_one_model_per_constructor():
    result = check_inline(
        "def-site-strict",
        m="""\
module m
concept C[Self] { fn f(x: Self) -> Self }
model a: C[U64] { fn f(x: U64) -> U64 { x } }
model b: C[Option[t]] { fn f(x: Option[t]) -> Option[t] { x } }
model c: C[U8] { fn f(x: U8) -> U8 { x } }
""",
    )
    assert result.ok
    seen = set()
    for model in result.program.world.models:
        from slc.coherence import outermost_con

        key = (model.concept, outermost_con(model.head[0]).name)
        assert key not in seen
        seen.add(key)


def test_heads_overlap_symmetric():
    from slc.coherence import heads_overlap

    result = check_inline("use-site", m=SHOW_PLUS_OPTION_MODELS)
    models = result.modules["m"].models
    text_shown = next(m for m in models if m.name == "textShown")
    text_u64 = next(m for m in models if m.name == "textU64")
    w1 = heads_overlap(text_shown, text_u64)
    w2 = heads_overlap(text_u64, text_shown)
    assert w1 is not None and w2 is not None


def test_disjointness_sound_under_enumeration():
    """disjoint_by_bounds=True implies no ground type satisfies both bounds."""
    from slc.coherence import disjoint_by_bounds, heads_overlap
    from slc.types import Conf, is_ground, match_many
    from oracle import enumerate_types, exhaustive_derivations

    src = SHOW_PLUS_OPTION_MODELS.replace(
        'model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }\n', ""
    )
    result = check_inline("def-site-disjoint", m=src)
    assert result.ok
    world = result.program.world
    models = result.modules["m"].models
    bounded = next(m for m in models if m.name == "textShown")
    concrete = next(m for m in models if m.name == "textU64")
    witness = heads_overlap(bounded, concrete)
    assert witness is not None
    assert disjoint_by_bounds(witness, bounded, concrete, world)

    from slc.types import BUILTIN_CONS

    cons = list(BUILTIN_CONS.values())
    universe = [t for t in enumerate_types(cons, [], depth=2)]
    for tau in universe:
        hits = []
        for model in (bounded, concrete):
            match = match_many(zip(model.head, (tau,)))
            if match is None:
                continue
            ok = True
            for c in model.context:
                inst = match.apply(c)
                if isinstance(inst, Conf) and all(is_ground(s) for s in inst.subjects):
                    if not exhaustive_derivations(inst, world):
                        ok = False
                        break
            hits.append(ok)
        assert not (len(hits) == 2 and all(hits)), f"both models reach {tau}"


def test_overlap_witness_examples():
    from slc.coherence import heads_overlap
    from slc.types import U64

    src = """\
module m
concept SC[Self] { fn sc(x: Self) -> String }
data Wrap[a] { MkWrap(a) }
model blanket: SC[t] { fn sc(x: t) -> String { "t" } }
model concrete: SC[U64] { fn sc(x: U64) -> String { "u" } }
model wrapped: SC[Wrap[a]] where SC[a] { fn sc(x: Wrap[a]) -> String { "w" } }
"""
    result = check_inline("use-site", m=src)
    assert result.ok, result.diagnostics
    models = {m.name: m for m in result.modules["m"].models}
    # blanket head `t` vs U64: witness binds the variable to U64
    witness = heads_overlap(models["blanket"], models["concrete"])
    assert witness is not None
    assert U64 in witness.subst.bindings.values()
    # Wrap[a] vs U64: different constructors, no witness
    assert heads_overlap(models["wrapped"], models["concrete"]) is None
    # a model is always a duplicate of itself up to renaming
    from slc.coherence import is_duplicate

    assert is_duplicate(models["blanket"], models["blanket"])
    assert is_duplicate(models["wrapped"], models["wrapped"])
    assert not is_duplicate(models["blanket"], models["concrete"])


# ---------------------------------------------------------------- pair blame

TO_TEXT_U64 = 'model {name}: ToText[U64] {{ fn toText(x: U64) -> String {{ "{name}" }} }}\n'


def test_in_module_duplicate_blames_the_earlier_model():
    from slc.coherence import CoherencePolicy
    from slc.linker import check_sources

    result = check_sources(corpus_sources("show_lib.sl", "dup_instances.sl"), CoherencePolicy())
    [dup] = result.diagnostics
    assert dup.code == "E-DUPLICATE"
    assert (dup.module, dup.span.start) == ("dup_instances", (9, 1))
    assert "textShown conflicts with dup_instances.textNested" in dup.message
    assert dup.related[0].span.start == (13, 1)


def test_link_conflict_blames_the_later_module():
    from slc.coherence import CoherencePolicy
    from slc.linker import check_sources

    names = ["base", "point", "left", "right", "top"]
    sources = corpus_sources(*(f"diamond_{n}.sl" for n in names))
    result = check_sources(sources, CoherencePolicy())
    [conflict] = result.diagnostics
    assert conflict.code == "E-LINK-CONFLICT"
    assert (conflict.module, conflict.span.start) == ("diamond_right", (6, 1))
    assert conflict.related[0].span.file.endswith("diamond_left.sl")
    assert conflict.related[0].span.start == (6, 1)


def test_cross_module_constructor_dup_blames_the_importer():
    a = "module a\nconcept ToText[Self] { fn toText(x: Self) -> String }\n"
    a += TO_TEXT_U64.format(name="textA")
    b = "module b\nimport a\n" + TO_TEXT_U64.format(name="textB")
    result = check_inline("def-site-strict", a=a, b=b)
    [dup] = result.diagnostics
    assert dup.code == "E-CONSTRUCTOR-DUP"
    assert (dup.module, dup.span.file, dup.span.start) == ("b", "b.sl", (3, 1))
    assert (dup.related[0].span.file, dup.related[0].span.start) == ("a.sl", (3, 1))


def test_strict_blanket_self_is_not_also_a_constructor_dup():
    src = """\
module m
concept ToText[Self] { fn toText(x: Self) -> String }
model textAny: ToText[a] { fn toText(x: a) -> String { "any" } }
"""
    result = check_inline("def-site-strict", m=src + TO_TEXT_U64.format(name="textU64"))
    assert codes(result) == ["E-BLANKET-SELF"]


# ---------------------------------------------------------------- ModelDecl.match


def _model(head, vars_, context=()):
    from slc.decls import ModelDecl
    from slc.diagnostics import Span

    span = Span("m.sl", (1, 1), (1, 1))
    return ModelDecl("m", 0, None, "m.C", list(head), list(vars_), list(context), {}, span)


def test_match_maps_the_models_own_variables_onto_targets_mentioning_them():
    from slc.types import PAIR, App, Conf, Var, fresh_uid, option_type

    a = Var("a", fresh_uid())
    model = _model([App(PAIR, (a, a))], [a], [Conf("m.Show", (a,))])
    target = option_type(a)
    sub = model.match([App(PAIR, (target, target))])
    assert sub is not None
    assert sub.bindings == {a.uid: target}
    assert sub.apply(model.context) == [Conf("m.Show", (target,))]


def test_match_non_linear_mismatch_is_none():
    from slc.types import PAIR, U8, U64, App, Var, fresh_uid

    a = Var("a", fresh_uid())
    model = _model([App(PAIR, (a, a))], [a])
    assert model.match([App(PAIR, (U64, U8))]) is None
    assert model.match([App(PAIR, (U64, U64))]).bindings == {a.uid: U64}


def test_is_duplicate_both_ways_on_renamed_heads():
    from slc.coherence import is_duplicate
    from slc.types import PAIR, U64, App, Var, fresh_uid

    a, b, c = (Var(n, fresh_uid()) for n in "abc")
    left = _model([App(PAIR, (a, b))], [a, b])
    right = _model([App(PAIR, (c, a))], [c, a])
    assert is_duplicate(left, right) and is_duplicate(right, left)
    narrower = _model([App(PAIR, (a, U64))], [a])
    assert not is_duplicate(left, narrower) and not is_duplicate(narrower, left)


# ---------------------------------------------------------------- constructor index
# Pairs are formed from `ModelWorld.models_like`; these pin that a wildcard
# (blanket) model is still paired with keyed models and with other wildcards.

C_WITH_BLANKET = """\
module base
concept C[Self] { fn c(x: Self) -> String }
model cAny: C[a] { fn c(x: a) -> String { "any" } }
"""


def _diag_summary(result):
    return [
        (d.code, d.module, d.span.file, d.span.start, d.message,
         [(r.span.file, r.span.start) for r in d.related])
        for d in result.diagnostics
    ]


def test_index_pairs_blanket_with_keyed_model_of_importer():
    sib = """\
module sib
import base
data Loc { MkLoc }
model cLoc: C[Loc] { fn c(x: Loc) -> String { "loc" } }
"""
    result = check_inline("def-site-disjoint", base=C_WITH_BLANKET, sib=sib)
    assert _diag_summary(result) == [
        ("E-OVERLAP", "sib", "sib.sl", (4, 1),
         "model sib.cLoc conflicts with base.cAny: overlapping heads with satisfiable bounds",
         [("base.sl", (3, 1))]),
    ]


def test_index_pairs_blanket_with_builtin_keyed_model():
    sib = """\
module sib
import base
model cU64: C[U64] { fn c(x: U64) -> String { "u64" } }
"""
    result = check_inline("def-site-disjoint", base=C_WITH_BLANKET, sib=sib)
    assert [(code, module, start) for code, module, _, start, _, _ in _diag_summary(result)] == [
        ("E-ORPHAN", "sib", (3, 1)),
        ("E-OVERLAP", "sib", (3, 1)),
    ]
    assert result.diagnostics[1].message == (
        "model sib.cU64 conflicts with base.cAny: overlapping heads with satisfiable bounds"
    )


def test_index_pairs_two_blankets_across_modules():
    other = """\
module other
import base
model cAll: C[b] { fn c(x: b) -> String { "all" } }
"""
    result = check_inline("def-site-disjoint", base=C_WITH_BLANKET, other=other)
    summary = _diag_summary(result)
    assert [(code, module, start) for code, module, _, start, _, _ in summary] == [
        ("E-BLANKET-DUP", "other", (3, 1)),
        ("E-ORPHAN", "other", (3, 1)),
    ]
    assert summary[0][4] == "model other.cAll conflicts with base.cAny: more than one blanket model"
    assert summary[0][5] == [("base.sl", (3, 1))]


def test_index_links_two_blankets_in_sibling_modules():
    base = "module base\nconcept C[Self] { fn c(x: Self) -> String }\n"
    left = 'module left\nimport base\nmodel cLeft: C[a] { fn c(x: a) -> String { "left" } }\n'
    right = 'module right\nimport base\nmodel cRight: C[b] { fn c(x: b) -> String { "right" } }\n'
    result = check_inline("use-site", base=base, left=left, right=right)
    assert _diag_summary(result) == [
        ("E-LINK-CONFLICT", "right", "right.sl", (3, 1),
         "linking the whole program violates model uniqueness: right.cRight (module right) "
         "conflicts with left.cLeft (module left): duplicate heads (identical up to renaming)",
         [("left.sl", (3, 1))]),
    ]


TWO_PARAM = """\
module m
concept Conv[Self, T] { fn conv(x: Self) -> T }
model toU8: Conv[U64, U8] { fn conv(x: U64) -> U8 { trunc8(x) } }
model toText: Conv[U64, String] { fn conv(x: U64) -> String { show64(x) } }
fn narrow() -> U8 { conv(300:U64):U8 }
fn text() -> String { conv(7:U64):String }
"""


def test_index_two_parameter_models_sharing_self_constructor():
    # Same Self constructor, different second argument: one bucket, so
    # def-site-strict still sees the pair; disjoint and use-site accept it.
    strict = check_inline("def-site-strict", m=TWO_PARAM)
    assert _diag_summary(strict) == [
        ("E-CONSTRUCTOR-DUP", "m", "m.sl", (3, 1),
         "model m.toU8 conflicts with m.toText: second model for (Conv, U64)",
         [("m.sl", (4, 1))]),
    ]
    assert check_inline("def-site-disjoint", m=TWO_PARAM).ok
    assert check_inline("use-site", m=TWO_PARAM).ok


def test_models_like_keeps_world_order_and_includes_wildcards():
    from slc.decls import ModelWorld
    from slc.types import OPTION, U8, U64, Assoc, Var, fresh_uid, option_type

    a = Var("a", fresh_uid())
    keyed_u8 = _model([U8], [])
    keyed_opt = _model([option_type(U64)], [])
    blanket = _model([a], [a])
    keyed_opt_any = _model([option_type(a)], [a])
    world = ModelWorld([keyed_u8, keyed_opt, blanket, keyed_opt_any])
    assert world.models_like("m.C", option_type(U64)) == [keyed_opt, blanket, keyed_opt_any]
    assert world.models_like("m.C", OPTION) == [keyed_opt, blanket, keyed_opt_any]
    assert world.models_like("m.C", U8) == [keyed_u8, blanket]
    assert world.models_like("m.C", U64) == [blanket]
    # A variable or a projection has no key: the whole concept, as is.
    assert world.models_like("m.C", a) is world.models_of("m.C")
    assert world.models_like("m.C", Assoc("m.C", "K", (U64,))) is world.models_of("m.C")
    assert world.models_like("m.Other", U8) == []
    assert ModelWorld([keyed_u8, keyed_opt]).models_like("m.C", U8) == [keyed_u8]
