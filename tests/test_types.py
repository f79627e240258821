"""Unification, matching, and normalization."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slc.types import (
    OPTION,
    PAIR,
    U64,
    U8,
    App,
    Assoc,
    Conf,
    Eq,
    NormDiverge,
    Substitution,
    Var,
    free_vars,
    fresh_uid,
    match_many,
    normalize,
    option_type,
    pair_type,
    render,
    unify,
)

from oracle import (
    enumerate_types,
    enumerated_unifiers,
    factors_through,
    subst_apply,
    walk_free_vars,
)


def v(name):
    return Var(name, fresh_uid())


def test_unify_var_with_con():
    a = v("a")
    s = unify(a, U64)
    assert s is not None
    assert s.apply(a) == U64


def test_unify_under_constructor():
    a = v("a")
    s = unify(option_type(a), option_type(U64))
    assert s is not None
    assert s.apply(a) == U64


def test_occurs_check():
    a = v("a")
    assert unify(a, option_type(a)) is None


def test_constructor_clash():
    assert unify(U64, U8) is None
    assert unify(option_type(U64), App(PAIR, (U64, U64))) is None


def test_match_one_way_rigid_target():
    a = v("a")
    rigid = v("x")
    assert match_many([(option_type(U64), option_type(rigid))]) is None
    s = match_many([(option_type(a), option_type(U64))])
    assert s is not None and s.apply(a) == U64
    # a pattern variable may absorb a rigid target variable
    s2 = match_many([(option_type(a), option_type(rigid))])
    assert s2 is not None and s2.apply(a) == rigid


def test_match_many_keeps_one_binding_when_targets_mention_pattern_vars():
    """A target variable that is also a pattern variable stays rigid: the
    binding a ↦ Option[a] is checked against the second pair as is, not
    applied to it."""
    a, b = v("a"), v("b")
    s = match_many([(a, option_type(a)), (pair_type(a, b), pair_type(option_type(a), U64))])
    assert s is not None
    assert s.bindings == {a.uid: option_type(a), b.uid: U64}
    assert s.apply(pair_type(a, b)) == pair_type(option_type(a), U64)
    assert match_many([(a, option_type(a)), (a, a)]) is None


def test_substitution_idempotent():
    a, b = v("a"), v("b")
    s = unify(App(PAIR, (a, b)), App(PAIR, (option_type(b), U64)))
    assert s is not None
    for t in (a, b, App(PAIR, (a, b))):
        once = s.apply(t)
        assert s.apply(once) == once


def test_mgu_against_small_universe_oracle():
    """Exhaustive agreement with brute-force enumeration (depth <= 2)."""
    a, b = v("a"), v("b")
    cons = [U64, U8, OPTION, PAIR]
    universe = enumerate_types(cons, [a, b], depth=2)
    pairs = 0
    for t1, t2 in itertools.product(universe, repeat=2):
        s = unify(t1, t2)
        found = enumerated_unifiers(t1, t2, universe)
        if s is None:
            assert not found, (render(t1), render(t2))
        else:
            assert s.apply(t1) == s.apply(t2)
            for binding in found:
                assert factors_through(s, binding, t1, t2), (render(t1), render(t2))
        pairs += 1
    assert pairs == len(universe) ** 2


class TableWorld:
    """Minimal world stub: a list of (concept, member, heads, binding, path)."""

    def __init__(self, rows):
        self.rows = rows

    def assoc_binding(self, concept, member, subjects, path):
        hits = []
        for row_concept, row_member, heads, binding, row_path in self.rows:
            if (row_concept, row_member) != (concept, member):
                continue
            if path is not None and row_path != path:
                continue
            m = match_many(zip(heads, subjects))
            if m is not None:
                hits.append(m.apply(binding))
        if len(hits) == 1:
            return hits[0]
        return None


def test_normalize_ground_assoc():
    world = TableWorld([("m.Iterator", "Element", [U64], U8, "m.bytes64")])
    t = Assoc("m.Iterator", "Element", (U64,))
    assert normalize(t, (), world) == U8


def test_normalize_requires_unique_model():
    world = TableWorld(
        [
            ("m.Keyed", "Key", [U64], U8, "left.l"),
            ("m.Keyed", "Key", [U64], U64, "right.r"),
        ]
    )
    t = Assoc("m.Keyed", "Key", (U64,))
    assert normalize(t, (), world) == t  # stuck: two matching models
    tagged = Assoc("m.Keyed", "Key", (U64,), "left.l")
    assert normalize(tagged, (), world) == U8


def test_normalize_with_equality_givens():
    a, b = v("a"), v("b")
    el_a = Assoc("m.Iterator", "Element", (a,))
    el_b = Assoc("m.Iterator", "Element", (b,))
    givens = [Eq(el_a, el_b)]
    assert normalize(el_a, givens, None) == el_b
    assert normalize(el_b, givens, None) == el_b
    assert normalize(option_type(el_a), givens, None) == option_type(el_b)


def test_normalize_identity_on_ground_terms():
    assert normalize(option_type(U64), (), None) == option_type(U64)


def test_normalize_divergence():
    t = v("t")
    givens = [Eq(t, option_type(t))]
    with pytest.raises(NormDiverge):
        normalize(t, givens, None)


def test_normalize_idempotent():
    world = TableWorld([("m.Iterator", "Element", [U64], U8, "m.bytes64")])
    samples = [
        Assoc("m.Iterator", "Element", (U64,)),
        option_type(Assoc("m.Iterator", "Element", (U64,))),
        App(PAIR, (U64, U8)),
    ]
    for t in samples:
        once = normalize(t, (), world)
        assert normalize(once, (), world) == once


def test_distinct_model_paths_never_unify():
    left = Assoc("m.Keyed", "Key", (U64,), "left.l")
    right = Assoc("m.Keyed", "Key", (U64,), "right.r")
    assert unify(left, right) is None
    assert unify(left, Assoc("m.Keyed", "Key", (U64,), "left.l")) is not None
    assert match_many([(left, right)]) is None


def test_normalize_diverges_on_a_rewrite_cycle_that_returns_to_its_input():
    """`a => b` inside `Option[b] => Option[a]` gives back the input after a
    pass that did rewrite; the rules still apply, so that is divergence, not
    a normal form."""
    a, b = v("a"), v("b")
    givens = [Eq(a, b), Eq(option_type(b), option_type(a))]
    with pytest.raises(NormDiverge):
        normalize(option_type(a), givens, None)


# ---------------------------------------------------------------- the term layer, by property

TERM_VARS = (v("a"), v("b"), v("c"))
KEYED = TableWorld(
    [
        ("m.Keyed", "Key", [U64], U8, None),
        ("m.Keyed", "Key", [option_type(TERM_VARS[0])], pair_type(TERM_VARS[0], U64), None),
    ]
)


def terms(depth: int = 8, assoc: bool = True):
    """Terms up to `depth` levels over U64, Option, Pair, three variables
    and, when `assoc`, the projection `Keyed.Key`."""
    leaves = st.sampled_from((U64,) + TERM_VARS)
    if depth == 0:
        return leaves
    sub = terms(depth - 1, assoc)
    formers = [leaves, sub.map(option_type), st.tuples(sub, sub).map(lambda p: pair_type(*p))]
    if assoc:
        formers.append(sub.map(lambda s: Assoc("m.Keyed", "Key", (s,))))
    return st.one_of(formers)


@given(terms())
def test_building_a_term_twice_gives_the_same_object(t):
    rebuilt = subst_apply({}, t)  # every node rebuilt from its fields
    assert rebuilt is t
    assert rebuilt == t and hash(rebuilt) == hash(t)


def test_a_dropped_term_leaves_the_table_and_is_rebuilt_with_its_facts():
    from slc import types

    a = v("a")

    def build():
        return App(PAIR, (Assoc("m.K", "Key", (a,)), option_type(a)))

    t = build()
    key = (App, PAIR, t.args)  # keeps the children alive, not `t`
    assert types._terms[key]() is t
    facts = (t.fvs, t.has_assoc)
    assert facts == ((a,), True)
    del t
    assert key not in types._terms
    again = build()
    assert types._terms[key]() is again
    assert (again.fvs, again.has_assoc) == facts


def test_constraints_are_interned():
    a = v("a")
    assert Conf("m.C", (option_type(a),)) is Conf("m.C", (option_type(a),))
    assert Eq(a, U64) is Eq(a, U64) and Eq(a, U64) is not Eq(U64, a)
    assert Conf("m.C", (a, U8)).fvs == (a,) and Eq(U8, option_type(a)).fvs == (a,)


@given(terms())
def test_free_vars_agree_with_a_walker(t):
    assert free_vars(t) == walk_free_vars(t)
    assert list(t.fvs) == walk_free_vars(t)


@given(terms(), st.dictionaries(st.sampled_from([x.uid for x in TERM_VARS]), terms(3)))
def test_substitution_agrees_with_the_oracle(t, bindings):
    assert Substitution(bindings).apply(t) is subst_apply(bindings, t)


@given(terms(assoc=False))
def test_normalize_returns_a_term_without_projections_as_is(t):
    assert normalize(t, (), KEYED) is t


@given(terms())
def test_normalize_is_idempotent(t):
    once = normalize(t, (), KEYED)
    assert normalize(once, (), KEYED) is once
