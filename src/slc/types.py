"""Semantic types: terms, substitutions, unification, matching, normalization.

Terms are first-order. Associated-type projections are a term former of
their own (`Assoc`); under the scoped policy a projection may carry the
identity of the named model it selects from, and projections with distinct
model paths never unify.
"""

from __future__ import annotations

import itertools
import weakref
from functools import partial

_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    return next(_uid_counter)


# ---------------------------------------------------------------- terms
#
# Terms and constraints are hash-consed (Filliâtre & Conchon, "Type-Safe
# Modular Hash-Consing", ML Workshop 2006): each distinct one is built once,
# through a table of weak references keyed by (class, fields), so `==` and
# `hash` are identity. Each node caches `fvs`, its free variables in order of
# first occurrence, and a term `has_assoc`, whether it contains a projection.
# `map(f)` rebuilds the same former over `f` of each child; a leaf returns it.

_terms: dict[tuple, weakref.ref] = {}


def _forget(key, ref):
    """Drop a dead node's entry, unless `key` was interned again since."""
    if _terms.get(key) is ref:
        del _terms[key]


def _intern(cls, *fields):
    """The one node of `cls` over `fields`, which fill the first slots of
    `cls` in order; it is built, and its facts cached, on first use."""
    key = (cls, *fields)
    ref = _terms.get(key)
    node = ref() if ref is not None else None
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node._cache_facts()
        _terms[key] = weakref.ref(node, partial(_forget, key))
    return node


def _union_fvs(parts) -> tuple:
    """The free variables of `parts` (terms, constraints or sequences of
    them), in order of first occurrence."""
    out = ()
    for part in parts:
        more = _union_fvs(part) if isinstance(part, (list, tuple)) else part.fvs
        if not out:
            out = more
        elif more and more is not out:
            out += tuple(v for v in more if v not in out)
    return out


class TypeTerm:
    __slots__ = ("__weakref__",)
    fvs: tuple = ()
    has_assoc = False

    def _cache_facts(self):
        pass

    def map(self, f) -> TypeTerm:
        return self

    def __repr__(self):
        return f"{type(self).__name__}({render(self)})"


class Var(TypeTerm):
    __slots__ = ("name", "uid")

    def __new__(cls, name: str, uid: int):
        return _intern(cls, name, uid)

    @property
    def fvs(self) -> tuple:
        return (self,)

    def __repr__(self):
        return f"Var({self.name}#{self.uid})"


class Con(TypeTerm):
    __slots__ = ("name", "arity", "origin")  # origin: the defining module

    def __new__(cls, name: str, arity: int, origin: str):
        return _intern(cls, name, arity, origin)


class App(TypeTerm):
    __slots__ = ("head", "args", "fvs", "has_assoc")  # head: a Con in practice

    def __new__(cls, head: TypeTerm, args: tuple[TypeTerm, ...]):
        assert args, "App has at least one argument"
        assert not isinstance(head, Con) or head.arity == len(args), (head, args)
        return _intern(cls, head, args)

    def _cache_facts(self):
        self.fvs = _union_fvs(self.args)
        self.has_assoc = any(a.has_assoc for a in self.args)

    def map(self, f) -> TypeTerm:
        return App(f(self.head), tuple([f(a) for a in self.args]))


class Assoc(TypeTerm):
    # concept: a concept id ("module.Name"); model_path: the named model
    # ("module.modelname") it selects from under the scoped policy.
    __slots__ = ("concept", "member", "subjects", "model_path", "fvs")
    has_assoc = True

    def __new__(cls, concept: str, member: str, subjects: tuple, model_path: str | None = None):
        return _intern(cls, concept, member, subjects, model_path)

    def _cache_facts(self):
        self.fvs = _union_fvs(self.subjects)

    def map(self, f) -> TypeTerm:
        return Assoc(self.concept, self.member, tuple([f(s) for s in self.subjects]), self.model_path)


# Builtin constructors all originate from the synthetic `std` module.
STD = "std"
U64 = Con("U64", 0, STD)
U8 = Con("U8", 0, STD)
BOOL = Con("Bool", 0, STD)
STRING = Con("String", 0, STD)
UNIT = Con("Unit", 0, STD)
F64 = Con("F64", 0, STD)
OPTION = Con("Option", 1, STD)
PAIR = Con("Pair", 2, STD)
LIST = Con("List", 1, STD)

BUILTIN_CONS = {c.name: c for c in (U64, U8, BOOL, STRING, UNIT, F64, OPTION, PAIR, LIST)}


def fn_con(n_params: int) -> Con:
    return Con(f"Fn{n_params}", n_params + 1, STD)


def fn_type(params: tuple[TypeTerm, ...] | list[TypeTerm], ret: TypeTerm) -> TypeTerm:
    return App(fn_con(len(params)), tuple(params) + (ret,))


def split_fn_type(t: TypeTerm) -> tuple[tuple[TypeTerm, ...], TypeTerm] | None:
    if isinstance(t, App) and isinstance(t.head, Con) and t.head.name.startswith("Fn"):
        tail = t.head.name[2:]
        if tail.isdigit() and int(tail) == len(t.args) - 1:
            return t.args[:-1], t.args[-1]
    return None


def pair_type(a: TypeTerm, b: TypeTerm) -> TypeTerm:
    return App(PAIR, (a, b))


def option_type(a: TypeTerm) -> TypeTerm:
    return App(OPTION, (a,))


def list_type(a: TypeTerm) -> TypeTerm:
    return App(LIST, (a,))


def outermost_con(t: TypeTerm) -> Con | None:
    """The constructor of a `Con` or `App(Con, ...)` term; None for a
    variable or a projection. Terms whose outermost constructors differ
    never match or unify, so this is the rough key of a model index."""
    if isinstance(t, Con):
        return t
    if isinstance(t, App) and isinstance(t.head, Con):
        return t.head
    return None


# ---------------------------------------------------------------- constraints


class ConstraintTerm:
    __slots__ = ("__weakref__",)


class Conf(ConstraintTerm):
    __slots__ = ("concept", "subjects", "fvs")

    def __new__(cls, concept: str, subjects: tuple[TypeTerm, ...]):
        assert subjects
        return _intern(cls, concept, subjects)

    def _cache_facts(self):
        self.fvs = _union_fvs(self.subjects)

    def map(self, f) -> Conf:
        return Conf(self.concept, tuple([f(s) for s in self.subjects]))


class Eq(ConstraintTerm):
    __slots__ = ("lhs", "rhs", "fvs")

    def __new__(cls, lhs: TypeTerm, rhs: TypeTerm):
        return _intern(cls, lhs, rhs)

    def _cache_facts(self):
        self.fvs = _union_fvs((self.lhs, self.rhs))

    def map(self, f) -> Eq:
        return Eq(f(self.lhs), f(self.rhs))


# ---------------------------------------------------------------- rendering


def render(t: TypeTerm) -> str:
    if isinstance(t, (Var, Con)):
        return t.name
    if isinstance(t, App):
        fn = split_fn_type(t)
        if fn is not None:
            params, ret = fn
            return f"({', '.join(render(p) for p in params)}) -> {render(ret)}"
        if t.head is PAIR:
            return f"({render(t.args[0])}, {render(t.args[1])})"
        return f"{render(t.head)}[{', '.join(render(a) for a in t.args)}]"
    if isinstance(t, Assoc):
        if t.model_path is not None:
            return f"{t.model_path}.{t.member}"
        if len(t.subjects) == 1:
            return f"{render(t.subjects[0])}.{t.member}"
        subjects = ", ".join(render(s) for s in t.subjects)
        return f"[{subjects}].{t.member}"
    raise AssertionError(type(t))


def render_constraint(c: ConstraintTerm) -> str:
    if isinstance(c, Conf):
        name = c.concept.split(".")[-1]
        return f"{name}[{', '.join(render(s) for s in c.subjects)}]"
    if isinstance(c, Eq):
        return f"{render(c.lhs)} == {render(c.rhs)}"
    raise AssertionError(type(c))


# ---------------------------------------------------------------- term utilities


def free_vars(t) -> list[Var]:
    """Free variables of a term, a constraint or a sequence of them, in
    order of first occurrence."""
    return list(_union_fvs((t,)))


def is_ground(t: TypeTerm) -> bool:
    return not t.fvs


# ---------------------------------------------------------------- substitution


class Substitution:
    """A finite map from Var uids to terms, applied in one pass.

    A bound term may mention a bound variable (matching a model head onto
    its own variables gives `a ↦ Option[a]`); `apply` replaces each variable
    once and does not rewrite what it put in, so the map need not be
    idempotent.
    """

    def __init__(self, bindings: dict[int, TypeTerm] | None = None):
        self.bindings: dict[int, TypeTerm] = dict(bindings or {})

    def apply(self, t):
        """`t` under this substitution; `t` is a term, a constraint or a list
        or tuple of them."""
        if isinstance(t, (list, tuple)):
            return type(t)(self.apply(x) for x in t)
        if not t.fvs:
            return t
        if isinstance(t, Var):
            return self.bindings.get(t.uid, t)
        return t.map(self.apply)

    def bind(self, uid: int, term: TypeTerm):
        self.bindings[uid] = term

    def __repr__(self):
        inner = ", ".join(f"{u}->{render(t)}" for u, t in sorted(self.bindings.items()))
        return f"Subst({inner})"


# ---------------------------------------------------------------- unification


def _same_projection(a: Assoc, b: Assoc) -> bool:
    """Same concept, member, model path and number of subjects; projections
    with distinct model paths never unify."""
    return (a.concept, a.member, a.model_path, len(a.subjects)) == (
        b.concept, b.member, b.model_path, len(b.subjects)
    )


def unify(t1: TypeTerm, t2: TypeTerm) -> Substitution | None:
    """Most general unifier of two terms, or None.

    Assoc terms unify only when concept, member, model path, and subjects
    all unify pairwise; an Assoc never unifies with a non-Assoc term.
    """
    binding: dict[int, TypeTerm] = {}

    def walk(t: TypeTerm) -> TypeTerm:
        while isinstance(t, Var) and t.uid in binding:
            t = binding[t.uid]
        return t

    def resolve(t: TypeTerm) -> TypeTerm:
        t = walk(t)
        return t.map(resolve) if t.fvs else t

    def occurs(uid: int, t: TypeTerm) -> bool:
        return any(
            v.uid == uid or (v.uid in binding and occurs(uid, binding[v.uid])) for v in t.fvs
        )

    def go(a: TypeTerm, b: TypeTerm) -> bool:
        a, b = walk(a), walk(b)
        if a is b:
            return True
        if isinstance(a, Var):
            if occurs(a.uid, b):
                return False
            binding[a.uid] = b
            return True
        if isinstance(b, Var):
            if occurs(b.uid, a):
                return False
            binding[b.uid] = a
            return True
        if isinstance(a, App) and isinstance(b, App) and len(a.args) == len(b.args):
            return go(a.head, b.head) and all(go(x, y) for x, y in zip(a.args, b.args))
        if isinstance(a, Assoc) and isinstance(b, Assoc) and _same_projection(a, b):
            return all(go(x, y) for x, y in zip(a.subjects, b.subjects))
        return False

    if not go(t1, t2):
        return None
    resolved = {uid: resolve(term) for uid, term in binding.items()}
    return Substitution(resolved)


def unify_many(pairs) -> Substitution | None:
    """Simultaneous unification of a sequence of term pairs."""
    if not pairs:
        return Substitution()
    lhs = [p[0] for p in pairs]
    rhs = [p[1] for p in pairs]
    probe = Con("$vec", len(lhs), STD)
    return unify(App(probe, tuple(lhs)), App(probe, tuple(rhs)))


def match_many(pairs) -> Substitution | None:
    """Match each pattern onto its target under one binding of the pattern
    variables, or None.

    Only pattern variables are instantiated. Every variable of a target is
    rigid, even one that is also a pattern variable: a pattern variable may
    bind to it, nothing else matches it. The binding is never applied to a
    pattern or a target, so a pattern variable bound once must meet the
    same target wherever it recurs.
    """
    binding: dict[int, TypeTerm] = {}

    def go(p: TypeTerm, t: TypeTerm) -> bool:
        if isinstance(p, Var):
            bound = binding.get(p.uid)
            if bound is None:
                binding[p.uid] = t
                return True
            return bound == t
        if isinstance(t, Var):
            return False  # rigid; only a pattern var could have absorbed it
        if isinstance(p, Con) and isinstance(t, Con):
            return p == t
        if isinstance(p, App) and isinstance(t, App) and len(p.args) == len(t.args):
            return go(p.head, t.head) and all(go(x, y) for x, y in zip(p.args, t.args))
        if isinstance(p, Assoc) and isinstance(t, Assoc) and _same_projection(p, t):
            return all(go(x, y) for x, y in zip(p.subjects, t.subjects))
        return False

    if not all(go(pattern, target) for pattern, target in pairs):
        return None
    return Substitution(binding)


# ---------------------------------------------------------------- normalization

NORMALIZE_STEP_LIMIT = 1000


class NormDiverge(Exception):
    """Normalization exceeded its step limit."""

    def __init__(self, term: TypeTerm):
        self.term = term
        super().__init__(f"normalization diverged at {render(term)}")


def normalize(
    t: TypeTerm,
    givens=(),
    world=None,
    trace: list[str] | None = None,
) -> TypeTerm:
    """Rewrite to a fixpoint.

    Two rule families apply, innermost first:
      * a ground associated-type projection with a unique matching model in
        `world` rewrites to that model's binding (a model path, when present,
        narrows the match to the named model);
      * each equality given rewrites occurrences of its left side to its
        right side, in source order.

    Stops after NORMALIZE_STEP_LIMIT rewrites and raises NormDiverge.
    `world` only needs an `assoc_binding(concept, member, subjects, path)`
    method returning the bound term or None.
    """
    rules: dict[TypeTerm, TypeTerm] = {}  # the first given for each left side
    for g in givens:
        if isinstance(g, Eq):
            rules.setdefault(g.lhs, g.rhs)
    if not rules and not t.has_assoc:
        return t
    steps = 0

    def pass_once(term: TypeTerm) -> TypeTerm:
        nonlocal steps
        if not rules and not term.has_assoc:
            return term
        term = term.map(pass_once)
        replaced = rules.get(term)
        if replaced is None and isinstance(term, Assoc) and world is not None and not term.fvs:
            replaced = world.assoc_binding(term.concept, term.member, term.subjects, term.model_path)
        if replaced is None or replaced is term:
            return term
        steps += 1
        if steps > NORMALIZE_STEP_LIMIT:
            raise NormDiverge(t)
        if trace is not None:
            trace.append(f"{render(term)} => {render(replaced)}")
        return replaced

    # A pass that rewrote nothing leaves the steps as they were; a pass that
    # rewrote back to its input did not reach a normal form.
    current = t
    while True:
        before = steps
        current = pass_once(current)
        if steps == before:
            return current
