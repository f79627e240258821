"""Semantic types: terms, substitutions, unification, matching, normalization.

Terms are first-order. Associated-type projections are a term former of
their own (`Assoc`); under the scoped policy a projection may carry the
identity of the named model it selects from, and projections with distinct
model paths never unify.
"""

from __future__ import annotations

import itertools
import weakref
from functools import cache, partial
from operator import attrgetter

_uid_counter = itertools.count(1)
_has_assoc = attrgetter("has_assoc")  # of a term


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
    `cls` in order; it is built, and its facts cached, by `_init` on first use."""
    key = (cls,) + fields
    ref = _terms.get(key)
    node = ref() if ref is not None else None
    if node is None:
        node = object.__new__(cls)
        node._init(*fields)
        _terms[key] = weakref.ref(node, partial(_forget, key))
    return node


def _union_fvs(terms) -> tuple:
    """The free variables of `terms`, in order of first occurrence."""
    out = ()
    for term in terms:
        more = term.fvs
        if not out:
            out = more
        elif more and more is not out:
            out += tuple(v for v in more if v not in out)
    return out


class TypeTerm:
    __slots__ = ("__weakref__",)
    fvs: tuple = ()
    has_assoc = False

    def _init(self, *fields):  # a leaf's slots, in order; a former stores its own and its facts
        list(map(setattr, itertools.repeat(self), type(self).__slots__, fields))

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

    def _init(self, name, arity, origin):
        self.name, self.arity, self.origin = name, arity, origin


class App(TypeTerm):
    __slots__ = ("head", "args", "fvs", "has_assoc")  # head: a Con in practice

    def __new__(cls, head: TypeTerm, args: tuple[TypeTerm, ...]):
        assert args, "App has at least one argument"
        assert not isinstance(head, Con) or head.arity == len(args), (head, args)
        return _intern(cls, head, args)

    def _init(self, head, args):
        self.head, self.args, self.fvs = head, args, _union_fvs(args)
        self.has_assoc = any(map(_has_assoc, args))

    def map(self, f) -> TypeTerm:
        return App(f(self.head), tuple([f(a) for a in self.args]))


class Assoc(TypeTerm):
    # concept: a concept id ("module.Name"); model_path: the named model
    # ("module.modelname") it selects from under the scoped policy.
    __slots__ = ("concept", "member", "subjects", "model_path", "fvs")
    has_assoc = True

    def __new__(cls, concept: str, member: str, subjects: tuple, model_path: str | None = None):
        return _intern(cls, concept, member, subjects, model_path)

    def _init(self, concept, member, subjects, model_path):
        self.concept, self.member, self.subjects, self.model_path = concept, member, subjects, model_path
        self.fvs = _union_fvs(subjects)

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


@cache
def fn_con(n_params: int) -> Con:
    """The constructor of functions of `n_params` parameters, built once per
    arity and kept for the life of the process."""
    return Con(f"Fn{n_params}", n_params + 1, STD)


def fn_type(params: tuple[TypeTerm, ...] | list[TypeTerm], ret: TypeTerm) -> TypeTerm:
    # `fn_con(n)` takes n + 1 arguments, so `App`'s checks would hold
    return _intern(App, fn_con(len(params)), (*params, ret))


def split_fn_type(t: TypeTerm) -> tuple[tuple[TypeTerm, ...], TypeTerm] | None:
    # terms are interned, so every function head is the `fn_con` of its arity
    if isinstance(t, App) and t.head is fn_con(len(t.args) - 1):
        return t.args[:-1], t.args[-1]
    return None


def pair_type(a: TypeTerm, b: TypeTerm) -> TypeTerm:
    return App(PAIR, (a, b))


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
    __slots__ = ("concept", "subjects", "fvs", "has_assoc")

    def __new__(cls, concept: str, subjects: tuple[TypeTerm, ...]):
        assert subjects
        return _intern(cls, concept, subjects)

    def _init(self, concept, subjects):
        self.concept, self.subjects, self.fvs = concept, subjects, _union_fvs(subjects)
        self.has_assoc = any(map(_has_assoc, subjects))


class Eq(ConstraintTerm):
    __slots__ = ("lhs", "rhs", "fvs", "has_assoc")

    def __new__(cls, lhs: TypeTerm, rhs: TypeTerm):
        return _intern(cls, lhs, rhs)

    def _init(self, lhs, rhs):
        self.lhs, self.rhs, self.fvs = lhs, rhs, _union_fvs((lhs, rhs))
        self.has_assoc = lhs.has_assoc or rhs.has_assoc

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


def is_ground(t: TypeTerm) -> bool:
    return not t.fvs


# ---------------------------------------------------------------- substitution


class Substitution:
    """A finite map from Var uids to terms, applied in one pass.

    A bound term may mention a bound variable (matching a model head onto
    its own variables gives `a ↦ Option[a]`); `apply` replaces each variable
    once and does not rewrite what it put in, so the map need not be
    idempotent. It keeps the dict it is given, which its callers build for it.
    """

    def __init__(self, bindings: dict[int, TypeTerm] | None = None):
        self.bindings: dict[int, TypeTerm] = {} if bindings is None else bindings

    def apply(self, t):
        """`t` under this substitution; `t` is a term, a constraint or a list
        or tuple of them. An application is rebuilt over its own head, a
        constructor, with as many arguments as before, and a conformance
        over its own concept, so each is interned directly, past the checks
        of `App` and `Conf`."""
        kind = type(t)
        if kind is Var:
            return self.bindings.get(t.uid, t)
        if kind is list or kind is tuple:
            return kind(map(self.apply, t))
        if not t.fvs:
            return t
        if kind is App:
            return _intern(App, t.head, tuple(map(self.apply, t.args)))
        if kind is Conf:
            return _intern(Conf, t.concept, tuple(map(self.apply, t.subjects)))
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
    if not _unify(t1, t2, binding):
        return None
    return Substitution({uid: _resolve(term, binding) for uid, term in binding.items()})


def _walk(t: TypeTerm, binding: dict[int, TypeTerm]) -> TypeTerm:
    while isinstance(t, Var) and t.uid in binding:
        t = binding[t.uid]
    return t


def _resolve(t: TypeTerm, binding: dict[int, TypeTerm]) -> TypeTerm:
    t = _walk(t, binding)
    return t.map(lambda x: _resolve(x, binding)) if t.fvs else t


def _occurs(uid: int, t: TypeTerm, binding: dict[int, TypeTerm]) -> bool:
    return any(v.uid == uid or (v.uid in binding and _occurs(uid, binding[v.uid], binding)) for v in t.fvs)


def _unify(a: TypeTerm, b: TypeTerm, binding: dict[int, TypeTerm]) -> bool:
    """`unify` of one pair, extending `binding`."""
    a, b = _walk(a, binding), _walk(b, binding)
    if a is b:
        return True
    if isinstance(a, Var):
        if _occurs(a.uid, b, binding):
            return False
        binding[a.uid] = b
        return True
    if isinstance(b, Var):
        if _occurs(b.uid, a, binding):
            return False
        binding[b.uid] = a
        return True
    if isinstance(a, App) and isinstance(b, App) and len(a.args) == len(b.args):
        parts = zip((a.head, *a.args), (b.head, *b.args))
    elif isinstance(a, Assoc) and isinstance(b, Assoc) and _same_projection(a, b):
        parts = zip(a.subjects, b.subjects)
    else:
        return False
    return all(_unify(x, y, binding) for x, y in parts)


def unify_many(pairs) -> Substitution | None:
    """Simultaneous unification of a non-empty sequence of term pairs."""
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
    for pattern, target in pairs:
        if not _match(pattern, target, binding):
            return None
    return Substitution(binding)


def _match(p: TypeTerm, t: TypeTerm, binding: dict[int, TypeTerm]) -> bool:
    """`match_many` of one pair, extending `binding`."""
    if not p.fvs:
        return p is t  # a ground pattern matches only itself, terms being interned
    if type(p) is Var:
        bound = binding.get(p.uid)
        if bound is None:
            binding[p.uid] = t
            return True
        return bound is t
    if type(p) is App and type(t) is App and p.head is t.head:  # a constructor: as many arguments
        parts = zip(p.args, t.args)
    elif type(p) is Assoc and type(t) is Assoc and _same_projection(p, t):
        parts = zip(p.subjects, t.subjects)
    else:
        return False  # a variable of the target is rigid; only a pattern var could absorb it
    for x, y in parts:
        if not _match(x, y, binding):
            return False
    return True


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
    trace: list[tuple[TypeTerm, TypeTerm]] | None = None,
) -> TypeTerm:
    """Rewrite to a fixpoint.

    Two rule families apply, innermost first:
      * a ground associated-type projection with a unique matching model in
        `world` rewrites to that model's binding (a model path, when present,
        narrows the match to the named model);
      * each equality given rewrites occurrences of its left side to its
        right side, in source order.

    Stops after NORMALIZE_STEP_LIMIT rewrites and raises NormDiverge.
    Each rewrite is appended to `trace`, when given, as (term, rewritten).
    `world` only needs an `assoc_binding(concept, member, subjects, path)`
    method returning the bound term or None.
    """
    if not givens and not t.has_assoc:
        return t
    rules: dict[TypeTerm, TypeTerm] = {}  # the first given for each left side
    for g in givens:
        if isinstance(g, Eq):
            rules.setdefault(g.lhs, g.rhs)
    if not rules and not t.has_assoc:
        return t
    rewrite = _Rewrite(rules, world, trace, t)
    # A pass that rewrote nothing leaves the steps as they were; a pass that
    # rewrote back to its input did not reach a normal form.
    current = t
    while True:
        before = rewrite.steps
        current = rewrite.once(current)
        if rewrite.steps == before:
            return current


class _Rewrite:
    """One `normalize` call: its rules, world and trace, and the rewrites so
    far (an object, so that the recursion holds no closure cell)."""

    __slots__ = ("rules", "world", "trace", "steps", "root")

    def __init__(self, rules: dict, world, trace: list | None, root: TypeTerm):
        self.rules, self.world, self.trace, self.steps, self.root = rules, world, trace, 0, root

    def once(self, term: TypeTerm) -> TypeTerm:
        """One pass over `term`, innermost first."""
        if not self.rules and not term.has_assoc:
            return term
        term = term.map(self.once)
        replaced = self.rules.get(term)
        if replaced is None and isinstance(term, Assoc) and self.world is not None and not term.fvs:
            replaced = self.world.assoc_binding(term.concept, term.member, term.subjects, term.model_path)
        if replaced is None or replaced is term:
            return term
        self.steps += 1
        if self.steps > NORMALIZE_STEP_LIMIT:
            raise NormDiverge(self.root)
        if self.trace is not None:
            self.trace.append((term, replaced))
        return replaced
