"""Semantic types: terms, substitutions, unification, matching, normalization.

Terms are first-order. Associated-type projections are a term former of
their own (`Assoc`); under the scoped policy a projection may carry the
identity of the named model it selects from, and projections with distinct
model paths never unify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    return next(_uid_counter)


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class TypeTerm:
    pass


@dataclass(frozen=True)
class Var(TypeTerm):
    name: str
    uid: int

    def __repr__(self):
        return f"Var({self.name}#{self.uid})"


@dataclass(frozen=True)
class Con(TypeTerm):
    name: str
    arity: int
    origin: str  # defining module

    def __repr__(self):
        return f"Con({self.name})"


@dataclass(frozen=True)
class App(TypeTerm):
    head: TypeTerm  # Con (first-order: no Var heads in practice)
    args: tuple[TypeTerm, ...]

    def __post_init__(self):
        assert self.args, "App has at least one argument"
        if isinstance(self.head, Con):
            assert self.head.arity == len(self.args), (self.head, self.args)


@dataclass(frozen=True)
class Assoc(TypeTerm):
    concept: str  # concept id ("module.Name")
    member: str
    subjects: tuple[TypeTerm, ...]
    model_path: str | None = None  # "module.modelname" under the scoped policy


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


@dataclass(frozen=True)
class ConstraintTerm:
    pass


@dataclass(frozen=True)
class Conf(ConstraintTerm):
    concept: str
    subjects: tuple[TypeTerm, ...]

    def __post_init__(self):
        assert self.subjects


@dataclass(frozen=True)
class Eq(ConstraintTerm):
    lhs: TypeTerm
    rhs: TypeTerm


# ---------------------------------------------------------------- rendering


def render(t: TypeTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Con):
        return t.name
    if isinstance(t, App):
        fn = split_fn_type(t)
        if fn is not None:
            params, ret = fn
            return f"({', '.join(render(p) for p in params)}) -> {render(ret)}"
        if isinstance(t.head, Con) and t.head == PAIR:
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
    """Free variables in declaration order of first occurrence."""
    seen: dict[int, Var] = {}

    def go(x):
        if isinstance(x, Var):
            seen.setdefault(x.uid, x)
        elif isinstance(x, App):
            go(x.head)
            for a in x.args:
                go(a)
        elif isinstance(x, Assoc):
            for s in x.subjects:
                go(s)
        elif isinstance(x, Conf):
            for s in x.subjects:
                go(s)
        elif isinstance(x, Eq):
            go(x.lhs)
            go(x.rhs)
        elif isinstance(x, (list, tuple)):
            for item in x:
                go(item)

    go(t)
    return list(seen.values())


def is_ground(t: TypeTerm) -> bool:
    return not free_vars(t)


# ---------------------------------------------------------------- substitution


class Substitution:
    """An idempotent finite map from Var uids to terms."""

    def __init__(self, bindings: dict[int, TypeTerm] | None = None):
        self.bindings: dict[int, TypeTerm] = dict(bindings or {})

    def apply(self, t):
        if isinstance(t, Var):
            return self.bindings.get(t.uid, t)
        if isinstance(t, Con):
            return t
        if isinstance(t, App):
            return App(self.apply(t.head), tuple(self.apply(a) for a in t.args))
        if isinstance(t, Assoc):
            return Assoc(
                t.concept, t.member, tuple(self.apply(s) for s in t.subjects), t.model_path
            )
        if isinstance(t, Conf):
            return Conf(t.concept, tuple(self.apply(s) for s in t.subjects))
        if isinstance(t, Eq):
            return Eq(self.apply(t.lhs), self.apply(t.rhs))
        if isinstance(t, (list, tuple)):
            return type(t)(self.apply(x) for x in t)
        raise AssertionError(type(t))

    def bind(self, uid: int, term: TypeTerm):
        self.bindings[uid] = term

    def to_json(self, var_names: dict[int, str] | None = None) -> dict:
        names = var_names or {}
        out = {}
        for uid in sorted(self.bindings):
            out[names.get(uid, f"${uid}")] = render(self.bindings[uid])
        return out

    def __repr__(self):
        inner = ", ".join(f"{u}->{render(t)}" for u, t in sorted(self.bindings.items()))
        return f"Subst({inner})"


# ---------------------------------------------------------------- unification


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
        if isinstance(t, App):
            return App(resolve(t.head), tuple(resolve(a) for a in t.args))
        if isinstance(t, Assoc):
            return Assoc(t.concept, t.member, tuple(resolve(s) for s in t.subjects), t.model_path)
        return t

    def occurs(uid: int, t: TypeTerm) -> bool:
        t = walk(t)
        if isinstance(t, Var):
            return t.uid == uid
        if isinstance(t, App):
            return occurs(uid, t.head) or any(occurs(uid, a) for a in t.args)
        if isinstance(t, Assoc):
            return any(occurs(uid, s) for s in t.subjects)
        return False

    def go(a: TypeTerm, b: TypeTerm) -> bool:
        a, b = walk(a), walk(b)
        if isinstance(a, Var) and isinstance(b, Var) and a.uid == b.uid:
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
        if isinstance(a, Con) and isinstance(b, Con):
            return a == b
        if isinstance(a, App) and isinstance(b, App):
            if len(a.args) != len(b.args):
                return False
            if not go(a.head, b.head):
                return False
            return all(go(x, y) for x, y in zip(a.args, b.args))
        if isinstance(a, Assoc) and isinstance(b, Assoc):
            if (a.concept, a.member, a.model_path) != (b.concept, b.member, b.model_path):
                return False
            if len(a.subjects) != len(b.subjects):
                return False
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


def match_one_way(pattern: TypeTerm, target: TypeTerm) -> Substitution | None:
    """Match `pattern` onto `target`, instantiating only pattern variables.

    Variables occurring in the target are rigid: they match themselves only.
    The caller guarantees the two sides share no variables.
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
        if isinstance(p, App) and isinstance(t, App):
            if len(p.args) != len(t.args):
                return False
            return go(p.head, t.head) and all(go(x, y) for x, y in zip(p.args, t.args))
        if isinstance(p, Assoc) and isinstance(t, Assoc):
            if (p.concept, p.member, p.model_path) != (t.concept, t.member, t.model_path):
                return False
            if len(p.subjects) != len(t.subjects):
                return False
            return all(go(x, y) for x, y in zip(p.subjects, t.subjects))
        return False

    if not go(pattern, target):
        return None
    return Substitution(binding)


def match_many(pairs) -> Substitution | None:
    binding = Substitution()
    for pattern, target in pairs:
        step = match_one_way(binding.apply(pattern), target)
        if step is None:
            return None
        binding.bindings.update(step.bindings)
    return binding


def freshen(terms, vars_in_order: list[Var] | None = None):
    """Copy terms with all variables replaced by fresh ones.

    Returns (renamed terms, substitution used, fresh vars in order).
    """
    vs = vars_in_order if vars_in_order is not None else free_vars(terms)
    sub = Substitution({v.uid: Var(v.name, fresh_uid()) for v in vs})
    fresh_vars = [sub.bindings[v.uid] for v in vs]
    return sub.apply(terms), sub, fresh_vars


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
    eq_rules = [(g.lhs, g.rhs) for g in givens if isinstance(g, Eq)]
    steps = 0

    def budget():
        nonlocal steps
        steps += 1
        if steps > NORMALIZE_STEP_LIMIT:
            raise NormDiverge(t)

    def rewrite_head(term: TypeTerm) -> TypeTerm | None:
        for lhs, rhs in eq_rules:
            if term == lhs:
                return rhs
        if isinstance(term, Assoc) and world is not None:
            if all(is_ground(s) for s in term.subjects):
                bound = world.assoc_binding(term.concept, term.member, term.subjects, term.model_path)
                if bound is not None:
                    return bound
        return None

    def pass_once(term: TypeTerm) -> tuple[TypeTerm, bool]:
        changed = False
        if isinstance(term, App):
            new_args = []
            for a in term.args:
                na, ch = pass_once(a)
                changed = changed or ch
                new_args.append(na)
            term = App(term.head, tuple(new_args))
        elif isinstance(term, Assoc):
            new_subjects = []
            for s in term.subjects:
                ns, ch = pass_once(s)
                changed = changed or ch
                new_subjects.append(ns)
            term = Assoc(term.concept, term.member, tuple(new_subjects), term.model_path)
        replaced = rewrite_head(term)
        if replaced is not None and replaced != term:
            budget()
            if trace is not None:
                trace.append(f"{render(term)} => {render(replaced)}")
            return replaced, True
        return term, changed

    current = t
    while True:
        nxt, changed = pass_once(current)
        if not changed:
            return current
        current = nxt
