"""Independent test oracles.

Everything here is deliberately written without reusing the production
search/unification paths it is checking:

  * a substitution and a free-variable walker over the term fields;
  * a tiny structural matcher used to verify most-general-unifier claims;
  * an enumerator of ground types over a constructor universe;
  * an exhaustive backtracking derivation counter for conformance goals;
  * a structural walker over the `__slots__` of program objects.
"""

from __future__ import annotations

import itertools

from slc.types import App, Assoc, Con, Substitution, TypeTerm, Var


def subst_apply(bindings: dict, t: TypeTerm) -> TypeTerm:
    if isinstance(t, Var):
        return bindings.get(t.uid, t)
    if isinstance(t, Con):
        return t
    if isinstance(t, App):
        return App(subst_apply(bindings, t.head), tuple(subst_apply(bindings, a) for a in t.args))
    if isinstance(t, Assoc):
        return Assoc(t.concept, t.member, tuple(subst_apply(bindings, s) for s in t.subjects), t.model_path)
    raise AssertionError(type(t))


def walk_free_vars(t) -> list[Var]:
    """Free variables of a term or a tuple of terms, in order of first
    occurrence, found by walking every field."""
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
        elif isinstance(x, tuple):
            for item in x:
                go(item)

    go(t)
    return list(seen.values())


def plain_match(pattern: TypeTerm, target: TypeTerm, binding: dict) -> bool:
    """Syntactic one-way matching used only to verify factorization."""
    if isinstance(pattern, Var):
        if pattern.uid in binding:
            return binding[pattern.uid] == target
        binding[pattern.uid] = target
        return True
    if isinstance(pattern, Con):
        return pattern == target
    if isinstance(pattern, App):
        return (
            isinstance(target, App)
            and len(pattern.args) == len(target.args)
            and plain_match(pattern.head, target.head, binding)
            and all(plain_match(p, t, binding) for p, t in zip(pattern.args, target.args))
        )
    if isinstance(pattern, Assoc):
        return (
            isinstance(target, Assoc)
            and (pattern.concept, pattern.member, pattern.model_path)
            == (target.concept, target.member, target.model_path)
            and len(pattern.subjects) == len(target.subjects)
            and all(plain_match(p, t, binding) for p, t in zip(pattern.subjects, target.subjects))
        )
    raise AssertionError(type(pattern))


def enumerate_types(cons: list[Con], vars_: list[Var], depth: int) -> list[TypeTerm]:
    """All types of the given depth or less over `cons` and `vars_`."""
    level: list[TypeTerm] = [c for c in cons if c.arity == 0] + list(vars_)
    levels = [list(level)]
    for _ in range(depth - 1):
        grown = list(levels[-1])
        smaller = levels[-1]
        for c in cons:
            if c.arity == 0:
                continue
            for combo in itertools.product(smaller, repeat=c.arity):
                grown.append(App(c, combo))
        levels.append(grown)
    # dedupe preserving order
    seen = set()
    out = []
    for t in levels[-1]:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def enumerated_unifiers(t1: TypeTerm, t2: TypeTerm, universe: list[TypeTerm]) -> list[dict]:
    """Every substitution over the finite universe that equates t1 and t2."""
    vs = walk_free_vars((t1, t2))
    found = []
    for values in itertools.product(universe, repeat=len(vs)):
        binding = {v.uid: val for v, val in zip(vs, values)}
        if subst_apply(binding, t1) == subst_apply(binding, t2):
            found.append(binding)
    return found


def factors_through(mgu: Substitution, binding: dict, t1: TypeTerm, t2: TypeTerm) -> bool:
    """True when `binding` equals some composition extending `mgu`.

    That is the generality half of the MGU property: every concrete unifier
    found by enumeration must be reachable from the unifier under test by a
    further substitution.
    """
    residual: dict = {}
    for v in walk_free_vars((t1, t2)):
        image = mgu.apply(v)
        want = subst_apply(binding, v)
        if not plain_match(image, want, residual):
            return False
    return True


def exhaustive_derivations(goal, world, depth: int = 8) -> list[tuple]:
    """All closed derivation trees for a ground conformance goal.

    Unlike the production resolver this search backtracks through candidate
    contexts; it exists to certify the believed-unique derivations really are
    unique. Trees are nested tuples of model ids.
    """
    from slc.types import Conf, match_many, freshen, normalize, is_ground

    assert isinstance(goal, Conf)
    subjects = tuple(normalize(s, (), world) for s in goal.subjects)
    if not all(is_ground(s) for s in subjects):
        return []
    if depth <= 0:
        return []
    trees: list[tuple] = []
    for model in world.models_of(goal.concept):
        fresh_head, sub, _ = freshen(tuple(model.head))
        m = match_many(list(zip(fresh_head, subjects)))
        if m is None:
            continue
        inst_context = [m.apply(sub.apply(c)) for c in model.context]
        child_options: list[list[tuple]] = []
        ok = True
        for c in inst_context:
            if isinstance(c, Conf):
                solutions = exhaustive_derivations(
                    Conf(c.concept, c.subjects), world, depth - 1
                )
                if not solutions:
                    ok = False
                    break
                child_options.append(solutions)
            else:
                lhs = normalize(c.lhs, (), world)
                rhs = normalize(c.rhs, (), world)
                if lhs != rhs:
                    ok = False
                    break
        if not ok:
            continue
        for combo in itertools.product(*child_options):
            trees.append((model.uid, tuple(combo)))
    # distinct trees only
    seen = set()
    unique = []
    for tree in trees:
        if tree not in seen:
            seen.add(tree)
            unique.append(tree)
    return unique


def children(node) -> list:
    """The program objects held in `node`'s slots, its bases' slots first,
    looking through lists, tuples and dict values. An object counts when its
    class declares `__slots__`: syntax, typed and core nodes, spans, terms."""
    out = []

    def add(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                add(item)
        elif isinstance(value, dict):
            for item in value.values():
                add(item)
        elif hasattr(type(value), "__slots__"):
            out.append(value)

    for klass in reversed(type(node).__mro__):
        for name in klass.__dict__.get("__slots__", ()):
            if not name.startswith("__"):
                add(getattr(node, name))
    return out
