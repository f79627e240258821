"""Coherence policies and definition-site checking.

Four strategies are supported:

  * use-site         detect ambiguity where a goal is resolved; definitions
                     are only rejected when indistinguishable by head.
  * def-site-strict  one model per (concept, Self head constructor); no
                     blanket Self variables at all.
  * def-site-disjoint overlapping heads allowed only when the bounds are
                     provably uninhabitable together; orphan rules; at most
                     one blanket model per concept.
  * scoped           models are named values; resolution is scope-stratified
                     and no global uniqueness is enforced.

One pair engine serves every uniqueness policy: `conflicts` enumerates each
same-concept pair once and `pair_conflict` judges it. Definition-site checks
run it over a module's visible world; link runs it over the union world.

Pairs are drawn from `ModelWorld.models_like`, which indexes models by the
rough key of their Self head, its outermost constructor. Two models whose
Self constructors differ never match or unify and never share a
def-site-strict constructor, so they are never paired. A model whose Self
is a variable or a projection has no key: it sits in its concept's wildcard
bucket and is paired with every model of the concept, which keeps the
blanket rules (E-BLANKET-DUP, overlap with a blanket) exact.
"""

from __future__ import annotations

from .decls import CheckedModule, ModelDecl, ModelWorld
from .diagnostics import Diagnostic, Related
from .types import (
    Conf,
    Eq,
    Substitution,
    Var,
    is_ground,
    normalize,
    outermost_con,
    render,
    unify_many,
)

POLICY_KINDS = ("use-site", "def-site-strict", "def-site-disjoint", "scoped")


class CoherencePolicy:
    __slots__ = ("kind", "prioritize_specific", "incoherent_ok")
    def __init__(self, kind: str = "use-site", prioritize_specific: bool = False,
                 incoherent_ok: bool = False):
        self.kind, self.prioritize_specific = kind, prioritize_specific
        self.incoherent_ok = incoherent_ok
        assert self.kind in POLICY_KINDS, self.kind

    @property
    def is_uniqueness(self) -> bool:
        return self.kind != "scoped"

    def flagless(self) -> "CoherencePolicy":
        return CoherencePolicy(self.kind)


class OverlapWitness:
    # models: uids; subst: over the two models' own head variables
    __slots__ = ("models", "subst", "inst_context1", "inst_context2")
    def __init__(self, models: tuple[str, str], subst: Substitution, inst_context1: list,
                 inst_context2: list):
        self.models, self.subst, self.inst_context1 = models, subst, inst_context1
        self.inst_context2 = inst_context2


def is_blanket_self(m: ModelDecl) -> bool:
    return isinstance(m.head[0], Var)


def heads_overlap(m1: ModelDecl, m2: ModelDecl) -> OverlapWitness | None:
    """MGU of the two head vectors as declared, contexts ignored.

    Sema gives every model variables of its own, so two distinct models
    share none and their heads unify without renaming.
    """
    assert m1.concept == m2.concept and m1 is not m2
    mgu = unify_many(list(zip(m1.head, m2.head)))
    if mgu is None:
        return None
    return OverlapWitness(
        (m1.uid, m2.uid),
        mgu,
        [mgu.apply(c) for c in m1.context],
        [mgu.apply(c) for c in m2.context],
    )


def is_duplicate(m1: ModelDecl, m2: ModelDecl) -> bool:
    """Heads equal up to variable renaming; contexts never examined."""
    assert m1.concept == m2.concept
    return m1.match(m2.head) is not None and m2.match(m1.head) is not None


def _provable(goal: Conf, visible: ModelWorld, depth: int) -> bool:
    """Overapproximate provability; anything uncertain counts as provable."""
    if depth <= 0:
        return True
    subjects = tuple(normalize(s, (), visible) for s in goal.subjects)
    if not all(is_ground(s) for s in subjects):
        return True
    for model in visible.models_like(goal.concept, subjects[0]):
        match = model.match(subjects)
        if match is None:
            continue
        ok = True
        for c in model.context:
            inst = match.apply(c)
            if isinstance(inst, Conf):
                if not _provable(inst, visible, depth - 1):
                    ok = False
                    break
            elif isinstance(inst, Eq):
                lhs = normalize(inst.lhs, (), visible)
                rhs = normalize(inst.rhs, (), visible)
                if is_ground(lhs) and is_ground(rhs) and lhs != rhs:
                    ok = False
                    break
        if ok:
            return True
    return False


def disjoint_by_bounds(
    w: OverlapWitness, m1: ModelDecl, m2: ModelDecl, visible: ModelWorld
) -> bool:
    """True when some instantiated ground bound is refutable in `visible`.

    Constraints that still contain variables after the overlap substitution
    are conservatively assumed satisfiable.
    """
    for c in w.inst_context1 + w.inst_context2:
        if isinstance(c, Conf) and all(is_ground(s) for s in c.subjects):
            if not _provable(c, visible, depth=16):
                return True
    return False


def pair_conflict(
    policy_kind: str, m1: ModelDecl, m2: ModelDecl, world: ModelWorld
) -> tuple[str, str] | None:
    """The pairwise uniqueness rule for two models of one concept.

    Returns the definition-site code and the reason, or None. Link reports
    the same reason as E-LINK-CONFLICT.
    """
    if policy_kind == "use-site":
        if is_duplicate(m1, m2):
            return "E-DUPLICATE", "duplicate heads (identical up to renaming)"
    elif policy_kind == "def-site-strict":
        c1, c2 = outermost_con(m1.head[0]), outermost_con(m2.head[0])
        if c1 is not None and c1 == c2:
            return "E-CONSTRUCTOR-DUP", f"second model for ({_short(m1.concept)}, {c1.name})"
    elif policy_kind == "def-site-disjoint":
        if is_blanket_self(m1) and is_blanket_self(m2):
            return "E-BLANKET-DUP", "more than one blanket model"
        w = heads_overlap(m1, m2)
        if w is not None and not disjoint_by_bounds(w, m1, m2, world):
            return "E-OVERLAP", "overlapping heads with satisfiable bounds"
    return None


def conflicts(
    models: list[ModelDecl],
    world: ModelWorld,
    policy_kind: str,
    same_module: bool = True,
):
    """The pair engine: every conflict among same-concept pairs of `world`
    that have a member in `models`. Pairs whose Self heads have distinct
    outermost constructors cannot conflict and are never formed.

    Each unordered pair is checked once, as (m, other) with m from `models`;
    a pair inside `models` comes in list order. With `same_module=False`,
    pairs declared in one module are not checked. Yields
    (m, other, code, reason).
    """
    position = {id(m): i for i, m in enumerate(models)}
    for i, m in enumerate(models):
        for other in world.models_like(m.concept, m.head[0]):
            j = position.get(id(other))
            if j is not None and j <= i:
                continue  # m itself, or a pair already checked from the other side
            if not same_module and other.module == m.module:
                continue
            found = pair_conflict(policy_kind, m, other, world)
            if found is not None:
                yield m, other, *found


def _short(concept_id: str) -> str:
    return concept_id.split(".")[-1]


def check_def_site(module: CheckedModule, policy: CoherencePolicy) -> list[Diagnostic]:
    """Definition-site obligations of `module`'s models under `policy`, in
    the world sema built for it: its own models and its imports'. The
    scoped policy has none (sema already requires every model to be named)."""
    if policy.kind == "scoped":
        return []
    diags: list[Diagnostic] = []

    # Per-model shape rules first.
    for m in module.models:
        if policy.kind == "def-site-strict" and is_blanket_self(m):
            diags.append(
                Diagnostic(
                    "E-BLANKET-SELF",
                    f"model {m.display} introduces an arbitrary Self type variable",
                    m.span,
                    module=module.name,
                )
            )
        if policy.kind == "def-site-disjoint":
            diags.extend(check_orphan(m))

    # Pairwise rules over the visible world, touching this module. The model
    # of this module is blamed; within the module, the earlier-declared one.
    for m, other, code, why in conflicts(module.models, module.world, policy.kind):
        diags.append(
            Diagnostic(
                code,
                f"model {m.display} conflicts with {other.display}: {why}",
                m.span,
                module=module.name,
                related=(Related(other.span, f"conflicting model {other.display}"),),
            )
        )
    return diags


def check_orphan(m: ModelDecl) -> list[Diagnostic]:
    """Locality of a model: its concept or an early head constructor is local.

    Scanning Self first and then the concept arguments in order, the model is
    legal if its concept is local, or if the first locally-owned outermost
    constructor appears before any bare type variable.
    """
    concept_module = m.concept.rsplit(".", 1)[0]
    if concept_module == m.module:
        return []
    for position, head in enumerate(m.head):
        if isinstance(head, Var):
            where = "Self" if position == 0 else f"argument {position}"
            return [
                Diagnostic(
                    "E-ORPHAN",
                    f"model {m.display} for foreign concept {_short(m.concept)}: "
                    f"{where} is a bare type variable before any local type "
                    f"({render(head)} could be instantiated by any downstream module)",
                    m.span,
                    module=m.module,
                )
            ]
        con = outermost_con(head)
        if con is not None and con.origin == m.module:
            return []
    heads = ", ".join(render(h) for h in m.head)
    return [
        Diagnostic(
            "E-ORPHAN",
            f"model {m.display} is an orphan: neither concept {_short(m.concept)} "
            f"nor any outermost head constructor of [{heads}] is defined in "
            f"module {m.module}",
            m.span,
            module=m.module,
        )
    ]
