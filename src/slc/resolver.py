"""Type-directed implicit resolution.

Resolution of a conformance goal proceeds in three layers:

  1. givens (the enclosing declaration's constraints, closed under concept
     refinement) always shadow models;
  2. candidate models are selected by head matching alone, never by their
     requirements; the active policy arbitrates when several apply;
  3. the resolver commits to the surviving candidate and resolves its
     instantiated context recursively. A failing context is an error, not a
     backtracking point.

Every step is logged into a replayable trace for the `explain` command.
"""

from __future__ import annotations

from .coherence import CoherencePolicy
from .decls import ConceptDecl, FunDecl, ModelDecl, ModelWorld
from .diagnostics import Diagnostic, Related, Span
from .types import (
    Conf,
    ConstraintTerm,
    Eq,
    NormDiverge,
    Substitution,
    TypeTerm,
    free_vars,
    normalize,
    render,
    render_constraint,
)

DEFAULT_DEPTH = 64


class Goal:
    # rigid: uids of the enclosing declaration's type params
    __slots__ = ("constraint", "rigid", "site")
    def __init__(self, constraint: ConstraintTerm, rigid: frozenset[int], site: Span):
        self.constraint, self.rigid, self.site = constraint, rigid, site


class ModelNode:
    # model: ModelDecl uid; type_args: per the model's head variables, in order
    # children: one Resolution per context constraint
    __slots__ = ("model", "type_args", "children")
    def __init__(self, model: str, type_args: list[TypeTerm], children: list):
        self.model, self.type_args, self.children = model, type_args, children


class GivenLeaf:
    # index: index into the enclosing declared context
    # via: refinement path: superclass indices to project
    __slots__ = ("index", "via", "constraint")
    def __init__(self, index: int, via: tuple[int, ...], constraint: ConstraintTerm):
        self.index, self.via, self.constraint = index, via, constraint


class EqLeaf:
    __slots__ = ("lhs", "rhs", "steps")
    def __init__(self, lhs: TypeTerm, rhs: TypeTerm, steps: list[str]):
        self.lhs, self.rhs, self.steps = lhs, rhs, steps


Resolution = object  # ModelNode | GivenLeaf | EqLeaf


class TraceNode:
    # outcome: committed | given | equality | ambiguous | no-model | depth | norm-diverge | eq-failed
    __slots__ = ("goal", "outcome", "candidates", "picked", "given", "children", "note")
    def __init__(self, goal: str, outcome: str, picked: str | None = None, given: str | None = None,
                 note: str = ""):
        self.goal, self.outcome, self.candidates, self.picked = goal, outcome, [], picked
        self.given, self.children, self.note = given, [], note

    def to_json(self) -> dict:
        return {
            "goal": self.goal,
            "outcome": self.outcome,
            "candidates": self.candidates,
            "picked": self.picked,
            "given": self.given,
            "note": self.note,
            "children": [c.to_json() for c in self.children],
        }


class ClosedGiven:
    __slots__ = ("constraint", "index", "via")
    def __init__(self, constraint: ConstraintTerm, index: int, via: tuple[int, ...]):
        self.constraint, self.index, self.via = constraint, index, via


def close_givens(
    givens: list[ConstraintTerm], concepts: dict[str, ConceptDecl]
) -> list[ClosedGiven]:
    """Declared constraints plus everything reachable through refinement.

    Each constraint is kept once, at its first path: `Resolver.resolve`
    takes the first given that matches, so a later copy is never chosen. A
    path stops at a concept it has already passed through, so cyclic
    refinement (already an E-NAME), even one that grows its subjects as in
    `concept G[Self] where G[Option[Self]]`, ends.
    """
    out: list[ClosedGiven] = []
    seen: set = set()

    def push(c: ConstraintTerm, index: int, via: tuple[int, ...], passed: tuple[str, ...]):
        if c in seen:
            return
        seen.add(c)
        out.append(ClosedGiven(c, index, via))
        if isinstance(c, Conf) and c.concept in concepts and c.concept not in passed:
            decl = concepts[c.concept]
            inst = decl.instantiate(c.subjects)
            for j, sup in enumerate(decl.supers):
                if isinstance(sup, Conf):
                    push(inst.apply(sup), index, via + (j,), passed + (c.concept,))

    for i, g in enumerate(givens):
        push(g, i, (), ())
    return out


class Candidate:
    __slots__ = ("model", "type_args", "inst_context")
    def __init__(self, model: ModelDecl, type_args: list[TypeTerm],
                 inst_context: list[ConstraintTerm]):
        self.model, self.type_args, self.inst_context = model, type_args, inst_context


def candidates(goal: Goal, scope: ModelWorld) -> list[Candidate]:
    """Models whose head matches the goal's subjects, by head only.

    Order is deterministic: module topological order, then declaration order
    (that is the order models were registered into the world). Models whose
    Self constructor differs from the goal's are skipped unexamined.
    """
    assert isinstance(goal.constraint, Conf)
    subjects = goal.constraint.subjects
    found: list[Candidate] = []
    for model in scope.models_like(goal.constraint.concept, subjects[0]):
        match = model.match(subjects)
        if match is None:
            continue
        found.append(
            Candidate(
                model=model,
                type_args=[match.apply(v) for v in model.vars],
                inst_context=[match.apply(c) for c in model.context],
            )
        )
    return found


def _strictly_more_specific(a: Candidate, b: Candidate) -> bool:
    """a's head instantiates b's head but not the other way round."""
    b_onto_a = b.model.match(a.model.head) is not None
    a_onto_b = a.model.match(b.model.head) is not None
    return b_onto_a and not a_onto_b


class Resolver:
    def __init__(
        self,
        scope: ModelWorld,
        concepts: dict[str, ConceptDecl],
        policy: CoherencePolicy,
        depth: int = DEFAULT_DEPTH,
    ):
        self.scope = scope
        self.concepts = concepts
        self.policy = policy
        self.depth = depth

    # ----------------------------------------------------------- helpers

    def _normalize(self, t, givens, trace=None):
        eq_rules = [g.constraint for g in givens if isinstance(g.constraint, Eq)]
        return normalize(t, eq_rules, self.scope, trace=trace)

    def _norm_constraint(self, c: ConstraintTerm, givens, trace=None) -> ConstraintTerm:
        if isinstance(c, Conf):
            return Conf(c.concept, tuple(self._normalize(s, givens) for s in c.subjects))
        return Eq(self._normalize(c.lhs, givens, trace), self._normalize(c.rhs, givens, trace))

    # ----------------------------------------------------------- the engine

    def resolve(
        self,
        goal: Goal,
        givens: list[ClosedGiven],
        depth: int | None = None,
    ) -> tuple[Resolution | None, TraceNode, list[Diagnostic]]:
        depth = self.depth if depth is None else depth
        steps: list[str] = []  # the rewrites that prove an Eq goal, for the trace
        try:
            wanted = self._norm_constraint(goal.constraint, givens, steps)
        except NormDiverge as exc:
            trace = TraceNode(render_constraint(goal.constraint), "norm-diverge", note=str(exc))
            return None, trace, [
                Diagnostic(
                    "E-NORM-DIVERGE",
                    f"normalization did not terminate while solving "
                    f"{render_constraint(goal.constraint)}",
                    goal.site,
                )
            ]
        trace = TraceNode(render_constraint(wanted), "pending")

        # Givens shadow models under every policy.
        for cg in givens:
            try:
                norm_given = self._norm_constraint(cg.constraint, givens)
            except NormDiverge:
                continue
            if norm_given == wanted:
                trace.outcome = "given"
                trace.given = render_constraint(cg.constraint)
                return GivenLeaf(cg.index, cg.via, cg.constraint), trace, []

        if isinstance(wanted, Eq):
            lhs = wanted.lhs
            rhs = wanted.rhs
            if lhs == rhs:
                trace.outcome = "equality"
                trace.note = "; ".join(steps)
                return EqLeaf(lhs, rhs, steps), trace, []
            trace.outcome = "eq-failed"
            return None, trace, [
                Diagnostic(
                    "E-TYPE-MISMATCH",
                    f"cannot prove {render_constraint(goal.constraint)} "
                    f"(normal forms {render(lhs)} and {render(rhs)} differ)",
                    goal.site,
                )
            ]

        goal_n = Goal(wanted, goal.rigid, goal.site)
        cands = candidates(goal_n, self.scope)
        trace.candidates = [
            {
                "model": c.model.display,
                "head": ", ".join(render(h) for h in c.model.head),
                "instantiation": [render(t) for t in c.type_args],
            }
            for c in cands
        ]

        chosen, diags = self._select(goal_n, cands, trace)
        if chosen is None:
            return None, trace, diags

        if depth <= 0:
            trace.outcome = "depth"
            return None, trace, [
                Diagnostic(
                    "E-DEPTH",
                    f"resolution depth exhausted while solving "
                    f"{render_constraint(wanted)} (raise --depth to search deeper)",
                    goal.site,
                )
            ]

        trace.outcome = "committed"
        trace.picked = chosen.model.display
        children: list[Resolution] = []
        for constraint in chosen.inst_context:
            child_goal = Goal(constraint, goal.rigid, goal.site)
            child_res, child_trace, child_diags = self.resolve(child_goal, givens, depth - 1)
            trace.children.append(child_trace)
            diags = diags + child_diags
            if child_res is None:
                # committed-to context failed: surface it, never backtrack
                return None, trace, diags
            children.append(child_res)
        return (
            ModelNode(chosen.model.uid, chosen.type_args, children),
            trace,
            diags,
        )

    def _select(
        self, goal: Goal, cands: list[Candidate], trace: TraceNode
    ) -> tuple[Candidate | None, list[Diagnostic]]:
        concept = goal.constraint.concept.split(".")[-1]
        subjects = ", ".join(render(s) for s in goal.constraint.subjects)

        def ambiguous() -> list[Diagnostic]:
            trace.outcome = "ambiguous"
            related = tuple(
                Related(c.model.span, f"candidate {c.model.display}") for c in cands
            )
            return [
                Diagnostic(
                    "E-AMBIGUOUS",
                    f"ambiguous resolution for {concept}[{subjects}]: "
                    f"{len(cands)} candidates apply "
                    f"({', '.join(c.model.display for c in cands)})",
                    goal.site,
                    related=related,
                )
            ]

        if not cands:
            trace.outcome = "no-model"
            return None, [
                Diagnostic(
                    "E-NO-MODEL",
                    f"no model found for {concept}[{subjects}]",
                    goal.site,
                )
            ]

        if self.policy.kind == "scoped":
            best_level = min(self.scope.scope_level(c.model) for c in cands)
            level_cands = [c for c in cands if self.scope.scope_level(c.model) == best_level]
            if len(level_cands) > 1:
                cands = level_cands
                return None, ambiguous()
            return level_cands[0], []

        if len(cands) == 1:
            return cands[0], []

        if self.policy.prioritize_specific:
            specific = [
                c
                for c in cands
                if all(
                    other is c or _strictly_more_specific(c, other) for other in cands
                )
            ]
            if len(specific) == 1:
                trace.note = "selected the strictly more specific candidate"
                return specific[0], []

        if self.policy.incoherent_ok:
            pick = cands[0]
            warning = Diagnostic(
                "W-INCOHERENT",
                f"incoherent pick for {concept}[{subjects}]: chose {pick.model.display} "
                f"out of {len(cands)} candidates by declaration order",
                goal.site,
                related=tuple(
                    Related(c.model.span, f"candidate {c.model.display}") for c in cands
                ),
            )
            trace.note = "incoherent-ok picked the first candidate in declaration order"
            return pick, [warning]

        return None, ambiguous()


def entails(
    givens: list[ConstraintTerm],
    wanted: ConstraintTerm,
    scope: ModelWorld,
    concepts: dict[str, ConceptDecl],
    policy: CoherencePolicy,
    site: Span | None = None,
    rigid: frozenset[int] | None = None,
    depth: int = DEFAULT_DEPTH,
) -> Resolution | None:
    """Entailment: the wanted constraint follows from givens and the world."""
    site = site or Span("<entails>", (1, 1), (1, 1))
    if rigid is None:
        rigid = frozenset(v.uid for v in free_vars(list(givens) + [wanted]))
    resolver = Resolver(scope, concepts, policy, depth)
    closed = close_givens(list(givens), concepts)
    res, _, _ = resolver.resolve(Goal(wanted, rigid, site), closed)
    return res


# ---------------------------------------------------------------- stability


class StabilityEntry:
    __slots__ = ("site", "goal", "stable", "detail")
    def __init__(self, site: Span, goal: str, stable: bool, detail: str):
        self.site, self.goal, self.stable, self.detail = site, goal, stable, detail


class StabilityReport:
    # assignment: type param name -> rendered type
    __slots__ = ("fun", "assignment", "entries")
    def __init__(self, fun: str, assignment: dict[str, str], entries: list[StabilityEntry]):
        self.fun, self.assignment, self.entries = fun, assignment, entries

    @property
    def unstable(self) -> list[StabilityEntry]:
        return [e for e in self.entries if not e.stable]


def _model_tree(res: Resolution):
    if isinstance(res, ModelNode):
        return ("model", res.model, tuple(_model_tree(c) for c in res.children))
    if isinstance(res, EqLeaf):
        return ("eq",)
    raise AssertionError("given leaves must be grafted before comparison")


def check_stability(
    fun: FunDecl,
    assignment: dict[int, TypeTerm],
    scope: ModelWorld,
    concepts: dict[str, ConceptDecl],
    policy: CoherencePolicy,
    depth: int = DEFAULT_DEPTH,
) -> StabilityReport:
    """Compare generic-time resolutions against ground re-resolution.

    The fresh resolutions run under the bare policy (escape flags stripped):
    a flag that forces a pick is exactly what this analysis is meant to see
    through. A goal is stable when the grounded generic derivation and the
    fresh derivation commit to identical model trees.
    """
    subst = Substitution(dict(assignment))
    fresh_resolver = Resolver(scope, concepts, policy.flagless(), depth)

    def fresh_of(constraint: ConstraintTerm, site: Span):
        goal = Goal(subst.apply(constraint), frozenset(), site)
        res, _, diags = fresh_resolver.resolve(goal, [])
        return res, diags

    def graft(res: Resolution, site: Span):
        if isinstance(res, ModelNode):
            kids = []
            for child in res.children:
                g = graft(child, site)
                if g is None:
                    return None
                kids.append(g)
            return ModelNode(res.model, [subst.apply(t) for t in res.type_args], kids)
        if isinstance(res, GivenLeaf):
            fresh, _ = fresh_of(res.constraint, site)
            return fresh
        if isinstance(res, EqLeaf):
            return res
        raise AssertionError(type(res))

    entries: list[StabilityEntry] = []
    for record in fun.goal_records:
        if not isinstance(record.constraint, Conf):
            continue
        goal_str = render_constraint(subst.apply(record.constraint))
        if record.resolution is None:
            entries.append(
                StabilityEntry(record.site, goal_str, False, "generic resolution failed")
            )
            continue
        fresh, diags = fresh_of(record.constraint, record.site)
        if fresh is None:
            reason = diags[0].code if diags else "unresolved"
            entries.append(
                StabilityEntry(
                    record.site,
                    goal_str,
                    False,
                    f"ground re-resolution failed ({reason})",
                )
            )
            continue
        grounded = graft(record.resolution, record.site)
        if grounded is None:
            entries.append(
                StabilityEntry(
                    record.site, goal_str, False, "a grounded given became unresolvable"
                )
            )
            continue
        if _model_tree(grounded) == _model_tree(fresh):
            entries.append(StabilityEntry(record.site, goal_str, True, "identical model trees"))
        else:
            entries.append(
                StabilityEntry(
                    record.site,
                    goal_str,
                    False,
                    "generic and ground resolutions commit to different models",
                )
            )
    names = {}
    for v in fun.typarams:
        if v.uid in assignment:
            names[v.name] = render(assignment[v.uid])
    return StabilityReport(fun.id, names, entries)
