"""Type-directed implicit resolution.

Resolution of a conformance goal proceeds in three layers:

  1. givens (the enclosing declaration's constraints, closed under concept
     refinement) always shadow models;
  2. candidate models are selected by head matching alone, never by their
     requirements; the active policy arbitrates when several apply;
  3. the resolver commits to the surviving candidate and resolves its
     instantiated context recursively. A failing context is an error, not a
     backtracking point.

Each goal gets one node, holding terms and candidates, never strings. The
node of a resolved goal (a `ModelNode`, `GivenLeaf` or `EqLeaf`) is also its
resolution, which elaboration turns into a dictionary; a failed goal's node
is a plain `TraceNode`. `TraceNode.to_json` renders a tree for the `explain`
command and is the only place a trace is rendered.
"""

from __future__ import annotations

from .decls import ConceptDecl, ModelDecl, ModelWorld
from .diagnostics import Diagnostic, Related, Span
from .types import (
    Conf,
    ConstraintTerm,
    Eq,
    NormDiverge,
    TypeTerm,
    normalize,
    render,
    render_constraint,
)

DEFAULT_DEPTH = 64
# The evaluator's step budget. It is set here, beside the other limit `sl`
# takes as a flag, so that parsing the flags loads no back end.
DEFAULT_FUEL = 10_000_000


class Goal:
    __slots__ = ("constraint", "site")
    def __init__(self, constraint: ConstraintTerm, site: Span):
        self.constraint, self.site = constraint, site


class TraceNode:
    # goal: the goal's normal form, or the goal as posed when normalizing it diverged
    # outcome: committed | given | equality | ambiguous | no-model | depth | norm-diverge | eq-failed
    # candidates: the matching models in order; picked: the one committed to
    # children: one node per context constraint of `picked` resolved so far
    __slots__ = ("goal", "outcome", "candidates", "picked", "children", "note")
    def __init__(self, goal: ConstraintTerm, outcome: str, candidates: list[Candidate] = (),
                 picked: Candidate | None = None, children: list[TraceNode] = (), note: str = ""):
        self.goal, self.outcome, self.candidates, self.picked = goal, outcome, candidates, picked
        self.children, self.note = children, note

    def to_json(self) -> dict:
        return {
            "goal": render_constraint(self.goal),
            "outcome": self.outcome,
            "candidates": [
                {
                    "model": c.model.display,
                    "head": ", ".join(render(h) for h in c.model.head),
                    "instantiation": [render(t) for t in c.type_args],
                }
                for c in self.candidates
            ],
            "picked": self.picked.model.display if self.picked is not None else None,
            "given": None,
            "note": self.note,
            "children": [c.to_json() for c in self.children],
        }


class ModelNode(TraceNode):
    """A goal resolved by committing to `picked`; its children resolve the
    picked model's instantiated context, in order."""
    __slots__ = ()

    @property
    def model(self) -> str:
        return self.picked.model.uid


class GivenLeaf(TraceNode):
    """A goal discharged by a given. index: into the enclosing declared
    context; via: the superclass indices to project along refinement."""
    __slots__ = ("index", "via", "constraint")
    def __init__(self, constraint: ConstraintTerm, index: int, via: tuple[int, ...]):
        super().__init__(constraint, "given")
        self.index, self.via, self.constraint = index, via, constraint

    def to_json(self) -> dict:
        out = super().to_json()
        out["given"] = render_constraint(self.constraint)
        return out


class EqLeaf(TraceNode):
    """An equality goal whose sides normalize to the same term through
    `steps`, the (term, rewritten) pairs of that normalization."""
    __slots__ = ("steps",)
    def __init__(self, goal: Eq, steps: list[tuple[TypeTerm, TypeTerm]]):
        super().__init__(goal, "equality")
        self.steps = steps

    def to_json(self) -> dict:
        out = super().to_json()
        out["note"] = "; ".join(f"{render(a)} => {render(b)}" for a, b in self.steps)
        return out


Resolution = object  # ModelNode | GivenLeaf | EqLeaf


def close_givens(
    givens: list[ConstraintTerm], concepts: dict[str, ConceptDecl]
) -> list[GivenLeaf]:
    """Declared constraints plus everything reachable through refinement.

    Each constraint is kept once, at its first path: `Resolver.resolve`
    takes the first given that matches, so a later copy is never chosen. A
    path stops at a concept it has already passed through, so cyclic
    refinement (already an E-NAME), even one that grows its subjects as in
    `concept G[Self] where G[Option[Self]]`, ends.
    """
    out: list[GivenLeaf] = []
    seen: set = set()
    # (constraint, index, via, concepts passed), popped in depth-first pre-order
    stack = [(g, i, (), ()) for i, g in reversed(list(enumerate(givens)))]
    while stack:
        c, index, via, passed = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        out.append(GivenLeaf(c, index, via))
        if isinstance(c, Conf) and c.concept in concepts and c.concept not in passed:
            decl = concepts[c.concept]
            inst = decl.instantiate(c.subjects)
            for j in reversed(range(len(decl.supers))):
                if isinstance(decl.supers[j], Conf):
                    stack.append((inst.apply(decl.supers[j]), index, via + (j,), passed + (c.concept,)))
    return out


class Candidate:
    __slots__ = ("model", "type_args", "inst_context")
    def __init__(self, model: ModelDecl, type_args: list[TypeTerm],
                 inst_context: list[ConstraintTerm]):
        self.model, self.type_args, self.inst_context = model, type_args, inst_context


def candidates(goal: Goal, scope: ModelWorld) -> list[Candidate]:
    """Models whose head matches the subjects of the goal, a Conf, by head
    only, found once per goal in `scope`.

    Order is deterministic: module topological order, then declaration order
    (that is the order models were registered into the world). Models whose
    Self constructor differs from the goal's are skipped unexamined.
    """
    constraint = goal.constraint
    found = scope.candidates.get(constraint)
    if found is not None:
        return found
    subjects, found = constraint.subjects, []
    for model in scope.models_like(constraint.concept, subjects[0]):
        if not model.vars:  # matches only its own head, and has nothing to instantiate
            if model.head == subjects:
                found.append(Candidate(model, [], model.context))
            continue
        match = model.match(subjects)
        if match is not None:
            found.append(Candidate(model, *model.instantiate(match.bindings)))
    scope.candidates[constraint] = found
    return found


def _strictly_more_specific(a: Candidate, b: Candidate) -> bool:
    """a's head instantiates b's head but not the other way round."""
    b_onto_a = b.model.match(a.model.head) is not None
    a_onto_b = a.model.match(b.model.head) is not None
    return b_onto_a and not a_onto_b


class Resolver:
    """Resolution of the goals of one declaration in the world `scope`,
    whose declared constraints are `givens`. They are closed under
    refinement through the concepts of `scope.index`, and each leaf's goal
    is its constraint normalized, once, here; a given whose normalization
    diverges is never chosen."""

    def __init__(
        self,
        scope: ModelWorld,
        policy: CoherencePolicy,
        depth: int = DEFAULT_DEPTH,
        givens: list[ConstraintTerm] | tuple = (),
    ):
        self.scope = scope
        self.policy = policy
        self.depth = depth
        self.eq_rules: list[Eq] = []
        self.givens: list[GivenLeaf] = []
        self.plain = not givens  # then it holds no state of its own, and may be shared
        if not givens:
            return
        closed = close_givens(givens, scope.index.concepts)
        self.eq_rules = [g.constraint for g in closed if isinstance(g.constraint, Eq)]
        for leaf in closed:
            try:
                leaf.goal = self._norm_constraint(leaf.constraint)
            except NormDiverge:
                continue
            self.givens.append(leaf)

    # ----------------------------------------------------------- helpers

    def _norm_constraint(self, c: ConstraintTerm, trace: list | None = None) -> ConstraintTerm:
        """`c` over normal forms; the rewrites of an Eq's sides go to `trace`."""
        rules, world = self.eq_rules, self.scope
        if not rules and not c.has_assoc:
            return c
        if isinstance(c, Conf):
            return Conf(c.concept, tuple(normalize(s, rules, world) for s in c.subjects))
        return Eq(normalize(c.lhs, rules, world, trace), normalize(c.rhs, rules, world, trace))

    # ----------------------------------------------------------- the engine

    def resolve(
        self, goal: Goal, depth: int | None = None
    ) -> tuple[Resolution | None, TraceNode, list[Diagnostic]]:
        """The goal's resolution (None when it failed), its node, which is
        the resolution when there is one, and its diagnostics."""
        depth = self.depth if depth is None else depth
        wanted, steps = goal.constraint, []  # steps: the rewrites that prove an Eq goal
        if not self.plain or wanted.has_assoc:  # else the goal is its own normal form
            try:
                wanted = self._norm_constraint(wanted, steps)
            except NormDiverge as exc:
                msg = f"normalization did not terminate while solving {render_constraint(goal.constraint)}"
                diag = Diagnostic("E-NORM-DIVERGE", msg, goal.site)
                return None, TraceNode(goal.constraint, "norm-diverge", note=str(exc)), [diag]
            # Givens shadow models under every policy.
            for leaf in self.givens:
                if leaf.goal == wanted:
                    return leaf, leaf, []

        if isinstance(wanted, Eq):
            if wanted.lhs == wanted.rhs:
                leaf = EqLeaf(wanted, steps)
                return leaf, leaf, []
            return None, TraceNode(wanted, "eq-failed"), [
                Diagnostic(
                    "E-TYPE-MISMATCH",
                    f"cannot prove {render_constraint(goal.constraint)} "
                    f"(normal forms {render(wanted.lhs)} and {render(wanted.rhs)} differ)",
                    goal.site,
                )
            ]

        if wanted is not goal.constraint:
            goal = Goal(wanted, goal.site)
        cands = candidates(goal, self.scope)
        chosen, diags, note = (cands[0], [], "") if len(cands) == 1 else self._select(wanted, goal.site, cands)
        if chosen is None:
            return None, TraceNode(wanted, "ambiguous" if cands else "no-model", cands), diags

        if depth <= 0:
            return None, TraceNode(wanted, "depth", cands, note=note), [
                Diagnostic(
                    "E-DEPTH",
                    f"resolution depth exhausted while solving "
                    f"{render_constraint(wanted)} (raise --depth to search deeper)",
                    goal.site,
                )
            ]

        children: list[TraceNode] = []
        for constraint in chosen.inst_context:
            child, child_node, child_diags = self.resolve(
                Goal(constraint, goal.site), depth - 1
            )
            children.append(child_node)
            diags = diags + child_diags
            if child is None:
                # committed-to context failed: surface it, never backtrack
                return None, TraceNode(wanted, "committed", cands, chosen, children, note), diags
        node = ModelNode(wanted, "committed", cands, chosen, children, note)
        return node, node, diags

    def _select(
        self, wanted: Conf, site: Span, cands: list[Candidate]
    ) -> tuple[Candidate | None, list[Diagnostic], str]:
        """The candidate the policy commits to among several or none (None when
        there is none), the diagnostics of that choice, and the trace's note."""
        if not cands:
            return None, [Diagnostic("E-NO-MODEL", f"no model found for {_named(wanted)}", site)], ""

        if self.policy.kind == "scoped":
            best_level = min(self.scope.scope_level(c.model) for c in cands)
            level_cands = [c for c in cands if self.scope.scope_level(c.model) == best_level]
            if len(level_cands) > 1:
                return _ambiguous(wanted, site, level_cands)
            return level_cands[0], [], ""

        if self.policy.prioritize_specific:
            specific = [
                c
                for c in cands
                if all(
                    other is c or _strictly_more_specific(c, other) for other in cands
                )
            ]
            if len(specific) == 1:
                return specific[0], [], "selected the strictly more specific candidate"

        if self.policy.incoherent_ok:
            pick = cands[0]
            warning = Diagnostic(
                "W-INCOHERENT",
                f"incoherent pick for {_named(wanted)}: chose {pick.model.display} "
                f"out of {len(cands)} candidates by declaration order",
                site,
                related=_related(cands),
            )
            return pick, [warning], "incoherent-ok picked the first candidate in declaration order"

        return _ambiguous(wanted, site, cands)


def _named(wanted: Conf) -> str:
    subjects = ", ".join(render(s) for s in wanted.subjects)
    return f"{wanted.concept.split('.')[-1]}[{subjects}]"


def _related(among: list[Candidate]) -> tuple[Related, ...]:
    return tuple(Related(c.model.span, f"candidate {c.model.display}") for c in among)


def _ambiguous(wanted: Conf, site: Span, among: list[Candidate]):
    return None, [
        Diagnostic(
            "E-AMBIGUOUS",
            f"ambiguous resolution for {_named(wanted)}: {len(among)} candidates apply "
            f"({', '.join(c.model.display for c in among)})",
            site,
            related=_related(among),
        )
    ], ""
