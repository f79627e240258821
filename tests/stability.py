"""The stability analysis, acceptance criterion 11's oracle.

A goal that a generic body discharged is stable under a ground assignment of
the body's type parameters when its generic-time derivation, grounded,
commits to the same model tree as a fresh resolution of the grounded goal.
Unlike the checks in `oracle.py`, this one replays the production resolver:
what it compares is that resolver's answers at two times, not its search.

Sema keeps one goal log per module. A declaration's goals are the records
whose site lies in its span (`goal_records`, `fun_records`).
"""

from __future__ import annotations

from conftest import span_contains

from slc.coherence import CoherencePolicy
from slc.resolver import DEFAULT_DEPTH, EqLeaf, GivenLeaf, Goal, Resolver
from slc.types import Conf, Substitution, render, render_constraint


def goal_records(module, span) -> list:
    """The records of `module.goal_log` whose site lies in `span`: a
    function's span, or the span of a model body's checked expression."""
    return [r for r in module.goal_log if span_contains(span, r.site)]


def fun_records(module, name: str) -> list:
    """The records of the goals that `module`'s function `name` discharged."""
    return goal_records(module, module.funs[name].span)


class StabilityEntry:
    __slots__ = ("site", "goal", "stable", "detail")
    def __init__(self, site, goal: str, stable: bool, detail: str):
        self.site, self.goal, self.stable, self.detail = site, goal, stable, detail


class StabilityReport:
    # assignment: type param name -> rendered type
    __slots__ = ("fun", "assignment", "entries")
    def __init__(self, fun: str, assignment: dict[str, str], entries: list[StabilityEntry]):
        self.fun, self.assignment, self.entries = fun, assignment, entries

    @property
    def unstable(self) -> list[StabilityEntry]:
        return [e for e in self.entries if not e.stable]


def check_stability(fun, records: list, assignment: dict, scope, policy: CoherencePolicy,
                    depth: int = DEFAULT_DEPTH) -> StabilityReport:
    """Compare the generic-time resolutions of `records`, the goals `fun`
    discharged, against ground re-resolution under `assignment`.

    The fresh resolutions run under the bare policy (escape flags stripped):
    a flag that forces a pick is exactly what this analysis is meant to see
    through. A goal is stable when the grounded generic derivation and the
    fresh derivation commit to identical model trees.
    """
    subst = Substitution(dict(assignment))
    fresh_resolver = Resolver(scope, CoherencePolicy(policy.kind), depth)

    def fresh_of(constraint, site):
        goal = Goal(subst.apply(constraint), site)
        res, _, diags = fresh_resolver.resolve(goal)
        return res, diags

    def shape(res, site):
        """The models `res` commits to, as a nested tuple, each given leaf
        replaced by its ground re-resolution; None when one of those fails."""
        if isinstance(res, GivenLeaf):
            res, _ = fresh_of(res.constraint, site)
            if res is None:
                return None
        if isinstance(res, EqLeaf):
            return ("eq",)
        kids = []
        for child in res.children:
            kid = shape(child, site)
            if kid is None:
                return None
            kids.append(kid)
        return ("model", res.model, tuple(kids))

    entries: list[StabilityEntry] = []
    for record in records:
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
        grounded = shape(record.resolution, record.site)
        if grounded is None:
            entries.append(
                StabilityEntry(
                    record.site, goal_str, False, "a grounded given became unresolvable"
                )
            )
            continue
        if grounded == shape(fresh, record.site):
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
