"""Multi-module assembly: import graphs, per-module checking, link-time
global coherence.

A program has one declaration index (`decls.Index`): sema files each
module's declarations in it, in topological order, and a module sees the
entries of its `visible` modules, std, itself and what its imports see.
Per-module definition-site checks run in that module's world, its own
models plus those of its transitive imports. Linking runs the same pair
engine, `coherence.conflicts`, over every model of the index, on
cross-module pairs only, so a conflict between sibling modules that never
import each other still surfaces — as E-LINK-CONFLICT naming both origins.
The scoped policy skips the global check entirely: all models coexist under
their names.
"""

from __future__ import annotations

import heapq

from . import ast as A
from .coherence import CoherencePolicy, check_def_site, conflicts
from .decls import CheckedModule, Index, ModelWorld
from .diagnostics import Diagnostic, Related, has_errors, sort_diagnostics
from .parser import parse_module_bytes
from .resolver import DEFAULT_DEPTH
from .sema import check_module
from .std import program_index
from .types import STD, UNIT


class ModuleGraph:
    # order: topological, deterministic; topo_index: each name's position in it;
    # imports: each module's imports of other modules of the program
    __slots__ = ("order", "asts", "topo_index", "imports")
    def __init__(self, order: list[str], asts: dict[str, A.ModuleAST],
                 imports: dict[str, list[str]]):
        self.order, self.asts, self.imports = order, asts, imports
        self.topo_index = {name: i for i, name in enumerate(order)}


class LinkedProgram:
    # world: every model of the program's index; entry: (module, function)
    __slots__ = ("graph", "modules", "world", "entry")
    def __init__(self, graph: ModuleGraph, modules: dict[str, CheckedModule], world: ModelWorld,
                 entry: tuple[str, str] | None):
        self.graph, self.modules, self.world, self.entry = graph, modules, world, entry


def build_graph(modules: list[A.ModuleAST]) -> tuple[ModuleGraph | None, list[Diagnostic]]:
    """Deterministic topological ordering of the import DAG."""
    diags: list[Diagnostic] = []
    asts: dict[str, A.ModuleAST] = {}
    for m in modules:
        if m.name in asts:
            diags.append(
                Diagnostic(
                    "E-NAME",
                    f"module '{m.name}' is defined more than once",
                    m.span,
                    module=m.name,
                    related=(Related(asts[m.name].span, "first definition"),),
                )
            )
            continue
        if m.name == STD:  # its ids would collide with the built-in module's
            diags.append(
                Diagnostic(
                    "E-NAME",
                    f"module name '{STD}' is reserved for the built-in module",
                    m.span,
                    module=m.name,
                )
            )
        asts[m.name] = m
    # Every module imports std implicitly, so an explicit `import std` adds nothing.
    imports = {m.name: [imp for imp in m.imports if imp != STD] for m in asts.values()}
    for m in asts.values():
        for imp, span in zip(m.imports, m.import_spans):
            if imp not in asts and imp != STD:
                diags.append(
                    Diagnostic(
                        "E-UNRESOLVED-IMPORT",
                        f"module '{m.name}' imports unknown module '{imp}'",
                        span,
                        module=m.name,
                    )
                )
    if has_errors(diags):
        return None, diags

    # Kahn's algorithm with an ordered frontier: the result never depends on
    # input file order.
    indegree = {name: 0 for name in asts}
    dependents: dict[str, list[str]] = {name: [] for name in asts}
    for name, names in imports.items():
        for imp in names:
            indegree[name] += 1
            dependents[imp].append(name)
    ready = [name for name, deg in sorted(indegree.items()) if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for dep in sorted(dependents[name]):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, dep)
    if len(order) != len(asts):
        stuck = sorted(name for name in asts if name not in set(order))
        first = asts[stuck[0]]
        diags.append(
            Diagnostic(
                "E-CYCLE",
                f"circular imports among modules: {', '.join(stuck)}",
                first.span,
                module=first.name,
            )
        )
        return None, diags
    return ModuleGraph(order, asts, imports), diags


def link(
    graph: ModuleGraph,
    checked: dict[str, CheckedModule],
    index: Index,
    policy: CoherencePolicy,
) -> tuple[LinkedProgram | None, list[Diagnostic]]:
    """Assemble checked modules; global pairwise check under uniqueness policies."""
    diags: list[Diagnostic] = []
    world = ModelWorld(index)

    # Models come in topological order, so `later` is in the later module.
    if policy.is_uniqueness:
        for earlier, later, _, why in conflicts(
            index.models, world, policy.kind, same_module=False
        ):
            diags.append(
                Diagnostic(
                    "E-LINK-CONFLICT",
                    f"linking the whole program violates model uniqueness: "
                    f"{later.display} (module {later.module}) conflicts with "
                    f"{earlier.display} (module {earlier.module}): {why}",
                    later.span,
                    module=later.module,
                    related=(Related(earlier.span, f"conflicting model {earlier.display}"),),
                )
            )

    # Entry points: at most one `fn main() -> Unit` across the program.
    mains: list[tuple[str, str]] = []
    for name in graph.order:
        fun = checked[name].funs.get("main")
        if fun is not None:
            mains.append((name, "main"))
    if len(mains) > 1:
        spans = [checked[m].funs[f].span for m, f in mains]
        diags.append(
            Diagnostic(
                "E-MULTI-ENTRY",
                f"multiple entry points: fn main defined in modules "
                f"{', '.join(m for m, _ in mains)}",
                spans[1],
                module=mains[1][0],
                related=tuple(Related(s, "another main") for s in spans[:1] + spans[2:]),
            )
        )
    entry = mains[0] if len(mains) == 1 else None
    if entry is not None:
        fun = checked[entry[0]].funs["main"]
        if fun.params or fun.typarams or fun.context or fun.ret != UNIT:
            diags.append(
                Diagnostic(
                    "E-NO-ENTRY",
                    "fn main must take no parameters and return Unit",
                    fun.span,
                    module=entry[0],
                )
            )
            entry = None
    if has_errors(diags):
        return None, diags
    return LinkedProgram(graph, checked, world, entry), diags


# ---------------------------------------------------------------- pipeline


class CheckResult:
    __slots__ = ("diagnostics", "program", "modules", "graph")
    def __init__(self, diagnostics: list[Diagnostic], program: LinkedProgram | None,
                 modules: dict[str, CheckedModule] | None = None, graph: ModuleGraph | None = None):
        self.diagnostics, self.program, self.graph = diagnostics, program, graph
        self.modules = {} if modules is None else modules

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


def check_sources(
    sources: list[tuple[str, bytes]],
    policy: CoherencePolicy,
    depth: int = DEFAULT_DEPTH,
) -> CheckResult:
    """The front half of the pipeline: parse, order, check, def-site, link.

    Each phase runs only when the previous one produced no errors; the
    diagnostics of the failing phase are all collected before stopping.
    """
    diags: list[Diagnostic] = []
    asts: list[A.ModuleAST] = []
    for path, data in sources:
        result = parse_module_bytes(data, path)
        if isinstance(result, list):
            diags.extend(result)
        else:
            asts.append(result)
    if has_errors(diags):
        return CheckResult(sort_diagnostics(diags, {}), None)

    graph, graph_diags = build_graph(asts)
    diags.extend(graph_diags)
    if graph is None or has_errors(diags):
        return CheckResult(sort_diagnostics(diags, {}), None)
    topo = graph.topo_index

    index = program_index()
    checked: dict[str, CheckedModule] = {}
    for name in graph.order:
        imports = [checked[i] for i in graph.imports[name]]
        module, module_diags = check_module(graph.asts[name], imports, index, policy, depth)
        checked[name] = module
        diags.extend(module_diags)
    if has_errors(diags):
        return CheckResult(sort_diagnostics(diags, topo), None, checked, graph)

    for name in graph.order:
        diags.extend(check_def_site(checked[name], policy))
    if has_errors(diags):
        return CheckResult(sort_diagnostics(diags, topo), None, checked, graph)

    program, link_diags = link(graph, checked, index, policy)
    diags.extend(link_diags)
    return CheckResult(sort_diagnostics(diags, topo), program, checked, graph)

