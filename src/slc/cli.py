"""Command-line driver: `sl check`, `sl run`, `sl explain`.

Exit codes: 0 on success (warnings allowed), 1 when any error diagnostic is
produced, 2 on usage errors. With `--json` every output is canonically
ordered and byte-stable across runs.
"""

from __future__ import annotations

# The front end's modules come first: compiled from source, they peak lower
# in memory while argparse, json and pathlib are not yet loaded. The back end
# is compiled after all of these, and only for `run` (see `corekit` below).
from .coherence import CoherencePolicy
from .diagnostics import Diagnostic, Span
from .linker import CheckResult, check_sources
from .resolver import DEFAULT_DEPTH, DEFAULT_FUEL

import argparse
import gc
import importlib.util
import json
import os
import sys
from pathlib import Path

USAGE_EXIT = 2


def _deferred(name: str):
    """The module `name`, put in `sys.modules` but compiled and executed only
    when one of its attributes is first read: PEP 690's lazy import, by hand."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


# The back end. `check` and `explain` never read these, so they compile
# neither; `main` loads both for `run` before any work starts. They are in
# `sys.modules` from the start because code that wraps the package's
# functions (`bench/child.py`) finds the modules there.
corekit = _deferred(f"{__package__}.corekit")
evaluator = _deferred(f"{__package__}.evaluator")


def elaborate(program, roots=None):
    return corekit.elaborate(program, roots)


def core_check(core):
    return corekit.core_check(core)


def core_to_json(core) -> dict:
    return corekit.core_to_json(core)


def run_program(core, fuel: int):
    return evaluator.run_program(core, fuel)


def _color_enabled() -> bool:
    return os.environ.get("SL_COLOR", "0") == "1"


def count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl",
        description="A small generic-programming language with pluggable "
        "coherence policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("files", nargs="*", help="SL source files (.sl)")
        p.add_argument(
            "--policy",
            choices=["use-site", "def-site-strict", "def-site-disjoint", "scoped"],
            default="use-site",
            help="coherence policy (default: use-site)",
        )
        p.add_argument(
            "--prioritize-specific",
            action="store_true",
            help="use-site only: prefer a strictly more specific candidate",
        )
        p.add_argument(
            "--incoherent-ok",
            action="store_true",
            help="use-site only: on ambiguity pick the first candidate in "
            "declaration order and warn",
        )
        p.add_argument("--depth", type=count, default=DEFAULT_DEPTH, help="resolution depth limit")
        p.add_argument("--fuel", type=count, default=DEFAULT_FUEL, help="evaluation step budget")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--manifest", help="file listing source paths, one per line")

    p_check = sub.add_parser("check", help="parse, type check, and link a program")
    common(p_check)
    p_run = sub.add_parser("run", help="check, elaborate, and evaluate a program")
    common(p_run)
    p_run.add_argument(
        "--emit-core",
        action="store_true",
        help="print the elaborated core program as JSON instead of evaluating",
    )
    p_explain = sub.add_parser(
        "explain", help="show the resolution trace for a goal at file:line:col"
    )
    p_explain.add_argument("locator", help="goal site, as file:line:col")
    common(p_explain)
    return parser


def gather_sources(args) -> list[tuple[str, bytes]]:
    paths = list(args.files)
    if args.manifest:
        base = Path(args.manifest).parent
        try:
            with open(args.manifest, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise SystemExit2(f"cannot read {args.manifest}: {exc.strerror}")
        except UnicodeDecodeError:
            raise SystemExit2(f"cannot read {args.manifest}: not valid UTF-8")
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(str((base / line)))
    if not paths:
        raise SystemExit2("no input files (pass paths or --manifest)")
    sources = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                sources.append((path, handle.read()))
        except OSError as exc:
            raise SystemExit2(f"cannot read {path}: {exc.strerror}")
    return sources


class SystemExit2(Exception):
    def __init__(self, msg: str):
        self.msg = msg
        super().__init__(msg)


def make_policy(args) -> CoherencePolicy:
    if (args.prioritize_specific or args.incoherent_ok) and args.policy != "use-site":
        raise SystemExit2(
            "--prioritize-specific/--incoherent-ok apply to the use-site policy only"
        )
    return CoherencePolicy(
        args.policy,
        prioritize_specific=args.prioritize_specific,
        incoherent_ok=args.incoherent_ok,
    )


def emit_diagnostics(diags: list[Diagnostic], as_json: bool, stream=None):
    stream = stream or sys.stdout
    if as_json:
        payload = [d.to_json() for d in diags]
        stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        color = _color_enabled()
        for d in diags:
            stream.write(d.render(color) + "\n")


def cmd_check(args) -> int:
    sources = gather_sources(args)
    result = check_sources(sources, make_policy(args), args.depth)
    emit_diagnostics(result.diagnostics, args.json)
    return 0 if result.ok else 1


def cmd_run(args) -> int:
    sources = gather_sources(args)
    result = check_sources(sources, make_policy(args), args.depth)
    if not result.ok:
        emit_diagnostics(result.diagnostics, args.json, stream=sys.stderr)
        return 1
    emit_diagnostics(result.diagnostics, False, stream=sys.stderr)  # warnings
    # `--emit-core` prints every definition; a run needs only what main reaches.
    entry = result.program.entry
    core = elaborate(result.program, None if args.emit_core else [entry] if entry else [])
    core_diags = core_check(core)
    if core_diags:
        emit_diagnostics(core_diags, args.json, stream=sys.stderr)
        return 1
    if args.emit_core:
        sys.stdout.write(json.dumps(core_to_json(core), indent=2) + "\n")
        return 0
    outcome = run_program(core, args.fuel)
    if isinstance(outcome, Diagnostic):
        emit_diagnostics([outcome], args.json, stream=sys.stderr)
        return 1
    _, transcript = outcome
    if args.json:
        sys.stdout.write(json.dumps(transcript, indent=2) + "\n")
    else:
        for line in transcript:
            sys.stdout.write(line + "\n")
    return 0


def parse_locator(text: str) -> tuple[str, int, int]:
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise SystemExit2("locator must be file:line:col")
    try:
        return parts[0], int(parts[1]), int(parts[2])
    except ValueError:
        raise SystemExit2("locator must be file:line:col") from None


def _same_file(a: str, b: str) -> bool:
    try:
        return Path(a).resolve() == Path(b).resolve()
    except OSError:
        return a == b


def find_goal(result: CheckResult, file: str, line: int, col: int):
    best = None
    for module in result.modules.values():
        for record in module.goal_log:
            span = record.site
            if not _same_file(span.file, file):
                continue
            if not span.covers(line, col):
                continue
            if best is None or (
                best.site.start <= span.start and span.end <= best.site.end
            ):
                best = record
    return best


def render_trace(node: dict, depth=0) -> list[str]:
    """Text lines of a trace, from its `TraceNode.to_json()` form."""
    pad = "  " * depth
    lines = [f"{pad}goal {node['goal']}"]
    for cand in node["candidates"]:
        inst = ", ".join(cand["instantiation"])
        suffix = f" via [{inst}]" if inst else ""
        lines.append(f"{pad}  candidate {cand['model']} (head {cand['head']}){suffix}")
    if node["outcome"] == "committed":
        lines.append(f"{pad}  committed: {node['picked']}")
    elif node["outcome"] == "given":
        lines.append(f"{pad}  from the context: {node['given']}")
    elif node["outcome"] == "equality":
        lines.append(f"{pad}  proved by normalization")
    else:
        lines.append(f"{pad}  outcome: {node['outcome']}")
    if node["note"]:
        lines.append(f"{pad}  note: {node['note']}")
    for child in node["children"]:
        lines.extend(render_trace(child, depth + 1))
    return lines


def cmd_explain(args) -> int:
    file, line, col = parse_locator(args.locator)
    sources = gather_sources(args)
    result = check_sources(sources, make_policy(args), args.depth)
    record = find_goal(result, file, line, col)
    if record is None:
        where = (max(line, 1), max(col, 1))
        diag = Diagnostic(
            "E-NO-GOAL",
            f"no constraint is discharged at {args.locator}",
            Span(file, where, where),
        )
        emit_diagnostics([diag], args.json, stream=sys.stderr)
        return 1
    trace = record.trace.to_json()
    if args.json:
        payload = {"site": record.site.to_json(), "trace": trace}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(f"resolution at {record.site}\n")
        sys.stdout.write("\n".join(render_trace(trace)) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    if args.command == "run":
        corekit.elaborate, evaluator.run_program  # reading them loads both
    # The loaded modules live as long as the process. Freezing them, once
    # per process, keeps each full collection during a command from
    # rescanning them.
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "explain":
            return cmd_explain(args)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc.msg}\n")
        return USAGE_EXIT
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
