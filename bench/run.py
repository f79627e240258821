"""The SL benchmark: `sl` invocations in fresh interpreters, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --selfcheck

Run from anywhere inside a checkout that has `src/slc`. The seed makes the
workload's inputs (see workloads.py). The driver runs whole rounds of ops
while another round fits in S seconds, one child process at a time, and
checks every verdict. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer ones; the last line of stdout is one JSON object.
--selfcheck builds the inputs twice, runs each op of a round traced under
both, and exits 1 unless counters and output bytes agree.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import Op, Verdict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().with_name("child.py")
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 120

# This machine's speed drifts by up to half within a minute, far more than any
# bound. So the driver also runs a fixed job that shares nothing with slc, at
# most once a second between ops: a fresh interpreter that imports part of the
# standard library and does some pure-Python work. Each op's times are scaled by
# REFERENCE_S / (the mean of the job's runs just before and after the op), that
# is, reported as seconds on a machine where the job takes REFERENCE_S.
REFERENCE_JOB = (
    "import argparse, json, dataclasses, decimal, fractions, statistics, email.parser, typing\n"
    "@dataclasses.dataclass\nclass N:\n  k: int\n  v: object\n"
    "d = {}\n"
    "for i in range(60000):\n  d[i % 4099] = N(i, (str(i), [i]))\n"
    "t = sorted(d.values(), key=lambda n: n.v[0])\n"
)
REFERENCE_S = 0.15
REFERENCE_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "check_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "lexer.tokenize.self_s": "s",
    "lexer.tokens": "count",
    "parser.parse_module_bytes.self_s": "s",
    "linker.check_sources.self_s": "s",
    "sema.check_module.self_s": "s",
    "sema.goals": "count",
    "resolver.resolve.self_s": "s",
    "resolver.resolve.calls": "count",
    "resolver.candidates.self_s": "s",
    "resolver.candidates.examined": "count",
    "resolver.candidates.matched": "count",
    "resolver.candidates.match_ratio": "ratio",
    "types.normalize.self_s": "s",
    "types.normalize.calls": "count",
    "types.normalize.unchanged_ratio": "ratio",
    "coherence.check_def_site.self_s": "s",
    "linker.link.self_s": "s",
    "coherence.pair_checks": "count",
    "coherence.pair_checks.link": "count",
    "coherence.pair_checks.def_site": "count",
    "coherence.pair_check.self_s": "s",
    "coherence.pair_conflict_ratio": "ratio",
    "corekit.elaborate.self_s": "s",
    "corekit.core_check.self_s": "s",
    "evaluator.run_program.self_s": "s",
    "evaluator.us_per_element": "us",
    "trace.overhead_ratio": "ratio",
}

# Counters that must repeat exactly for one op.
DETERMINISTIC = (
    "lexer.tokens",
    "sema.goals",
    "resolver.resolve.calls",
    "resolver.candidates.calls",
    "coherence.pair_checks",
    "types.normalize.calls",
)

DIAG_LINE = re.compile(r"^\S+:\d+:\d+: (?:error|warning)\[([A-Z0-9-]+)\]: (.*?)(?: \(module (\S+)\))?$")


@dataclass
class Sample:
    op: Op
    traced: bool
    started: float  # perf_counter at spawn
    wall: float
    setup: float
    rss_mb: float
    ok: bool
    output: str  # exit code and captured bytes, for the determinism check
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def total(self, *names: str) -> float:
        return sum(self.layers.get(n, (0.0, 0.0, 0, 0.0))[1] for n in names)

    @property
    def check_s(self) -> float:
        return self.total("linker.check_sources")

    @property
    def run_s(self) -> float:
        return self.total("corekit.elaborate", "corekit.core_check", "evaluator.run_program")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute: children run in other directories
    env["SL_COLOR"] = "0"
    return env


def execute(op: Op, traced: bool, env: dict) -> Sample:
    """Spawn one child, wait for it, and read its peak RSS from wait4."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "1" if traced else "0", *op.argv],
        cwd=op.cwd,
        env=env,
        stdout=subprocess.PIPE,
    )
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        raw = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed with status {proc.returncode}: sl {' '.join(op.argv)}")
    report = json.loads(raw)
    if report["crash"]:
        sys.stderr.write(f"sl {' '.join(op.argv)} raised:\n{report['crash']}")
    counts = dict(report["counts"])
    for name, (_, _, calls, _) in report["layers"].items():
        counts[f"{name}.calls"] = calls
    counts["coherence.pair_checks"] = counts.get("coherence.pair_check.calls", 0)
    return Sample(
        op=op,
        traced=traced,
        started=started,
        wall=wall,
        setup=report["imported"] - started,
        rss_mb=usage.ru_maxrss / 1024,
        ok=matches(op.expected, verdict_of(op, report)),
        output=f"{report['exit']}\n{report['stdout']}\n{report['stderr']}",
        layers=report["layers"],
        counts=counts,
    )


def reference(env: dict) -> tuple[float, float]:
    """One run of the reference job: (start, duration)."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_JOB], env=env, check=True)
    return started, time.perf_counter() - started


def parse_diags(text: str) -> list[tuple[str, str, str]]:
    """(code, module, message) of each diagnostic, from JSON or human output."""
    if text.lstrip().startswith("["):
        return [(d["code"], d["module"], d["message"]) for d in json.loads(text)]
    found = []
    for line in text.splitlines():
        m = DIAG_LINE.match(line)
        if m:
            found.append((m.group(1), m.group(3) or "", m.group(2)))
    return found


def verdict_of(op: Op, report: dict) -> tuple:
    """Exit code, diagnostics and transcript, as `sl` printed them."""
    command, as_json = op.argv[0], "--json" in op.argv
    out, err = report["stdout"], report["stderr"]
    if command == "check":
        diags, transcript = parse_diags(out), []
    else:
        diags = parse_diags(err)
        if as_json and report["exit"] == 0:
            transcript = json.loads(out)
        else:
            transcript = out.splitlines()
    return report["exit"], diags, tuple(transcript)


def matches(expected: Verdict, got: tuple) -> bool:
    code, diags, transcript = got
    messages = " ".join(message for _, _, message in diags)
    return (
        code == expected.exit
        and tuple((c, m) for c, m, _ in diags) == expected.diags
        and transcript == expected.transcript
        and all(text in messages for text in expected.mentions)
    )


# ---------------------------------------------------------------- statistics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"(n={n}, too few for a tail)"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f} (n={n})"


def end_to_end(samples: list[Sample], refs: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """Each metric's median over scaled per-op values, and a note with the raw
    median and the tail."""
    ref_starts = [start for start, _ in refs]

    def scale(s: Sample) -> float:
        after = bisect.bisect(ref_starts, s.started)
        around = [duration for _, duration in refs[max(after - 1, 0) : after + 1]]
        return REFERENCE_S / statistics.fmean(around)

    plain = [s for s in samples if not s.traced]
    primary = [s for s in plain if s.op.primary]
    series = {
        "setup_s": [(s, s.setup) for s in plain],
        "wall_s": [(s, s.wall) for s in primary],
        "check_s": [(s, s.check_s) for s in primary],
        "run_s": [(s, s.run_s) for s in plain if s.run_s > 0],
    }
    out = {}
    for name, pairs in series.items():
        scaled = [scale(s) * value for s, value in pairs]
        raw = median([value for _, value in pairs])
        out[name] = (median(scaled), f"raw median {raw:.4f}; scaled {tail(scaled)}")
    rss = [s.rss_mb for s in primary]
    out["peak_rss_mb"] = (median(rss), tail(rss))
    return out


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.traced]
    plain_wall = [s.wall for s in samples if not s.traced and s.op.primary]
    traced_wall = [s.wall for s in traced if s.op.primary]

    def self_s(name: str) -> float:
        """Median over the traced ops in which the layer ran."""
        return median([s.layers[name][0] for s in traced if name in s.layers])

    def count(name: str) -> float:
        values = [s.counts.get(name, 0) for s in traced]
        return median([v for v in values if v]) if any(values) else 0

    def ratio(part: str, whole: str) -> float:
        base = sum(s.counts.get(whole, 0) for s in traced)
        return sum(s.counts.get(part, 0) for s in traced) / base if base else 0.0

    elements = [s for s in traced if s.op.elements and s.layers.get("evaluator.run_program")]
    out = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".self_s"):
            out[name] = self_s(name.removesuffix(".self_s"))
        elif unit == "count":
            out[name] = count(name)
    out["resolver.candidates.match_ratio"] = ratio("resolver.candidates.matched", "resolver.candidates.examined")
    out["types.normalize.unchanged_ratio"] = ratio("types.normalize.unchanged", "types.normalize.calls")
    out["coherence.pair_conflict_ratio"] = ratio("coherence.pair_conflicts", "coherence.pair_checks")
    out["evaluator.us_per_element"] = median(
        [1e6 * s.layers["evaluator.run_program"][0] / s.op.elements for s in elements]
    )
    out["trace.overhead_ratio"] = median(traced_wall) / median(plain_wall) if plain_wall else 0.0
    return out


def shares(samples: list[Sample], layers: dict[str, float]) -> list[str]:
    """Where the traced time went, as shares of the traced phase medians."""
    traced = [s for s in samples if s.traced]
    check = median([s.check_s for s in traced if s.op.primary])
    run = median([s.run_s for s in traced if s.run_s > 0])
    groups = {
        "link+def-site+pair-check": ("linker.link", "coherence.check_def_site", "coherence.pair_check"),
        "lexer+parser": ("lexer.tokenize", "parser.parse_module_bytes"),
        "sema+resolver": ("sema.check_module", "resolver.resolve", "resolver.candidates"),
        "types.normalize": ("types.normalize",),
    }
    lines = [f"traced check_s {check:.4f} s, traced run_s {run:.4f} s"]
    for label, names in groups.items():
        part = median([sum(s.layers.get(n, (0, 0, 0, 0.0))[3] for n in names) for s in traced if s.op.primary])
        lines.append(f"share of traced check_s in {label}: {part / check if check else 0:.3f}")
    evaluator = layers["evaluator.run_program.self_s"]
    lines.append(f"share of traced run_s in evaluator.run_program: {evaluator / run if run else 0:.3f}")
    plain = [s for s in samples if not s.traced and s.op.primary]
    setup, wall = median([s.setup for s in plain]), median([s.wall for s in plain])
    lines.append(f"share of wall_s in setup_s: {setup / wall if wall else 0:.3f}")
    return lines


# ---------------------------------------------------------------- driver


def determinism_errors(samples: list[Sample]) -> list[str]:
    """Every run of one op must print the same bytes and, traced, the same counts."""
    first: dict[tuple[str, bool], Sample] = {}
    errors = []
    for s in samples:
        seen = first.setdefault((s.op.key, s.traced), s)
        if s.output != seen.output:
            errors.append(f"output of `sl {' '.join(s.op.argv)}` changed between runs")
        if s.traced and [s.counts.get(c) for c in DETERMINISTIC] != [seen.counts.get(c) for c in DETERMINISTIC]:
            errors.append(f"counters of `sl {' '.join(s.op.argv)}` changed between runs")
    return errors


def measure(ops: list[Op], seconds: float, traced: bool, env: dict) -> tuple[list[Sample], list[tuple[float, float]]]:
    """Whole rounds, while another round fits in the time left; the reference
    job before the first op, between ops and after the last."""
    samples: list[Sample] = []
    started = time.perf_counter()
    refs = [reference(env)]
    while True:
        round_start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - refs[-1][0] >= REFERENCE_EVERY_S:
                refs.append(reference(env))
            samples.append(execute(op, False, env))
            if traced:
                samples.append(execute(op, True, env))
        now = time.perf_counter()
        if now + (now - round_start) > started + seconds:
            refs.append(reference(env))
            return samples, refs


def selfcheck(workload: str, seed: int, env: dict) -> int:
    """Build the inputs twice; run each op traced under both builds."""
    builds = []
    for copy in ("a", "b"):
        workdir = WORK / f"{workload}-{seed}-{copy}"
        shutil.rmtree(workdir, ignore_errors=True)
        ops = workloads.build(workload, seed, ROOT, workdir)
        files = {p.relative_to(workdir): p.read_bytes() for p in workdir.rglob("*.sl")}
        unique = {op.key: op for op in ops}
        builds.append((files, [execute(op, True, env) for op in unique.values()]))
    (files_a, runs_a), (files_b, runs_b) = builds
    problems = [] if files_a == files_b else ["the generated inputs differ"]
    for a, b in zip(runs_a, runs_b):
        same_counts = all(a.counts.get(c) == b.counts.get(c) for c in DETERMINISTIC)
        if a.output != b.output or not same_counts or not (a.ok and b.ok):
            problems.append(f"{a.op.key}: output, counters or verdict differ")
        print(f"{a.op.key[:60]:60} " + " ".join(f"{c}={a.counts.get(c, 0)}" for c in DETERMINISTIC))
    for problem in problems:
        print("selfcheck:", problem)
    print("selfcheck", "failed" if problems else "passed", f"on {len(runs_a)} ops x 2")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "slc" / "cli.py").is_file():
        sys.stderr.write(f"error: no SL sources at {SRC / 'slc'}\n")
        return 2
    env = child_env()
    if args.selfcheck:
        return selfcheck(args.workload, args.seed, env)

    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, ROOT, workdir)
    execute(ops[0], bool(args.trace), env)  # warm-up: byte-code cache and file cache
    samples, refs = measure(ops, args.seconds, bool(args.trace), env)
    failed = sum(not s.ok for s in samples)
    errors = determinism_errors(samples)
    for error in errors:
        print("determinism:", error)
    for s in samples:
        if not s.ok:
            print(f"wrong verdict: sl {' '.join(s.op.argv)}")

    plain = [s for s in samples if not s.traced]
    print(
        f"workload {args.workload} seed {args.seed}: {len(samples)} ops "
        f"({sum(s.op.primary for s in plain)} primary untraced), "
        f"fail_ratio {failed}/{len(samples)} = {failed / len(samples):.4f} ratio"
    )
    durations = [duration for _, duration in refs]
    print(f"  reference job: {len(refs)} runs, median {median(durations):.4f} s (scaled to {REFERENCE_S} s)")
    e2e = end_to_end(samples, refs)
    for name, (value, note) in e2e.items():
        print(f"  {name:12} {value:10.4f} {END_TO_END[name]:3} ({note})")
    if args.trace:
        layers = per_layer(samples)
        for name, value in layers.items():
            print(f"  {name:36} {value:12.6g} {PER_LAYER[name]}")
        for line in shares(samples, layers):
            print("  " + line)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
