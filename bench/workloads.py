"""The benchmark's workloads: seeded input generators and expected verdicts.

A workload is one round of ops. Each op is one `sl` invocation: the
directory it runs in, its arguments, and the verdict it must produce. The
verdicts of the generated workloads follow from what the generator planted;
the corpus verdicts are transcribed by hand from the pins in
`tests/test_acceptance.py` and the README. Nothing here runs `slc`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus-cli", "coherence-use-site", "coherence-scoped", "deep-generic")


@dataclass(frozen=True)
class Verdict:
    exit: int
    diags: tuple[tuple[str, str], ...] = ()  # (code, blamed module), in output order
    transcript: tuple[str, ...] = ()  # stdout lines of `run` and `explain`
    mentions: tuple[str, ...] = ()  # text the diagnostic messages must contain


@dataclass(frozen=True)
class Op:
    key: str  # stable within a workload; names the op in reports
    cwd: Path
    argv: tuple[str, ...]  # the arguments after `sl`
    expected: Verdict
    primary: bool = True  # counts towards wall_s, check_s and peak_rss_mb
    elements: int = 0  # fold length, for evaluator.us_per_element


def tag_for(seed: int) -> str:
    """A base-36 spelling of the seed: distinct seeds give distinct identifiers."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    n, out = abs(seed), ""
    while n:
        n, r = divmod(n, 36)
        out = digits[r] + out
    return ("n" if seed < 0 else "") + out.rjust(6, "0")


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """Write the workload's inputs under `workdir`; return one round of ops."""
    if workload == "corpus-cli":
        return corpus_round(seed, root / "corpus")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "deep-generic":
        return deep_generic(seed, workdir)
    if workload in ("coherence-use-site", "coherence-scoped"):
        return coherence(seed, workdir, scoped=workload == "coherence-scoped")
    raise ValueError(f"unknown workload {workload!r}")


def write(workdir: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------- corpus-cli

_EXPLAIN_RANGE = (
    "resolution at range_iter.sl:27:16",
    "goal Iterator[Range[U64]]",
    "  candidate range_iter.rangeIter (head Range[a]) via [U64]",
    "  committed: range_iter.rangeIter",
    "  goal Stepped[U64]",
    "    candidate range_iter.steppedU64 (head U64)",
    "    committed: range_iter.steppedU64",
)

_BYTE_FOLD = "iter_lib.sl iter_fold.sl"
_STRING_OVERLAP = "iter_lib.sl string_conv.sl string_conv_overlap.sl"
_DIAMOND = "diamond_base.sl diamond_point.sl diamond_left.sl diamond_right.sl diamond_top.sl"
_ASSOC = "assoc_lib.sl assoc_left.sl assoc_right.sl assoc_mix.sl"
_DIAMOND_SIDES = ("diamond_left", "diamond_right")
_ORPHAN_ASSOC = (("E-ORPHAN", "assoc_left"), ("E-ORPHAN", "assoc_right"))

# (arguments after `sl`, expected verdict). Exit 1 means an error verdict.
CORPUS_MATRIX: tuple[tuple[str, Verdict], ...] = (
    # README "Try it on the corpus", verbatim
    (f"run {_BYTE_FOLD}", Verdict(0, transcript=("84",))),
    ("run iter_lib.sl option_iter.sl", Verdict(0, transcript=("42",))),
    ("run iter_lib.sl range_iter.sl", Verdict(0, transcript=("6",))),
    (f"check {_STRING_OVERLAP}", Verdict(1, (("E-AMBIGUOUS", "string_conv_overlap"),))),
    (
        f"run --incoherent-ok {_STRING_OVERLAP}",
        Verdict(
            0,
            (("W-INCOHERENT", "string_conv_overlap"), ("W-INCOHERENT", "string_conv_overlap")),
            ("[42,42,]",),
        ),
    ),
    (f"run --prioritize-specific {_STRING_OVERLAP}", Verdict(0, transcript=("10794",))),
    ("explain range_iter.sl:27:16 iter_lib.sl range_iter.sl", Verdict(0, transcript=_EXPLAIN_RANGE)),
    # criterion 1: byte fold under every policy
    (f"check --json {_BYTE_FOLD}", Verdict(0)),
    (f"check --json --policy def-site-strict {_BYTE_FOLD}", Verdict(0)),
    (f"check --json --policy def-site-disjoint {_BYTE_FOLD}", Verdict(0)),
    (f"check --json --policy scoped {_BYTE_FOLD}", Verdict(0)),
    (f"run --policy def-site-strict {_BYTE_FOLD}", Verdict(0, transcript=("84",))),
    (f"run --policy def-site-disjoint {_BYTE_FOLD}", Verdict(0, transcript=("84",))),
    (f"run --policy scoped {_BYTE_FOLD}", Verdict(0, transcript=("84",))),
    # criteria 3-5: use-site uniqueness, duplicates, strict definition sites
    ("run show_lib.sl option_show_ok.sl", Verdict(0, transcript=("1.5",))),
    ("check --json show_lib.sl option_show.sl", Verdict(1, (("E-AMBIGUOUS", "option_show"),))),
    ("check --json show_lib.sl dup_instances.sl", Verdict(1, (("E-DUPLICATE", "dup_instances"),))),
    (
        "check --json --policy def-site-strict show_lib.sl option_show_ok.sl",
        Verdict(1, (("E-CONSTRUCTOR-DUP", "option_show_ok"),)),
    ),
    (
        "check --json --policy def-site-strict iter_lib.sl string_conv.sl",
        Verdict(1, (("E-BLANKET-SELF", "string_conv"),)),
    ),
    # criterion 6: disjointness by bounds
    ("check --json --policy def-site-disjoint bounded_overlap_ok.sl", Verdict(0)),
    (
        "check --json --policy def-site-disjoint bounded_overlap_bad.sl",
        Verdict(1, (("E-OVERLAP", "bounded_overlap_bad"),)),
    ),
    (
        "check --json --policy def-site-disjoint bounded_overlap_free.sl",
        Verdict(1, (("E-OVERLAP", "bounded_overlap_free"),)),
    ),
    # criterion 7: orphan rules
    ("check --json --policy def-site-disjoint orphan_lib.sl orphan_local_type.sl", Verdict(0)),
    (
        "check --json --policy def-site-disjoint orphan_lib.sl orphan_foreign_wrap.sl",
        Verdict(1, (("E-ORPHAN", "orphan_foreign_wrap"),)),
    ),
    ("check --json --policy def-site-disjoint orphan_lib.sl orphan_from_arg.sl", Verdict(0)),
    (
        "check --json --policy def-site-disjoint orphan_lib.sl orphan_blanket_self.sl",
        Verdict(1, (("E-ORPHAN", "orphan_blanket_self"),)),
    ),
    ("check --json --policy def-site-disjoint orphan_lib.sl orphan_local_self.sl", Verdict(0)),
    # criterion 8: the diamond
    (
        f"check --json {_DIAMOND}",
        Verdict(1, (("E-LINK-CONFLICT", "diamond_right"),), mentions=_DIAMOND_SIDES),
    ),
    (
        f"check --json --policy def-site-strict {_DIAMOND}",
        Verdict(1, (("E-LINK-CONFLICT", "diamond_right"),), mentions=_DIAMOND_SIDES),
    ),
    (
        f"check --json --policy def-site-disjoint {_DIAMOND}",
        Verdict(1, (("E-ORPHAN", "diamond_left"), ("E-ORPHAN", "diamond_right"))),
    ),
    (f"run --policy scoped {_DIAMOND}", Verdict(0, transcript=("name: left",))),
    # criterion 9: the associated-type clash
    (f"check --json {_ASSOC}", Verdict(1, (("E-LINK-CONFLICT", "assoc_right"),))),
    (f"check --json --policy def-site-strict {_ASSOC}", Verdict(1, (("E-LINK-CONFLICT", "assoc_right"),))),
    (f"check --json --policy def-site-disjoint {_ASSOC}", Verdict(1, _ORPHAN_ASSOC)),
    (
        f"check --json --policy scoped {_ASSOC}",
        Verdict(
            1,
            (("E-TYPE-MISMATCH", "assoc_mix"),),
            mentions=("assoc_left.keyLeft.Key", "assoc_right.keyRight.Key"),
        ),
    ),
)


def corpus_round(seed: int, corpus: Path) -> list[Op]:
    """The whole matrix, in an order the seed shuffles."""
    ops = [
        Op(key=argv, cwd=corpus, argv=tuple(argv.split()), expected=verdict)
        for argv, verdict in CORPUS_MATRIX
    ]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- coherence

SIBLINGS = 24
LOCAL_TYPES = 10


def coherence(seed: int, workdir: Path, scoped: bool) -> list[Op]:
    """A wide program whose sibling modules never import each other.

    A base module declares the concept, a shared type and a conditional
    model for Option. Every sibling adds local types with models and uses
    them. Two siblings, chosen by the seed, both model the shared type. The
    scoped variant names every model and adds a `top` module that meets the
    two planted models in one scope.

    A round is two checks of that program plus one `run` of its repaired
    form, which supplies `run_s` and checks the models the resolver picks.
    """
    rng = random.Random(seed)
    t = tag_for(seed)
    first, second = sorted(rng.sample(range(SIBLINGS), 2))
    other = rng.choice([k for k in range(SIBLINGS) if k not in (first, second)])
    show, concept, shared = f"show_{t}", f"Show_{t}", f"MkShared_{t}"
    base = f"b_{t}"

    def sib(k: int) -> str:
        return f"s_{t}_{k:02d}"

    def ty(k: int, j: int) -> str:
        return f"T_{t}_{k:02d}_{j}"

    def ctor(k: int, j: int) -> str:
        return f"C_{t}_{k:02d}_{j}"

    def model(name: str) -> str:
        return f"model {name}: " if scoped else "model "

    base_text = (
        f"module {base}\n\n"
        f"concept {concept}[Self] {{\n  fn {show}(x: Self) -> String\n}}\n\n"
        f"data Shared_{t} {{ {shared} }}\n\n"
        f"{model(f'shOpt_{t}')}{concept}[Option[a]] where {concept}[a] {{\n"
        f"  fn {show}(o: Option[a]) -> String {{\n"
        f'    match o {{\n      Some(x) => concat("some ", {show}(x)),\n      None => "none"\n    }}\n'
        f"  }}\n}}\n"
    )

    def use_value(k: int) -> str:
        """What sibling k's `use` function returns."""
        return "".join(f"{ty(k, j)}some {ty(k, j)}" for j in range(LOCAL_TYPES))

    def sibling_text(k: int, planted: bool) -> str:
        lines = [f"module {sib(k)}", f"import {base}", ""]
        for j in range(LOCAL_TYPES):
            lines += [
                f"data {ty(k, j)} {{ {ctor(k, j)} }}",
                "",
                f"{model(f'sh_{t}_{k:02d}_{j}')}{concept}[{ty(k, j)}] {{",
                f'  fn {show}(x: {ty(k, j)}) -> String {{ "{ty(k, j)}" }}',
                "}",
                "",
            ]
        if planted:
            lines += [
                f"{model(f'shShared_{t}_{k:02d}')}{concept}[Shared_{t}] {{",
                f'  fn {show}(x: Shared_{t}) -> String {{ "shared {k:02d}" }}',
                "}",
                "",
            ]
        # show on each local type and on Some of it, concatenated in order
        parts = [f"concat({show}({ctor(k, j)}), {show}(Some({ctor(k, j)})))" for j in range(LOCAL_TYPES)]
        body = parts[-1]
        for part in reversed(parts[:-1]):
            body = f"concat({part}, {body})"
        lines += [f"fn use_{t}_{k:02d}() -> String {{", f"  {body}", "}", ""]
        return "\n".join(lines)

    def program(drop_second: bool) -> dict[str, str]:
        files = {f"{base}.sl": base_text}
        for k in range(SIBLINGS):
            planted = k == first or (k == second and not drop_second)
            files[f"{sib(k)}.sl"] = sibling_text(k, planted)
        return files

    files = program(drop_second=False)
    policy = ("--policy", "scoped") if scoped else ()
    if scoped:
        inner = f"inner {t}"
        top_head = [
            f"module top_{t}",
            f"import {sib(first)}",
            f"import {sib(second)}",
            f"import {sib(other)}",
            "",
            f"{model(f'shInner_{t}')}{concept}[{ty(other, 0)}] {{",
            f'  fn {show}(x: {ty(other, 0)}) -> String {{ "{inner}" }}',
            "}",
            "",
            f"fn inner_{t}() -> String {{ {show}({ctor(other, 0)}) }}",
            "",
        ]
        top_ambiguous = top_head + [f"fn amb_{t}() -> String {{ {show}({shared}) }}", ""]
        top_main = top_head + [
            "fn main() -> Unit {",
            f"  print(inner_{t}());",
            f"  print({show}(Some({ctor(other, 0)})));",
            f"  print({show}(Some({ctor(other, 1)})));",
            f"  print(use_{t}_{first:02d}())",
            "}",
            "",
        ]
        files[f"top_{t}.sl"] = "\n".join(top_ambiguous)
        check_verdict = Verdict(
            1,
            (("E-AMBIGUOUS", f"top_{t}"),),
            mentions=(f"{sib(first)}.shShared_{t}_{first:02d}", f"{sib(second)}.shShared_{t}_{second:02d}"),
        )
        repaired = program(drop_second=False)
        repaired[f"top_{t}.sl"] = "\n".join(top_main)
        transcript = (inner, f"some {inner}", f"some {ty(other, 1)}", use_value(first))
    else:
        check_verdict = Verdict(
            1, (("E-LINK-CONFLICT", sib(second)),), mentions=(sib(first), sib(second))
        )
        repaired = program(drop_second=True)
        repaired[f"app_{t}.sl"] = "\n".join(
            [
                f"module app_{t}",
                f"import {sib(first)}",
                f"import {sib(other)}",
                "",
                "fn main() -> Unit {",
                f"  print({show}({shared}));",
                f"  print({show}(Some({ctor(other, 1)})));",
                f"  print(use_{t}_{other:02d}())",
                "}",
                "",
            ]
        )
        transcript = (f"shared {first:02d}", f"some {ty(other, 1)}", use_value(other))

    write(workdir, files)
    fixed = workdir / "repaired"
    fixed.mkdir(exist_ok=True)
    write(fixed, repaired)
    check = Op("check", workdir, ("check", "--json", *policy, *sorted(files)), check_verdict)
    run = Op(
        "run-repaired",
        fixed,
        ("run", "--json", *policy, *sorted(repaired)),
        Verdict(0, transcript=transcript),
        primary=False,
    )
    return [check, check, run]


# ---------------------------------------------------------------- deep-generic

NEST_DEPTH = 200
FOLD_LENGTH = 7000


def deep_generic(seed: int, workdir: Path) -> list[Op]:
    """A tagged copy of `iter_lib` plus one module with a deeply nested return
    type and a long fold over a range."""
    rng = random.Random(seed)
    t = tag_for(seed)
    n = FOLD_LENGTH + rng.randrange(32)
    leaf = rng.randrange(1, 1000)
    lib, it, fold = f"iter_lib_{t}", f"Iterator_{t}", f"fold_{t}"
    files = {
        f"{lib}.sl": (
            f"module {lib}\n\n"
            f"concept {it}[Self] {{\n  type Element\n"
            f"  fn next_{t}(it: Self) -> Option[(Self.Element, Self)]\n}}\n\n"
            f"fn {fold}[A, B](xs: A, acc: B, f: (B, A.Element) -> B) -> B where {it}[A] {{\n"
            f"  match next_{t}(xs) {{\n"
            f"    Some(p) => {fold}(snd(p), f(acc, fst(p)), f),\n    None => acc\n  }}\n}}\n\n"
            f"model {it}[U64] {{\n  type Element = U8\n"
            f"  fn next_{t}(it: U64) -> Option[(U8, U64)] {{\n"
            f"    if eq64(it, 0:U64) {{ None }} else {{ Some((trunc8(band(it, 255:U64)), shr(it, 8:U64))) }}\n"
            f"  }}\n}}\n"
        ),
        f"deep_{t}.sl": (
            f"module deep_{t}\nimport {lib}\n\n"
            f"data Range_{t}[a] {{ UpTo_{t}(a, a) }}\n\n"
            f"concept Stepped_{t}[Self] {{\n"
            f"  fn lessThan_{t}(x: Self, y: Self) -> Bool\n  fn step_{t}(x: Self) -> Self\n}}\n\n"
            f"model Stepped_{t}[U64] {{\n"
            f"  fn lessThan_{t}(x: U64, y: U64) -> Bool {{ lt64(x, y) }}\n"
            f"  fn step_{t}(x: U64) -> U64 {{ add64(x, 1:U64) }}\n}}\n\n"
            f"model {it}[Range_{t}[a]] where Stepped_{t}[a] {{\n  type Element = a\n"
            f"  fn next_{t}(it: Range_{t}[a]) -> Option[(a, Range_{t}[a])] {{\n"
            f"    match it {{\n"
            f"      UpTo_{t}(lo, hi) => if lessThan_{t}(lo, hi) "
            f"{{ Some((lo, UpTo_{t}(step_{t}(lo), hi))) }} else {{ None }}\n"
            f"    }}\n  }}\n}}\n\n"
            f"fn deep_{t}() -> {'Option[' * NEST_DEPTH}U64{']' * NEST_DEPTH} {{\n"
            f"  {'Some(' * NEST_DEPTH}{leaf}:U64{')' * NEST_DEPTH}\n}}\n\n"
            f"fn main() -> Unit {{\n"
            f"  print(show64({fold}(UpTo_{t}(0:U64, {n}:U64), 0:U64, add64)))\n}}\n"
        ),
    }
    write(workdir, files)
    total = n * (n - 1) // 2 % 2**64
    run = Op("run", workdir, ("run", "--json", *sorted(files)), Verdict(0, transcript=(str(total),)), elements=n)
    return [run]
