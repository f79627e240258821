"""The acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Programs are assembled from the corpus shipped in `corpus/`.
"""

import itertools
import subprocess
import sys
import time

from conftest import CORPUS, corpus_sources, free_vars, slc_env

from oracle import enumerate_types, enumerated_unifiers, exhaustive_derivations, factors_through
from slc.coherence import CoherencePolicy
from slc.corekit import core_check, elaborate
from slc.decls import FunDecl
from slc.diagnostics import Diagnostic
from slc.evaluator import run_program
from slc.linker import check_sources
from slc.resolver import check_stability
from slc.types import BUILTIN_CONS, Con, Conf, is_ground, render

POLICIES = ("use-site", "def-site-strict", "def-site-disjoint", "scoped")
UNIQUENESS = ("use-site", "def-site-strict", "def-site-disjoint")

PROGRAMS = {
    "byte_fold": ["iter_lib.sl", "iter_fold.sl"],
    "option_once": ["iter_lib.sl", "option_iter.sl"],
    "range_steps": ["iter_lib.sl", "range_iter.sl"],
    "elements_equal": ["iter_lib.sl", "eq_concepts.sl", "elements_equal.sl"],
    "show_lib": ["show_lib.sl"],
    "option_show_defs": ["show_lib.sl", "option_show_ok.sl"],
    "option_show_amb": ["show_lib.sl", "option_show.sl"],
    "string_defs": ["iter_lib.sl", "string_conv.sl"],
    "string_overlap": ["iter_lib.sl", "string_conv.sl", "string_conv_overlap.sl"],
    "unstable_log": ["iter_lib.sl", "string_conv.sl", "unstable_log.sl"],
    "convert_pair": ["convert_pair.sl"],
    "dup_instances": ["show_lib.sl", "dup_instances.sl"],
    "bounded_ok": ["bounded_overlap_ok.sl"],
    "bounded_bad": ["bounded_overlap_bad.sl"],
    "bounded_free": ["bounded_overlap_free.sl"],
    "orphan_local": ["orphan_lib.sl", "orphan_local_type.sl"],
    "orphan_wrap": ["orphan_lib.sl", "orphan_foreign_wrap.sl"],
    "orphan_from": ["orphan_lib.sl", "orphan_from_arg.sl"],
    "orphan_blanket": ["orphan_lib.sl", "orphan_blanket_self.sl"],
    "orphan_self": ["orphan_lib.sl", "orphan_local_self.sl"],
    "diamond": [
        "diamond_base.sl",
        "diamond_point.sl",
        "diamond_left.sl",
        "diamond_right.sl",
        "diamond_top.sl",
    ],
    "assoc_clash": ["assoc_lib.sl", "assoc_left.sl", "assoc_right.sl", "assoc_mix.sl"],
}


def check(program: str, policy, **flags):
    if isinstance(policy, str):
        policy = CoherencePolicy(policy, **flags)
    return check_sources(corpus_sources(*PROGRAMS[program]), policy)


def run_transcript(program: str, policy, **flags) -> list[str]:
    result = check(program, policy, **flags)
    assert result.ok, (program, policy, result.diagnostics)
    core = elaborate(result.program)
    assert core_check(core) == []
    outcome = run_program(core)
    assert not isinstance(outcome, Diagnostic), outcome
    return outcome[1]


def diag_codes(result):
    return [d.code for d in result.diagnostics]


def report(criterion: int, text: str):
    print(f"ACCEPTANCE PASS criterion {criterion:02d}: {text}")


# ----------------------------------------------------------------- 1..2


def test_criterion_01_byte_fold_prints_84_under_every_policy():
    for policy in POLICIES:
        started = time.perf_counter()
        transcript = run_transcript("byte_fold", policy)
        elapsed = time.perf_counter() - started
        assert transcript == ["84"], (policy, transcript)
        assert elapsed < 1.0, (policy, elapsed)
    report(1, 'byte-fold program prints exactly "84" under all four policies, <1s each')


def test_criterion_02_polymorphic_and_conditional_models():
    for program, expected in (("option_once", "42"), ("range_steps", "6")):
        started = time.perf_counter()
        transcript = run_transcript(program, "use-site")
        elapsed = time.perf_counter() - started
        assert transcript == [expected], (program, transcript)
        assert elapsed < 1.0
    report(2, 'polymorphic model prints "42"; conditional model prints "6"')


# ----------------------------------------------------------------- 3..5


def test_criterion_03_use_site_unique_vs_ambiguous():
    ok = check("option_show_defs", "use-site")
    assert ok.ok, ok.diagnostics
    # the F64 goal resolves uniquely: its trace lists exactly one candidate
    main_records = ok.modules["option_show_ok"].funs["main"].goal_records
    f64_goals = [r for r in main_records if "F64" in render(r.constraint.subjects[0])]
    assert len(f64_goals) == 1
    assert len(f64_goals[0].trace.candidates) == 1
    assert run_transcript("option_show_defs", "use-site") == ["1.5"]

    amb = check("option_show_amb", "use-site")
    assert not amb.ok
    diags = [d for d in amb.diagnostics if d.code == "E-AMBIGUOUS"]
    assert len(diags) == 1
    models = amb.modules["option_show"].models
    model_spans = {m.span for m in models}
    related_spans = {r.span for r in diags[0].related}
    assert related_spans == model_spans  # both model spans listed
    report(3, "use-site: F64 call unique; U64 call E-AMBIGUOUS listing both models")


def test_criterion_04_duplicate_pair_rejected_without_uses():
    result = check("dup_instances", "use-site")
    assert not result.ok
    assert diag_codes(result) == ["E-DUPLICATE"]
    report(4, "requirement-only-differing pair is E-DUPLICATE at definition, no uses needed")


def test_criterion_05_strict_definition_site():
    result = check("option_show_defs", "def-site-strict")
    assert "E-CONSTRUCTOR-DUP" in diag_codes(result)
    blanket = check("string_defs", "def-site-strict")
    assert "E-BLANKET-SELF" in diag_codes(blanket)
    report(5, "strict policy: constructor pair E-CONSTRUCTOR-DUP; blanket Self E-BLANKET-SELF")


# ----------------------------------------------------------------- 6..7


def test_criterion_06_disjointness_by_bounds():
    ok = check("bounded_ok", "def-site-disjoint")
    assert ok.ok, ok.diagnostics
    bad = check("bounded_bad", "def-site-disjoint")
    assert "E-OVERLAP" in diag_codes(bad)
    free = check("bounded_free", "def-site-disjoint")
    assert "E-OVERLAP" in diag_codes(free)
    report(6, "bounded overlap: accepted when refutable, E-OVERLAP when provable or generic")


def test_criterion_07_orphan_rules():
    verdicts = {
        "orphan_local": True,
        "orphan_wrap": False,
        "orphan_from": True,
        "orphan_blanket": False,
        "orphan_self": True,
    }
    for program, accepted in verdicts.items():
        result = check(program, "def-site-disjoint")
        if accepted:
            assert result.ok, (program, result.diagnostics)
        else:
            assert "E-ORPHAN" in diag_codes(result), program
    # orphan_local carries two verdicts (plain local type and bounded wrapper)
    assert len(check("orphan_local", "def-site-disjoint").modules["orphan_local_type"].models) == 2
    report(7, "orphan suite reproduces all six locality verdicts")


# ----------------------------------------------------------------- 8..9


def test_criterion_08_diamond_dependency_conflict():
    for policy in ("use-site", "def-site-strict"):
        result = check("diamond", policy)
        assert not result.ok
        conflicts = [d for d in result.diagnostics if d.code == "E-LINK-CONFLICT"]
        assert conflicts, (policy, result.diagnostics)
        message = conflicts[0].message
        assert "diamond_left" in message and "diamond_right" in message
    disjoint = check("diamond", "def-site-disjoint")
    orphans = [d for d in disjoint.diagnostics if d.code == "E-ORPHAN"]
    assert {d.module for d in orphans} == {"diamond_left", "diamond_right"}
    scoped = check("diamond", "scoped")
    assert scoped.ok, scoped.diagnostics
    assert run_transcript("diamond", "scoped") == ["name: left"]
    report(8, "diamond: conflict no later than link under uniqueness; scoped accepts")


def test_criterion_09_associated_type_clash_rejected_everywhere():
    for policy in POLICIES:
        result = check("assoc_clash", policy)
        assert not result.ok, f"accepted under {policy}: unsound"
    disjoint = check("assoc_clash", "def-site-disjoint")
    orphans = [d for d in disjoint.diagnostics if d.code == "E-ORPHAN"]
    assert {d.module for d in orphans} == {"assoc_left", "assoc_right"}
    for policy in ("use-site", "def-site-strict"):
        result = check("assoc_clash", policy)
        assert "E-LINK-CONFLICT" in diag_codes(result), policy
    scoped = check("assoc_clash", "scoped")
    mismatches = [d for d in scoped.diagnostics if d.code == "E-TYPE-MISMATCH"]
    assert len(mismatches) == 1
    assert mismatches[0].module == "assoc_mix"
    assert "assoc_left.keyLeft.Key" in mismatches[0].message
    assert "assoc_right.keyRight.Key" in mismatches[0].message
    report(9, "associated-type clash rejected under every policy; scoped names both paths")


# ----------------------------------------------------------------- 10..12


def ground_universe(program) -> list:
    cons = list(BUILTIN_CONS.values())
    for module in program.modules.values():
        for data in module.datas.values():
            cons.append(Con(data.name, len(data.params), data.module))
    return enumerate_types(cons, [], depth=2)


def accepted_pairs():
    """(program, policy) pairs accepted under a bare uniqueness policy."""
    for program in PROGRAMS:
        for policy in UNIQUENESS:
            result = check(program, policy)
            if result.ok:
                yield program, policy, result


def test_criterion_10_coherence_by_enumeration():
    started = time.perf_counter()
    checked_pairs = 0
    for program, policy, result in accepted_pairs():
        world = result.program.world
        universe = ground_universe(result.program)
        if policy in ("def-site-strict", "def-site-disjoint"):
            # global guarantee: every concept, every ground subject tuple
            for concept in world.index.concepts.values():
                arity = len(concept.params)
                if len(universe) ** arity > 10_000:
                    continue
                for subjects in itertools.product(universe, repeat=arity):
                    goal = Conf(concept.id, subjects)
                    derivations = exhaustive_derivations(goal, world)
                    assert len(derivations) <= 1, (program, policy, render(subjects[0]))
        else:
            # use-site guarantee: every goal the program actually discharged
            for module in result.modules.values():
                for record in module.goal_log:
                    if not isinstance(record.constraint, Conf):
                        continue
                    if not all(is_ground(s) for s in record.constraint.subjects):
                        continue
                    derivations = exhaustive_derivations(record.constraint, world)
                    assert len(derivations) <= 1, (program, policy, record.constraint)
        checked_pairs += 1
    elapsed = time.perf_counter() - started
    assert checked_pairs >= 15
    report(
        10,
        f"enumeration finds <=1 derivation per goal over {checked_pairs} accepted "
        f"program/policy pairs in {elapsed:.1f}s",
    )


def _stability_subjects(module):
    """Functions plus model requirement bodies, as analyzable declarations."""
    out = list(module.funs.values())
    for model in module.models:
        for req, records in model.body_goal_records.items():
            if not records:
                continue
            pseudo = FunDecl(
                module=module.name,
                name=f"{model.display}.{req}",
                typarams=list(model.vars),
                params=[],
                ret=model.head[0],
                context=list(model.context),
                span=model.span,
            )
            pseudo.goal_records = records
            out.append(pseudo)
    return out


def test_criterion_11_stability():
    started = time.perf_counter()
    analyzed = 0
    for program, policy_name, result in accepted_pairs():
        policy = CoherencePolicy(policy_name)
        world = result.program.world
        universe = ground_universe(result.program)
        for module in result.modules.values():
            for fun in _stability_subjects(module):
                if not fun.typarams or not fun.goal_records:
                    continue
                # variables not mentioned by any goal cannot affect resolution
                goal_vars = {
                    v.uid
                    for r in fun.goal_records
                    for v in free_vars(r.constraint)
                }
                domains = []
                for v in fun.typarams:
                    domains.append(universe if v.uid in goal_vars else universe[:1])
                for values in itertools.product(*domains):
                    assignment = {
                        v.uid: t for v, t in zip(fun.typarams, values)
                    }
                    from slc.resolver import Goal, Resolver
                    from slc.types import Substitution

                    subst = Substitution(assignment)
                    resolver = Resolver(world, policy)
                    satisfied = True
                    for c in fun.context:
                        goal = Goal(subst.apply(c), fun.span)
                        res, _, _ = resolver.resolve(goal)
                        if res is None:
                            satisfied = False
                            break
                    if not satisfied:
                        continue
                    report_obj = check_stability(fun, assignment, world, policy)
                    assert not report_obj.unstable, (
                        program,
                        policy_name,
                        fun.name,
                        report_obj.unstable,
                    )
                    analyzed += 1
    assert analyzed >= 30

    # the blanket-conversion logger is the designated unstable case
    flagged = CoherencePolicy("use-site", incoherent_ok=True)
    result = check("unstable_log", flagged)
    assert result.ok, result.diagnostics
    log_fn = result.modules["unstable_log"].funs["log"]
    from slc.types import U64

    assignment = {log_fn.typarams[0].uid: U64}
    stability = check_stability(log_fn, assignment, result.program.world, flagged)
    assert len(stability.unstable) == 1, stability.entries
    assert "StringConvertible" in stability.unstable[0].goal
    elapsed = time.perf_counter() - started
    report(
        11,
        f"{analyzed} ground instantiations all stable; the blanket logger reports "
        f"exactly one unstable goal ({elapsed:.1f}s)",
    )


def test_criterion_12_elaboration_preservation():
    pairs = 0
    for program in PROGRAMS:
        for policy_name in POLICIES:
            result = check(program, policy_name)
            if not result.ok:
                continue
            core = elaborate(result.program)
            assert core_check(core) == [], (program, policy_name)
            pairs += 1
    for program, flags in (
        ("string_overlap", {"incoherent_ok": True}),
        ("string_overlap", {"prioritize_specific": True}),
        ("unstable_log", {"incoherent_ok": True}),
    ):
        result = check(program, CoherencePolicy("use-site", **flags))
        assert result.ok, (program, flags, result.diagnostics)
        core = elaborate(result.program)
        assert core_check(core) == [], (program, flags)
        pairs += 1
    assert pairs >= 30
    report(12, f"core_check passes on elaborate(p) for all {pairs} accepted pairs")


# ----------------------------------------------------------------- 13..14


def test_criterion_13_unification_against_oracle():
    from slc.types import OPTION, PAIR, U64, U8, Var, fresh_uid, unify

    started = time.perf_counter()
    a, b = Var("a", fresh_uid()), Var("b", fresh_uid())
    universe = enumerate_types([U64, U8, OPTION, PAIR], [a, b], depth=2)
    pairs = 0
    for t1, t2 in itertools.product(universe, repeat=2):
        s = unify(t1, t2)
        found = enumerated_unifiers(t1, t2, universe)
        if s is None:
            assert not found, (render(t1), render(t2))
        else:
            assert s.apply(t1) == s.apply(t2)
            for binding in found:
                assert factors_through(s, binding, t1, t2), (render(t1), render(t2))
        pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, elapsed
    report(13, f"unifier agrees with the exhaustive oracle on {pairs} pairs in {elapsed:.1f}s")


def test_criterion_14_determinism_of_check_json():
    manifest = str(CORPUS / "full.manifest")

    def one_run() -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "slc", "check", "--json", "--manifest", manifest],
            capture_output=True,
            env=slc_env(),
        )
        assert proc.returncode in (0, 1)
        return proc.stdout

    first = one_run()
    second = one_run()
    assert first == second
    assert first  # nonempty JSON
    report(14, "two consecutive `check --json` runs over the full corpus are byte-identical")
