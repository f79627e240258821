"""The `sl` driver: exit codes, JSON output, manifests, explain."""

import json
import subprocess
import sys

from conftest import CORPUS, slc_env


def sl(*args, cwd=None, env_extra=None):
    env = slc_env(env_extra)
    env.setdefault("SL_COLOR", "0")
    proc = subprocess.run(
        [sys.executable, "-m", "slc", *args],
        capture_output=True,
        text=True,
        cwd=cwd or CORPUS,
        env=env,
    )
    return proc


def corpus(*names):
    return [str(CORPUS / n) for n in names]


def test_run_prints_84():
    proc = sl("run", *corpus("iter_lib.sl", "iter_fold.sl"))
    assert proc.returncode == 0
    assert proc.stdout == "84\n"


def test_run_json_transcript():
    proc = sl("run", "--json", *corpus("iter_lib.sl", "iter_fold.sl"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["84"]


def test_check_clean_program_exit_zero():
    proc = sl("check", *corpus("iter_lib.sl", "iter_fold.sl"))
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_check_error_exit_one():
    proc = sl("check", *corpus("show_lib.sl", "option_show.sl"))
    assert proc.returncode == 1
    assert "E-AMBIGUOUS" in proc.stdout


def test_failing_check_blocks_run():
    proc = sl("run", *corpus("show_lib.sl", "option_show.sl"))
    assert proc.returncode == 1
    assert proc.stdout == ""  # no evaluation output
    assert "E-AMBIGUOUS" in proc.stderr


def test_usage_error_exit_two():
    proc = sl("check", "--policy", "scoped", "--incoherent-ok", *corpus("iter_lib.sl"))
    assert proc.returncode == 2
    proc2 = sl("check")
    assert proc2.returncode == 2


def test_unknown_policy_exit_two():
    proc = sl("check", "--policy", "bogus", *corpus("iter_lib.sl"))
    assert proc.returncode == 2


def test_manifest_input():
    proc = sl("check", "--manifest", str(CORPUS / "full.manifest"), "--json")
    assert proc.returncode == 1
    diags = json.loads(proc.stdout)
    assert all(d["code"] in ("E-AMBIGUOUS",) for d in diags)


def test_missing_manifest_is_usage_error(tmp_path):
    missing = tmp_path / "missing.manifest"
    proc = sl("check", "--manifest", str(missing))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read {missing}: No such file or directory\n"


def test_non_utf8_manifest_is_usage_error(tmp_path):
    manifest = tmp_path / "bad.manifest"
    manifest.write_bytes(b"iter_lib.sl\n\xff\xfe\n")
    proc = sl("check", "--manifest", str(manifest))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read {manifest}: not valid UTF-8\n"


def test_json_diagnostic_schema():
    proc = sl("check", "--json", *corpus("show_lib.sl", "option_show.sl"))
    diags = json.loads(proc.stdout)
    assert diags
    d = diags[0]
    assert set(d) == {"code", "severity", "module", "span", "message", "related"}
    assert set(d["span"]) == {"file", "start", "end"}
    assert len(d["span"]["start"]) == 2
    assert d["related"] and set(d["related"][0]) == {"span", "note"}


def test_check_json_byte_identical():
    args = ("check", "--json", "--manifest", str(CORPUS / "full.manifest"))
    proc1 = sl(*args)
    proc2 = sl(*args)
    assert proc1.returncode == 1 and proc2.returncode == 1
    assert proc1.stdout  # a child that never starts prints nothing
    assert proc1.stdout == proc2.stdout


def test_warnings_do_not_affect_exit_code():
    proc = sl(
        "run",
        "--incoherent-ok",
        *corpus("iter_lib.sl", "string_conv.sl", "string_conv_overlap.sl"),
    )
    assert proc.returncode == 0
    assert proc.stdout == "[42,42,]\n"
    assert "W-INCOHERENT" in proc.stderr


def test_prioritize_specific_output():
    proc = sl(
        "run",
        "--prioritize-specific",
        *corpus("iter_lib.sl", "string_conv.sl", "string_conv_overlap.sl"),
    )
    assert proc.returncode == 0
    assert proc.stdout == "10794\n"


def test_emit_core():
    proc = sl("run", "--emit-core", *corpus("iter_lib.sl", "iter_fold.sl"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["entry"] == "iter_fold.main"
    names = {d["name"] for d in payload["defs"]}
    assert "iter_lib.fold" in names and "dict$iter_lib.bytes64" in names


def test_explain_committed_trace():
    locator = f"{CORPUS / 'range_iter.sl'}:27:16"
    proc = sl("explain", locator, *corpus("iter_lib.sl", "range_iter.sl"))
    assert proc.returncode == 0
    assert "rangeIter" in proc.stdout
    assert "steppedU64" in proc.stdout
    assert "committed" in proc.stdout


def test_explain_ambiguous_trace():
    locator = f"{CORPUS / 'string_conv_overlap.sl'}:7:9"
    proc = sl(
        "explain",
        locator,
        *corpus("iter_lib.sl", "string_conv.sl", "string_conv_overlap.sl"),
    )
    assert proc.returncode == 0
    assert "stringIter" in proc.stdout and "stringU64" in proc.stdout
    assert "ambiguous" in proc.stdout


def test_explain_json_stable():
    locator = f"{CORPUS / 'range_iter.sl'}:27:16"
    args = ("explain", locator, *corpus("iter_lib.sl", "range_iter.sl"), "--json")
    out1 = sl(*args).stdout
    out2 = sl(*args).stdout
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["trace"]["outcome"] == "committed"


def test_explain_finds_the_same_goal_from_relative_and_absolute_locators(monkeypatch, capsys):
    """A locator names its file as the user wrote it; `explain` compares
    files by resolved path, resolving the locator and each source once."""
    from slc import cli

    monkeypatch.chdir(CORPUS)
    resolved = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda file: resolved.append(file) or resolve(file))
    outputs = []
    for locator in ("./range_iter.sl:27:16", f"{CORPUS / 'range_iter.sl'}:27:16"):
        resolved.clear()
        assert cli.main(["explain", "--json", locator, "iter_lib.sl", "range_iter.sl"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
        assert sorted(resolved) == sorted([locator[: -len(":27:16")], "iter_lib.sl", "range_iter.sl"])
    assert outputs[0] == outputs[1]
    assert outputs[0]["trace"]["outcome"] == "committed"
    assert outputs[0]["site"]["file"] == "range_iter.sl"


def test_explain_no_goal():
    locator = f"{CORPUS / 'range_iter.sl'}:1:1"
    proc = sl("explain", locator, *corpus("iter_lib.sl", "range_iter.sl"))
    assert proc.returncode == 1
    assert "E-NO-GOAL" in proc.stderr
    # The span is the locator's own line and column, clamped to 1:1 below
    # and left as written past the end of the file.
    for where, start in [("3:5", [3, 5]), ("999:3", [999, 3]), ("0:0", [1, 1])]:
        proc = sl("explain", "--json", f"range_iter.sl:{where}", *corpus("iter_lib.sl", "range_iter.sl"))
        assert proc.returncode == 1
        [diag] = json.loads(proc.stderr)
        assert (diag["code"], diag["span"]) == (
            "E-NO-GOAL", {"file": "range_iter.sl", "start": start, "end": start}
        )


def test_color_env_toggle():
    proc_plain = sl("check", *corpus("show_lib.sl", "option_show.sl"))
    assert "\x1b[" not in proc_plain.stdout
    proc_color = sl(
        "check", *corpus("show_lib.sl", "option_show.sl"), env_extra={"SL_COLOR": "1"}
    )
    assert "\x1b[31m" in proc_color.stdout


def test_dumps_writes_what_the_indenting_encoder_writes():
    """`cli.dumps`, which writes every `--json` payload and `--emit-core`,
    gives the bytes of `json.dumps(value, indent=2)` on nested dicts with
    string keys, lists, tuples and leaves, escapes included."""
    import random

    from slc.cli import dumps

    rng = random.Random(7)
    leaves = [None, True, False, 0, -3, 2**70, 1.5, "", "x", 'q"\\\n\u00e9\u2603']

    def value(depth: int):
        roll = rng.random()
        if depth > 4 or roll < 0.3:
            return rng.choice(leaves)
        if roll < 0.55:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        if roll < 0.65:
            return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
        return {rng.choice(["k", "\u00e9", 'a"b', ""]) + str(i): value(depth + 1) for i in range(rng.randrange(4))}

    for _ in range(2_000):
        v = value(0)
        assert dumps(v) == json.dumps(v, indent=2), v


def test_depth_zero_stops_at_a_ground_goal(tmp_path):
    """A goal without givens skips normalization, but `--depth 0` still
    stops it where it commits to its one context-free model."""
    src = tmp_path / "d.sl"
    src.write_text(
        "module d\n"
        "concept Show[Self] { fn show(x: Self) -> String }\n"
        "data T { C }\n"
        'model Show[T] { fn show(x: T) -> String { "t" } }\n'
        "fn main() -> Unit { print(show(C)) }\n"
    )
    proc = sl("check", "--json", "--depth", "0", str(src))
    assert proc.returncode == 1
    [diag] = json.loads(proc.stdout)
    assert (diag["code"], diag["span"]["start"], diag["span"]["end"], diag["message"]) == (
        "E-DEPTH",
        [5, 27],
        [5, 33],
        "resolution depth exhausted while solving Show[T] (raise --depth to search deeper)",
    )
    assert sl("check", "--depth", "1", str(src)).returncode == 0


# `explain --json` of the goals at these locators of `SHARED`, sha256 of
# stdout, taken before the module's bodies without givens shared one resolver.
SHARED = """\
module m
concept Show[Self] { fn show(x: Self) -> String }
data T { C }
model Show[T] { fn show(x: T) -> String { "t" } }
model Show[Option[a]] where Show[a] { fn show(o: Option[a]) -> String { "o" } }
fn first() -> String { show(Some(C)) }
fn second() -> String { concat(show(C), show(Some(C))) }
"""
SHARED_EXPLAIN = {
    "6:24": "e0ef8661be7d0fd41f34d23cb0ff93034d1833b8a93997a820afe26fc8fa122b",
    "7:32": "205a1cbfc7251b984c30ff1ef26d8bd77982b9ff6a0403d961f631b2c228e953",
    "7:41": "63fad911ca1dcfd68d185a3293eba103d6fec8f11c6c96f0b8ad651b21a73955",
}


def test_bodies_sharing_a_resolver_explain_as_before(tmp_path):
    """The two functions of `SHARED` have no givens, so they share the
    module's one resolver and its world's candidates: each goal explains
    with the bytes it had when each body had its own, and the same goal in
    either body gets the same trace."""
    import hashlib

    (tmp_path / "m.sl").write_text(SHARED)
    traces = {}
    for locator, sha in SHARED_EXPLAIN.items():
        proc = sl("explain", "--json", f"m.sl:{locator}", "m.sl", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha, locator
        traces[locator] = json.loads(proc.stdout)["trace"]
    assert traces["6:24"] == traces["7:41"]
    assert traces["7:32"] == traces["7:41"]["children"][0]


def test_depth_flag(tmp_path):
    src = tmp_path / "data_cycle.sl"
    src.write_text(
        "module cyc\n"
        "concept Ping[Self] { fn ping(x: Self) -> Self }\n"
        "concept Pong[Self] { fn pong(x: Self) -> Self }\n"
        "model a: Ping[t] where Pong[t] { fn ping(x: t) -> t { pong(x) } }\n"
        "model b: Pong[t] where Ping[t] { fn pong(x: t) -> t { ping(x) } }\n"
        "fn main() -> Unit { let x = ping(1:U64); print(\"done\") }\n"
    )
    proc = sl("check", str(src), "--depth", "4")
    assert proc.returncode == 1
    assert "E-DEPTH" in proc.stdout


def test_fuel_flag(tmp_path):
    src = tmp_path / "data_spin.sl"
    src.write_text(
        "module spin\n"
        "fn spin(x: U64) -> U64 { spin(add64(x, 1:U64)) }\n"
        "fn main() -> Unit { let x = spin(0:U64); print(\"no\") }\n"
    )
    proc = sl("run", str(src), "--fuel", "2000")
    assert proc.returncode == 1
    assert "E-RT-FUEL" in proc.stderr


def test_fuel_default_is_the_evaluators():
    """`sl run` parses its `--fuel` default without the evaluator loaded; it
    is the budget the evaluator itself defaults to."""
    from slc import cli, evaluator

    assert cli.build_parser().parse_args(["run", "x.sl"]).fuel == evaluator.DEFAULT_FUEL


def test_negative_limits_are_usage_errors():
    """`--fuel` and `--depth` take counts: a negative one is a usage problem
    (exit 2, argparse's message, no diagnostics); 0 is a real limit."""
    files = corpus("show_lib.sl", "option_show_ok.sl")
    for command, flag, code in (("run", "--fuel", "E-RT-FUEL"), ("check", "--depth", "E-DEPTH")):
        proc = sl(command, flag, "-1", *files)
        assert proc.returncode == 2
        assert f"argument {flag}: must be 0 or more, got -1" in proc.stderr
        assert proc.stdout == "" and code not in proc.stderr
        proc = sl(command, flag, "0", *files)
        assert proc.returncode == 1
        assert code in proc.stdout + proc.stderr


def test_superclass_obligation_warning_blames_its_module(tmp_path):
    """A W-INCOHERENT met while resolving a model's superclass obligation
    names the module being checked, as one met at a use site does."""
    (tmp_path / "m.sl").write_text(
        "module m\n"
        "concept A[Self] { fn a(x: Self) -> U64 }\n"
        "concept B[Self] where A[Self] { fn b(x: Self) -> U64 }\n"
        "data Box[t] { MkBox(t) }\n"
        "model A[Box[t]] { fn a(x: Box[t]) -> U64 { 1:U64 } }\n"
        "model A[Box[U64]] { fn a(x: Box[U64]) -> U64 { 2:U64 } }\n"
        "model B[Box[U64]] { fn b(x: Box[U64]) -> U64 { 3:U64 } }\n"
    )
    proc = sl("check", "--incoherent-ok", "--json", "m.sl", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    [diag] = json.loads(proc.stdout)
    assert diag["code"] == "W-INCOHERENT"
    assert diag["module"] == "m"


def test_a_module_named_std_is_rejected(tmp_path):
    """A user module named `std` would share the ids of the built-in one
    (`std.Option`), so `sl check` rejects it with one E-NAME at its header
    and checks nothing else. A module that imports it still finds it."""
    (tmp_path / "std.sl").write_text("module std\ndata Option[a] { Nothing, Just(a) }\n")
    (tmp_path / "app2.sl").write_text(
        "module app2\n"
        "fn main() -> Unit { match Some(1:U64) { Some(x) => print(show64(x)), "
        'None => print("none") } }\n'
    )
    (tmp_path / "app3.sl").write_text('module app3\nimport std\nfn main() -> Unit { print("x") }\n')
    proc = sl("check", "--json", "std.sl", "app2.sl", "app3.sl", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    [diag] = json.loads(proc.stdout)
    assert (diag["code"], diag["module"]) == ("E-NAME", "std")
    assert diag["message"] == "module name 'std' is reserved for the built-in module"
    assert (diag["span"]["file"], diag["span"]["start"]) == ("std.sl", [1, 1])
