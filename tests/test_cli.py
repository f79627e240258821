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


def test_explain_no_goal():
    locator = f"{CORPUS / 'range_iter.sl'}:1:1"
    proc = sl("explain", locator, *corpus("iter_lib.sl", "range_iter.sl"))
    assert proc.returncode == 1
    assert "E-NO-GOAL" in proc.stderr


def test_color_env_toggle():
    proc_plain = sl("check", *corpus("show_lib.sl", "option_show.sl"))
    assert "\x1b[" not in proc_plain.stdout
    proc_color = sl(
        "check", *corpus("show_lib.sl", "option_show.sl"), env_extra={"SL_COLOR": "1"}
    )
    assert "\x1b[31m" in proc_color.stdout


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
