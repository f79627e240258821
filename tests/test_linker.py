"""Import graphs, separate checking, and the link-time global check."""

import pytest

from conftest import check_inline, codes

from slc.coherence import CoherencePolicy

DIAMOND = {
    "base": """\
module base
concept Named[Self] { fn name(x: Self) -> String }
fn describe[T](x: T) -> String where Named[T] { concat("name: ", name(x)) }
""",
    "point": """\
module point
data Point { MkPoint }
""",
    "left": """\
module left
import base
import point
model namedLeft: Named[Point] { fn name(x: Point) -> String { "left" } }
fn describeLeft(p: Point) -> String { describe(p) }
""",
    "right": """\
module right
import base
import point
model namedRight: Named[Point] { fn name(x: Point) -> String { "right" } }
""",
    "top": """\
module top
import left
import right
fn main() -> Unit { print(describeLeft(MkPoint)) }
""",
}


def test_diamond_builds_valid_dag():
    result = check_inline("scoped", **DIAMOND)
    assert result.ok, result.diagnostics
    assert result.graph.order == ["base", "point", "left", "right", "top"]


@pytest.mark.parametrize("policy", ["use-site", "def-site-strict"])
def test_diamond_conflict_detected_at_link(policy):
    result = check_inline(policy, **DIAMOND)
    assert not result.ok
    assert "E-LINK-CONFLICT" in codes(result)
    conflict = next(d for d in result.diagnostics if d.code == "E-LINK-CONFLICT")
    assert "left" in conflict.message and "right" in conflict.message


def test_diamond_orphans_detected_before_link_under_disjoint():
    result = check_inline("def-site-disjoint", **DIAMOND)
    assert not result.ok
    orphans = [d for d in result.diagnostics if d.code == "E-ORPHAN"]
    assert {d.module for d in orphans} == {"left", "right"}


def test_diamond_accepted_under_scoped():
    result = check_inline("scoped", **DIAMOND)
    assert result.ok, result.diagnostics


def test_import_cycle():
    result = check_inline(
        a="module a\nimport b\n", b="module b\nimport a\n"
    )
    assert codes(result) == ["E-CYCLE"]


def test_unresolved_import():
    result = check_inline(a="module a\nimport missing\n")
    assert codes(result) == ["E-UNRESOLVED-IMPORT"]


def test_explicit_import_of_std_adds_nothing():
    """Every module imports std implicitly, so an explicit `import std` is
    accepted and changes neither the import order nor the verdict; it was
    E-UNRESOLVED-IMPORT "imports unknown module 'std'" before."""
    lib = "module lib\nimport std\nfn wrap(x: U64) -> Option[U64] { Some(x) }\n"
    app = (
        "module app\nimport std\nimport lib\n"
        'fn main() -> Unit { match wrap(1:U64) { Some(x) => print(show64(x)), None => print("") } }\n'
    )
    result = check_inline(app=app, lib=lib)
    assert result.diagnostics == []
    assert result.graph.order == ["lib", "app"]
    assert result.program.entry == ("app", "main")
    missing = check_inline(a="module a\nimport std\nimport missing\n")
    assert [d.message for d in missing.diagnostics] == [
        "module 'a' imports unknown module 'missing'"
    ]


def test_duplicate_module_name():
    from slc.linker import check_sources

    result = check_sources(
        [("x.sl", b"module dup\n"), ("y.sl", b"module dup\n")],
        CoherencePolicy("use-site"),
    )
    assert "E-NAME" in codes(result)


def test_single_module_link_is_identity():
    result = check_inline(m="module m\nfn main() -> Unit { print(\"hi\") }\n")
    assert result.ok
    assert result.program.entry == ("m", "main")


def test_multiple_entry_points():
    result = check_inline(
        a="module a\nfn main() -> Unit { print(\"a\") }\n",
        b="module b\nfn main() -> Unit { print(\"b\") }\n",
    )
    assert "E-MULTI-ENTRY" in codes(result)


def test_link_independent_of_input_order():
    import itertools

    outputs = []
    for perm in itertools.permutations(DIAMOND.items()):
        from slc.linker import check_sources

        sources = [(f"{n}.sl", t.encode()) for n, t in perm]
        result = check_sources(sources, CoherencePolicy("use-site"))
        outputs.append([d.to_json() for d in result.diagnostics])
    assert all(o == outputs[0] for o in outputs)


ASSOC = {
    "assoc_lib": """\
module assoc_lib
concept Keyed[Self] { type Key }
""",
    "assoc_left": """\
module assoc_left
import assoc_lib
model keyLeft: Keyed[U64] { type Key = Bool }
fn leftKey() -> U64.Key { true }
""",
    "assoc_right": """\
module assoc_right
import assoc_lib
model keyRight: Keyed[U64] { type Key = U64 }
fn rightKey() -> U64.Key { 7:U64 }
""",
    "assoc_mix": """\
module assoc_mix
import assoc_left
import assoc_right
fn main() -> Unit {
  let keys = Cons(leftKey(), Cons(rightKey(), Nil));
  print("mixed")
}
""",
}


@pytest.mark.parametrize("policy", ["use-site", "def-site-strict"])
def test_assoc_clash_rejected_at_link(policy):
    result = check_inline(policy, **ASSOC)
    assert not result.ok
    assert "E-LINK-CONFLICT" in codes(result)


def test_assoc_clash_rejected_as_orphans_under_disjoint():
    result = check_inline("def-site-disjoint", **ASSOC)
    assert not result.ok
    orphans = [d for d in result.diagnostics if d.code == "E-ORPHAN"]
    assert {d.module for d in orphans} == {"assoc_left", "assoc_right"}


def test_assoc_clash_is_type_error_under_scoped():
    result = check_inline("scoped", **ASSOC)
    assert not result.ok
    mismatches = [d for d in result.diagnostics if d.code == "E-TYPE-MISMATCH"]
    assert len(mismatches) == 1
    msg = mismatches[0].message
    assert "assoc_left.keyLeft.Key" in msg
    assert "assoc_right.keyRight.Key" in msg
    assert mismatches[0].module == "assoc_mix"


def test_assoc_clash_never_accepted():
    for policy in ("use-site", "def-site-strict", "def-site-disjoint", "scoped"):
        result = check_inline(policy, **ASSOC)
        assert not result.ok, policy
