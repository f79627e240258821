import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import settings

from slc.coherence import CoherencePolicy
from slc.linker import check_sources
from slc.types import OPTION, App

# One hypothesis profile for every property test: the same examples on each
# run, no wall-clock deadline on a loaded machine, and a budget that keeps the
# suite quick.
settings.register_profile("sl", derandomize=True, deadline=None, database=None, max_examples=50)
settings.load_profile("sl")

CORPUS = Path(__file__).parent.parent / "corpus"
SRC = Path(__file__).resolve().parents[1] / "src"


def slc_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a child `python -m slc`: this checkout's `src/` first
    on PYTHONPATH, so the child imports it whatever its working directory."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited] if inherited else [str(SRC)])
    if extra:
        env.update(extra)
    return env


def corpus_sources(*names: str) -> list[tuple[str, bytes]]:
    out = []
    for name in names:
        path = CORPUS / name
        out.append((str(path), path.read_bytes()))
    return out


def check_inline(policy_kind: str = "use-site", /, **files: str):
    """Check a program given as {module_file_stem: source_text}."""
    sources = [(f"{name}.sl", text.encode()) for name, text in files.items()]
    return check_sources(sources, CoherencePolicy(policy_kind))


def check_inline_policy(policy: CoherencePolicy, **files: str):
    sources = [(f"{name}.sl", text.encode()) for name, text in files.items()]
    return check_sources(sources, policy)


def option_type(a):
    return App(OPTION, (a,))


def free_vars(t) -> list:
    """Free variables of a term, a constraint or a list of them, in order of
    first occurrence."""
    return list(dict.fromkeys(v for part in (t if isinstance(t, list) else [t]) for v in part.fvs))


def span_contains(outer, inner) -> bool:
    """Whether the span `inner` lies within `outer`, in the same file."""
    return outer.file == inner.file and outer.start <= inner.start and inner.end <= outer.end


def codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS
