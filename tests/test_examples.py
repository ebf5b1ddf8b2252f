"""Every example imports cleanly, so none can name a deleted API.

Each ``examples/*.py`` keeps its work behind a ``__main__`` guard and a
``main()`` function; importing one resolves its ``repro`` imports
without running a simulation.  The m88ksim case study's per-branch
profile is also run at a small scale and checked against its result.
"""

import importlib.util
import pathlib

import pytest

from repro.predictors.twolevel import LevelTwoKind

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_without_running(path):
    assert callable(getattr(load_example(path), "main", None))


@pytest.mark.parametrize("kind", ["HYBRID", "ARVI"])
def test_m88ksim_branch_profile_covers_every_measured_branch(kind):
    """The case study's per-PC profile, read from the engine's timing
    records, adds up to the run's own branch counters."""
    case_study = load_example(EXAMPLES_DIR / "m88ksim_case_study.py")
    program, result, profile = case_study.run_with_branch_profile(
        LevelTwoKind[kind], scale=0.05, warmup=500)
    assert result.cond_branches > 0
    assert sum(seen for seen, _ in profile.values()) == result.cond_branches
    assert sum(right for _, right in profile.values()) \
        == result.final_correct
    assert program.labels["walk"] in profile
