"""The wrong-path episode store: one synthesis per workload, any reader.

The premise (DESIGN.md §2.2, the prefix property): the wrong-path stream
after dynamic branch *j* is the same in every configuration and depth of
a workload, up to its length.  So engines that share one
:class:`~repro.speculation.wrongpath.EpisodeStore`, in whatever order
they fill it, give exactly the results of engines with their own.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ValueMode
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.predictors.twolevel import LevelTwoKind
from repro.speculation.wrongpath import EpisodeStore
from repro.workloads.registry import BENCHMARKS, get_program

SCALE = 0.02
WARMUP = 200
#: Committed instructions per point: dozens to hundreds of episodes on
#: every workload, few enough to run all 48 points twice.
BUDGET = 3000
KINDS = (LevelTwoKind.HYBRID, LevelTwoKind.ARVI)
DEPTHS = (20, 40, 60)
POINTS = [(kind, depth) for kind in KINDS for depth in DEPTHS]


def run(workload, kind, depth, episodes=None, **machine):
    config = machine_for_depth(depth, speculation="wrongpath", **machine)
    engine = PipelineEngine(
        get_program(workload, scale=SCALE, seed=1), config,
        build_predictor(kind, config), value_mode=ValueMode.CURRENT,
        warmup_instructions=WARMUP, episodes=episodes)
    return engine.run(BUDGET)


@functools.lru_cache(maxsize=None)
def private(workload, kind, depth):
    """The point run on an engine with its own store."""
    return run(workload, kind, depth)


class TestPrefixProperty:
    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_shared_store_equals_private_stores(self, workload):
        """Deepest point first, so every shallower one reads prefixes of
        episodes it did not fill."""
        store = EpisodeStore()
        for kind, depth in sorted(POINTS, key=lambda p: -p[1]):
            result = run(workload, kind, depth, store)
            assert result == private(workload, kind, depth), (kind, depth)
            assert result.wrong_path_instructions > 0
        assert len(store) > 0

    @settings(max_examples=12, deadline=None)
    @given(workload=st.sampled_from(BENCHMARKS),
           order=st.permutations(POINTS))
    def test_any_fill_order(self, workload, order):
        store = EpisodeStore()
        for kind, depth in order:
            assert run(workload, kind, depth, store) == private(
                workload, kind, depth), (kind, depth)


class TestRefill:
    def test_larger_limit_refills_episodes_that_did_not_end(self):
        store = EpisodeStore()
        short = run("go", LevelTwoKind.HYBRID, 60, store,
                    wrongpath_fetch_limit=16)
        assert short == run("go", LevelTwoKind.HYBRID, 60,
                            wrongpath_fetch_limit=16)
        lengths = {seq: entry[1] for seq, entry in store._episodes.items()}
        assert max(lengths.values()) == 16
        full = run("go", LevelTwoKind.ARVI, 60, store)
        assert full == private("go", LevelTwoKind.ARVI, 60)
        assert full.wrong_path_instructions > short.wrong_path_instructions
        refilled = [seq for seq, length in lengths.items()
                    if store._episodes[seq][1] > length]
        assert refilled
        # Only episodes cut by the limit were filled again; one that
        # ended within it is read as it is.
        assert all(lengths[seq] == 16 for seq in refilled)

    def test_smaller_limit_reads_a_prefix(self):
        store = EpisodeStore()
        run("li", LevelTwoKind.HYBRID, 60, store)
        filled = dict(store._episodes)
        assert run("li", LevelTwoKind.HYBRID, 60, store,
                   wrongpath_fetch_limit=16) == run(
            "li", LevelTwoKind.HYBRID, 60, wrongpath_fetch_limit=16)
        assert store._episodes == filled  # nothing synthesized again


class TestBinding:
    def test_store_serves_one_program_and_fetch_line(self):
        store = EpisodeStore()
        config = machine_for_depth(20, speculation="wrongpath")
        program = get_program("li", scale=SCALE, seed=1)
        PipelineEngine(program, config,
                       build_predictor(LevelTwoKind.HYBRID, config),
                       episodes=store)
        other = get_program("perl", scale=SCALE, seed=1)
        with pytest.raises(ValueError, match="episode store"):
            PipelineEngine(other, config,
                           build_predictor(LevelTwoKind.HYBRID, config),
                           episodes=store)

    def test_redirect_engines_never_touch_the_store(self):
        store = EpisodeStore()
        config = machine_for_depth(20)
        PipelineEngine(get_program("li", scale=SCALE, seed=1), config,
                       build_predictor(LevelTwoKind.HYBRID, config),
                       episodes=store).run(BUDGET)
        assert len(store) == 0 and store._owner is None
