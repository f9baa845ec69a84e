"""Each workload's inputs are a pure function of the seed."""

import hashlib
from collections import Counter
import json
from pathlib import Path

import pytest

from repro import generate_dataset
from repro.core import paper_grid

import wl_gbt
import wl_grid
import wl_serve
import wl_sessions

SPEC = json.loads((Path(wl_grid.__file__).parent / "spec.json").read_text())
CFG = SPEC["workloads"]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def grid_inputs(seed):
    return [wl_grid.slice_specs(seed, i) for i in range(20)]


@pytest.fixture(scope="module")
def sm():
    return generate_dataset("SM")


def serve_inputs(sm, seed):
    mix = wl_serve.Mix(sm, CFG["serve-open"], seed)
    return [
        (r.prompt_key, r.seed) for tag in (1, 2) for r in mix.requests(tag, 50)
    ]


def session_inputs(seed):
    return [wl_sessions.tenant_plan(CFG["tune-sessions"], seed, i) for i in range(3)]


def gbt_inputs(seed):
    return [wl_gbt.split_seed(seed, i) for i in range(3)]


@pytest.mark.parametrize("inputs", [grid_inputs, session_inputs, gbt_inputs])
def test_same_seed_same_inputs_other_seed_other_inputs(inputs):
    assert digest(inputs(7)) == digest(inputs(7))
    assert digest(inputs(7)) != digest(inputs(8))


def test_serve_mix_is_a_function_of_the_seed(sm):
    assert digest(serve_inputs(sm, 7)) == digest(serve_inputs(sm, 7))
    assert digest(serve_inputs(sm, 7)) != digest(serve_inputs(sm, 8))


def test_grid_slices_are_runs_of_the_paper_grid_with_seeds_innermost():
    grid = paper_grid()
    slices = [wl_grid.slice_specs(3, i) for i in range(20)]
    # Twenty slices cover the whole grid once, whatever the seed.
    assert Counter(s for specs in slices for s in specs) == Counter(grid)
    for specs in slices:
        key = (specs[0].size, specs[0].selection, specs[0].set_id)
        assert specs == [s for s in grid if (s.size, s.selection, s.set_id) == key]
        assert sorted({s.n_icl for s in specs}) == [1, 2, 5, 10, 20, 50, 100]
        # Each prompt cell runs all its sampling seeds back to back.
        for cell in zip(*[iter(specs)] * 3):
            assert [s.seed for s in cell] == [1, 2, 3]
            assert len({s.n_icl for s in cell}) == 1


def test_serve_mix_shares_one_prefix_and_mostly_fresh_seeds(sm):
    cfg = CFG["serve-open"]
    requests = wl_serve.Mix(sm, cfg, 5).requests(1, 400)
    assert len({id(r.examples) for r in requests}) == 1
    repeats = sum(r.seed < cfg["repeat_seeds"] for r in requests)
    assert 0 < repeats < len(requests) / 2
