"""Seed groups: run_grid runs each run of seed-only siblings as one group.

A group derives its probe inputs and builds each prompt once, then
decodes all of its sampling seeds in one lockstep batch.  The contract
pinned here: every probe is bit-identical to running each cell on its
own with :func:`run_spec`, checkpoints still land one cell at a time in
spec order, and resume and fault injection keep their per-cell meaning.
"""

from __future__ import annotations

import os

import pytest

import repro.core.runner as runner
from repro.core import quick_grid, run_grid, run_spec
from repro.core.storage import (
    load_checkpoint,
    load_probes_jsonl,
    save_probes_jsonl,
)
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan


def seed_grid(selection, icl_counts=(1, 3)):
    """Cells of one size and selection: each ICL count is a 3-seed group."""
    return quick_grid(
        sizes=("SM",), icl_counts=icl_counts, n_sets=1, seeds=(1, 2, 3),
        selections=(selection,), n_queries=2,
    )


def canonical(probe, logit_digits=None):
    """Everything a probe records, logits included, for exact comparison.

    With ``logit_digits`` the logits are rounded as a checkpoint stores
    them, so probes reloaded on resume compare exactly.
    """
    return (
        probe.spec, probe.query_index, probe.truth, probe.predicted,
        probe.predicted_text, probe.generated_text, probe.exact_copy,
        tuple(probe.icl_value_strings), probe.n_prompt_tokens,
        tuple(
            (st.tokens, tuple(
                x if logit_digits is None else round(x, logit_digits)
                for x in st.logits.tolist()
            ), st.chosen)
            for st in probe.value_steps
        ),
    )


def per_cell(specs, logit_digits=None):
    """The reference: every cell run on its own."""
    return [
        canonical(p, logit_digits) for spec in specs for p in run_spec(spec)
    ]


def stored(probes):
    """Probes as a checkpoint keeps them (logits to 6 decimal places)."""
    return [canonical(p, 6) for p in probes]


@pytest.fixture(scope="module")
def references():
    return {
        selection: per_cell(seed_grid(selection))
        for selection in ("random", "curated")
    }


class TestGrouping:
    def test_seed_siblings_form_one_group(self):
        specs = seed_grid("random")
        groups = runner._seed_groups(specs, None)
        assert [len(g) for g in groups] == [3, 3]
        assert [s for g in groups for s in g] == specs

    def test_faulted_cell_starts_a_new_group(self):
        specs = seed_grid("random")
        plan = _plan_faulting(specs, 1)
        groups = runner._seed_groups(specs, plan)
        assert [len(g) for g in groups] == [1, 2, 3]

    def test_run_grid_calls_run_spec_once_per_group(self, monkeypatch):
        calls = []
        real = runner.run_spec

        def counting(spec, **kw):
            calls.append((spec.n_icl, tuple(kw["seeds"])))
            return real(spec, **kw)

        monkeypatch.setattr(runner, "run_spec", counting)
        run_grid(seed_grid("random"), workers=1)
        assert calls == [(1, (1, 2, 3)), (3, (1, 2, 3))]

    def test_seeds_return_probes_cell_by_cell(self, references):
        specs = seed_grid("random")[:3]
        probes = run_spec(specs[0], seeds=[s.seed for s in specs])
        assert [canonical(p) for p in probes] == references["random"][:6]
        assert [p.spec for p in probes] == [
            spec for spec in specs for _ in range(spec.n_queries)
        ]


class TestBitIdentity:
    @pytest.mark.parametrize("selection", ["random", "curated"])
    def test_grid_equals_per_cell(self, selection, references):
        probes = run_grid(seed_grid(selection), workers=1)
        assert [canonical(p) for p in probes] == references[selection]

    @pytest.mark.parametrize("selection", ["random", "curated"])
    def test_checkpointed_grid_equals_per_cell(
        self, selection, references, tmp_path
    ):
        path = tmp_path / "grid.jsonl"
        probes = run_grid(seed_grid(selection), workers=1, checkpoint=path)
        assert [canonical(p) for p in probes] == references[selection]
        on_disk = load_probes_jsonl(path)
        assert [(p.spec, p.query_index, p.generated_text) for p in on_disk] == [
            (p.spec, p.query_index, p.generated_text) for p in probes
        ]

    def test_process_pool_equals_per_cell(self, monkeypatch, tmp_path):
        # Four groups and two workers: enough for the pool to engage even
        # where the host reports a single core.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        specs = seed_grid("random", icl_counts=(1, 2, 3, 5))
        expected = per_cell(specs)
        pooled = run_grid(specs, workers=2)
        assert [canonical(p) for p in pooled] == expected
        pooled_ckpt = run_grid(
            specs, workers=2, checkpoint=tmp_path / "g.jsonl",
            checkpoint_every=12,
        )
        assert [canonical(p) for p in pooled_ckpt] == expected


class TestCheckpointGroups:
    def test_resume_from_cut_mid_group(self, tmp_path):
        """A checkpoint holding the first seed of a group resumes the rest."""
        specs = seed_grid("random")
        path = tmp_path / "grid.jsonl"
        full = run_grid(specs, workers=1, checkpoint=path)
        n = specs[0].n_queries
        save_probes_jsonl(full[: 4 * n], path)  # group 2 cut after seed 1
        assert len(load_checkpoint(path, specs)) == 4
        resumed = run_grid(specs, workers=1, checkpoint=path, resume=True)
        assert stored(resumed) == stored(full)
        keys = [(p.spec.cell_key, p.query_index) for p in load_probes_jsonl(path)]
        assert len(keys) == len(set(keys)) == len(full)

    def test_fault_on_seed_two_checkpoints_seed_one(self, tmp_path):
        specs = seed_grid("random")
        path = tmp_path / "grid.jsonl"
        with pytest.raises(InjectedFaultError):
            run_grid(
                specs, workers=1, checkpoint=path,
                fault_plan=_plan_faulting(specs, 1),
            )
        assert list(load_checkpoint(path, specs)) == [specs[0].cell_key]
        resumed = run_grid(specs, workers=1, checkpoint=path, resume=True)
        assert stored(resumed) == per_cell(specs, logit_digits=6)

    def test_one_fsynced_append_per_cell(self, monkeypatch, tmp_path):
        import repro.core.storage as storage

        appended = []
        real = storage.append_probes_jsonl

        def spy(probes, path):
            appended.append([p.spec.cell_key for p in probes])
            return real(probes, path)

        monkeypatch.setattr(storage, "append_probes_jsonl", spy)
        specs = seed_grid("random")
        run_grid(specs, workers=1, checkpoint=tmp_path / "grid.jsonl")
        assert appended == [
            [spec.cell_key] * spec.n_queries for spec in specs
        ]


def _plan_faulting(specs, index):
    """A FaultPlan whose cell fault selects ``specs[index]`` alone."""
    for seed in range(2000):
        plan = FaultPlan(seed=seed, cell_error_rate=0.3)
        hits = [plan.cell_fault(spec.cell_key) for spec in specs]
        if hits == [i == index for i in range(len(specs))]:
            return plan
    raise AssertionError("no suitable fault plan seed in range")
