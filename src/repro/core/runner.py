"""Experiment execution: probes, per-process caching, parallel fan-out.

Each :class:`ExperimentSpec` expands into ``n_queries`` *probes* (one
prediction each).  Heavy, immutable state — datasets, tokenizer, surrogate
LM — is cached per process so the multiprocessing fan-out only ships specs
and results (chunky tasks, small payloads, per the HPC guides).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import product
from pathlib import Path

import numpy as np

from repro.analysis.decoding import StepCandidates
from repro.core.grid import ExperimentSpec
from repro.core.surrogate import DiscriminativeSurrogate
from repro.dataset.generate import PerformanceDataset, generate_dataset
from repro.dataset.splits import curated_neighborhood, disjoint_example_sets
from repro.dataset.syr2k import Syr2kTask
from repro.errors import ExperimentError
from repro.obs import get_tracer
from repro.utils.parallel import parallel_map
from repro.utils.rng import derive_seed

logger = logging.getLogger("repro.runner")

__all__ = ["ProbeResult", "run_spec", "run_grid"]

#: Cap on disjoint-set material: the largest grid draws 5 sets of 100.
_MAX_SETS = 8


@dataclass
class ProbeResult:
    """One prediction probe: everything the analyses need, no more.

    The value-region candidates are retained (they feed Table II, Figures
    3-4 and the haystack analysis); full prompts are not (only their
    length), keeping result payloads small enough to ship across processes.
    """

    spec: ExperimentSpec
    query_index: int
    truth: float
    predicted: float | None
    predicted_text: str
    generated_text: str
    exact_copy: bool
    icl_value_strings: list[str]
    value_steps: list[StepCandidates]
    n_prompt_tokens: int

    @property
    def parsed(self) -> bool:
        return self.predicted is not None

    @property
    def relative_error(self) -> float:
        """Relative error of the sampled prediction (inf when unparsed)."""
        if self.predicted is None:
            return float("inf")
        return abs(self.predicted - self.truth) / abs(self.truth)


@lru_cache(maxsize=8)
def _dataset(size: str, root_seed: int) -> PerformanceDataset:
    return generate_dataset(size, seed=root_seed)


@lru_cache(maxsize=8)
def _surrogate(size: str, prefix_cache: bool = True) -> DiscriminativeSurrogate:
    return DiscriminativeSurrogate(Syr2kTask(size), prefix_cache=prefix_cache)


def _probes_for(
    spec: ExperimentSpec, dataset: PerformanceDataset
) -> list[tuple[np.ndarray, int]]:
    """Expand a spec into ``(icl_rows, query_row)`` probes."""
    if spec.selection == "random":
        n_sets = max(_MAX_SETS, spec.set_id + 1)
        sets, queries = disjoint_example_sets(
            dataset,
            n_sets=n_sets,
            set_size=spec.n_icl,
            seed=derive_seed(spec.root_seed, "sets", spec.size, spec.n_icl),
            n_queries=spec.n_queries,
        )
        return [(sets[spec.set_id], int(q)) for q in queries]
    # Curated: each query gets its own minimal-edit-distance neighbourhood.
    probes = []
    for q in range(spec.n_queries):
        rows, query_row = curated_neighborhood(
            dataset,
            set_size=spec.n_icl,
            seed=derive_seed(
                spec.root_seed, "curated", spec.size, spec.n_icl,
                spec.set_id, q,
            ),
        )
        probes.append((rows, int(query_row)))
    return probes


def _probe_inputs(spec: ExperimentSpec, dataset: PerformanceDataset):
    """Materialize per-probe inputs: (examples, query_row).

    These depend on everything about the cell but its sampling seed, so
    all cells of a seed group share them.
    """
    return [
        (
            [
                (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
                for r in icl_rows
            ],
            query_row,
        )
        for icl_rows, query_row in _probes_for(spec, dataset)
    ]


def _generation_seed(cell: ExperimentSpec, probe_id: int) -> int:
    # cell_key includes the sampling seed, so sampling streams differ
    # across seeds while everything else about the probe is shared.
    return derive_seed(cell.root_seed, "generation", *cell.cell_key, probe_id)


def _probe_result(spec, dataset, query_row, pred) -> ProbeResult:
    return ProbeResult(
        spec=spec,
        query_index=int(dataset.indices[query_row]),
        truth=float(dataset.runtimes[query_row]),
        predicted=pred.value,
        predicted_text=pred.value_text,
        generated_text=pred.generated_text,
        exact_copy=pred.exact_copy,
        icl_value_strings=pred.icl_value_strings,
        value_steps=pred.value_steps,
        n_prompt_tokens=pred.n_prompt_tokens,
    )


def run_spec(
    spec: ExperimentSpec, service=None, fault_plan=None,
    prefix_cache: bool = True, seeds=None,
) -> list[ProbeResult]:
    """Execute all probes of one experiment cell, or of a seed group.

    ``seeds`` (default: ``spec.seed`` alone) names a *seed group*: the
    cells ``replace(spec, seed=s)`` for each ``s``, which differ only in
    their sampling seed.  Their probe inputs are derived and each prompt
    is built once for the whole group; the returned probes run cell by
    cell in ``seeds`` order, ``spec.n_queries`` per cell.  Every probe
    is identical to the one a separate single-seed call would give.

    With ``service=None`` probes run serially against the per-process
    surrogate cache, each prompt decoding all of the group's seeds in one
    lockstep batch.  Given a :class:`repro.serve.PredictionService`, the
    probes are submitted as a bulk request batch instead — the service's
    microbatcher and caches then handle scheduling and reuse.  Both paths
    are bit-identical for the default stack (the engine's determinism
    contract), so analyses cannot tell them apart.

    ``prefix_cache`` toggles prepared-prefix reuse on the serial path's
    surrogate (all probes of a cell share their ICL prefix, so prompts
    only pay for the query delta); results are bit-identical either way.
    It does not affect an explicitly passed ``service`` (configure that
    through ``PredictionService(enable_prefix_cache=...)``).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) is the grid-level
    fault hook: if it selects any cell of the group (keyed on
    ``cell_key``), :class:`~repro.errors.InjectedFaultError` is raised
    before any probe runs, which is how the checkpoint/resume tests
    simulate deterministic mid-grid crashes.
    """
    cells = [spec] if seeds is None else [
        replace(spec, seed=int(seed)) for seed in seeds
    ]
    if not cells:
        raise ExperimentError("a seed group needs at least one seed")
    if fault_plan is not None:
        for cell in cells:
            if fault_plan.cell_fault(cell.cell_key):
                from repro.errors import InjectedFaultError

                raise InjectedFaultError("run_spec", cell.cell_key)
    with get_tracer().span(
        "runner.run_spec",
        size=spec.size,
        n_icl=spec.n_icl,
        set_id=spec.set_id,
        n_queries=spec.n_queries,
        n_seeds=len(cells),
        via_service=service is not None,
        prefix_cache=bool(prefix_cache),
    ):
        dataset = _dataset(spec.size, spec.root_seed)
        inputs = _probe_inputs(spec, dataset)
        if service is not None:
            from repro.serve.request import Request

            preds = [
                resp.prediction
                for resp in service.submit_many(
                    Request(
                        examples=examples,
                        query_config=dataset.config(query_row),
                        seed=_generation_seed(cell, probe_id),
                        size=spec.size,
                    )
                    for cell in cells
                    for probe_id, (examples, query_row) in enumerate(inputs)
                )
            ]
        else:
            surrogate = _surrogate(spec.size, bool(prefix_cache))
            by_probe = [
                surrogate.predict_parts_batch(
                    surrogate.build_parts(
                        examples, dataset.config(query_row)
                    ),
                    [_generation_seed(cell, probe_id) for cell in cells],
                )
                for probe_id, (examples, query_row) in enumerate(inputs)
            ]
            preds = [row[i] for i in range(len(cells)) for row in by_probe]
        # Both paths hold predictions cell by cell, probes within a cell.
        return [
            _probe_result(cell, dataset, query_row, pred)
            for (cell, (_, query_row)), pred in zip(product(cells, inputs), preds)
        ]


def run_grid(
    specs: list[ExperimentSpec],
    workers: int | None = None,
    service=None,
    checkpoint: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    fault_plan=None,
    prefix_cache: bool = True,
) -> list[ProbeResult]:
    """Execute a grid of experiments, optionally across processes.

    Results are returned flattened, in spec order (deterministic
    regardless of parallelism).  Each run of consecutive specs that
    differ only in ``seed`` (the paper grid's innermost loop) executes as
    one *seed group* through :func:`run_spec`, so its prompts are built
    once and its seeds decode in one lockstep batch; the probes equal
    those of separate per-cell runs.  When ``service`` is given, groups
    are streamed through that :class:`repro.serve.PredictionService`
    instead of the process pool (the service owns concurrency, batching,
    and caching; ``workers`` is then ignored).

    Crash resumability: with ``checkpoint`` set, completed cells are
    appended to that JSONL file, ``checkpoint_every`` cells per fsynced
    append, as soon as their seed group finishes; groups are gathered
    until they hold at least ``checkpoint_every`` cells, so a hard kill
    loses at most the seed groups of one such chunk — one seed group at
    the default of 1, not one cell.  ``resume=True`` loads an existing
    checkpoint, skips every cell already complete in it (a partially
    written trailing cell is discarded and re-run), and produces a probe
    set identical to an uninterrupted run — same probes, same order, no
    duplicates.  Without ``resume``, an existing checkpoint file is an
    error rather than silently overwritten.

    ``fault_plan`` and ``prefix_cache`` forward to :func:`run_spec`
    (deterministic grid-level fault injection; prepared-prefix reuse on
    the serial path).  A cell the fault plan selects starts a new seed
    group, so the siblings before it complete and are checkpointed
    before it raises.
    """
    if not specs:
        raise ExperimentError("no experiments to run")
    # Spans only cover the in-process paths: the process-pool fan-out runs
    # run_spec in workers whose global tracer is the disabled default.
    with get_tracer().span(
        "runner.run_grid",
        n_cells=len(specs),
        via_service=service is not None,
        checkpointed=checkpoint is not None,
        prefix_cache=bool(prefix_cache),
    ):
        if checkpoint is None:
            nested = _run_groups(
                _seed_groups(specs, fault_plan), workers=workers,
                service=service, fault_plan=fault_plan,
                prefix_cache=prefix_cache,
            )
            return [probe for cell in nested for probe in cell]
        return _run_grid_checkpointed(
            specs,
            workers=workers,
            service=service,
            path=Path(checkpoint),
            every=max(1, int(checkpoint_every)),
            resume=resume,
            fault_plan=fault_plan,
            prefix_cache=prefix_cache,
        )


def _seed_groups(specs, fault_plan) -> list[list[ExperimentSpec]]:
    """Split ``specs`` into runs of consecutive cells differing only in seed.

    A cell ``fault_plan`` selects starts a new group, so the group before
    it completes (and is checkpointed) before that cell raises.
    """
    groups: list[list[ExperimentSpec]] = []
    for spec in specs:
        if (
            groups
            and replace(groups[-1][0], seed=spec.seed) == spec
            and not (
                fault_plan is not None and fault_plan.cell_fault(spec.cell_key)
            )
        ):
            groups[-1].append(spec)
        else:
            groups.append([spec])
    return groups


def _run_group(
    group: list[ExperimentSpec], service=None, fault_plan=None,
    prefix_cache: bool = True,
) -> list[list[ProbeResult]]:
    """Run one seed group through ``run_spec``; its probes split by cell."""
    probes = run_spec(
        group[0], service=service, fault_plan=fault_plan,
        prefix_cache=prefix_cache, seeds=[spec.seed for spec in group],
    )
    n = group[0].n_queries
    return [probes[i * n : (i + 1) * n] for i in range(len(group))]


def _run_groups(
    groups: list[list[ExperimentSpec]], workers, service, fault_plan,
    prefix_cache: bool = True,
) -> list[list[ProbeResult]]:
    """Run seed groups through the service or the process pool.

    Returns one probe list per cell, in spec order.
    """
    if service is not None:
        nested = [
            _run_group(group, service=service, fault_plan=fault_plan)
            for group in groups
        ]
    else:
        nested = parallel_map(
            partial(
                _run_group, fault_plan=fault_plan, prefix_cache=prefix_cache
            ),
            groups,
            workers=workers,
        )
    return [cell for cells in nested for cell in cells]


def _run_grid_checkpointed(
    specs, workers, service, path, every, resume, fault_plan,
    prefix_cache=True,
) -> list[ProbeResult]:
    from repro.core.storage import (
        append_probes_jsonl,
        load_checkpoint,
        save_probes_jsonl,
    )

    if len({spec.cell_key for spec in specs}) != len(specs):
        raise ExperimentError(
            "grid has duplicate cells; checkpointing needs unique cell keys"
        )
    done: dict[tuple, list[ProbeResult]] = {}
    if path.exists():
        if not resume:
            raise ExperimentError(
                f"checkpoint {path} already exists; pass resume=True "
                "(CLI: --resume) to continue it"
            )
        done = load_checkpoint(path, specs)
        if not done.report.clean:
            logger.warning(
                "resume from damaged checkpoint: %s", done.report.summary()
            )
        # Compact the file down to the complete cells: this drops any
        # partially written tail (and any damage the recovery scan
        # quarantined) so the append below cannot duplicate it.
        save_probes_jsonl(
            [
                probe
                for spec in specs
                if spec.cell_key in done
                for probe in done[spec.cell_key]
            ],
            path,
        )
    groups = _seed_groups(
        [spec for spec in specs if spec.cell_key not in done], fault_plan
    )
    start = 0
    while start < len(groups):
        # Gather whole groups until they hold at least `every` cells.
        stop, n_cells = start, 0
        while stop < len(groups) and n_cells < every:
            n_cells += len(groups[stop])
            stop += 1
        chunk = [spec for group in groups[start:stop] for spec in group]
        nested = _run_groups(groups[start:stop], workers=workers,
                             service=service, fault_plan=fault_plan,
                             prefix_cache=prefix_cache)
        for lo in range(0, len(chunk), every):
            append_probes_jsonl(
                [probe for cell in nested[lo : lo + every] for probe in cell],
                path,
            )
        for spec, cell in zip(chunk, nested):
            done[spec.cell_key] = cell
        start = stop
    return [probe for spec in specs for probe in done[spec.cell_key]]
