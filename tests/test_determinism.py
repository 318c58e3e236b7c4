"""Determinism: same inputs, same seed, same bytes.

The verification subsystem leans on reproducibility in three places --
the seeded DES differential, the parallel sweep executor, and the
golden-corpus regeneration -- so each is pinned here as a law of its
own:

* the simulator is a pure function of its (config, seed): two runs
  produce *byte-identical* statistics, not merely statistically
  compatible ones;
* the sweep executor returns rows in task order regardless of worker
  count (``jobs=1`` vs ``jobs=4``) and of MVA engine, so diffs of two
  sweeps line up row for row;
* the sharded sweep queue produces rows byte-identical to the serial
  scalar executor regardless of worker count, chunk size, or
  crash/resume history;
* different seeds actually change the sample (guarding against a seed
  that is silently ignored).
"""

from __future__ import annotations

import dataclasses
import json

from repro.analysis.grid import GridSpec
from repro.protocols.modifications import ProtocolSpec
from repro.service.executor import SweepExecutor, tasks_for_spec
from repro.verify import scalar_sweep
from repro.sim.config import SimulationConfig
from repro.sim.system import simulate
from repro.workload.parameters import SharingLevel, appendix_a_workload


def _sim_result(seed: int):
    return simulate(SimulationConfig(
        n_processors=6,
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
        protocol=ProtocolSpec.of(1, 4),
        seed=seed,
        measured_requests=3_000))


def _result_bytes(result) -> bytes:
    """The full result record, canonically serialized."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


class TestSimulatorDeterminism:
    def test_same_seed_byte_identical(self):
        """Every field -- means, CIs, counters, per-kind breakdowns --
        must match exactly across two runs with the same seed."""
        assert _result_bytes(_sim_result(99)) == _result_bytes(
            _sim_result(99))

    def test_different_seed_changes_the_sample(self):
        a, b = _sim_result(1), _sim_result(2)
        assert a.mean_cycle_time != b.mean_cycle_time

    def test_verify_des_cells_reproducible(self):
        """The runner's MVA-vs-DES differential is seeded; the same
        cell audited twice yields identical violation payloads."""
        from repro.service.executor import CellTask
        from repro.verify.differential import diff_mva_des

        task = CellTask(
            protocol=ProtocolSpec.of(2),
            sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=4, method="sim", sim_requests=2_000, sim_seed=7)
        first, second = diff_mva_des(task), diff_mva_des(task)
        assert first.checks == second.checks
        assert ([v.as_dict() for v in first.violations]
                == [v.as_dict() for v in second.violations])


def _rows(spec: GridSpec, jobs: int):
    result = SweepExecutor(jobs=jobs).run(tasks_for_spec(spec))
    return [cell.as_row() for cell in result.cells]


def _scalar_rows(spec: GridSpec):
    """The per-cell scalar reference (no batch engine, no fan-out)."""
    return [cell.as_row()
            for cell in scalar_sweep(tasks_for_spec(spec)).cells]


class TestExecutorDeterminism:
    #: MVA + simulation cells, small enough to run four times.
    SPEC = GridSpec(
        protocols=[ProtocolSpec(), ProtocolSpec.of(1, 4)],
        sizes=[2, 6],
        sharing_levels=[SharingLevel.FIVE_PERCENT],
        include_simulation=True,
        sim_requests=1_500,
        sim_seed=4321,
    )

    def test_row_order_and_values_survive_parallelism(self):
        """jobs=4 fans cells out to worker processes; the assembled
        rows (order *and* float values) must match the serial run."""
        assert _rows(self.SPEC, jobs=1) == _rows(self.SPEC, jobs=4)

    def test_row_order_and_values_survive_engine_choice(self):
        """The executor's batch solve reproduces the per-cell path."""
        assert _scalar_rows(self.SPEC) == _rows(self.SPEC, jobs=1)

    def test_parallel_batch_matches_serial_scalar(self):
        """The cross term: batch MVA and fanned-out DES at once."""
        assert _scalar_rows(self.SPEC) == _rows(self.SPEC, jobs=4)


class TestSweepQueueDeterminism:
    """The sweepq contract: serial-scalar bytes no matter how the work
    was sharded, leased, cached, crashed, or resumed."""

    SPEC = TestExecutorDeterminism.SPEC

    def _queue_rows(self, tmp_path, name, workers, chunk_size,
                    chaos_kill=0, interrupt_after=0):
        from repro.analysis.grid import GridCell
        from repro.service.cache import ResultCache
        from repro.sweepq import SweepQueue

        tasks = tasks_for_spec(self.SPEC)
        queue = SweepQueue(
            state_dir=tmp_path / name,
            cache=ResultCache(path=str(tmp_path / f"{name}.json")),
            chunk_size=chunk_size, lease_ttl=1.0)
        job_id = queue.submit(tasks)
        if interrupt_after:
            # Simulate a killed driver: drain a few chunks, then start
            # over from the journal as a restarted process would.
            queue.process_chunks(job_id, limit=interrupt_after)
        outcome = queue.run(job_id, workers=workers,
                            chaos_kill=chaos_kill)
        rows = []
        for task, value in zip(tasks, outcome.values):
            assert value.get("error") is None
            rows.append(GridCell(**value["cell"]).as_row())
        return rows, outcome

    def test_workers_1_and_4_any_chunking_with_crash_resume(
            self, tmp_path):
        """workers in {1, 4}, two chunk sizes, one SIGKILLed worker and
        one interrupted-then-resumed run: every variant must reproduce
        the serial scalar executor's rows byte for byte."""
        serial = _scalar_rows(self.SPEC)

        rows, _ = self._queue_rows(tmp_path, "w1", workers=1,
                                   chunk_size=3)
        assert rows == serial

        rows, _ = self._queue_rows(tmp_path, "w4", workers=4,
                                   chunk_size=2)
        assert rows == serial

        # Forced crash: one worker is SIGKILLed after its first claim;
        # the chunk is requeued on lease expiry and re-solved.
        rows, outcome = self._queue_rows(tmp_path, "crash", workers=4,
                                         chunk_size=2, chaos_kill=1)
        assert outcome.counters["requeues"] >= 1
        assert rows == serial

        # Interrupted driver: two chunks done before the "restart".
        rows, outcome = self._queue_rows(tmp_path, "resume", workers=1,
                                         chunk_size=3,
                                         interrupt_after=2)
        assert sum(outcome.cached) == 6
        assert rows == serial
