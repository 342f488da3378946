"""Throughput record shared by every campaign engine run.

Historically defined in :mod:`repro.seu.campaign` (and still re-exported
there); the engine owns it now so every fault model — SEU, MBU,
half-latch, BIST coverage — emits the same ``BENCH_*.json`` row schema.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = ["CampaignTelemetry", "HIST_EDGES_SECONDS"]

#: log-spaced bucket upper edges (seconds) for the per-stage timing
#: histograms; a final open bucket catches everything slower.  Spanning
#: 1 ms to 100 s covers one simulator batch on a toy design up to one
#: whole shard of a large sweep.
HIST_EDGES_SECONDS: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


@dataclass
class CampaignTelemetry:
    """Throughput record of one campaign run (the perf-tracking contract).

    Emitted by the engine's one sweep driver
    (:func:`repro.engine.run_sharded`, for every ``jobs``) and therefore
    by every adapter built on it; the benchmark harness serialises it
    into ``BENCH_*.json`` so the throughput trajectory (bits/sec,
    µs/bit) is tracked across revisions.  Phase timings are summed
    task seconds (worker CPU under a pool); ``wall_seconds`` is the
    parent's wall clock.

    ``n_candidates`` counts whatever the fault model enumerates —
    configuration bits, trial sets, hidden-state nodes, hard faults —
    so ``bits_per_sec`` reads as candidates/sec for non-SEU models.

    The campaign-shrinker counters: ``n_collapsed`` is how many
    simulation survivors rode along as *followers* of a collapse-class
    representative (they count in ``n_simulated`` but cost no batch
    slot); ``machines_retired`` / ``machine_cycles_saved`` aggregate the
    kernel's fault-dropping statistics (see
    :class:`~repro.netlist.simulator.KernelCounters`): machines that
    stopped before their batch's last cycle and machine-cycles never
    simulated.  Both stay 0 when retirement is off.
    """

    n_candidates: int = 0
    n_simulated: int = 0
    n_batches: int = 0
    skip_structural: int = 0
    skip_cone: int = 0
    skip_unaddressed: int = 0
    n_collapsed: int = 0
    machines_retired: int = 0
    machine_cycles_saved: int = 0
    # Golden-prefix fast-forward: machine-cycles never replayed because
    # a context build restored a golden snapshot (or served the whole
    # golden run from the pack store) instead of simulating from cycle 0.
    ff_cycles_skipped: int = 0
    # Content-addressed result cache (repro.engine.cache.ResultCache):
    # entries served / recomputed during this run, and the pickled bytes
    # the hits avoided recomputing.  Parent-process counters — hits
    # inside remote TCP workers accelerate the run but are counted in
    # the worker's own process.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    prefilter_seconds: float = 0.0
    simulate_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    wall_seconds: float = 0.0
    jobs: int = 1
    # Recovery counters (sharded runs; see repro.engine.executor): how
    # often the executor retried a failed shard, launched a speculative
    # duplicate of a stalled one (and how often the duplicate won),
    # rebuilt a broken worker pool, and how many shards it quarantined.
    # ``candidates_quarantined`` counts candidates dropped from the
    # result because their shard was quarantined (under collapse this
    # includes the followers of its representatives).
    shard_retries: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    pool_rebuilds: int = 0
    shards_quarantined: int = 0
    candidates_quarantined: int = 0
    # Distributed-execution counters (transport backends; see
    # repro.engine.backends): worker membership churn, shards executed
    # by a worker other than the one the round-robin plan intended
    # (work stealing), shards requeued because their worker vanished
    # mid-flight, and results that arrived after their task was already
    # resolved or quarantined (drained and logged, never silently
    # dropped).  ``worker_tasks`` maps worker name (or pid) to how many
    # task results it delivered.
    workers_joined: int = 0
    workers_left: int = 0
    dist_steals: int = 0
    dist_requeues: int = 0
    late_results: int = 0
    worker_tasks: dict[str, int] = field(default_factory=dict)
    # Per-stage timing histograms over HIST_EDGES_SECONDS (one extra
    # open bucket at the end).  Empty list = nothing recorded; kept as
    # plain lists so to_dict()/save/load round-trip them untouched.
    batch_seconds_hist: list[int] = field(default_factory=list)
    shard_seconds_hist: list[int] = field(default_factory=list)

    @staticmethod
    def _bucket(seconds: float) -> int:
        return bisect_right(HIST_EDGES_SECONDS, seconds)

    def _record(self, hist: list[int], seconds: float) -> None:
        if not hist:
            hist.extend([0] * (len(HIST_EDGES_SECONDS) + 1))
        hist[self._bucket(seconds)] += 1

    def record_batch_seconds(self, seconds: float) -> None:
        """Fold one simulator-batch duration into the batch histogram."""
        self._record(self.batch_seconds_hist, float(seconds))

    def record_shard_seconds(self, seconds: float) -> None:
        """Fold one completed-shard duration into the shard histogram."""
        self._record(self.shard_seconds_hist, float(seconds))

    @staticmethod
    def merge_hist(into: list[int], other: list[int]) -> None:
        """Accumulate ``other`` into ``into`` (sizing ``into`` lazily)."""
        if not other:
            return
        if not into:
            into.extend([0] * len(other))
        for i, n in enumerate(other):
            into[i] += int(n)

    @property
    def n_skipped(self) -> int:
        return self.skip_structural + self.skip_cone + self.skip_unaddressed

    @property
    def skip_rate(self) -> float:
        """Fraction of candidates the structural pre-filter absorbed."""
        return self.n_skipped / self.n_candidates if self.n_candidates else 0.0

    @property
    def bits_per_sec(self) -> float:
        return self.n_candidates / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def us_per_bit(self) -> float:
        return 1e6 * self.wall_seconds / self.n_candidates if self.n_candidates else 0.0

    @property
    def collapse_rate(self) -> float:
        """Fraction of simulation survivors that rode along as followers."""
        return self.n_collapsed / self.n_simulated if self.n_simulated else 0.0

    @property
    def retire_rate(self) -> float:
        """Fraction of simulation survivors sealed and dropped mid-run."""
        return self.machines_retired / self.n_simulated if self.n_simulated else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of result-cache lookups served without simulating."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-ready record (the ``BENCH_*.json`` row schema)."""
        d = dataclasses.asdict(self)
        d["bits_per_sec"] = self.bits_per_sec
        d["us_per_bit"] = self.us_per_bit
        d["skip_rate"] = self.skip_rate
        d["collapse_rate"] = self.collapse_rate
        d["retire_rate"] = self.retire_rate
        d["cache_hit_rate"] = self.cache_hit_rate
        return d

    def summary(self) -> str:
        return (
            f"{self.bits_per_sec:,.0f} bits/s ({self.us_per_bit:.1f} us/bit), "
            f"{100 * self.skip_rate:.1f}% pre-filtered, "
            f"{self.n_simulated} simulated in {self.n_batches} batches "
            f"({100 * self.collapse_rate:.1f}% collapsed, "
            f"{100 * self.retire_rate:.1f}% retired), "
            f"jobs={self.jobs}"
        )
