"""The benchmark's workloads and the seeded inputs each one runs.

Everything a workload feeds the program is derived here from the
benchmark's ``--seed``; the program sees only these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: workload name -> why it is in the benchmark (mirrors BENCHMARK.json)
WHY = {
    "seu-serial": "Table-I SEU sweep, MULT6/S12 stride 3, jobs=1: prefilter and kernel split the wall, collapse and checkpoints ride along",
    "bist-sharded": "BIST hard-fault coverage, ~1000 seeded faults, jobs=2: kernel-bound, prefilter bypassed, the only sharded-executor path",
    "service-mix": "repro serve with 2 closed-loop clients, small MULT4/S8 jobs, half duplicates: spawn, implement, queue and result cache",
}

SWEEP_WORKLOADS = ("seu-serial", "bist-sharded")


@dataclass(frozen=True)
class SeuInputs:
    design: str = "MULT6"
    device: str = "S12"
    stride: int = 3
    detect_cycles: int = 96
    persist_cycles: int = 64
    batch_size: int = 128
    checkpoint_every: int = 50_000
    stimulus_seed: int = 0


@dataclass(frozen=True)
class BistInputs:
    device: str = "S12"
    n_faults: int = 1000
    fault_seed: int = 0
    register_pairs: int = 4
    cycles: int = 128
    batch_size: int = 128
    jobs: int = 2


def seu_inputs(seed: int) -> SeuInputs:
    """One SEU campaign; the seed is the stimulus seed."""
    return SeuInputs(stimulus_seed=seed)


def bist_inputs(seed: int) -> BistInputs:
    """One BIST coverage sweep; the seed draws the fault sample."""
    return BistInputs(fault_seed=seed)


# -- service-mix ---------------------------------------------------------------

#: the campaign pinned by ``seu_verdicts`` in tests/utils/goldens.py
GOLDEN_CAMPAIGN = {
    "kind": "campaign",
    "design": "MULT4",
    "device": "S8",
    "flags": {"detect_cycles": 48, "persist_cycles": 32, "stride": 7, "batch_size": 32, "jobs": 1},
}

N_CLIENTS = 2
_KINDS = ("campaign", "multibit", "bist-coverage")
#: (detect_cycles, persist_cycles) pairs that tell cold campaigns apart.
#: Stride 18 makes a campaign cost about what a 1024-trial multibit sweep
#: or a 200-fault coverage sweep costs, so cold-job latencies form one
#: cluster and their median does not jump between kinds.
_CAMPAIGN_POOL = [
    (detect, persist) for detect in (44, 46, 48, 50, 52) for persist in (28, 30, 32, 34, 36)
]


def _cold_spec(kind: str, rng: random.Random, client: int, index: int, pool: list) -> dict:
    tenant = f"client-{client}"
    if kind == "campaign":
        detect, persist = pool[index % len(pool)]
        flags = {"detect_cycles": detect, "persist_cycles": persist, "stride": 18,
                 "batch_size": 32, "jobs": 1}
        return {"kind": kind, "design": "MULT4", "device": "S8", "tenant": tenant, "flags": flags}
    # Per-client odd/even seeds keep every cold job distinct across clients.
    job_seed = 2 * rng.randrange(1 << 20) + client
    if kind == "multibit":
        flags = {"detect_cycles": 48, "batch_size": 32, "k": 2, "trials": 1024,
                 "seed": job_seed, "single_sensitivity": 0.25, "jobs": 1}
        return {"kind": kind, "design": "MULT4", "device": "S8", "tenant": tenant, "flags": flags}
    flags = {"faults": 200, "seed": job_seed, "cycles": 64, "batch_size": 32, "jobs": 1}
    return {"kind": kind, "device": "S8", "tenant": tenant, "flags": flags}


def service_jobs(seed: int, client: int, n: int) -> list[dict]:
    """The first ``n`` submissions of one closed-loop client.

    Even positions are cold jobs cycling campaign / multibit /
    bist-coverage (client 0 opens with the golden campaign); odd
    positions repeat one of the client's earlier cold jobs byte for
    byte, so the service answers them from its result cache.  Each job
    is ``{"label", "spec", "twin"}`` where ``twin`` is the label of the
    cold job a duplicate repeats (``None`` for cold jobs).
    """
    rng = random.Random(seed * 7919 + client)
    pool = list(_CAMPAIGN_POOL[client::N_CLIENTS])
    rng.shuffle(pool)
    jobs: list[dict] = []
    cold: list[dict] = []
    counts = dict.fromkeys(_KINDS, 0)
    for pos in range(n):
        if pos % 2 and cold:
            twin = rng.choice(cold)
            jobs.append({"label": f"c{client}-{pos}", "spec": twin["spec"], "twin": twin["label"]})
            continue
        if client == 0 and pos == 0:
            spec = dict(GOLDEN_CAMPAIGN, tenant="client-0")
        else:
            kind = _KINDS[(len(cold) + client) % len(_KINDS)]
            spec = _cold_spec(kind, rng, client, counts[kind], pool)
            counts[kind] += 1
        job = {"label": f"c{client}-{pos}", "spec": spec, "twin": None}
        jobs.append(job)
        cold.append(job)
    return jobs
