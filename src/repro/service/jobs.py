"""Job records and the state directory: the service's durable memory.

Every job's lifecycle lives in one JSON file under
``<state>/jobs/<id>.json`` (atomic tmp+rename writes, same discipline
as the engine's checkpoints), its artifacts beside it::

    <state>/jobs/j-000042.json         # the record below
    <state>/results/j-000042.verdicts  # raw verdict bytes
    <state>/results/j-000042.meta.json # telemetry + summary JSON
    <state>/traces/j-000042.jsonl      # repro.obs span trace (SSE source)
    <state>/checkpoints/j-000042.npz   # engine checkpoint (resume source)

Because the engine's checkpoint format already makes any sweep
resumable at batch granularity, a server restart needs no job-side
cooperation: :meth:`JobStore.recover` re-queues every ``queued`` job
and turns every ``running`` job (its process died with the server, or
is killed as an orphan) into a resume — the finished verdict bytes are
pinned byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.service.schemas import JobSpec, spec_from_json

__all__ = ["JobState", "Job", "JobStore", "UnknownJob"]


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


class UnknownJob(ReproError):
    """No job with that id in the store (HTTP 404)."""


@dataclass
class Job:
    """One submitted sweep and everything known about it."""

    id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    result_key: str = ""
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: served from the result cache without running the engine
    cached: bool = False
    #: resume-from-checkpoint pending (set by recovery after a restart)
    resume: bool = False
    attempts: int = 0
    pid: int | None = None
    error: str | None = None
    #: hex SHA-256 of the verdict bytes, set when done
    verdict_sha256: str | None = None
    n_verdict_bytes: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "result_key": self.result_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cached": self.cached,
            "resume": self.resume,
            "attempts": self.attempts,
            "pid": self.pid,
            "error": self.error,
            "verdict_sha256": self.verdict_sha256,
            "n_verdict_bytes": self.n_verdict_bytes,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Job":
        spec = spec_from_json(raw["spec"])
        return cls(
            id=str(raw["id"]),
            spec=spec,
            state=str(raw.get("state", JobState.QUEUED)),
            result_key=str(raw.get("result_key", "")) or spec.result_key(),
            submitted_at=float(raw.get("submitted_at", 0.0)),
            started_at=raw.get("started_at"),
            finished_at=raw.get("finished_at"),
            cached=bool(raw.get("cached", False)),
            resume=bool(raw.get("resume", False)),
            attempts=int(raw.get("attempts", 0)),
            pid=raw.get("pid"),
            error=raw.get("error"),
            verdict_sha256=raw.get("verdict_sha256"),
            n_verdict_bytes=raw.get("n_verdict_bytes"),
        )


class JobStore:
    """The on-disk job registry plus its in-memory index."""

    def __init__(self, root: str):
        self.root = str(root)
        for sub in ("jobs", "results", "traces", "checkpoints"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._jobs: dict[str, Job] = {}
        self._serial = 0
        self._load()

    # -- paths ----------------------------------------------------------------

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", f"{job_id}.json")

    def verdicts_path(self, job_id: str) -> str:
        return os.path.join(self.root, "results", f"{job_id}.verdicts")

    def meta_path(self, job_id: str) -> str:
        return os.path.join(self.root, "results", f"{job_id}.meta.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.root, "traces", f"{job_id}.jsonl")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.root, "checkpoints", f"{job_id}.npz")

    # -- registry -------------------------------------------------------------

    def _load(self) -> None:
        jobs_dir = os.path.join(self.root, "jobs")
        for name in sorted(os.listdir(jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    job = Job.from_dict(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError, ReproError) as err:
                # An unreadable record is dropped, never trusted, but
                # not silently: the job it held is gone.
                print(
                    f"repro serve: dropped job record {name}: "
                    f"{type(err).__name__}: {err}",
                    file=sys.stderr,
                )
                continue
            self._jobs[job.id] = job
            try:
                self._serial = max(self._serial, int(job.id.split("-")[-1]))
            except ValueError:
                pass

    def new_job(self, spec: JobSpec) -> Job:
        self._serial += 1
        job = Job(
            id=f"j-{self._serial:06d}", spec=spec, result_key=spec.result_key()
        )
        self._jobs[job.id] = job
        self.save(job)
        return job

    def save(self, job: Job) -> None:
        path = self.record_path(job.id)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(job.to_dict(), fh, indent=1)
        os.replace(tmp, path)

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no such job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.id)

    def latest_done_for_key(self, result_key: str) -> Job | None:
        """The most recent completed job with these verdict bytes."""
        best: Job | None = None
        for job in self._jobs.values():
            if job.state == JobState.DONE and job.result_key == result_key:
                if best is None or job.id > best.id:
                    best = job
        return best

    # -- results --------------------------------------------------------------

    def write_result(self, job: Job, verdicts: bytes, meta: dict[str, Any]) -> None:
        vpath = self.verdicts_path(job.id)
        tmp = f"{vpath}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(verdicts)
        os.replace(tmp, vpath)
        mpath = self.meta_path(job.id)
        tmp = f"{mpath}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
        os.replace(tmp, mpath)

    def read_verdicts(self, job_id: str) -> bytes | None:
        try:
            with open(self.verdicts_path(job_id), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def read_meta(self, job_id: str) -> dict[str, Any] | None:
        try:
            with open(self.meta_path(job_id), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # -- restart recovery -----------------------------------------------------

    def recover(self) -> list[Job]:
        """Turn interrupted jobs back into runnable ones; return them.

        ``queued`` jobs re-queue as submitted.  ``running`` jobs lost
        their process with the server: any orphan still alive is
        killed (the server owns its children's lifecycle), and the job
        re-queues with ``resume=True`` when its checkpoint exists —
        the engine replays the remainder to byte-identical verdicts.
        """
        import signal

        recovered: list[Job] = []
        for job in self.jobs():
            if job.state == JobState.RUNNING:
                if job.pid:
                    try:
                        os.killpg(job.pid, signal.SIGKILL)
                    except (OSError, ProcessLookupError):
                        try:
                            os.kill(job.pid, signal.SIGKILL)
                        except (OSError, ProcessLookupError):
                            pass
                job.state = JobState.QUEUED
                job.resume = os.path.exists(self.checkpoint_path(job.id))
                job.pid = None
                self.save(job)
                recovered.append(job)
            elif job.state == JobState.QUEUED:
                recovered.append(job)
        return recovered
