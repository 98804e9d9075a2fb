"""The multi-seed campaign runner.

Section 6.2 validates every design over many seeded simulator runs
("100 runs with different random seeds").  :func:`run_trials` is the one
way to run such a campaign: ``sim_cls(**kwargs, seed=s).run()`` for
every seed, serially in-process or over ``workers`` processes, with the
outcomes in :class:`~repro.sim.runner.TrialsResult` in seed order.

With workers, the job list is split into one contiguous shard per
worker and each shard runs serially inside one process, which streams
every trial's outcome back as soon as it finishes.  A campaign with no
failures therefore starts ``min(workers, len(jobs))`` processes.  Each
trial is still an isolated unit of work:

- a **crash** (exception) is captured inside the worker as a ``failed``
  :class:`~repro.sim.runner.TrialOutcome` with its traceback, and the
  shard goes on;
- a worker process **dying** outright fails only its in-flight trial,
  and a new shard is started on the rest of the slice;
- a **hang** is reaped by the per-trial ``timeout``: the shard's process
  is terminated, the in-flight trial recorded as ``timed-out``, and a
  new shard started on the rest;
- a failed or timed-out trial is queued again, up to ``retries`` times,
  after an exponential ``backoff``.

Failure paths are testable deterministically through the
:class:`~repro.sim.faults.FaultPlan` hook, which each attempt applies
before constructing its simulator.  Each seed fully determines its run
(arrivals included, drawn from the ``(seed, "arrivals")`` stream), so
outcomes are identical whatever the worker count.

Calibration consumes the same supervisor through :func:`_run_jobs`,
which takes per-job kwargs and yields ``(job index, outcome)`` pairs as
they arrive.  On a 2-vCPU VM, the Section 6.2 BLAST campaign of
``perfbench/run.py --workload calibrate`` (2 rounds x 20 grid points x
8 seeds x 20,000 items, ``workers=2``) took a median 3.5 s (1.8M
simulated items/s) with a process per seed and takes 1.2 s (5.3M
items/s) sharded per round.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as mp_wait
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import CampaignError, SpecError
from repro.sim.faults import FaultPlan
from repro.sim.runner import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    TrialOutcome,
    TrialsResult,
    check_metrics,
    normalize_seeds,
)

__all__ = ["run_trials"]

#: A trial to run: its simulator kwargs (``seed`` excluded) and its seed.
Job = tuple[dict[str, Any], int]


def run_trials(
    sim_cls: type,
    kwargs: dict[str, Any],
    seeds: Sequence[int] | int,
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    faults: FaultPlan | None = None,
    strict: bool = False,
) -> TrialsResult:
    """Run ``sim_cls(**kwargs, seed=s).run()`` for every seed.

    Parameters
    ----------
    sim_cls:
        A simulator class (``EnforcedWaitsSimulator``,
        ``MonolithicSimulator``, ``AdaptiveWaitsSimulator``, ...).
    kwargs:
        Constructor arguments *excluding* ``seed``; must be picklable
        when worker processes are used.
    seeds:
        An int ``k`` (meaning ``range(k)``) or an explicit sequence.
    workers:
        Worker-process count.  ``None``, 0 or 1 runs serially in-process
        (no pickling requirement) unless ``timeout`` is set, which needs
        process isolation and so starts at least one worker.
    timeout:
        Per-trial wall-clock budget in seconds.  A trial exceeding it has
        its worker terminated and is recorded (after any retries) as
        ``timed-out``.
    retries:
        Extra attempts per seed after a crash or timeout.
    backoff:
        Base of the exponential retry delay: attempt ``k``'s retry waits
        ``backoff * 2**(k-1)`` seconds (other seeds keep running).
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` applied before each
        attempt, with that attempt's number.
    strict:
        When True, raise :class:`~repro.errors.CampaignError` if any
        trial is not ok (after retries), naming every lost seed and
        quoting the first failure's traceback.  The partial results are
        attached as ``exc.result``.

    Returns the outcomes in seed order regardless of completion order.
    """
    if "seed" in kwargs:
        raise SpecError("pass seeds via the seeds argument, not kwargs")
    seed_list = normalize_seeds(seeds)
    if workers is not None and workers < 0:
        raise SpecError(f"workers must be >= 0, got {workers}")
    if timeout is not None and timeout <= 0:
        raise SpecError(f"timeout must be > 0, got {timeout}")
    if retries < 0:
        raise SpecError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise SpecError(f"backoff must be >= 0, got {backoff}")

    outcomes = dict(
        _run_jobs(
            sim_cls,
            [(kwargs, seed) for seed in seed_list],
            workers=workers,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            faults=faults,
        )
    )
    result = TrialsResult(
        seeds=seed_list, outcomes=[outcomes[i] for i in range(len(seed_list))]
    )
    if strict and not result.all_ok:
        bad = ", ".join(f"seed {o.seed}: {o.status}" for o in result.failures)
        first = result.failures[0]
        exc = CampaignError(
            f"{len(result.failures)} of {result.n_attempted} trials did "
            f"not complete ({bad}); first failure (seed {first.seed}):\n"
            f"{first.error}"
        )
        exc.result = result  # type: ignore[attr-defined]
        raise exc
    return result


def _attempt(
    sim_cls: type,
    kwargs: dict[str, Any],
    seed: int,
    faults: FaultPlan | None,
    attempt: int,
) -> TrialOutcome:
    """One trial attempt: fault hook, construct, run, validate."""
    start = time.perf_counter()
    try:
        if faults is not None:
            faults.apply(seed, attempt)
        sim = sim_cls(**kwargs, seed=seed)
        metrics = check_metrics(sim, sim.run())
    except Exception:
        return TrialOutcome(
            seed=seed,
            status=STATUS_FAILED,
            error=traceback.format_exc(),
            attempts=attempt,
            duration=time.perf_counter() - start,
        )
    return TrialOutcome(
        seed=seed,
        status=STATUS_OK,
        metrics=metrics,
        attempts=attempt,
        duration=time.perf_counter() - start,
    )


def _check_picklable(*args: Any) -> None:
    """Fail early with a clear SpecError instead of a raw pool traceback."""
    try:
        pickle.dumps(args)
    except Exception as exc:
        raise SpecError(
            f"campaign arguments must be picklable to reach worker "
            f"processes; pickling failed with: {exc!r}"
        ) from exc


def _run_jobs(
    sim_cls: type,
    jobs: Sequence[Job],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    faults: FaultPlan | None = None,
) -> Iterator[tuple[int, TrialOutcome]]:
    """Run trial jobs ``(kwargs, seed)`` and yield ``(job index, outcome)``.

    In-process and in job order when ``workers`` is None, 0 or 1 and no
    ``timeout`` is set; otherwise over ``workers`` shard processes (see
    the module docstring), in arrival order.  Each yielded outcome is
    final: retries happen before it.  Closing the generator early
    terminates the workers still running.
    """
    if not jobs or (not timeout and (workers or 0) <= 1):
        for i, (kwargs, seed) in enumerate(jobs):
            for attempt in range(1, retries + 2):
                outcome = _attempt(sim_cls, kwargs, seed, faults, attempt)
                if outcome.ok or attempt > retries:
                    break
                time.sleep(backoff * 2 ** (attempt - 1))
            yield i, outcome
        return
    _check_picklable(sim_cls, jobs, faults)
    yield from _supervise(
        sim_cls,
        jobs,
        n_procs=min(max(1, workers or 0), len(jobs)),
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        faults=faults,
    )


def _shard_worker(
    conn: Connection,
    sim_cls: type,
    shard: list[tuple[int, int, dict[str, Any], int]],
    faults: FaultPlan | None,
) -> None:
    """Run ``(index, attempt, kwargs, seed)`` jobs serially.

    Sends ``(index, TrialOutcome)`` per job as soon as it finishes, or
    ``(None, traceback)`` if the shard machinery itself breaks.
    """
    try:
        for index, attempt, kwargs, seed in shard:
            conn.send((index, _attempt(sim_cls, kwargs, seed, faults, attempt)))
    except BaseException:  # noqa: BLE001 — the traceback is the payload
        try:
            conn.send((None, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Shard:
    """Jobs ``(index, attempt)`` to run in one process, once ``ready_at``
    (monotonic) has passed; while running, ``jobs[0]`` is in flight
    since ``since``."""

    jobs: list[tuple[int, int]]
    ready_at: float = 0.0
    proc: mp.Process | None = None
    conn: Connection | None = None
    since: float = 0.0


def _reap(shard: _Shard) -> None:
    """Terminate a shard's process and close its pipe (idempotent)."""
    proc = shard.proc
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover — last resort
            proc.kill()
    proc.join()
    shard.conn.close()


def _supervise(
    sim_cls: type,
    jobs: Sequence[Job],
    *,
    n_procs: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    faults: FaultPlan | None,
) -> Iterator[tuple[int, TrialOutcome]]:
    """The supervisor loop: start shards, stream, reap, retry."""
    pending = [
        _Shard([(i, 1) for i in idx.tolist()])
        for idx in np.array_split(np.arange(len(jobs)), n_procs)
    ]
    running: list[_Shard] = []

    def start(shard: _Shard) -> None:
        recv, send = mp.Pipe(duplex=False)
        shard.proc = mp.Process(
            target=_shard_worker,
            args=(
                send,
                sim_cls,
                [(i, attempt, *jobs[i]) for i, attempt in shard.jobs],
                faults,
            ),
            daemon=True,
        )
        shard.proc.start()
        send.close()  # the parent only reads; the child owns the send end
        shard.conn = recv
        shard.since = time.monotonic()
        running.append(shard)

    def settle(index: int, outcome: TrialOutcome) -> TrialOutcome | None:
        """The final outcome, or None if the job was queued for a retry."""
        attempt = outcome.attempts
        if outcome.ok or attempt > retries:
            return outcome
        pending.append(
            _Shard(
                [(index, attempt + 1)],
                ready_at=time.monotonic() + backoff * 2 ** (attempt - 1),
            )
        )
        return None

    try:
        while pending or running:
            # Start every ready shard while capacity is free, lowest job
            # index first for reproducible scheduling.
            now = time.monotonic()
            pending.sort(key=lambda s: (s.ready_at, s.jobs[0][0]))
            while pending and len(running) < n_procs and pending[0].ready_at <= now:
                start(pending.pop(0))
            if not running:
                time.sleep(max(0.0, pending[0].ready_at - now))
                continue

            # Wait for a result or a death, but no longer than the
            # nearest timeout or retry.
            wake = [s.since + timeout for s in running] if timeout else []
            if pending and len(running) < n_procs:
                wake.append(pending[0].ready_at)
            mp_wait(
                [s.conn for s in running] + [s.proc.sentinel for s in running],
                timeout=max(0.0, min([now + 0.5, *wake]) - now),
            )

            for s in list(running):
                # Liveness first, then drain: everything a dead worker
                # sent before exiting is read before its in-flight job
                # is failed.
                alive = s.proc.is_alive()
                broken = None
                try:
                    while s.jobs and s.conn.poll():
                        index, payload = s.conn.recv()
                        if index is None:
                            broken = payload
                            break
                        s.jobs.pop(0)
                        s.since = time.monotonic()
                        final = settle(index, payload)
                        if final is not None:
                            yield index, final
                except (EOFError, OSError):
                    alive = False
                if not s.jobs:
                    s.proc.join()
                    s.conn.close()
                    running.remove(s)
                    continue
                duration = time.monotonic() - s.since
                timed_out = timeout is not None and duration > timeout
                if alive and broken is None and not timed_out:
                    continue
                # The in-flight job is lost: settle it and start a new
                # shard on the rest of the slice.
                _reap(s)
                running.remove(s)
                (index, attempt), rest = s.jobs[0], s.jobs[1:]
                seed = jobs[index][1]
                if broken is not None:
                    status, error = STATUS_FAILED, broken
                elif alive:
                    status, error = STATUS_TIMED_OUT, (
                        f"trial for seed {seed} exceeded the per-trial "
                        f"timeout of {timeout}s (attempt {attempt})"
                    )
                else:
                    status, error = STATUS_FAILED, (
                        f"worker process for seed {seed} died without a "
                        f"result (exitcode {s.proc.exitcode})"
                    )
                final = settle(
                    index,
                    TrialOutcome(
                        seed=seed,
                        status=status,
                        error=error,
                        attempts=attempt,
                        duration=duration,
                    ),
                )
                if rest:
                    pending.append(_Shard(rest))
                if final is not None:
                    yield index, final
    finally:
        for s in running:
            _reap(s)
