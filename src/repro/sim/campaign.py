"""Supervised parallel multi-seed campaigns via multiprocessing.

:func:`repro.sim.runner.run_trials` is deliberately simple (a factory
closure per seed), but closures do not pickle, so it cannot fan out to
worker processes.  :func:`run_trials_parallel` takes the picklable form
— a simulator class plus its keyword arguments — and supervises one
worker process per seed (up to ``workers`` concurrently).

Unlike a bare ``ProcessPoolExecutor.map`` — where one crashed or hung
seed aborts the whole campaign and loses every completed trial — each
seed here is an isolated unit of work:

- a **crash** (exception, or a worker process dying outright) is
  captured as a ``failed`` :class:`~repro.sim.runner.TrialOutcome` with
  its traceback;
- a **hang** is reaped by the per-trial ``timeout``: the worker process
  is terminated and the trial recorded as ``timed-out``;
- transient failures are retried up to ``retries`` times with
  exponential ``backoff`` before a trial is declared failed;
- everything else lands in :class:`~repro.sim.runner.TrialsResult` in
  seed order, so campaigns degrade gracefully and report partial
  results.

Failure paths are testable deterministically through the
:class:`~repro.sim.faults.FaultPlan` hook, which each attempt applies
before constructing its simulator.

Results remain deterministic and identical to the serial runner: each
seed fully determines its run, and outcomes are reassembled in seed
order regardless of completion order.

Calibration campaigns (tens of grid points x tens of seeds) use the
sharded job-list runner instead (see "sharded campaigns" below), which
starts one process per worker rather than one per seed.  On a 2-vCPU
VM, the Section 6.2 BLAST campaign of ``perfbench/run.py --workload
calibrate`` (2 rounds x 20 grid points x 8 seeds x 20,000 items,
``workers=2``) took a median 3.5 s (1.8M simulated items/s) with a
process per seed and takes 1.2 s (5.3M items/s) sharded per round.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as mp_wait
from typing import Any, Iterator, Sequence

import numpy as np

from repro.arrivals.trace import TraceArrivals
from repro.des.rng import RngRegistry
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

__all__ = [
    "run_trials_parallel",
    "run_planned_trials_parallel",
    "run_trials_sharded",
    "run_planned_trials_sharded",
]


def _run_attempt(
    sim_cls: type,
    kwargs: dict[str, Any],
    seed: int,
    faults: FaultPlan | None,
    attempt: int,
):
    """One trial attempt: fault hook, construct, run, validate."""
    if faults is not None:
        faults.apply(seed, attempt)
    sim = sim_cls(**kwargs, seed=seed)
    return check_metrics(sim, sim.run())


def _worker(
    conn: Connection,
    sim_cls: type,
    kwargs: dict[str, Any],
    seed: int,
    faults: FaultPlan | None,
    attempt: int,
) -> None:
    """Worker-process entry: send ("ok", metrics) or ("error", traceback)."""
    try:
        metrics = _run_attempt(sim_cls, kwargs, seed, faults, attempt)
        conn.send((STATUS_OK, metrics))
    except BaseException:  # noqa: BLE001 — the traceback is the payload
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Job:
    """A not-yet-running trial attempt."""

    index: int
    seed: int
    attempt: int = 1
    ready_at: float = 0.0  # monotonic time before which it must not start


@dataclass
class _Running:
    """A live worker process and its receive pipe."""

    job: _Job
    proc: mp.Process
    conn: Connection
    started_at: float
    result: tuple[str, Any] | None = field(default=None)


def _check_picklable(*args: Any) -> None:
    """Fail early with a clear SpecError instead of a raw pool traceback."""
    try:
        pickle.dumps(args)
    except Exception as exc:
        raise SpecError(
            f"campaign arguments must be picklable to reach worker "
            f"processes; pickling failed with: {exc!r}"
        ) from exc


def run_trials_parallel(
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
    """Run ``sim_cls(**kwargs, seed=s).run()`` for every seed, supervised.

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
        Concurrent worker-process count; ``None``, 0, or 1 runs serially
        in-process (no pickling requirement), matching
        :func:`repro.sim.runner.run_trials` exactly — unless ``timeout``
        is set, which requires process isolation and forces at least one
        worker process.
    timeout:
        Per-trial wall-clock budget in seconds.  An attempt exceeding it
        has its worker terminated and is recorded (after any retries) as
        a ``timed-out`` :class:`~repro.sim.runner.TrialOutcome`.
    retries:
        Extra attempts per seed after a crash or timeout (bounded
        retry for transient failures).
    backoff:
        Base of the exponential retry delay: attempt ``k``'s retry waits
        ``backoff * 2**(k-1)`` seconds (the campaign keeps scheduling
        other seeds meanwhile).
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` applied before
        each attempt — the deterministic fault-injection hook used by
        the failure-path tests.
    strict:
        When True, raise :class:`~repro.errors.CampaignError` if any
        trial is not ok (after retries).  The partial results are
        attached to the exception as ``exc.result``.

    Returns the same :class:`TrialsResult` as the serial runner, with
    outcomes in seed order regardless of completion order.
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

    use_processes = (workers is not None and workers > 1) or timeout is not None
    n_procs = max(1, workers or 0) if use_processes else 0

    result = TrialsResult(seeds=seed_list)
    if not use_processes:
        for seed in seed_list:
            result.outcomes.append(
                _run_serial(sim_cls, kwargs, seed, faults, retries, backoff)
            )
    else:
        _check_picklable(sim_cls, kwargs, faults)
        outcomes = _supervise(
            sim_cls,
            kwargs,
            seed_list,
            n_procs=n_procs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            faults=faults,
        )
        result.outcomes.extend(outcomes)

    if strict:
        _raise_on_failures(result)
    return result


def _raise_on_failures(result: TrialsResult) -> None:
    """``strict=True``: raise CampaignError carrying the partial result."""
    if result.all_ok:
        return
    bad = ", ".join(f"seed {o.seed}: {o.status}" for o in result.failures)
    exc = CampaignError(
        f"{len(result.failures)} of {result.n_attempted} trials did "
        f"not complete ({bad})"
    )
    exc.result = result  # type: ignore[attr-defined]
    raise exc


def run_planned_trials_parallel(
    sim_cls: type,
    problem,
    kwargs: dict[str, Any],
    seeds: Sequence[int] | int,
    *,
    b=None,
    method: str = "auto",
    cache=None,
    warm_start: bool = True,
    **campaign_kwargs,
):
    """Plan enforced waits through the plan cache, then fan out trials.

    Campaign sweeps revisit the same ``(pipeline, tau0, D, b)`` design
    point for every seed batch; this wrapper resolves the Figure 1 plan
    once through :func:`repro.planning.warmstart.solve_plan` (exact hit
    / certified warm start / cold solve) and injects ``pipeline``,
    ``waits``, and ``deadline`` into the simulator kwargs before
    delegating to :func:`run_trials_parallel`.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.model.RealTimeProblem` to plan for.
    kwargs:
        Remaining simulator constructor arguments (``arrivals``,
        ``n_items``, ...) excluding ``pipeline``/``waits``/``deadline``,
        which this wrapper supplies.
    b, method, cache, warm_start:
        Forwarded to :func:`~repro.planning.warmstart.solve_plan`
        (``cache=None`` uses the process-wide default cache).
    campaign_kwargs:
        ``workers``/``timeout``/``retries``/``backoff``/``faults``/
        ``strict``, as in :func:`run_trials_parallel`.

    Returns ``(trials_result, plan_outcome)`` so callers can inspect
    both the campaign outcomes and the plan's provenance (cache source,
    timing, certificate).

    Raises :class:`~repro.errors.SpecError` if the design point is
    infeasible — an infeasible plan has no waits to simulate.
    """
    from repro.planning.warmstart import solve_plan

    for reserved in ("pipeline", "waits", "deadline"):
        if reserved in kwargs:
            raise SpecError(
                f"{reserved!r} is supplied by the planner; remove it "
                f"from kwargs"
            )
    outcome = solve_plan(
        problem, b, method=method, cache=cache, warm_start=warm_start
    )
    if not outcome.solution.feasible:
        raise SpecError(
            f"cannot run a planned campaign at an infeasible design point "
            f"(tau0={problem.tau0:g}, D={problem.deadline:g}): "
            f"{outcome.solution.diagnosis}"
        )
    full_kwargs = dict(
        kwargs,
        pipeline=problem.pipeline,
        waits=outcome.solution.waits,
        deadline=problem.deadline,
    )
    result = run_trials_parallel(sim_cls, full_kwargs, seeds, **campaign_kwargs)
    return result, outcome


def _run_serial(
    sim_cls: type,
    kwargs: dict[str, Any],
    seed: int,
    faults: FaultPlan | None,
    retries: int,
    backoff: float,
) -> TrialOutcome:
    """In-process execution of one seed with retry; errors are captured."""
    outcome: TrialOutcome | None = None
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            metrics = _run_attempt(sim_cls, kwargs, seed, faults, attempt)
        except Exception:
            outcome = TrialOutcome(
                seed=seed,
                status=STATUS_FAILED,
                error=traceback.format_exc(),
                attempts=attempt,
                duration=time.perf_counter() - start,
            )
            if attempt <= retries and backoff > 0:
                time.sleep(backoff * 2 ** (attempt - 1))
            continue
        return TrialOutcome(
            seed=seed,
            status=STATUS_OK,
            metrics=metrics,
            attempts=attempt,
            duration=time.perf_counter() - start,
        )
    assert outcome is not None
    return outcome


def _spawn(
    sim_cls: type,
    kwargs: dict[str, Any],
    job: _Job,
    faults: FaultPlan | None,
) -> _Running:
    recv, send = mp.Pipe(duplex=False)
    proc = mp.Process(
        target=_worker,
        args=(send, sim_cls, kwargs, job.seed, faults, job.attempt),
        daemon=True,
    )
    proc.start()
    send.close()  # the parent only reads; the child owns the send end
    return _Running(job=job, proc=proc, conn=recv, started_at=time.monotonic())


def _reap(running: _Running) -> None:
    """Terminate and clean up a worker (idempotent)."""
    if running.proc.is_alive():
        running.proc.terminate()
        running.proc.join(timeout=5.0)
        if running.proc.is_alive():  # pragma: no cover — last resort
            running.proc.kill()
            running.proc.join()
    else:
        running.proc.join()
    running.conn.close()


def _supervise(
    sim_cls: type,
    kwargs: dict[str, Any],
    seed_list: tuple[int, ...],
    *,
    n_procs: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    faults: FaultPlan | None,
) -> list[TrialOutcome]:
    """The supervisor loop: launch, collect, reap, retry."""
    pending: list[_Job] = [
        _Job(index=i, seed=s) for i, s in enumerate(seed_list)
    ]
    running: list[_Running] = []
    outcomes: dict[int, TrialOutcome] = {}

    def finish(job: _Job, status: str, *, metrics=None, error=None,
               duration: float) -> None:
        retriable = status in (STATUS_FAILED, STATUS_TIMED_OUT)
        if retriable and job.attempt <= retries:
            pending.append(
                _Job(
                    index=job.index,
                    seed=job.seed,
                    attempt=job.attempt + 1,
                    ready_at=time.monotonic()
                    + backoff * 2 ** (job.attempt - 1),
                )
            )
            return
        outcomes[job.index] = TrialOutcome(
            seed=job.seed,
            status=status,
            metrics=metrics,
            error=error,
            attempts=job.attempt,
            duration=duration,
        )

    try:
        while pending or running:
            now = time.monotonic()
            # Launch every ready job while capacity is free (lowest seed
            # index first, for reproducible scheduling).
            pending.sort(key=lambda j: (j.ready_at, j.index))
            while pending and len(running) < n_procs and pending[0].ready_at <= now:
                job = pending.pop(0)
                running.append(_spawn(sim_cls, kwargs, job, faults))
            if not running:
                # All capacity idle; sleep until the next retry is ready.
                time.sleep(max(0.0, pending[0].ready_at - now))
                continue

            # Wait for any worker to produce a result or die, but no
            # longer than the nearest timeout/retry deadline.
            wait_budget = 0.1
            if timeout is not None:
                nearest = min(r.started_at + timeout for r in running)
                wait_budget = max(0.0, min(wait_budget, nearest - now))
            mp_wait(
                [r.conn for r in running] + [r.proc.sentinel for r in running],
                timeout=wait_budget,
            )

            now = time.monotonic()
            still_running: list[_Running] = []
            for r in running:
                duration = now - r.started_at
                msg: tuple[str, Any] | None = None
                try:
                    if r.conn.poll():
                        msg = r.conn.recv()
                except (EOFError, OSError):
                    msg = None
                if msg is not None:
                    _reap(r)
                    kind, payload = msg
                    if kind == STATUS_OK:
                        finish(r.job, STATUS_OK, metrics=payload,
                               duration=duration)
                    else:
                        finish(r.job, STATUS_FAILED, error=payload,
                               duration=duration)
                elif not r.proc.is_alive():
                    # Died without reporting (hard crash, os._exit, ...).
                    _reap(r)
                    finish(
                        r.job,
                        STATUS_FAILED,
                        error=(
                            f"worker process for seed {r.job.seed} died "
                            f"without a result (exitcode "
                            f"{r.proc.exitcode})"
                        ),
                        duration=duration,
                    )
                elif timeout is not None and duration > timeout:
                    _reap(r)
                    finish(
                        r.job,
                        STATUS_TIMED_OUT,
                        error=(
                            f"trial for seed {r.job.seed} exceeded the "
                            f"per-trial timeout of {timeout}s "
                            f"(attempt {r.job.attempt})"
                        ),
                        duration=duration,
                    )
                else:
                    still_running.append(r)
            running = still_running
    finally:
        for r in running:
            _reap(r)

    return [outcomes[i] for i in range(len(seed_list))]

# -- sharded campaigns ------------------------------------------------------
#
# run_trials_parallel isolates every *seed* in its own process, which is
# the right shape for hostile workloads (timeouts, retries, crash
# containment) but pays one interpreter fork + pipe per seed.
# Calibration campaigns are the opposite regime: hundreds of small,
# trusted, deterministic trials — there, the per-seed process overhead
# dominates wall clock.  _run_shards takes a list of trial jobs
# ``(kwargs, seed)``, each with its own kwargs, splits it into one
# contiguous shard per worker, runs each shard *serially inside* its
# worker, and streams every trial's outcome back as its own message, so
# process overhead is paid once per shard and the caller can consume
# (and drop) outcomes as they arrive.  run_trials_sharded is its
# same-kwargs case; calibrate_enforced_b hands it a whole round's grid.
#
# Arrival sharing (run_trials_sharded only): each trial's arrival trace
# is a pure function of (arrival process, n_items, seed) — the
# simulators draw it from the dedicated "arrivals" RNG stream, whose
# identity is exactly ``(seed, "arrivals")``.  The parent can therefore
# pregenerate all traces into one shared-memory matrix; workers replay
# their rows through :class:`~repro.arrivals.trace.TraceArrivals`
# (whose ``generate`` returns the trace verbatim and ignores the
# generator), which is bit-identical to each worker drawing its own —
# without pickling ``n_seeds * n_items`` floats through every pipe.


def _shard_worker(
    conn: Connection,
    sim_cls: type,
    jobs: list[tuple[int, dict[str, Any], int]],
    shm_name: str | None,
    shape: tuple[int, int],
) -> None:
    """Run one shard of ``(index, kwargs, seed)`` jobs serially.

    Sends ``(index, TrialOutcome)`` per job as soon as it finishes —
    simulator errors are already captured inside the outcome by
    ``_run_serial`` — or ``(None, traceback)`` if the shard machinery
    itself breaks.
    """
    shm = None
    try:
        mat = None
        if shm_name is not None:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=shm_name)
            try:
                # Under spawn, attaching registers the segment with this
                # worker's own resource tracker, which would unlink it
                # when the first shard exits and strand the others; the
                # parent owns the segment's lifetime, so deregister.
                # Under fork(server) the tracker is *shared* with the
                # parent — deregistering there would double-remove the
                # parent's own registration.
                if mp.get_start_method() == "spawn":
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
            mat = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
        for index, kwargs, seed in jobs:
            if mat is not None:
                # Copy the row out of shared memory: the simulator may
                # hold the array past shm.close().
                kwargs = dict(
                    kwargs, arrivals=TraceArrivals(np.array(mat[index]))
                )
            conn.send(
                (index, _run_serial(sim_cls, kwargs, seed, None, 0, 0.0))
            )
    except BaseException:  # noqa: BLE001 — the traceback is the payload
        try:
            conn.send((None, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if shm is not None:
            shm.close()
        conn.close()


def run_trials_sharded(
    sim_cls: type,
    kwargs: dict[str, Any],
    seeds: Sequence[int] | int,
    *,
    workers: int | None = None,
    share_arrivals: bool = True,
    strict: bool = False,
) -> TrialsResult:
    """Fan a multi-seed campaign out to one worker process per *shard*.

    Bit-identical outcomes to :func:`run_trials_parallel` /
    :func:`repro.sim.runner.run_trials` (each seed fully determines its
    run), but the seed list is split into ``workers`` contiguous shards,
    each executed serially inside a single worker — amortizing process
    startup across the shard instead of paying it per seed.

    Parameters
    ----------
    sim_cls, kwargs, seeds:
        As in :func:`run_trials_parallel` (``kwargs`` excludes ``seed``).
    workers:
        Shard/process count; ``None`` uses ``os.cpu_count()``.  0 or 1
        (or a single seed) runs serially in-process with no pickling
        requirement.
    share_arrivals:
        When True (default) and ``kwargs`` carries both ``arrivals`` and
        a positive ``n_items``, the parent pregenerates every seed's
        arrival trace into one POSIX shared-memory matrix and workers
        replay their rows zero-copy (see the section comment above for
        the bit-identity argument).  Set False to make workers draw
        arrivals themselves (e.g. for an arrival process whose
        ``generate`` is cheaper than the shared matrix).
    strict:
        When True, raise :class:`~repro.errors.CampaignError` if any
        trial failed, with the partial results attached as
        ``exc.result``.

    Failure containment is per-seed for simulator errors (captured as
    ``failed`` outcomes inside the shard) and per-shard for process
    death (every unfinished seed of a dead shard is recorded as
    ``failed``).  For per-seed timeouts or retries, use
    :func:`run_trials_parallel`.
    """
    if "seed" in kwargs:
        raise SpecError("pass seeds via the seeds argument, not kwargs")
    seed_list = normalize_seeds(seeds)
    if workers is not None and workers < 0:
        raise SpecError(f"workers must be >= 0, got {workers}")
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_shards = min(n_workers, len(seed_list))

    n_items = kwargs.get("n_items")
    traces = None
    if (
        n_shards > 1
        and share_arrivals
        and "arrivals" in kwargs
        and isinstance(n_items, (int, np.integer))
        and n_items > 0
    ):
        arrivals = kwargs["arrivals"]
        traces = np.empty((len(seed_list), int(n_items)), dtype=np.float64)
        for i, seed in enumerate(seed_list):
            traces[i] = arrivals.generate(
                int(n_items), RngRegistry(int(seed)).stream("arrivals")
            )
        kwargs = {k: v for k, v in kwargs.items() if k != "arrivals"}

    outcomes = dict(
        _run_shards(
            sim_cls, [(kwargs, seed) for seed in seed_list], n_shards, traces
        )
    )
    result = TrialsResult(
        seeds=seed_list,
        outcomes=[outcomes[i] for i in range(len(seed_list))],
    )
    if strict:
        _raise_on_failures(result)
    return result


@dataclass
class _Shard:
    """A live shard worker, its receive pipe and its unfinished jobs."""

    proc: mp.Process
    conn: Connection
    pending: set[int]


def _run_shards(
    sim_cls: type,
    jobs: Sequence[tuple[dict[str, Any], int]],
    n_shards: int,
    traces: np.ndarray | None = None,
) -> Iterator[tuple[int, TrialOutcome]]:
    """Run trial jobs ``(kwargs, seed)`` over ``n_shards`` processes.

    Yields ``(job index, TrialOutcome)`` as each trial finishes: in job
    order when ``n_shards <= 1`` (in-process, no pickling requirement),
    in arrival order otherwise.  Each worker runs one contiguous slice
    of ``jobs`` serially; a worker that dies yields its unfinished jobs
    as ``failed``.  ``traces`` (one row per job) replaces each job's
    arrival process with its pregenerated row, shared with the workers
    through one shared-memory segment.  Closing the generator early
    terminates the workers still running.
    """
    if n_shards <= 1:
        for i, (kwargs, seed) in enumerate(jobs):
            yield i, _run_serial(sim_cls, kwargs, seed, None, 0, 0.0)
        return
    _check_picklable(sim_cls, jobs)
    shm = None
    shm_name = None
    shards: list[_Shard] = []
    try:
        if traces is not None:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=traces.nbytes)
            np.ndarray(
                traces.shape, dtype=np.float64, buffer=shm.buf
            )[:] = traces
            shm_name = shm.name
        shape = traces.shape if traces is not None else (0, 0)

        for idx in np.array_split(np.arange(len(jobs)), n_shards):
            if idx.size == 0:
                continue
            recv, send = mp.Pipe(duplex=False)
            proc = mp.Process(
                target=_shard_worker,
                args=(
                    send,
                    sim_cls,
                    [(i, *jobs[i]) for i in idx.tolist()],
                    shm_name,
                    shape,
                ),
                daemon=True,
            )
            proc.start()
            send.close()
            shards.append(_Shard(proc, recv, set(idx.tolist())))

        live = list(shards)
        while live:
            mp_wait(
                [s.conn for s in live] + [s.proc.sentinel for s in live],
                timeout=0.5,
            )
            for s in list(live):
                # Liveness first, then drain: everything a dead worker
                # sent before exiting is read before its rest is failed.
                alive = s.proc.is_alive()
                error = None
                try:
                    while s.pending and s.conn.poll():
                        index, payload = s.conn.recv()
                        if index is None:
                            error = payload
                            break
                        s.pending.discard(index)
                        yield index, payload
                except (EOFError, OSError):
                    alive = False
                if s.pending and alive and error is None:
                    continue
                if s.pending and error is None:
                    error = (
                        f"shard worker for seeds "
                        f"{[jobs[i][1] for i in sorted(s.pending)]} died "
                        f"without a result (exitcode {s.proc.exitcode})"
                    )
                for i in sorted(s.pending):
                    yield i, TrialOutcome(
                        seed=jobs[i][1],
                        status=STATUS_FAILED,
                        error=error,
                        attempts=1,
                        duration=0.0,
                    )
                s.pending.clear()
                s.proc.join()
                s.conn.close()
                live.remove(s)
    finally:
        for s in shards:
            if s.proc.is_alive():  # the consumer stopped early
                s.proc.terminate()
                s.proc.join(timeout=5.0)
            try:
                s.conn.close()
            except OSError:
                pass
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def run_planned_trials_sharded(
    sim_cls: type,
    problem,
    kwargs: dict[str, Any],
    seeds: Sequence[int] | int,
    *,
    b=None,
    method: str = "auto",
    cache=None,
    warm_start: bool = True,
    **sharded_kwargs,
):
    """Plan through the cache, then fan out via :func:`run_trials_sharded`.

    The sharded twin of :func:`run_planned_trials_parallel`: identical
    planning (one :func:`~repro.planning.warmstart.solve_plan` resolve,
    ``pipeline``/``waits``/``deadline`` injected into the kwargs) with
    the shard-per-worker execution model.  ``sharded_kwargs`` are
    ``workers``/``share_arrivals``/``strict``.  Returns
    ``(trials_result, plan_outcome)``.
    """
    from repro.planning.warmstart import solve_plan

    for reserved in ("pipeline", "waits", "deadline"):
        if reserved in kwargs:
            raise SpecError(
                f"{reserved!r} is supplied by the planner; remove it "
                f"from kwargs"
            )
    outcome = solve_plan(
        problem, b, method=method, cache=cache, warm_start=warm_start
    )
    if not outcome.solution.feasible:
        raise SpecError(
            f"cannot run a planned campaign at an infeasible design point "
            f"(tau0={problem.tau0:g}, D={problem.deadline:g}): "
            f"{outcome.solution.diagnosis}"
        )
    full_kwargs = dict(
        kwargs,
        pipeline=problem.pipeline,
        waits=outcome.solution.waits,
        deadline=problem.deadline,
    )
    result = run_trials_sharded(sim_cls, full_kwargs, seeds, **sharded_kwargs)
    return result, outcome
