"""Closed-loop measurement: one client, one instance at a time, every output checked.

An instance is timed twice: by the wall clock and by the process's CPU
clock.  The reported metrics use CPU time.  On a virtual machine whose host
is shared, the wall time of identical work swings with the time the host
takes the vCPU away (steal); the guest kernel leaves steal out of a task's
CPU time.  mvowf is single-threaded and the benchmark holds numpy's BLAS pool
at one thread, so a call's CPU time is the work it did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter, process_time

from mvowf.owf import BudgetExceededError

from workloads import Instance

MIN_BEYOND = 10  # samples a reported percentile needs above it


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank p-th percentile; refuses one with fewer than MIN_BEYOND samples above it."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def min_samples(p: float) -> int:
    """Fewest samples for which the p-th percentile has MIN_BEYOND samples above it."""
    return math.ceil(MIN_BEYOND * 100 / (100 - p))


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float  # CPU time of the call into mvowf alone
    wall_seconds: float  # wall time of the same call
    verified: bool  # False: budget exceeded, or no answer where one exists


def run_instance(inst: Instance, tracer=None) -> Outcome:
    """Time one call; WrongOutput from the check propagates and aborts the run."""
    args = inst.prepare(tracer)
    wall, cpu = perf_counter(), process_time()
    try:
        got = inst.call(*args)
    except BudgetExceededError:
        return Outcome(inst.label, process_time() - cpu, perf_counter() - wall, False)
    seconds, wall_seconds = process_time() - cpu, perf_counter() - wall
    if tracer is None:
        return Outcome(inst.label, seconds, wall_seconds, inst.check(got))
    with tracer.paused():
        verified = inst.check(got)
    if verified:
        tracer.rec.counts[f"verified.{inst.label}"] += 1
    return Outcome(inst.label, seconds, wall_seconds, verified)


def run_for(pool: list[Instance], seconds: float, at_least: int, cap: float) -> list[Outcome]:
    """Cycle through the pool until `seconds` have passed and `at_least` instances ran.

    Stops at `cap` seconds whatever the count, so a much slower program still exits.
    """
    outcomes: list[Outcome] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= cap or (elapsed >= seconds and len(outcomes) >= at_least):
            return outcomes
        outcomes.append(run_instance(pool[len(outcomes) % len(pool)]))


def run_all(pool: list[Instance], tracer=None) -> list[Outcome]:
    """Run each instance once, in order; a traced run sets the span instance id."""
    outcomes = []
    for i, inst in enumerate(pool):
        if tracer is not None:
            tracer.instance = i
        outcomes.append(run_instance(inst, tracer))
    if tracer is not None:
        tracer.instance = -1
    return outcomes
