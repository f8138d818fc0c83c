"""Seeded instances for the two benchmark workloads, and their output checks.

A workload is a fixed round of instance classes, repeated.  Instance i of
class c is generated from spawn_rng(seed, workload, c, i) during set-up, so
the timed phase only hands mvowf inputs that already exist.  Every call into
mvowf goes through a module attribute (`owf.evaluate`, not a bare name), so
the tracer's rebinding sees the benchmark's own calls too.

Why these workloads (costs on 2 CPUs, Python 3.11, numpy 2.4):
- search: the matching engine and the brute-force oracles.  Planted
  inversion (criterion 01 scaled up to q = 2 n = 4, q = 3 n = 3 and
  q = 5 n = 3) stops at the first witness; injectivity of fresh keys over a
  spread of delta and graph isomorphism of relabelled copies and of
  same-size other graphs finish the whole tree, so a pruning or ordering
  change that helps inversion but costs full enumeration shows in the same
  workload.  invert_exhaustive scans GL_n and verify_hsp_promise scans
  GL_2(F_2) wr Z_2 and GL_2(F_3) wr Z_2, where evaluate and
  enumerate_invertible do the work.  No decoder runs: no-change workload
  for decoder work.
- reduce: hard-core reductions with simulated predictors; time goes to the
  list decoders, Predictor.query, transform_image and field.rank.  The
  matching engine never runs: no-change workload for engine work.  The
  bilinear reduction runs with a perfect predictor only; at eps = 0.2 it
  recovers the preimage in about half the instances.

There are two workloads, not more, so that each run can be long: on a
shared host the speed of identical work wanders by 10 to 30% over tens of
seconds, and only a run that spans several such spells averages them out.

Every instance stays short (a millisecond for the searches, at most about
0.2 s for the oracles and reductions), so a run holds thousands of calls
and neither one costly instance nor one slow spell of the host moves a
figure much.  So the searches stay at sizes where one instance costs about
a millisecond; the cost is heavy-tailed, and its variance grows with the
size: mean x cv^2 is about 1 ms at q = 2 n = 4 but 120 ms at q = 2 n = 5
(one instance in 600 took 0.86 s) and 34 ms at q = 3 n = 4.  For the same
reason reduce leaves out trace_invert at q = 2 n = 3 (0.6 to 0.9 s an
instance) and runs goldreich_levin_f2 at k = 20 with eps = 0.25 (about
0.15 s) rather than eps = 0.15 (1.0 to 1.4 s).  trace_invert gets 8 rounds
instead of its default 4: with 4, about one q = 3 instance in 600 found no
preimage.

The rounds put p50 and p90 inside a class rather than between two, where
the density of latencies is high and the percentile steadier: in reduce p50
falls inside the trace q = 3 class (more than eight in ten instances, all
cheaper than the rest) and p90 inside the bilinear class; in search p90
falls inside the hidden-subgroup check on GL_2(F_2) wr Z_2, which scans the
whole group, so its cost varies less than twofold between keys.  The
exhaustive inversions stop at the planted matrix, so their cost is spread
evenly over a range of twenty to one; with p90 among them, the quartiles
of five seeds lay 15% of the median apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from mvowf import field, graphs, hardcore, owf, wreath
from mvowf.rng import make_rng, spawn_rng


class WrongOutput(Exception):
    """A result the program returned is wrong, as opposed to missing."""


@dataclass(frozen=True)
class Instance:
    label: str
    call: Callable[..., object]  # the timed call into mvowf's public API
    check: Callable[[object], bool]  # True verified, False a miss; raises WrongOutput
    prepare: Callable[[object], tuple] = lambda tracer: ()  # untimed per-attempt inputs


@dataclass(frozen=True)
class InstanceClass:
    label: str
    make: Callable[[Random], Instance]  # set-up: draws one instance from its rng


def _check_preimage(key, image, got) -> bool:
    if got is None:
        return False
    try:
        ok = owf.evaluate(key, got) == image
    except ValueError as exc:  # wrong shape or singular
        raise WrongOutput(f"returned matrix is not in GL_n: {exc}") from exc
    if not ok:
        raise WrongOutput("returned matrix does not map the key onto the image")
    return True


# -- instance classes: each maps a set-up rng to an Instance ------------------


def invert(q: int, n: int) -> InstanceClass:
    label = f"invert-q{q}n{n}"

    def make(rng):
        key = owf.keygen(q, n, rng=rng)
        image = owf.evaluate(key, field.random_invertible(n, q, rng))
        return Instance(
            label,
            lambda: owf.invert_backtracking(key, image),
            lambda got: _check_preimage(key, image, got),
        )

    return InstanceClass(label, make)


def injectivity(q: int, n: int, delta: int | None) -> InstanceClass:
    label = f"inj-q{q}n{n}-d{'default' if delta is None else delta}"

    def make(rng):
        key = owf.keygen(q, n, delta=delta, rng=rng)

        def check(injective: bool) -> bool:
            if injective:
                if field.rank(key.vectors, q) < n:
                    raise WrongOutput("injective answer for a key that does not span")
                return True
            ident = field.identity(n)
            fixed = owf.evaluate(key, ident)
            for w in owf.consistent_permutations(key, cap=2).witnesses:
                if w.matrix != ident and owf.evaluate(key, w.matrix) == fixed:
                    return True
            raise WrongOutput("non-injective answer without a witness K != I")

        return Instance(label, lambda: owf.is_injective(key), check)

    return InstanceClass(label, make)


def random_graph(n: int, rng) -> graphs.SimpleGraph:
    return graphs.SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    )


def isomorphism(q: int, n: int, copy: bool) -> InstanceClass:
    """Pairs of a random graph and a relabelled copy, or another graph of the same size."""
    label = f"gi-q{q}n{n}-{'copy' if copy else 'other'}"

    def make(rng):
        g1 = random_graph(n, rng)
        if copy:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g1.edges]
        else:
            edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], g1.n_edges)
        g2 = graphs.SimpleGraph.from_edges(n, edges)
        isomorphic = graphs.brute_force_iso(g1, g2) is not None

        def check(pi) -> bool:
            if pi is None:
                return not isomorphic
            if not graphs.is_isomorphism(pi, g1, g2):
                raise WrongOutput(f"{pi} is not an isomorphism")
            return True

        return Instance(
            label,
            lambda: graphs.decide_isomorphic(g1, g2, q),
            check,
        )

    return InstanceClass(label, make)


def _injective_key(q: int, n: int, rng):
    while True:
        key = owf.keygen(q, n, rng=rng)
        if owf.is_injective(key):
            return key


def exhaustive_inversion(q: int, n: int) -> InstanceClass:
    label = f"exhaustive-q{q}n{n}"

    def make(rng):
        key = _injective_key(q, n, rng)
        m = field.random_invertible(n, q, rng)
        image = owf.evaluate(key, m)

        def check(got) -> bool:
            if got is None:
                return False
            if got != m:
                raise WrongOutput("exhaustive inversion missed the planted matrix of an injective key")
            return True

        return Instance(label, lambda: owf.invert_exhaustive(key, image), check)

    return InstanceClass(label, make)


def hsp_promise(q: int, n: int) -> InstanceClass:
    label = f"hsp-q{q}n{n}"

    def make(rng):
        key = _injective_key(q, n, rng)
        m = field.random_invertible(n, q, rng)

        def call():
            return wreath.verify_hsp_promise(wreath.make_hsp_oracle(key, m), n, q)

        def check(holds: bool) -> bool:
            if not holds:
                raise WrongOutput("hidden subgroup promise fails for an injective key")
            return True

        return Instance(label, call, check)

    return InstanceClass(label, make)


def _predictor_inputs(truth, epsilon: float, q: int, run_seed: int, stats_prefix: str):
    """Per-attempt (predictor, rng, stats): fresh memo and noise on every attempt."""

    def prepare(tracer):
        rng = make_rng(run_seed)
        counted = truth if tracer is None else tracer.counted(truth, "hardcore.predictor.truth_evals")
        stats = None if tracer is None else tracer.rec.stats_dict(stats_prefix)
        return hardcore.make_noisy_predictor(counted, epsilon, q, rng), rng, stats

    return prepare


def trace_reduction(q: int, n: int, epsilon: float, rounds: int) -> InstanceClass:
    label = f"trace-q{q}n{n}"

    def make(rng):
        # injective keys only: otherwise distinct queries can share one
        # transformed image, and the memoized predictor answers them alike
        key = _injective_key(q, n, rng)
        m0 = field.random_invertible(n, q, rng)
        image = owf.evaluate(key, m0)
        truth = hardcore.make_trace_truth(m0, q)
        return Instance(
            label,
            lambda predictor, r, stats: hardcore.trace_invert(
                key, image, predictor, epsilon, r, rounds=rounds, stats=stats
            ),
            lambda got: _check_preimage(key, image, got),
            _predictor_inputs(truth, epsilon, q, rng.getrandbits(64), "hardcore.trace"),
        )

    return InstanceClass(label, make)


def bilinear_reduction(q: int, n: int, delta: int, epsilon: float) -> InstanceClass:
    label = f"bilinear-q{q}n{n}"
    a = (1,) + (0,) * (n - 1)
    b = (0, 1) + (0,) * (n - 2)

    def make(rng):
        key = owf.keygen(q, n, delta=delta, rng=rng)
        m0 = field.random_invertible(n, q, rng)
        image = owf.evaluate(key, m0)
        truth = hardcore.make_bilinear_truth(m0, a, b, q)
        return Instance(
            label,
            lambda predictor, r, stats: hardcore.bilinear_invert(
                key, image, predictor, a, b, epsilon, r, stats=stats
            ),
            lambda got: _check_preimage(key, image, got),
            _predictor_inputs(truth, epsilon, q, rng.getrandbits(64), "hardcore.bilinear"),
        )

    return InstanceClass(label, make)


def list_decoding(k: int, epsilon: float) -> InstanceClass:
    """Goldreich-Levin on a linear form answered right with probability 1/2 + epsilon."""
    label = f"gl-k{k}"

    def make(rng):
        h = tuple(rng.randrange(2) for _ in range(k))
        run_seed = rng.getrandbits(64)

        def prepare(tracer):
            r = make_rng(run_seed)

            def noisy(x):
                value = sum(a * b for a, b in zip(x, h)) % 2
                return value if r.random() < 0.5 + epsilon else 1 - value

            return noisy, r

        return Instance(
            label,
            lambda oracle, r: hardcore.goldreich_levin_f2(oracle, k, epsilon, r),
            lambda found: h in found,
            prepare,
        )

    return InstanceClass(label, make)


@dataclass(frozen=True)
class Workload:
    classes: tuple[tuple[InstanceClass, int], ...]  # (class, instances per round)
    rounds: int  # rounds in the pool the timed loop cycles through
    trace_rounds: int  # rounds in the fixed prefix a traced run measures


WORKLOADS = {
    "search": Workload(
        (
            (invert(2, 4), 64),
            (invert(3, 3), 64),
            (invert(5, 3), 64),
            (injectivity(2, 4, 2), 32),
            (injectivity(2, 4, 4), 32),
            (injectivity(2, 4, None), 32),
            (injectivity(3, 3, 2), 32),
            (injectivity(3, 3, 3), 32),
            (injectivity(3, 3, None), 32),
            (isomorphism(2, 4, copy=True), 32),
            (isomorphism(2, 4, copy=False), 32),
            (isomorphism(3, 4, copy=True), 32),
            (isomorphism(3, 4, copy=False), 32),
            (exhaustive_inversion(2, 3), 16),
            (exhaustive_inversion(3, 2), 64),
            (exhaustive_inversion(5, 2), 16),
            (hsp_promise(2, 2), 80),
            (hsp_promise(3, 2), 1),
        ),
        rounds=5,
        trace_rounds=2,
    ),
    "reduce": Workload(
        (
            (list_decoding(20, 0.25), 1),
            (trace_reduction(2, 2, 0.5, rounds=8), 1),
            (trace_reduction(3, 2, 0.5, rounds=8), 42),
            (bilinear_reduction(2, 4, 4, 0.5), 6),
        ),
        rounds=20,
        trace_rounds=2,
    ),
}


def round_order(classes) -> list[tuple[InstanceClass, int]]:
    """One round as (class, index within round), each class spread evenly over it.

    A run stops on a clock, mid-pass; spreading the classes keeps the mix of
    any prefix close to the round's, so the cut does not shift percentiles.
    """
    slots = [((j + 0.5) / per_round, c, j) for c, (_, per_round) in enumerate(classes) for j in range(per_round)]
    return [(classes[c][0], j) for _, c, j in sorted(slots)]


def build(name: str, seed: int, rounds: int) -> list[Instance]:
    """The first `rounds` rounds of a workload's pool."""
    workload = WORKLOADS[name]
    per_round = {cls.label: n for cls, n in workload.classes}
    order = round_order(workload.classes)
    return [
        cls.make(spawn_rng(seed, name, cls.label, r * per_round[cls.label] + j))
        for r in range(rounds)
        for cls, j in order
    ]
