"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
from measure import MIN_BEYOND, min_samples, percentile, run_instance  # noqa: E402
from tracer import Recording, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, Instance, WrongOutput, build  # noqa: E402

from mvowf import field, hardcore, owf  # noqa: E402
from mvowf.rng import spawn_rng  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90) == 90.0  # values 91..100 lie beyond it
    assert percentile(values, 50) == 50.0
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    assert min_samples(90) == 100
    assert min_samples(50) == 2 * MIN_BEYOND
    percentile(values[: min_samples(50)], 50)


def test_every_pool_has_ten_samples_beyond_p90():
    for workload in WORKLOADS.values():
        per_round = sum(n for _, n in workload.classes)
        assert workload.rounds * per_round >= min_samples(90)


def test_self_time_of_nested_spans():
    rec = Recording()
    a = rec.add_span("a", 0.0, 10.0, -1, 0)
    b = rec.add_span("b", 1.0, 4.0, a, 0)
    rec.add_span("c", 2.0, 3.0, b, 0)
    rec.add_span("c", 5.0, 6.5, a, 0)
    rec.add_span("a", 20.0, 21.0, -1, 1)
    assert rec.self_times() == pytest.approx({"a": 10 - 3 - 1.5 + 1, "b": 2.0, "c": 2.5})


def test_generator_spans_time_each_next():
    tracer = Tracer()
    with installed(tracer):
        tracer.instance = 7
        key = owf.keygen(2, 3, rng=spawn_rng(1, "t"))
        assert owf.is_injective(key) in (True, False)
    rec = tracer.rec
    names = [rec.names[i] for i in rec.name]
    assert "owf.iter_matchings" in names and set(rec.instance) == {7}
    assert rec.counts["owf.iter_matchings.calls"] == 1
    spans = rec.self_times()
    assert spans["owf.is_injective"] >= 0 and spans["owf.iter_matchings"] > 0


def test_rebinding_reaches_every_importing_module_and_is_undone():
    original = field.rank
    tracer = Tracer()
    with installed(tracer):
        assert owf.rank is hardcore.rank is field.rank
        assert field.rank is not original
        field.rank(((1, 0), (0, 1)), 2)
        owf.rank(((1, 1), (1, 1)), 3)
    assert owf.rank is hardcore.rank is field.rank is original
    assert tracer.rec.counts["field.rank.calls"] == 2


def test_budget_exceeded_counts_as_failed_not_a_crash():
    key = owf.keygen(2, 5, rng=spawn_rng(2, "budget"))
    image = owf.evaluate(key, field.random_invertible(5, 2, spawn_rng(3, "budget")))
    inst = Instance("budget", lambda: owf.invert_backtracking(key, image, node_budget=1), bool)
    outcome = run_instance(inst)
    assert outcome.verified is False and outcome.seconds > 0


def test_wrong_output_aborts():
    def check(got):
        raise WrongOutput("planted mismatch")

    with pytest.raises(WrongOutput):
        run_instance(Instance("wrong", lambda: 1, check))


def test_same_seed_same_instances():
    first, second = build("search", 5, 1)[:60], build("search", 5, 1)[:60]
    assert [i.call() for i in first] == [i.call() for i in second]
    assert [i.call() for i in build("search", 6, 1)[:60]] != [i.call() for i in first]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
