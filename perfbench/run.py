"""mvowf benchmark: run one seeded workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (see README.md in this directory).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A wrong output aborts the run with exit code 1; a missing mvowf source tree
exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("search", "reduce")
# One client in one process: numpy's BLAS pool stays at one thread (nproc = 2 here).
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
LOOP_CAP_S = 120.0

# Times are CPU time, which leaves out the host's steal (see measure.py).
END_TO_END = (
    ("throughput_per_cpu_s", "1/s"),
    ("cpu_latency_p50_ms", "ms"),
    ("cpu_latency_p90_ms", "ms"),
    ("verified_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("field.rank.calls", "count"),
    ("field.rank.self_s", "s"),
    ("field.mat_vec.calls", "count"),
    ("field.mat_vec.self_s", "s"),
    ("field.mat_mul.calls", "count"),
    ("field.mat_mul.self_s", "s"),
    ("field.mat_inverse.calls", "count"),
    ("field.mat_inverse.self_s", "s"),
    ("field.solve_linear.calls", "count"),
    ("field.solve_linear.self_s", "s"),
    ("field.solve_linear_invertible.calls", "count"),
    ("field.solve_linear_invertible.self_s", "s"),
    ("field.scalar_inv.calls", "count"),
    ("field.random_invertible_mapping.calls", "count"),
    ("field.random_invertible_mapping.self_s", "s"),
    ("field.enumerate_invertible.self_s", "s"),
    ("owf.iter_matchings.calls", "count"),
    ("owf.iter_matchings.self_s", "s"),
    ("owf.iter_matchings.yields", "count"),
    ("owf.evaluate.calls", "count"),
    ("owf.evaluate.self_s", "s"),
    ("owf.transform_image.calls", "count"),
    ("owf.transform_image.self_s", "s"),
    ("owf.keygen.self_s", "s"),
    ("owf.budget_exceeded.count", "count"),
    ("graphs.decide_isomorphic.calls", "count"),
    ("graphs.decide_isomorphic.self_s", "s"),
    ("graphs.extract_isomorphism.self_s", "s"),
    ("graphs.brute_force_iso.self_s", "s"),
    ("wreath.verify_hsp_promise.calls", "count"),
    ("wreath.verify_hsp_promise.self_s", "s"),
    ("wreath.wreath_mul.calls", "count"),
    ("wreath.wreath_mul.self_s", "s"),
    ("wreath.make_hsp_oracle.self_s", "s"),
    ("hardcore.goldreich_levin_f2.calls", "count"),
    ("hardcore.goldreich_levin_f2.self_s", "s"),
    ("hardcore.goldreich_levin_f2.candidates", "count"),
    ("hardcore.gl.oracle_calls", "count"),
    ("hardcore.gl_decode_exhaustive.calls", "count"),
    ("hardcore.gl_decode_exhaustive.self_s", "s"),
    ("hardcore.Predictor.query.calls", "count"),
    ("hardcore.Predictor.query.self_s", "s"),
    ("hardcore.predictor.memo_hit_ratio", "ratio"),
    ("hardcore.trace.invertible_queries", "count"),
    ("hardcore.trace.singular_queries", "count"),
    ("hardcore.trace.rounds", "count"),
    ("hardcore.trace.candidates", "count"),
    ("hardcore.trace.verified_per_candidate", "ratio"),
    ("hardcore.bilinear.t_queries", "count"),
    ("hardcore.bilinear.assignments_tried", "count"),
    ("hardcore.trace_invert.self_s", "s"),
    ("hardcore.bilinear_invert.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# Called only while instances are generated, so read from the set-up phase.
SETUP_SPANS = {"owf.keygen", "graphs.brute_force_iso"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setups(args) -> list[float]:
    """CPU time of fresh processes that import mvowf and generate the pool."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = cpu_of_children()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(cpu_of_children() - start)
    return samples


def end_to_end(args) -> tuple[dict, list]:
    from measure import min_samples, percentile, run_for
    from workloads import WORKLOADS, build

    setups = timed_setups(args)
    pool = build(args.workload, args.seed, WORKLOADS[args.workload].rounds)
    gc.collect()
    outcomes = run_for(pool, args.seconds, min_samples(90), LOOP_CAP_S)
    ms = [o.seconds * 1e3 for o in outcomes]
    verified = sum(o.verified for o in outcomes)
    cpu_s = sum(o.seconds for o in outcomes)
    metrics = {
        "throughput_per_cpu_s": verified / cpu_s,
        "cpu_latency_p50_ms": percentile(ms, 50),
        "cpu_latency_p90_ms": percentile(ms, 90),
        "verified_frac": verified / len(outcomes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup CPU samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"timed calls: {len(outcomes)} over a pool of {len(pool)} ({len(outcomes) / len(pool):.2f} passes), "
          f"{cpu_s:.3f} CPU s in {sum(o.wall_seconds for o in outcomes):.3f} wall s")
    return metrics, outcomes


def layer_metrics(setup, timed) -> dict:
    """Per-layer metrics of one traced repeat, without the tracing overhead."""
    counts = timed.total_counts()
    self_s = timed.self_times()
    setup_self_s = setup.self_times()
    verified_traces = sum(v for k, v in counts.items() if k.startswith("verified.trace-"))
    queries = counts["hardcore.Predictor.query.calls"]
    candidates = counts["hardcore.trace.candidates"]
    out = {
        "hardcore.predictor.memo_hit_ratio":
            1 - counts["hardcore.predictor.truth_evals"] / queries if queries else 0.0,
        "hardcore.trace.verified_per_candidate": verified_traces / candidates if candidates else 0.0,
    }
    for name, unit in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = (setup_self_s if span in SETUP_SPANS else self_s).get(span, 0.0)
        else:
            out[name] = counts[name]
    return out


def traced(args) -> tuple[dict, list, bool]:
    from measure import run_all
    from tracer import Recording, Tracer, installed
    from workloads import WORKLOADS, build

    rounds = WORKLOADS[args.workload].trace_rounds
    plain = build(args.workload, args.seed, rounds)
    untraced_s = [sum(o.seconds for o in run_all(plain))]
    tracer = Tracer()
    repeats = []
    with installed(tracer):
        for _ in range(2):  # the second repeat checks that every count repeats exactly
            setup = tracer.rec = Recording()
            pool = build(args.workload, args.seed, rounds)
            timed = tracer.rec = Recording()
            outcomes = run_all(pool, tracer)
            repeats.append((layer_metrics(setup, timed), outcomes, timed))
    # untraced passes before and after the traced ones, so warm-up favours neither side
    untraced_s.append(sum(o.seconds for o in run_all(plain)))
    (first, outcomes, spans), (second, again, _) = repeats
    OUT.mkdir(exist_ok=True)
    spans.save(OUT / f"spans-{args.workload}.npz")

    traced_s = statistics.mean(sum(o.seconds for o in r[1]) for r in repeats)
    overhead_s = traced_s - statistics.mean(untraced_s)
    first["trace.overhead_s"] = overhead_s
    first["trace.overhead_frac"] = overhead_s / statistics.mean(untraced_s)
    mismatched = [
        name for name, unit in PER_LAYER if unit == "count" and first[name] != second[name]
    ]
    if [o.verified for o in outcomes] != [o.verified for o in again]:
        mismatched.append("failed")
    for name in mismatched:
        print(f"count mismatch between two traced repeats: {name}", file=sys.stderr)
    print(f"traced instances: {len(outcomes)}; untraced passes "
          f"{', '.join(f'{s:.3f}' for s in untraced_s)} s, traced {traced_s:.3f} s; "
          f"spans in {OUT.name}/spans-{args.workload}.npz")
    return {name: first[name] for name, _ in PER_LAYER}, outcomes, not mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvowf" / "__init__.py").is_file():
        print(f"no mvowf source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, WrongOutput, build

    if args.setup_only:
        build(args.workload, args.seed, WORKLOADS[args.workload].rounds)
        return 0
    try:
        if args.trace:
            metrics, outcomes, correct = traced(args)
            units = dict(PER_LAYER)
        else:
            metrics, outcomes = end_to_end(args)
            correct = True
            units = dict(END_TO_END)
    except WrongOutput as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1

    failed = sum(not o.verified for o in outcomes)
    per_class: dict[str, list] = {}
    for o in outcomes:
        per_class.setdefault(o.label, []).append(o)
    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} calls, "
          f"{failed} failed (failed_frac {failed / len(outcomes):.4f})")
    for label, group in per_class.items():
        mean_ms = 1e3 * statistics.mean(o.seconds for o in group)
        print(f"  {label}: {len(group)} calls, {sum(not o.verified for o in group)} failed, "
              f"mean {mean_ms:.2f} ms")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
