"""Command-line front end: key generation, evaluation, inversion, reductions
and experiments, with seeded reproducibility and canonical file output.

Exit codes: 0 success, 1 computed negative answer (not isomorphic, not in
image, reduction failed, promise violated), 2 usage or input error (a bad
argument or modulus, a malformed, missing or unreadable file, a directory
given as a file), 3 search budget exceeded, 4 internal error (any other
exception, reported on stderr as "internal error: ..."), so exit 1 always
means a computed answer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .field import random_invertible
from .formats import (
    dump_instance,
    matrix_to_text,
    parse_graph,
    parse_instance,
    parse_matrix,
    permutation_to_text,
)
from .graphs import decide_isomorphic, encode_graph
from .hardcore import (
    bilinear_invert,
    make_bilinear_truth,
    make_noisy_predictor,
    make_trace_truth,
    trace_invert,
)
from .owf import (
    BudgetExceededError,
    OwfKey,
    evaluate,
    injectivity_experiment,
    invert_backtracking,
    is_injective,
    keygen,
)
from .permstats import signature_ambiguity_experiment, transposition_poly_product
from .rng import spawn_rng
from .wreath import make_hsp_oracle, verify_hsp_promise

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_doc(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _injective_key(q: int, n: int, delta: int | None, rng) -> OwfKey:
    for _ in range(1000):
        key = keygen(q, n, delta=delta, rng=rng)
        if is_injective(key):
            return key
    raise ValueError(f"no injective key found at q={q}, n={n}; raise delta")


def cmd_keygen(args) -> int:
    key = keygen(args.q, args.n, delta=args.delta, seed=args.seed)
    _emit(dump_instance(key), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    key, _ = parse_instance(Path(args.key).read_text())
    matrix = parse_matrix(Path(args.matrix).read_text(), key.q)
    _emit(dump_instance(key, evaluate(key, matrix)), args.out)
    return EXIT_OK


def cmd_invert(args) -> int:
    key, image = parse_instance(Path(args.instance).read_text())
    if image is None:
        print("error: instance file has no image W to invert", file=sys.stderr)
        return EXIT_USAGE
    matrix = invert_backtracking(key, image, node_budget=args.budget)
    if matrix is None:
        print("not in image", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(matrix_to_text(matrix), args.out)
    return EXIT_OK


def cmd_injectivity(args) -> int:
    deltas = [int(d) for d in args.deltas.split(",")]
    points = injectivity_experiment(args.q, args.n, deltas, args.trials, args.seed)
    if args.format == "csv":
        doc = _csv_doc(
            ["delta", "m", "trials", "injective", "probability", "std_error"],
            [
                [p.delta, p.m, p.trials, p.injective, f"{p.probability:.6f}", f"{p.std_error:.6f}"]
                for p in points
            ],
        )
    else:
        doc = _json_doc(
            [
                {
                    "delta": p.delta,
                    "m": p.m,
                    "trials": p.trials,
                    "injective": p.injective,
                    "probability": round(p.probability, 6),
                }
                for p in points
            ]
        )
    _emit(doc, args.out)
    return EXIT_OK


def cmd_gi_encode(args) -> int:
    graph = parse_graph(Path(args.graph).read_text())
    vectors = encode_graph(graph, args.q)
    key = OwfKey(q=args.q, n=graph.n_vertices, vectors=vectors)
    _emit(dump_instance(key), args.out)
    return EXIT_OK


def cmd_gi_solve(args) -> int:
    g1 = parse_graph(Path(args.graph1).read_text())
    g2 = parse_graph(Path(args.graph2).read_text())
    pi = decide_isomorphic(g1, g2, args.q, node_budget=args.budget)
    if pi is None:
        print("non-isomorphic", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(permutation_to_text(pi) + "\n", args.out)
    return EXIT_OK


def cmd_hsp_check(args) -> int:
    rng = spawn_rng(args.seed, "hsp")
    key = _injective_key(args.q, args.n, args.delta, rng)
    matrix = random_invertible(args.n, args.q, rng)
    instance = make_hsp_oracle(key, matrix)
    holds = verify_hsp_promise(instance, args.n, args.q)
    _emit(_json_doc({"q": args.q, "n": args.n, "m": key.m, "promise_holds": holds}), args.out)
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_hardcore_trace(args) -> int:
    rng = spawn_rng(args.seed, "hardcore-trace")
    q = args.q
    key = _injective_key(q, args.n, args.delta, rng)
    m0 = random_invertible(args.n, q, rng)
    image = evaluate(key, m0)
    epsilon = args.epsilon if args.epsilon is not None else 1 - 1 / q
    predictor = make_noisy_predictor(make_trace_truth(m0, q), epsilon, q, rng)
    stats: dict = {}
    recovered = trace_invert(key, image, predictor, epsilon, rng, stats=stats)
    report = {
        "q": q,
        "n": args.n,
        "m": key.m,
        "epsilon": epsilon,
        "recovered": recovered is not None,
        "matches_planted": recovered == m0,
        "predictor_queries": predictor.query_count,
        **stats,
    }
    _emit(_json_doc(report), args.out)
    return EXIT_OK if recovered is not None else EXIT_NEGATIVE


def cmd_hardcore_bilinear(args) -> int:
    rng = spawn_rng(args.seed, "hardcore-bilinear")
    q = args.q
    key = keygen(q, args.n, delta=args.delta, rng=rng)
    m0 = random_invertible(args.n, q, rng)
    image = evaluate(key, m0)
    a = tuple(1 if i == 0 else 0 for i in range(args.n))
    b = tuple(1 if i == min(1, args.n - 1) else 0 for i in range(args.n))
    epsilon = args.epsilon if args.epsilon is not None else 1 - 1 / q
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, q), epsilon, q, rng)
    stats: dict = {}
    recovered = bilinear_invert(
        key, image, predictor, a, b, epsilon, rng, assignment_budget=args.budget, stats=stats
    )
    report = {
        "q": q,
        "n": args.n,
        "m": key.m,
        "epsilon": epsilon,
        "recovered": recovered is not None,
        "matches_planted": recovered == m0,
        "predictor_queries": predictor.query_count,
        "t_queries": stats.get("t_queries"),
        "assignments_tried": stats.get("assignments_tried"),
    }
    _emit(_json_doc(report), args.out)
    if stats.get("budget_exhausted"):
        return EXIT_BUDGET
    return EXIT_OK if recovered is not None else EXIT_NEGATIVE


def cmd_perm_stats(args) -> int:
    coeffs = [int(c) for c in transposition_poly_product(args.k)]
    if args.format == "csv":
        doc = _csv_doc(["degree", "coefficient"], list(enumerate(coeffs)))
    else:
        doc = _json_doc({"k": args.k, "coefficients": coeffs})
    _emit(doc, args.out)
    return EXIT_OK


def cmd_ig_stats(args) -> int:
    summary = signature_ambiguity_experiment(args.n, args.m, args.q, args.trials, args.seed)
    payload = {
        "n": summary.n,
        "m": summary.m,
        "q": summary.q,
        "trials": summary.trials,
        "mean": round(summary.mean, 6),
        "max": summary.max,
        "mean_over_sqrt_m": round(summary.mean_over_sqrt_m, 6),
    }
    if args.format == "csv":
        doc = _csv_doc(list(payload), [list(payload.values())])
    else:
        doc = _json_doc(payload)
    _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvowf",
        description="Sorted-multiset matrix one-way function: evaluation, inversion oracles, reductions, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("keygen", cmd_keygen, "sample a fresh key")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)

    p = add("eval", cmd_eval, "evaluate the function at a matrix")
    p.add_argument("key", help="instance JSON file holding the key")
    p.add_argument("matrix", help="text file, one row of digits per line")

    p = add("invert", cmd_invert, "search for a preimage of the instance's W")
    p.add_argument("instance", help="instance JSON file holding V and W")
    p.add_argument("--budget", type=_non_negative_int, default=10**6)

    p = add("injectivity", cmd_injectivity, "empirical injectivity probability per delta")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deltas", required=True, help="comma-separated list")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("gi-encode", cmd_gi_encode, "encode a graph as a key instance")
    p.add_argument("graph")
    p.add_argument("--q", type=int, required=True)

    p = add("gi-solve", cmd_gi_solve, "decide isomorphism via the matrix search")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="accepted for uniformity; search is deterministic")
    p.add_argument("--budget", type=_non_negative_int, default=10**6)

    p = add("hsp-check", cmd_hsp_check, "verify the hidden-subgroup promise exhaustively")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)

    p = add("hardcore-trace", cmd_hardcore_trace, "run the trace-predicate inversion reduction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None, help="predictor advantage; default perfect")
    p.add_argument("--seed", type=int, required=True)

    p = add("hardcore-bilinear", cmd_hardcore_bilinear, "run the bilinear-predicate inversion reduction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--budget", type=_non_negative_int, default=10**6)
    p.add_argument("--seed", type=int, required=True)

    p = add("perm-stats", cmd_perm_stats, "transposition-count polynomial coefficients")
    p.add_argument("--k", type=_non_negative_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("ig-stats", cmd_ig_stats, "signature-preserving shuffle experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as e:  # FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
