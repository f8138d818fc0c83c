"""Command-line front end: key generation, evaluation, inversion, reductions
and experiments, with seeded reproducibility and canonical file output.

Exit codes: 0 success, 1 computed negative answer (not isomorphic, not in
image, reduction failed, promise violated), 2 usage or input error (a bad
argument or modulus, a malformed, missing or unreadable file, a directory
given as a file), 3 search budget exceeded, 4 internal error (any other
exception, reported on stderr as "internal error: ..."), so exit 1 always
means a computed answer.

The options several subcommands share are declared once, in _OPTIONS, and
added to each subcommand by name.  The hard-core subcommands share _plant
and _hardcore_report, and each names the stats counts it prints.
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


def _bounded_int(low: int, kind: str):
    """argparse type: an integer of at least low, described as kind."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    # argparse names the type in "invalid <name> value" when int() fails
    parse.__name__ = f"_{kind.replace('-', '_')}_int"
    return parse


_OPTIONS = {
    "--q": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--k": dict(type=_bounded_int(0, "non-negative"), required=True),
    "--delta": dict(type=int, default=None),
    "--deltas": dict(required=True, help="comma-separated list"),
    "--seed": dict(type=int, required=True),
    "--budget": dict(type=_bounded_int(0, "non-negative"), default=10**6),
    "--epsilon": dict(type=float, default=None, help="predictor advantage; default perfect"),
    "--trials": dict(type=_bounded_int(1, "positive"), default=100),
    "--format": dict(choices=["json", "csv"], default="json"),
}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_formatted(args, payload, header: list[str], rows: list[list]) -> int:
    """Write payload as JSON, or header and rows as CSV under --format csv."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json_doc(payload), args.out)
    return EXIT_OK


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
    payload = [
        {
            "delta": p.delta,
            "m": p.m,
            "trials": p.trials,
            "injective": p.injective,
            "probability": round(p.probability, 6),
        }
        for p in points
    ]
    rows = [
        [p.delta, p.m, p.trials, p.injective, f"{p.probability:.6f}", f"{p.std_error:.6f}"]
        for p in points
    ]
    header = ["delta", "m", "trials", "injective", "probability", "std_error"]
    return _emit_formatted(args, payload, header, rows)


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


def _plant(args, key: OwfKey, make_truth, *truth_args, rng):
    """(M0, image, epsilon, predictor): M0 uniform in GL_n, its image under
    key, --epsilon (default 1 - 1/q, a perfect predictor) and a noisy
    predictor for make_truth(M0, *truth_args, q)."""
    m0 = random_invertible(args.n, args.q, rng)
    epsilon = args.epsilon if args.epsilon is not None else 1 - 1 / args.q
    truth = make_truth(m0, *truth_args, args.q)
    return m0, evaluate(key, m0), epsilon, make_noisy_predictor(truth, epsilon, args.q, rng)


def _hardcore_report(args, key: OwfKey, m0, epsilon, predictor, recovered, stats, *counts) -> int:
    """Write a reduction's JSON report with the stats entries named in
    counts; return exit 0 when it recovered a preimage, 1 otherwise."""
    report = {
        "q": args.q,
        "n": args.n,
        "m": key.m,
        "epsilon": epsilon,
        "recovered": recovered is not None,
        "matches_planted": recovered == m0,
        "predictor_queries": predictor.query_count,
        **{name: stats.get(name) for name in counts},
    }
    _emit(_json_doc(report), args.out)
    return EXIT_OK if recovered is not None else EXIT_NEGATIVE


def cmd_hardcore_trace(args) -> int:
    rng = spawn_rng(args.seed, "hardcore-trace")
    key = _injective_key(args.q, args.n, args.delta, rng)
    m0, image, epsilon, predictor = _plant(args, key, make_trace_truth, rng=rng)
    stats: dict = {}
    recovered = trace_invert(key, image, predictor, epsilon, rng, stats=stats)
    counts = ("invertible_queries", "singular_queries", "rounds", "candidates")
    return _hardcore_report(args, key, m0, epsilon, predictor, recovered, stats, *counts)


def cmd_hardcore_bilinear(args) -> int:
    rng = spawn_rng(args.seed, "hardcore-bilinear")
    key = keygen(args.q, args.n, delta=args.delta, rng=rng)
    a = tuple(1 if i == 0 else 0 for i in range(args.n))
    b = tuple(1 if i == min(1, args.n - 1) else 0 for i in range(args.n))
    m0, image, epsilon, predictor = _plant(args, key, make_bilinear_truth, a, b, rng=rng)
    stats: dict = {}
    recovered = bilinear_invert(
        key, image, predictor, a, b, epsilon, rng, assignment_budget=args.budget, stats=stats
    )
    counts = ("t_queries", "assignments_tried")
    code = _hardcore_report(args, key, m0, epsilon, predictor, recovered, stats, *counts)
    return EXIT_BUDGET if stats.get("budget_exhausted") else code


def cmd_perm_stats(args) -> int:
    coeffs = [int(c) for c in transposition_poly_product(args.k)]
    payload = {"k": args.k, "coefficients": coeffs}
    return _emit_formatted(args, payload, ["degree", "coefficient"], list(enumerate(coeffs)))


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
    return _emit_formatted(args, payload, list(payload), [list(payload.values())])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvowf",
        description="Sorted-multiset matrix one-way function: evaluation, inversion oracles, reductions, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = globals()  # cmd_* looked up when the parser is built, as tests may replace one

    def add(name, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=commands["cmd_" + name.replace("-", "_")])
        p.add_argument("--out", help="write output to this file instead of stdout")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        return p

    add("keygen", "sample a fresh key", "--q", "--n", "--delta", "--seed")

    p = add("eval", "evaluate the function at a matrix")
    p.add_argument("key", help="instance JSON file holding the key")
    p.add_argument("matrix", help="text file, one row of digits per line")

    p = add("invert", "search for a preimage of the instance's W", "--budget")
    p.add_argument("instance", help="instance JSON file holding V and W")

    add("injectivity", "empirical injectivity probability per delta",
        "--q", "--n", "--deltas", "--trials", "--seed", "--format")

    p = add("gi-encode", "encode a graph as a key instance", "--q")
    p.add_argument("graph")

    p = add("gi-solve", "decide isomorphism via the matrix search", "--q")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--seed", type=int, default=None, help="accepted for uniformity; search is deterministic")
    p.add_argument("--budget", **_OPTIONS["--budget"])

    add("hsp-check", "verify the hidden-subgroup promise exhaustively", "--q", "--n", "--delta", "--seed")
    add("hardcore-trace", "run the trace-predicate inversion reduction",
        "--q", "--n", "--delta", "--epsilon", "--seed")
    add("hardcore-bilinear", "run the bilinear-predicate inversion reduction",
        "--q", "--n", "--delta", "--epsilon", "--budget", "--seed")
    add("perm-stats", "transposition-count polynomial coefficients", "--k", "--format")
    add("ig-stats", "signature-preserving shuffle experiment",
        "--n", "--m", "--q", "--trials", "--seed", "--format")

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
