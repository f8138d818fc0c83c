"""On-disk formats: JSON instances, text matrices, edge-list graphs.

All emissions are canonical (sorted keys, fixed separators, trailing
newline) so reruns with the same seed reproduce files byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Sequence

from .field import Matrix, Vector, is_prime
from .graphs import SimpleGraph
from .owf import OwfImage, OwfKey

INSTANCE_SCHEMA = "mvowf/instance-v1"


class FormatError(ValueError):
    """Malformed input file; message carries the offending location."""


def _parse_vector(text: str, n: int, q: int, where: str) -> Vector:
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a string of entries, got {type(text).__name__}")
    parts = text.split()
    if len(parts) != n:
        raise FormatError(f"{where}: expected {n} entries, got {len(parts)}")
    out = []
    for i, p in enumerate(parts):
        try:
            e = int(p)
        except ValueError:
            raise FormatError(f"{where}: entry {i} is not an integer: {p!r}") from None
        if not 0 <= e < q:
            raise FormatError(f"{where}: entry {e} out of range for q = {q}")
        out.append(e)
    return tuple(out)


def _content_lines(text: str) -> list[str]:
    """The lines that are neither blank nor comments (first non-space character #)."""
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def vector_to_text(v: Vector) -> str:
    return " ".join(str(e) for e in v)


def matrix_to_text(m: Matrix) -> str:
    return "\n".join(vector_to_text(row) for row in m) + "\n"


def parse_matrix(text: str, q: int) -> Matrix:
    rows = []
    lines = _content_lines(text)
    if not lines:
        raise FormatError("matrix file is empty")
    width = len(lines[0].split())
    for ln_no, ln in enumerate(lines):
        rows.append(_parse_vector(ln, width, q, f"matrix line {ln_no + 1}"))
    return tuple(rows)


def _check_n(n) -> None:
    # the writer checks what the reader checks, so no written instance is unreadable
    if not isinstance(n, int) or n < 1:
        raise FormatError(f"n must be a positive integer, got {n!r}")


def instance_to_dict(key: OwfKey, image: OwfImage | None = None) -> dict:
    _check_n(key.n)
    doc = {
        "schema": INSTANCE_SCHEMA,
        "q": key.q,
        "n": key.n,
        "m": key.m,
        "seed": key.seed,
        "V": [vector_to_text(v) for v in key.vectors],
    }
    if image is not None:
        doc["W"] = [vector_to_text(w) for w in image.vectors]
    return doc


def dump_instance(key: OwfKey, image: OwfImage | None = None) -> str:
    return json.dumps(instance_to_dict(key, image), sort_keys=True, indent=2) + "\n"


def parse_instance(text: str) -> tuple[OwfKey, OwfImage | None]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise FormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != INSTANCE_SCHEMA:
        raise FormatError(f"missing or unknown schema (expected {INSTANCE_SCHEMA!r})")
    for field_name in ("q", "n", "m", "V"):
        if field_name not in doc:
            raise FormatError(f"missing field {field_name!r}")
    q, n, m = doc["q"], doc["n"], doc["m"]
    # the bound comes first: is_prime trial-divides up to sqrt(q)
    if not (isinstance(q, int) and q < 256 and is_prime(q)):
        raise FormatError(f"q must be a prime integer below 256, got {q!r}")
    _check_n(n)
    if not isinstance(doc["V"], list) or len(doc["V"]) != m:
        raise FormatError(f"V must list exactly m = {m} vectors")
    seed = doc.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise FormatError(f"seed must be an integer or null, got {seed!r}")
    vectors = tuple(_parse_vector(v, n, q, f"V[{i}]") for i, v in enumerate(doc["V"]))
    try:
        key = OwfKey(q=q, n=n, vectors=vectors, seed=seed)
    except ValueError as e:
        raise FormatError(str(e)) from None
    image = None
    if "W" in doc:
        if not isinstance(doc["W"], list) or len(doc["W"]) != m:
            raise FormatError(f"W must list exactly m = {m} vectors")
        ws = tuple(_parse_vector(w, n, q, f"W[{i}]") for i, w in enumerate(doc["W"]))
        if tuple(sorted(ws)) != ws:
            raise FormatError("W must be sorted lexicographically")
        image = OwfImage(ws)
    return key, image


def dump_graph(g: SimpleGraph) -> str:
    lines = [f"{g.n_vertices} {g.n_edges}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("graph file is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be 'n_vertices n_edges'")
    try:
        n_vertices, n_edges = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("header must hold two integers") from None
    if n_vertices < 0:
        raise FormatError(f"vertex count must be non-negative, got {n_vertices}")
    if len(lines) - 1 != n_edges:
        raise FormatError(f"header promises {n_edges} edges, file has {len(lines) - 1}")
    edges = []
    seen = set()
    for ln_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"line {ln_no}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {ln_no}: vertices must be integers") from None
        if u == v:
            raise FormatError(f"line {ln_no}: self-loop at {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise FormatError(f"line {ln_no}: vertex out of range")
        edge = (min(u, v), max(u, v))
        if edge in seen:
            raise FormatError(f"line {ln_no}: duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    return SimpleGraph.from_edges(n_vertices, edges)


def permutation_to_text(pi: Sequence[int]) -> str:
    return " ".join(str(p) for p in pi)
