"""Instance JSON and graph/matrix text formats."""

import json

import pytest
from hypothesis import given, strategies as st

from mvowf.field import identity
from mvowf.formats import (
    INSTANCE_SCHEMA,
    FormatError,
    dump_graph,
    dump_instance,
    matrix_to_text,
    parse_graph,
    parse_instance,
    parse_matrix,
)
from mvowf.graphs import SimpleGraph
from mvowf.owf import OwfImage, OwfKey, evaluate, keygen


def test_instance_round_trip():
    key = keygen(3, 4, delta=2, seed=9)
    text = dump_instance(key)
    parsed_key, image = parse_instance(text)
    assert parsed_key == key
    assert image is None
    assert dump_instance(parsed_key) == text


def test_instance_round_trip_with_image():
    key = keygen(2, 3, delta=3, seed=10)
    from mvowf.field import identity

    image = evaluate(key, identity(3))
    text = dump_instance(key, image)
    parsed_key, parsed_image = parse_instance(text)
    assert parsed_key == key and parsed_image == image
    assert dump_instance(parsed_key, parsed_image) == text


def test_instance_out_of_range_entry_names_vector():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1)))
    text = dump_instance(key).replace('"1 0"', '"3 0"')
    with pytest.raises(FormatError, match=r"V\[0\].*range"):
        parse_instance(text)


def test_instance_rejects_bad_schema_and_shape():
    with pytest.raises(FormatError, match="JSON"):
        parse_instance("not json at all {")
    with pytest.raises(FormatError, match="schema"):
        parse_instance('{"q": 2}')
    key = keygen(2, 2, delta=1, seed=1)
    text = dump_instance(key).replace('"m": 3', '"m": 4')
    with pytest.raises(FormatError, match="m = 4"):
        parse_instance(text)


def test_instance_rejects_unsorted_image():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1)))
    doc = dump_instance(key, OwfImage(((0, 1), (1, 0))))
    broken = doc.replace('"0 1",\n    "1 0"', '"1 0",\n    "0 1"')
    with pytest.raises(FormatError, match="sorted"):
        parse_instance(broken)


def test_matrix_text_round_trip():
    m = ((1, 0, 2), (0, 1, 1), (2, 2, 0))
    assert parse_matrix(matrix_to_text(m), 3) == m
    with pytest.raises(FormatError):
        parse_matrix("1 0\n0 5\n", 3)
    with pytest.raises(FormatError):
        parse_matrix("", 2)


def test_graph_round_trip():
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3), (1, 3)])
    assert parse_graph(dump_graph(g)) == g


def test_graph_parse_errors():
    with pytest.raises(FormatError, match="header"):
        parse_graph("3\n0 1\n")
    with pytest.raises(FormatError, match="promises"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(FormatError, match="self-loop"):
        parse_graph("3 1\n1 1\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(FormatError, match="range"):
        parse_graph("3 1\n0 7\n")


def test_graph_comments_and_blank_lines():
    g = parse_graph("# a path\n3 2\n\n0 1\n1 2\n")
    assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])


def test_instance_rejects_non_string_vectors():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1)))
    doc = json.loads(dump_instance(key, evaluate(key, identity(2))))
    for name in ("V", "W"):
        broken = dict(doc, **{name: [[0, 1], [1, 0]]})
        with pytest.raises(FormatError, match=rf"{name}\[0\]: expected a string"):
            parse_instance(json.dumps(broken))


def test_instance_key_errors_are_format_errors():
    doc = {"schema": INSTANCE_SCHEMA, "q": 2, "n": 3, "m": 2, "V": ["0 0 1", "1 0 0"]}
    with pytest.raises(FormatError, match="m >= n"):
        parse_instance(json.dumps(doc))
    for q in (257, 10**40 + 1):
        with pytest.raises(FormatError, match="prime integer below 256"):
            parse_instance(json.dumps(dict(doc, q=q, n=1)))
    with pytest.raises(FormatError, match="seed"):
        parse_instance(json.dumps(dict(doc, n=1, V=["0", "1"], seed="7")))
    with pytest.raises(FormatError, match="JSON"):
        parse_instance("1" * 5000)


def test_graph_rejects_negative_vertex_count():
    with pytest.raises(FormatError, match="non-negative"):
        parse_graph("-3 0\n")


# -- fuzzing: any text gives a FormatError or a valid object -----------------

ENTRY_TOKENS = st.sampled_from(["0", "1", "2", "4", "-1", "7", "x", "1.5", "#", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _vector_text(draw, n):
    return " ".join(draw(st.lists(ENTRY_TOKENS, min_size=max(n - 1, 0), max_size=n + 1)))


@st.composite
def instance_texts(draw):
    """Instance documents, mostly well formed, with some fields replaced or dropped."""
    q, n, m = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    doc = {
        "schema": INSTANCE_SCHEMA,
        "q": q,
        "n": n,
        "m": m,
        "seed": draw(st.none() | st.integers()),
        "V": [_vector_text(draw, n) for _ in range(m)],
    }
    if draw(st.booleans()):
        doc["W"] = sorted(_vector_text(draw, n) for _ in range(m))
    for name in draw(st.lists(st.sampled_from(sorted(doc) + ["W"]), max_size=3)):
        if draw(st.booleans()):
            doc[name] = draw(JSON_VALUES)
        else:
            doc.pop(name, None)
    return json.dumps(doc)


@st.composite
def line_texts(draw):
    """Lines of integer-ish tokens, as matrix and graph files hold."""
    lines = draw(st.lists(st.lists(ENTRY_TOKENS, max_size=4), max_size=6))
    return "\n".join(" ".join(line) for line in lines)


def _in_range(rows, q, width):
    return all(len(row) == width and all(0 <= e < q for e in row) for row in rows)


@given(st.one_of(st.text(), instance_texts()))
def test_parse_instance_fuzz(text):
    try:
        key, image = parse_instance(text)
    except FormatError:
        return
    assert key.m >= key.n >= 1 and _in_range(key.vectors, key.q, key.n)
    if image is not None:
        assert len(image) == key.m and _in_range(image.vectors, key.q, key.n)
        assert list(image.vectors) == sorted(image.vectors)


@given(st.one_of(st.text(), line_texts()), st.sampled_from([2, 3, 5]))
def test_parse_matrix_fuzz(text, q):
    try:
        m = parse_matrix(text, q)
    except FormatError:
        return
    assert m and _in_range(m, q, len(m[0])) and len(m[0]) >= 1


@given(st.one_of(st.text(), line_texts()))
def test_parse_graph_fuzz(text):
    try:
        g = parse_graph(text)
    except FormatError:
        return
    assert isinstance(g, SimpleGraph) and g.n_vertices >= 0
    assert all(0 <= u < v < g.n_vertices for u, v in g.edges)
