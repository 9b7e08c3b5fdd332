import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphole import (
    Graph,
    ParseError,
    complete,
    empty,
    erdos_renyi,
    parse_edge_list,
    parse_graph6,
    path,
    write_dot,
    write_edge_list,
    write_graph6,
)

from conftest import graphs


def test_graph6_spot_values():
    assert write_graph6(complete(1)) == "@"
    assert write_graph6(empty(2)) == "A?"
    assert write_graph6(Graph(2, [(0, 1)])) == "A_"
    assert write_graph6(complete(5)) == "D~{"
    g = parse_graph6("D~{")
    assert g == complete(5)
    assert parse_graph6("A_").m == 1
    assert parse_graph6("@").n == 1


def test_graph6_header_and_newline():
    assert parse_graph6(">>graph6<<D~{\n") == complete(5)


def test_graph6_large_order():
    # 62 is the last order of the one-byte size class; from 63 up to
    # MAX_VERTICES = 512 the order is "~" and three 6-bit bytes.
    for n, head in [(62, "}"), (63, "~??~"), (100, "~?@c"), (512, "~?G?")]:
        for g in (empty(n), path(n)):
            s = write_graph6(g)
            assert s[: len(head)] == head
            assert len(s) == len(head) + -(-n * (n - 1) // 12)
            assert parse_graph6(s) == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "D~",        # body too short
        "D~{{",      # trailing garbage
        "A" + chr(20),  # char out of range
        "A" + chr(127),
        "Aw",        # nonzero padding (only 1 data bit allowed)
    ],
)
def test_graph6_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_graph6(bad)


def test_graph6_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse_graph6("A" + chr(20))
    assert info.value.offset == 1


@given(graphs(max_n=16))
@settings(max_examples=300)
def test_graph6_roundtrip(g):
    assert parse_graph6(write_graph6(g)) == g


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=400)
def test_graph6_never_panics(text):
    try:
        parse_graph6(text)
    except ParseError:
        pass


def test_edge_list_roundtrip():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == path(3)
    assert write_edge_list(g) == "3 2\n0 1\n1 2\n"
    again = erdos_renyi(9, 1, 2, 7)
    assert parse_edge_list(write_edge_list(again)) == again


def test_edge_list_one_based():
    g = parse_edge_list("3 2\n1 2\n2 3\n", one_based=True)
    assert g == path(3)


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 2\n0 1\n", 3),          # missing edge line
        ("3 2\n0 1\n1 2\n2 0\n", 4),  # extra line
        ("3\n", 1),
        ("3 1\n0 5\n", 2),
        ("3 1\n0 0\n", 2),
        ("3 1\nx y\n", 2),
    ],
)
def test_edge_list_errors_name_lines(text, line):
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    assert info.value.line == line


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_edge_list_never_panics(text):
    try:
        parse_edge_list(text)
    except ParseError:
        pass


def test_dot_output():
    g = path(3)
    dot = write_dot(g, highlight_vertices=[1], highlight_edges=[(1, 0)])
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == 2
    assert "0 -- 1 [color=red" in dot
    assert "1 [style=filled" in dot
    for v in range(3):
        assert f"\n  {v}" in dot
