import re

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

from biphole.generators import enumerate_labeled
from biphole.graph import MAX_VERTICES

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


def _bitwise_parse_graph6(text):
    """``parse_graph6`` as first written, the reference for the one-integer
    decoder: the same checks in the same order, then one bit at a time
    through the column-major pair list."""
    line = text.rstrip("\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise ParseError("empty graph6 string", offset=0)
    data = []
    for i, ch in enumerate(line):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise ParseError(f"byte {code} outside graph6 range 63..126", offset=i)
        data.append(code - 63)
    if data[0] < 63:
        n = data[0]
        body = data[1:]
        body_offset = 1
    else:
        if len(data) >= 2 and data[1] == 63:
            raise ParseError("graph6 size class above 258047 not supported", offset=1)
        if len(data) < 4:
            raise ParseError("truncated graph6 size field", offset=len(line))
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
        body_offset = 4
    if n > MAX_VERTICES:
        raise ParseError(f"order {n} exceeds supported maximum {MAX_VERTICES}", offset=0)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) < expect:
        raise ParseError(
            f"graph6 body too short: {len(body)} groups, expected {expect}",
            offset=len(line),
        )
    if len(body) > expect:
        raise ParseError("trailing garbage after graph6 body", offset=body_offset + expect)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = []
    for k in range(len(body) * 6):
        bit = (body[k // 6] >> (5 - k % 6)) & 1
        if k < nbits:
            if bit:
                edges.append(pairs[k])
        elif bit:
            raise ParseError("nonzero padding bits", offset=body_offset + k // 6)
    return Graph(n, edges)


def _bitwise_write_graph6(g):
    # The writer before the column form: one pair of the column-major upper
    # triangle at a time, six bits to a character.
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    out = [head]
    group = 0
    filled = 0
    for i, j in [(i, j) for j in range(1, n) for i in range(j)]:
        group = (group << 1) | (g.adj_mask(i) >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def test_graph6_writer_matches_bitwise_reference():
    # Every labeled graph with n <= 6, and around each size-class edge
    # (62 | 63) and the order cap: empty, path, complete and two seeded
    # G(n, 1/2) graphs.
    small = [g for n in range(7) for g in enumerate_labeled(n)]
    assert len(small) == 33_868
    large = [
        g
        for n in (62, 63, 64, 100, MAX_VERTICES)
        for g in (empty(n), path(n), complete(n), erdos_renyi(n, 1, 2, n))
    ]
    large += [erdos_renyi(n, 1, 2, n + 1) for n in (62, 63, 64, 100, MAX_VERTICES)]
    for g in small + large:
        assert write_graph6(g) == _bitwise_write_graph6(g)


# The codec before the base64 step, the reference for it: each character
# to its six bits as a string of digits, and the body as one binary numeral.
_SIX_BITS = {code: format(code - 63, "06b") for code in range(63, 127)}
_CHAR_OF = {bits: chr(code) for code, bits in _SIX_BITS.items()}


def _string_parse_graph6(text):
    line = text.rstrip("\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise ParseError("empty graph6 string", offset=0)
    if not "?" <= min(line) <= max(line) <= "~":
        i, code = next((i, ord(ch)) for i, ch in enumerate(line) if not 63 <= ord(ch) <= 126)
        raise ParseError(f"byte {code} outside graph6 range 63..126", offset=i)
    if line[0] != "~":
        n = ord(line[0]) - 63
        body_offset = 1
    else:
        if len(line) >= 2 and line[1] == "~":
            raise ParseError("graph6 size class above 258047 not supported", offset=1)
        if len(line) < 4:
            raise ParseError("truncated graph6 size field", offset=len(line))
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        body_offset = 4
    if n > MAX_VERTICES:
        raise ParseError(f"order {n} exceeds supported maximum {MAX_VERTICES}", offset=0)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    groups = len(line) - body_offset
    if groups < expect:
        raise ParseError(
            f"graph6 body too short: {groups} groups, expected {expect}",
            offset=len(line),
        )
    if groups > expect:
        raise ParseError("trailing garbage after graph6 body", offset=body_offset + expect)
    adj = [0] * n
    if not nbits:
        return Graph(n)
    # Reversed, the bit string has pair 0 lowest and the padding on top.
    bits = int(line[body_offset:].translate(_SIX_BITS)[::-1], 2)
    if bits >> nbits:
        raise ParseError("nonzero padding bits", offset=body_offset + expect - 1)
    for j in range(1, n):
        column = bits & ((1 << j) - 1)
        bits >>= j
        adj[j] = column
        for i in range(j):
            if column >> i & 1:
                adj[i] |= 1 << j
    return Graph(n, [(i, j) for j in range(n) for i in range(j) if adj[j] >> i & 1])


def _string_write_graph6(g):
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    bits = 0
    for j in range(n - 1, 0, -1):
        bits = bits << j | g.adj_mask(j) & ((1 << j) - 1)
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    # Reversed, the bit string has pair 0 first and the padding last.
    text = format(bits, f"0{width}b")[::-1]
    return head + "".join(_CHAR_OF[text[k : k + 6]] for k in range(0, width, 6))


def test_graph6_codec_matches_the_string_codec():
    # Byte-equal lines and equal graphs, or the same error, on every labeled
    # graph with n <= 6, on seeded G(n, 1/2) in both size classes up to the
    # order cap, and on mutations of their lines.
    corpus = [g for n in range(7) for g in enumerate_labeled(n)]
    corpus += [erdos_renyi(n, 1, 2, seed) for n in (7, 62, 63, 200, MAX_VERTICES) for seed in (1, 2)]
    assert len(corpus) == 33_878
    for g in corpus:
        line = _string_write_graph6(g)
        assert write_graph6(g) == line
        assert parse_graph6(line) == _string_parse_graph6(line) == g
    mutated = [m for g in corpus[-10:] for m in _mutations(write_graph6(g)[:12])]
    mutated += [write_graph6(g)[:-1] + "~" for g in corpus[-10:]]
    for text in mutated:
        assert _decoded(parse_graph6, text) == _decoded(_string_parse_graph6, text), text


def _decoded(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


def _mutations(line):
    """Every character replaced, one dropped or one added, every prefix,
    and the line padded with a header, line ends or a stray byte."""
    swaps = "?@_w}~" + chr(62) + chr(127) + "\xe9"
    for i in range(len(line)):
        for ch in swaps:
            yield line[:i] + ch + line[i + 1 :]
        yield line[:i] + line[i + 1 :]
        yield line[:i]
    for ch in swaps:
        yield line + ch
    for pad in (">>graph6<<", ">>graph6<<>>graph6<<", ">>graph6", " "):
        yield pad + line
    for end in ("\n", "\r\n", "\n\n", " \n"):
        yield line + end


def test_graph6_decoder_matches_bitwise_reference():
    # The same graph, or the same ParseError message and offset, as the
    # bit-by-bit decoder: on every labeled graph with n <= 6, on every
    # mutation of the n <= 5 ones, and on mutations of large orders, whose
    # size field is "~" and three bytes.
    lines = [write_graph6(g) for n in range(7) for g in enumerate_labeled(n)]
    assert len(lines) == 33_868
    for line in lines:
        assert parse_graph6(line) == _bitwise_parse_graph6(line)
        header = ">>graph6<<" + line + "\n"
        assert parse_graph6(header) == _bitwise_parse_graph6(header)
    mutated = [m for line in lines[:1100] for m in _mutations(line)]
    large = [write_graph6(path(n)) for n in (62, 63, 100, MAX_VERTICES)]
    mutated += [m for line in large for m in _mutations(line[:8]) if len(m) > 4]
    mutated += [line[:-1] + "A" for line in large] + ["~~", "~?", "~??", "~?~", "~?G@"]
    outcomes = set()
    for text in mutated:
        got = _decoded(parse_graph6, text)
        assert got == _decoded(_bitwise_parse_graph6, text), text
        outcomes.add(re.sub(r"\b\d+\b", "#", got[0]) if isinstance(got, tuple) else "graph")
    assert len(outcomes) == 9  # a graph, and each of the eight errors


@given(st.text(alphabet="?@ABC_owz}~>" + chr(127), max_size=12))
@settings(max_examples=400)
def test_graph6_decoder_matches_bitwise_reference_on_any_text(text):
    assert _decoded(parse_graph6, text) == _decoded(_bitwise_parse_graph6, text)


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
