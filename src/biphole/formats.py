"""Graph interchange: graph6 (bit-exact), plain edge lists, and DOT export.

graph6 is the interchange format for exhaustive small-graph corpora, so the
codec here is strict: exact length, printable byte range 63..126, zero
padding bits, and write(parse(s)) == s.  The parser reads the body as one
integer and takes each column of the upper triangle as a vertex mask, the
graph's own adjacency form, rather than one bit at a time; the writer
builds the same integer from the masks.  Between the integer and the body,
six bits move per table step: a graph6 group is six pairs, first pair on
top, and a base64 digit is six bits, most significant on top, so with each
group's bits reversed by one 64-entry table the standard base64 codec turns
three bytes of the integer into four characters and back, in time linear
in the body.  The edge-list format is a loose "n m" header followed by m
"u v" lines.  DOT output is one-way.
"""
from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from typing import Iterable

from .errors import ParseError
from .graph import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"


# The six-bit reversal table: entry g is the graph6 byte of the group whose
# six pairs are the bits of g, first pair lowest, which is 63 plus g with
# its bits reversed.  It and the base64 digit of g translate into each other.
_GRAPH6_OF = bytes(63 + int(format(g, "06b")[::-1], 2) for g in range(64))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6_OF)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6_OF, _BASE64)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header allowed).

    The body is read as one integer whose bit k is the k-th pair (i, j),
    i < j, of the upper triangle in column-major order: (0,1), (0,2),
    (1,2), (0,3), ...  Read backwards, each character translated to the
    base64 digit of its group reversed, the body is that integer in base64,
    most significant digit first.  The
    pairs of one column j are then j consecutive bits, in order of i, so
    each column is the mask of j's neighbours below j; its set bits are
    walked once to add j to those neighbours' masks."""
    line = text.rstrip("\r\n")
    if line.startswith(_HEADER):
        line = line[len(_HEADER) :]
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
        return Graph._from_adj(n, adj)
    # Zero digits on top fill the last group of four; the padding bits are
    # the ones above pair nbits - 1.
    digits = line[: body_offset - 1 : -1].encode().translate(_FROM_GRAPH6)
    bits = int.from_bytes(a2b_base64(b"A" * (-groups % 4) + digits), "big")
    if bits >> nbits:
        raise ParseError("nonzero padding bits", offset=body_offset + expect - 1)
    for j in range(1, n):
        column = bits & ((1 << j) - 1)
        bits >>= j
        adj[j] = column
        bj = 1 << j
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bj
            column ^= low
    return Graph._from_adj(n, adj)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; parse_graph6 round-trips it exactly.

    The inverse of the parser's column form: column j of one integer is
    j's neighbour mask below j, and the integer is cut into six-bit groups,
    base64 digits most significant first, so the body is their reversal."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:  # n <= MAX_VERTICES, well inside the 18-bit class (n <= 258047)
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    adj = g._adj
    bits = 0
    for j in range(n - 1, 0, -1):
        bits = bits << j | adj[j] & ((1 << j) - 1)
    groups = (n * (n - 1) // 2 + 5) // 6
    # Three bytes to four digits; the zero digits on top are dropped.
    digits = b2a_base64(bits.to_bytes((groups + 3) // 4 * 3, "big"), newline=False)
    return head + digits[: -groups - 1 : -1].translate(_TO_GRAPH6).decode()


def parse_edge_list(text: str, one_based: bool = False) -> Graph:
    """Parse "n m" header plus m lines "u v"; errors carry line numbers."""
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if stripped:
                return stripped, idx
        return None, idx

    header, lineno = next_line()
    if header is None:
        raise ParseError("missing header line", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise ParseError('header must be "n m"', line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header fields must be integers", line=lineno) from None
    if n < 0 or m < 0:
        raise ParseError("header fields must be nonnegative", line=lineno)

    shift = 1 if one_based else 0
    edges = []
    for _ in range(m):
        pair, lineno = next_line()
        if pair is None:
            raise ParseError(
                f"expected {m} edge lines, file ended early", line=idx + 1
            )
        parts = pair.split()
        if len(parts) != 2:
            raise ParseError('edge line must be "u v"', line=lineno)
        try:
            u, v = int(parts[0]) - shift, int(parts[1]) - shift
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint outside 0..{n - 1}", line=lineno)
        if u == v:
            raise ParseError("self-loop not allowed", line=lineno)
        edges.append((u, v))
    extra, lineno = next_line()
    if extra is not None:
        raise ParseError("trailing content after declared edges", line=lineno)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Stable textual form: header then sorted edges, LF line endings."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_dot(
    g: Graph,
    highlight_vertices: Iterable[int] = (),
    highlight_edges: Iterable[tuple[int, int]] = (),
) -> str:
    """Graphviz source; highlighted items get distinct attributes."""
    hv = set(highlight_vertices)
    he = {frozenset(e) for e in highlight_edges}
    lines = ["graph G {"]
    for v in range(g.n):
        attr = " [style=filled, fillcolor=lightblue]" if v in hv else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.edges():
        attr = " [color=red, penwidth=2.0]" if frozenset((u, v)) in he else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
