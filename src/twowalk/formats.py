"""Input/output formats: graph6, edge-list text, and matrix JSON / text.

graph6 follows the de-facto standard bit-exactly: 6-bit big-endian
packing of the upper triangle in column order (0,1),(0,2),(1,2),(0,3),…
with every byte offset by 63.
"""

from __future__ import annotations

import json

from .core import Graph, IntMatrix, graph_from_edges


class FormatError(ValueError):
    """Unparseable input; carries enough position info to report to users."""

    def __init__(self, message: str, *, line: int | None = None, byte: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if byte is not None:
            loc.append(f"byte {byte}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.line = line
        self.byte = byte


GRAPH6_HEADER = ">>graph6<<"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        bits = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return chr(126) + "".join(chr(b + 63) for b in bits)
    if n <= 68719476735:
        bits = [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
        return chr(126) + chr(126) + "".join(chr(b + 63) for b in bits)
    raise ValueError(f"vertex count {n} too large for graph6")


def to_graph6(G: Graph) -> str:
    """Encode a graph as a one-line graph6 string."""
    n = G.n
    out = [_g6_encode_n(n)]
    group = 0
    nbits = 0
    edges = G.edges
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | (1 if (i, j) in edges else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + 63))
                group = 0
                nbits = 0
    if nbits:
        group <<= 6 - nbits
        out.append(chr(group + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (an optional '>>graph6<<' header is stripped)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise FormatError("empty graph6 input", line=1)
    for pos, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise FormatError(f"invalid graph6 byte {ord(ch)}", line=1, byte=pos)
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] != 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 2 and vals[1] != 63:
        if len(vals) < 4:
            raise FormatError("truncated graph6 size field", line=1, byte=len(s))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        if len(vals) < 8:
            raise FormatError("truncated graph6 size field", line=1, byte=len(s))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise FormatError(
            f"graph6 body too short: need {need} bytes for n={n}, got {len(body)}",
            line=1, byte=len(s),
        )
    if len(body) > need:
        raise FormatError(f"graph6 body too long for n={n}", line=1, byte=len(s))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] & (1 << (5 - k % 6)):
                edges.append((i, j))
            k += 1
    return graph_from_edges(n, edges)


def to_edgelist(G: Graph) -> str:
    """Edge-list text: first line n, then one 'i j' line per edge (0-indexed)."""
    lines = [str(G.n)]
    lines.extend(f"{i} {j}" for i, j in G.sorted_edges())
    return "\n".join(lines) + "\n"


def _counted_lines(text: str, count: str, kind: str) -> tuple[int, int, list[tuple[int, str]]]:
    """The header of counted ``kind`` text, a ``count`` alone on its first
    line: the count, its line number and the numbered lines after it.
    '#' starts a comment, blank lines are skipped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise FormatError(f"empty {kind} input", line=1)
    lineno, first = lines[0]
    tokens = first.split()
    if len(tokens) != 1:
        raise FormatError(f"first line must be the {count} alone", line=lineno)
    try:
        n = int(tokens[0])
    except ValueError:
        raise FormatError(f"invalid {count} {tokens[0]!r}", line=lineno) from None
    if n < 0:
        raise FormatError(f"negative {count} {n}", line=lineno)
    return n, lineno, lines[1:]


def parse_edgelist(text: str) -> Graph:
    """Parse edge-list text; '#' starts a comment, blank lines are skipped."""
    n, _, lines = _counted_lines(text, "vertex count", "edge-list")
    pairs = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"expected 'i j', got {line!r}", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"bad edge ({i},{j}) for n={n}", line=lineno)
        pairs.append((i, j))
    return graph_from_edges(n, pairs)


def _matrix_from_lists(data: object, *, source: str) -> IntMatrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise FormatError(f"{source}: expected an array of arrays")
    try:
        return IntMatrix(data)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None


def to_matrix_json(M: IntMatrix) -> str:
    return json.dumps(M.to_lists())


def parse_matrix_json(text: str) -> IntMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, byte=exc.colno) from None
    return _matrix_from_lists(data, source="matrix JSON")


def to_matrix_text(M: IntMatrix) -> str:
    """Whitespace-separated: first line n, then n rows of n entries."""
    lines = [str(M.n)]
    lines.extend(" ".join(str(x) for x in row) for row in M.rows)
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> IntMatrix:
    n, lineno, lines = _counted_lines(text, "dimension", "matrix")
    if len(lines) != n:
        raise FormatError(f"expected {n} matrix rows, got {len(lines)}", line=lineno)
    rows = []
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != n:
            raise FormatError(f"expected {n} entries, got {len(toks)}", line=lineno)
        try:
            row = list(map(int, toks))
        except ValueError:
            raise FormatError(f"non-integer entry in row {line!r}", line=lineno) from None
        rows.append(row)
    return _matrix_from_lists(rows, source="matrix text")


GRAPH_FORMATS = ("graph6", "edgelist")
MATRIX_FORMATS = ("matrix-json", "matrix-text")


def detect_graph_format(text: str) -> str:
    """graph6 if the first byte is in the graph6 range and the line decodes;
    otherwise edge list."""
    s = text.lstrip()
    if s and 63 <= ord(s[0]) <= 126:
        try:
            parse_graph6(s.splitlines()[0])
            return "graph6"
        except FormatError:
            pass
    if s.startswith(GRAPH6_HEADER):
        return "graph6"
    return "edgelist"


def read_graph(text: str, fmt: str = "auto") -> Graph:
    if fmt == "auto":
        fmt = detect_graph_format(text)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise FormatError(f"unknown graph format {fmt!r}")


def read_matrix(text: str, fmt: str = "auto", *, filename: str | None = None) -> IntMatrix:
    if fmt == "auto":
        if filename is not None and filename.endswith(".json"):
            fmt = "matrix-json"
        elif text.lstrip().startswith("["):
            fmt = "matrix-json"
        else:
            fmt = "matrix-text"
    if fmt == "matrix-json":
        return parse_matrix_json(text)
    if fmt == "matrix-text":
        return parse_matrix_text(text)
    raise FormatError(f"unknown matrix format {fmt!r}")


def write_graph(G: Graph, fmt: str = "graph6") -> str:
    if fmt == "graph6":
        return to_graph6(G) + "\n"
    if fmt == "edgelist":
        return to_edgelist(G)
    raise FormatError(f"unknown graph format {fmt!r}")


def write_matrix(M: IntMatrix, fmt: str = "matrix-text") -> str:
    if fmt == "matrix-json":
        return to_matrix_json(M) + "\n"
    if fmt == "matrix-text":
        return to_matrix_text(M)
    raise FormatError(f"unknown matrix format {fmt!r}")


def graph_json_dict(G: Graph) -> dict:
    """Stable JSON rendering of a graph used across CLI outputs."""
    return {"n": G.n, "edges": [list(e) for e in G.sorted_edges()], "graph6": to_graph6(G)}
