"""Core signed-graph model and operations.

A signed graph is a finite simple graph together with a sign in {+1, -1} on
every edge.  Vertices are the integers 0..n-1.  Edges are stored as sorted
triples (u, v, s) with u < v, no loops and no duplicate pairs, so two graphs
are equal exactly when their vertex counts and signed edge sets agree.

The module also implements the operations the rest of the package is built
on: the signed adjacency matrix, switching, signed-twin detection and
deletion, induced subgraphs, and the .sgr text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        for u, v, s in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
            normalized.append((u, v, s))
        normalized.sort()
        for i in range(1, len(normalized)):
            if normalized[i][:2] == normalized[i - 1][:2]:
                raise ValueError(f"duplicate edge {normalized[i][:2]}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists, each sorted increasingly."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def sign_map(self) -> dict[tuple[int, int], int]:
        """Map from ordered pair (u,v), u<v, to the edge sign."""
        return {(u, v): s for u, v, s in self.edges}

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def sign_of(self, u: int, v: int) -> int:
        """Sign of edge uv; raises KeyError if uv is not an edge."""
        if u > v:
            u, v = v, u
        return self.sign_map()[(u, v)]

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)


@dataclass(frozen=True)
class TwinPair:
    """Vertices x < y with identical neighborhoods and signs in constant
    ratio: sign(x,z) == ratio * sign(y,z) for every common neighbor z.

    Twins are never adjacent (x adjacent to y would put x in its own
    neighborhood).  For a pair of isolated vertices the ratio condition is
    vacuous and the ratio is reported as +1.
    """

    x: int
    y: int
    ratio: int


def adjacency_matrix(g: SignedGraph) -> list[list[int]]:
    """Signed adjacency matrix: symmetric, zero diagonal, entries in {-1,0,1}."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges:
        a[u][v] = s
        a[v][u] = s
    return a


def switch(g: SignedGraph, subset: Iterable[int]) -> SignedGraph:
    """Negate exactly the edges with one endpoint in `subset`.

    Switching preserves the underlying graph, every cycle's sign, and the
    rank of the adjacency matrix (it conjugates by a +-1 diagonal matrix).
    """
    inside = set(subset)
    for v in inside:
        if not (0 <= v < g.n):
            raise ValueError(f"switch set contains {v}, outside 0..{g.n - 1}")
    new_edges = []
    for u, v, s in g.edges:
        if (u in inside) != (v in inside):
            s = -s
        new_edges.append((u, v, s))
    return SignedGraph(g.n, new_edges)


def find_twins(g: SignedGraph) -> list[TwinPair]:
    """All twin pairs, sorted lexicographically by (x, y)."""
    adj = g.neighbors()
    signs = g.sign_map()
    nbr_sets = [tuple(a) for a in adj]
    pairs = []
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if nbr_sets[x] != nbr_sets[y]:
                continue
            common = nbr_sets[x]
            if not common:
                pairs.append(TwinPair(x, y, 1))
                continue
            ratio = None
            ok = True
            for z in common:
                sx = signs[(min(x, z), max(x, z))]
                sy = signs[(min(y, z), max(y, z))]
                r = sx * sy  # +1 iff equal signs
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ok = False
                    break
            if ok:
                pairs.append(TwinPair(x, y, ratio))
    return pairs


def induced_subgraph(g: SignedGraph, keep: Iterable[int]) -> SignedGraph:
    """Subgraph induced on `keep`, reindexed densely preserving order."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v], s)
        for u, v, s in g.edges
        if u in index and v in index
    ]
    return SignedGraph(len(kept), edges)


def delete_vertices(g: SignedGraph, drop: Iterable[int]) -> SignedGraph:
    """Delete the given vertices (complement of induced_subgraph)."""
    gone = set(drop)
    return induced_subgraph(g, (v for v in range(g.n) if v not in gone))


def reduced_vertices(matrices: np.ndarray) -> np.ndarray:
    """The vertices that `reduced_graph` keeps, for a batch of signed
    adjacency matrices of shape (batch, n, n): a bool array (batch, n),
    False at vertex y exactly when some lower vertex x has row x equal to
    +-row y.  Those are y's twins: the rows agree up to sign on every
    vertex, and a twin x is never adjacent to y, since row y is 0 at y.

    Each row is named by a base-3 code of its entries, taken with the
    sign that makes its first nonzero entry positive, accumulated column
    by column into (batch, n) int64; a code of 39 columns stays below
    2^63, and wider rows compare one such code per 39 columns."""
    batch, n = matrices.shape[:2]
    first = (matrices != 0).argmax(axis=2)[..., None]
    lead = np.take_along_axis(matrices, first, axis=2)[..., 0]
    same = np.ones((batch, n, n), dtype=bool)
    for lo in range(0, n, 39):
        code = np.zeros((batch, n), dtype=np.int64)
        for w in range(lo, min(n, lo + 39)):
            code *= 3
            code += matrices[:, :, w] * lead + 1
        same &= code[:, :, None] == code[:, None, :]
    return ~np.tril(same, -1).any(axis=2)


def reduced_graph(g: SignedGraph) -> SignedGraph:
    """Delete one vertex of a twin pair until no twins remain, taking the
    higher vertex y of the lexicographically first pair (x, y) each time,
    then reindex densely.  Twin deletion preserves the rank of the
    adjacency matrix, so the reduced graph has the same rank as the input.

    One pass gives the same graph: `reduced_vertices` keeps exactly the
    vertices with no twin below them, the lowest vertex of each twin
    class.

    * the signed twin relation is an equivalence: twins have equal
      neighbour sets, and along a chain of twins the sign ratios multiply;
    * deleting a twin y of x changes no other pair's twin status: column
      y is +-column x and twins are never adjacent, so any other vertex
      sees y exactly when it sees x, and two vertices that agree up to a
      sign ratio on x agree with it on y.

    So the classes stay as they were, less the deleted vertices, and each
    step deletes a vertex above the lowest of its class until one vertex
    per class is left.
    """
    matrix = np.array(adjacency_matrix(g), dtype=np.int8).reshape(1, g.n, g.n)
    keep = reduced_vertices(matrix)[0]
    return g if keep.all() else induced_subgraph(g, np.flatnonzero(keep).tolist())


class SgrParseError(ValueError):
    """Malformed .sgr input; `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_sgr(text: str) -> SignedGraph:
    """Parse the .sgr format.

    Lines starting with '#' (after leading whitespace) and blank lines are
    ignored.  The first significant line is `n m`; exactly m lines `u v s`
    follow with 0 <= u < v < n and s one of '+', '-'.
    """
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if header is None:
            if len(parts) != 2:
                raise SgrParseError(lineno, f"expected header 'n m', got {stripped!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise SgrParseError(lineno, f"expected header 'n m', got {stripped!r}") from None
            if n < 0 or m < 0:
                raise SgrParseError(lineno, "n and m must be nonnegative")
            header = (n, m)
            header_line = lineno
            continue
        n, m = header
        if len(edges) == m:
            raise SgrParseError(lineno, f"unexpected content after {m} edges: {stripped!r}")
        if len(parts) != 3:
            raise SgrParseError(lineno, f"expected 'u v s', got {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise SgrParseError(lineno, f"expected integer endpoints, got {stripped!r}") from None
        if parts[2] not in ("+", "-"):
            raise SgrParseError(lineno, f"edge sign must be '+' or '-', got {parts[2]!r}")
        if u == v:
            raise SgrParseError(lineno, f"loop at vertex {u}")
        if not (0 <= u < v):
            raise SgrParseError(lineno, f"expected 0 <= u < v, got u={u} v={v}")
        if v >= n:
            raise SgrParseError(lineno, f"vertex {v} out of range for n={n}")
        if (u, v) in seen:
            raise SgrParseError(lineno, f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v, 1 if parts[2] == "+" else -1))
    if header is None:
        raise SgrParseError(1, "empty input: missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise SgrParseError(
            header_line, f"header declares {m} edges but {len(edges)} were given"
        )
    return SignedGraph(n, edges)


def load_sgr(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sgr(fh.read())


def write_sgr(g: SignedGraph, comments: Sequence[str] = ()) -> str:
    """Canonical .sgr text: optional comments, header, lex-sorted edges."""
    lines = [f"# {c}" if c else "#" for c in comments]
    lines.append(f"{g.n} {g.m}")
    for u, v, s in g.edges:
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"


def save_sgr(g: SignedGraph, path, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_sgr(g, comments))
