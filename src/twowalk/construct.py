"""Duplication machinery: disjoint unions, bipartite double covers, and
block constructions that manufacture one matrix shared as the adjacency
square of many pairwise non-isomorphic graphs.  The claims are certified
by ``iso.are_isomorphic`` and ``iso.permutation_similar``.  The paper's
other example, ``similar_square_pair``, is a bundled pair of
non-isomorphic graphs whose squares are permutation-similar.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .core import Graph, IntMatrix, _component_labels, _is_int, adjacency_matrix, graph_from_edges, square
from .formats import graph_json_dict, parse_edgelist
from .iso import IsoBudget, are_isomorphic, permutation_similar
from .realize import verify

__all__ = [
    "disjoint_union",
    "is_bipartite",
    "bipartite_double_cover",
    "verify_bip_copy",
    "DuplicationFamily",
    "duplication_family",
    "similar_square_pair",
]


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """Graph on |G|+|H| vertices; H's vertex indices are shifted by |G|."""
    return _union_of([G, H])


def _union_of(copies: list[Graph]) -> Graph:
    """Disjoint union of ``copies``, each shifted by the vertex counts before it."""
    edges = []
    shift = 0
    for g in copies:
        edges += [(i + shift, j + shift) for i, j in g.edges]
        shift += g.n
    return Graph(shift, frozenset(edges))


def is_bipartite(G: Graph) -> list[int] | None:
    """A 0/1 vertex coloring with no monochromatic edge, or None.

    A component of G is bipartite exactly when its two copies in the
    bipartite double cover fall apart, one per side; then the side
    holding the component's lowest vertex is colored 0, so edgeless
    graphs come out bipartite with everything in class 0.  Reordering
    vertices by color class block-antidiagonalizes the adjacency matrix.
    """
    n = G.n
    label, _ = _component_labels(bipartite_double_cover(G).adjacency_sets())
    if any(label[v] == label[n + v] for v in range(n)):
        return None
    return [int(label[v] > label[n + v]) for v in range(n)]


def bipartite_double_cover(G: Graph) -> Graph:
    """Graph on 2n vertices with adjacency matrix [[0, A], [A, 0]]:
    vertex i is adjacent to n+j exactly when {i,j} is an edge of G.
    Always bipartite (the two copies of the vertex set are the classes)."""
    n = G.n
    edges = []
    for i, j in G.edges:
        edges.append((i, n + j))
        edges.append((j, n + i))
    return graph_from_edges(2 * n, edges)


def verify_bip_copy(G: Graph, budget: IsoBudget | None = None) -> bool:
    """Whether A(G ⊔ G) is permutation-similar to the double cover's
    adjacency matrix [[0, A], [A, 0]].

    Computed by the actual similarity search (not by a bipartiteness
    shortcut) so the equivalence with ``is_bipartite`` can be tested as
    two independent computations.
    """
    two_copies = disjoint_union(G, G)
    cover = bipartite_double_cover(G)
    witness = permutation_similar(
        adjacency_matrix(two_copies), adjacency_matrix(cover), budget
    )
    return witness is not None


@dataclass(frozen=True)
class DuplicationFamily:
    """k+1 pairwise non-isomorphic graphs on 2kn vertices sharing one
    adjacency-matrix square.

    ``members[t-1]`` (t = 1..k) is t copies of the double cover plus
    2(k-t) copies of the base; ``members[k]`` is 2k copies of the base.
    All members are verified against ``shared_square`` and all pairs are
    certified non-isomorphic at construction time.
    """

    base: Graph
    k: int
    shared_square: IntMatrix
    members: tuple[Graph, ...]
    member_descriptions: tuple[str, ...]

    def __post_init__(self):
        for idx, m in enumerate(self.members):
            if m.n != self.shared_square.n or not verify(m, self.shared_square):
                raise ValueError(f"member {idx} does not square to the shared matrix")

    def to_json_dict(self) -> dict:
        return {
            "base": graph_json_dict(self.base),
            "k": self.k,
            "size": self.shared_square.n,
            "shared_square": self.shared_square.to_lists(),
            "members": [
                {"description": d, **graph_json_dict(m)}
                for d, m in zip(self.member_descriptions, self.members)
            ],
            "certification": {
                "members_verified": [True] * len(self.members),
                "noniso_pairs": [
                    {"first": i, "second": j, "isomorphic": False}
                    for i in range(len(self.members))
                    for j in range(i + 1, len(self.members))
                ],
            },
        }


def duplication_family(
    G: Graph, k: int, budget: IsoBudget | None = None
) -> DuplicationFamily:
    """Build the shared square of 2k disjoint copies of G together with
    its k+1 pairwise non-isomorphic realizing graphs.

    Requires a nonbipartite base (hence at least 3 vertices: it must
    contain an odd cycle); swapping t of the 2k base blocks for t double
    covers leaves the square literally unchanged, and the member with t
    covers is distinguishable from the member with t' covers.
    """
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if is_bipartite(G) is not None:
        raise ValueError(
            "base graph is bipartite: every member would be isomorphic to the "
            "plain union, so the family construction requires a nonbipartite base"
        )
    union_all = _union_of([G] * (2 * k))
    shared = square(adjacency_matrix(union_all))

    members: list[Graph] = []
    descriptions: list[str] = []
    cover = bipartite_double_cover(G)
    for t in range(1, k + 1):
        member = _union_of([cover] * t + [G] * (2 * (k - t)))
        members.append(member)
        descriptions.append(f"{t} double-cover block(s) + {2 * (k - t)} base block(s)")
    members.append(union_all)
    descriptions.append(f"{2 * k} base blocks")

    # the member/square invariant re-checks in DuplicationFamily itself;
    # pairwise non-isomorphism is certified here, once per family
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if are_isomorphic(members[i], members[j], budget) is not None:
                raise AssertionError(f"members {i} and {j} are isomorphic; construction bug")

    return DuplicationFamily(
        base=G,
        k=k,
        shared_square=shared,
        members=tuple(members),
        member_descriptions=tuple(descriptions),
    )


def similar_square_pair() -> tuple[Graph, Graph]:
    """The bundled 12-vertex 4-regular pair: connected, nonbipartite,
    non-isomorphic graphs whose adjacency squares are permutation-similar
    (though not equal under the shipped labelings)."""
    data = resources.files(__package__) / "data"
    return tuple(parse_edgelist((data / f"pair12_{x}.edges").read_text()) for x in "ab")
