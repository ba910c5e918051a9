"""Vertex classifications on hypergraphs: codominated vertices, shedding
vertices, codismantlability, and the shedding/codominated equivalence
report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .hypergraph import Hypergraph, _neighborhood_minus, bit_ids, deletion


def is_codominated(h: Hypergraph, x: str) -> Optional[int]:
    """Least witness edge mask if x is codominated, else None.

    x is codominated when some edge E through x has, for every y in
    E\\{x}, N(y\\x) contained in N(x\\y).  Vertices in no edge are never
    codominated.
    """
    return _codominated(h.edges, 1 << h.vertex_id(x))


def _codominated(edges: Sequence[int], bx: int) -> Optional[int]:
    """``is_codominated`` on edge masks in canonical order and a vertex bit."""
    for e in edges:  # canonical order gives the least witness
        if e & bx and all(
            _neighborhood_minus(edges, 1 << y, bx) <= _neighborhood_minus(edges, bx, 1 << y)
            for y in bit_ids(e & ~bx)
        ):
            return e
    return None


def _profile(h: Hypergraph):
    from .profile import profile_of  # the profile module builds on this one
    return profile_of(h)


def is_shedding_vertex(h: Hypergraph, x: str) -> bool:
    """Whether x is a shedding vertex of the independence complex, read from H's profile."""
    return _profile(h).shedding[h.vertex_id(x)]


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[str, ...]


def _codismantle_order(
    edges: Sequence[int], first: Sequence[Optional[int]]
) -> Optional[list[int]]:
    """An elimination order (vertex ids) of canonical edge masks, or None:
    while edges remain, delete the least-id codominated vertex.  The first
    step reads ``first``, the least witness of each vertex by id, later ones
    ask ``_codominated`` on the edges left.
    Greedy is exact: deleting any codominated vertex of a codismantlable
    hypergraph leaves a codismantlable one (the lemma in the README)."""
    order = []
    witness = first.__getitem__
    while edges:
        i = next((i for i in bit_ids(reduce(or_, edges)) if witness(i) is not None), None)
        if i is None:
            return None
        order.append(i)
        edges = [e for e in edges if not e >> i & 1]
        witness = lambda i, edges=edges: _codominated(edges, 1 << i)
    return order


def is_codismantlable(h: Hypergraph) -> Optional[EliminationOrder]:
    """The greedy codominated-vertex elimination order, or None.

    Its first step reads the codominated witnesses of H's profile.
    """
    order = _codismantle_order(h.edges, _profile(h).codominated)
    if order is None:
        return None
    return EliminationOrder(tuple(h.labels[i] for i in order))


def replay_elimination(h: Hypergraph, order: EliminationOrder) -> bool:
    """Re-verify an elimination order step by step."""
    cur = h
    for x in order.order:
        if x not in cur.labels or is_codominated(cur, x) is None:
            return False
        cur = deletion(cur, x)
    return not cur.edges


@dataclass(frozen=True)
class VertexClassification:
    rows: tuple[dict, ...]
    hypotheses: dict
    equivalence_holds: bool

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.rows),
            "hypotheses": dict(self.hypotheses),
            "equivalence_holds": self.equivalence_holds,
        }


def theorem_main_report(h: Hypergraph) -> VertexClassification:
    """Per-vertex shedding/codominated table with the equivalence verdict,
    read from H's profile.  The rows need no cycle search: when the C5
    search hits its cap, only that hypothesis is marked omitted."""
    p = _profile(h)
    rows = tuple(
        {
            "vertex": x,
            "shedding": shed,
            "codominated": witness is not None,
            "codominated_witness": list(h.edge_labels(witness)) if witness is not None else None,
        }
        for x, shed, witness in zip(h.labels, p.shedding, p.codominated)
    )
    equivalence = all(r["shedding"] == r["codominated"] for r in rows)
    return VertexClassification(rows, p.hypotheses, equivalence)
