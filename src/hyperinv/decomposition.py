"""Vertex classifications on hypergraphs: codominated vertices, shedding
vertices, codismantlability, and the shedding/codominated equivalence
report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .complexes import independence_complex, is_shedding
from .errors import SearchLimitExceeded
from .hypergraph import (
    Hypergraph,
    _neighborhood_minus,
    bit_ids,
    deletion,
)

DEFAULT_CODISMANTLE_CAP = 10_000  # edge sets found to have no elimination order


def is_codominated(h: Hypergraph, x: str) -> Optional[int]:
    """Least witness edge mask if x is codominated, else None.

    x is codominated when some edge E through x has, for every y in
    E\\{x}, N(y\\x) contained in N(x\\y).  Vertices in no edge are never
    codominated.
    """
    bx = 1 << h.vertex_id(x)
    edges = h.edges
    for e in edges:  # canonical order gives the least witness
        if e & bx and all(
            _neighborhood_minus(edges, 1 << y, bx) <= _neighborhood_minus(edges, bx, 1 << y)
            for y in bit_ids(e & ~bx)
        ):
            return e
    return None


def is_shedding_vertex(h: Hypergraph, x: str) -> bool:
    return is_shedding(independence_complex(h), x)


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[str, ...]
    valid: bool


def _codismantle_order(
    h: Hypergraph, witness: Callable[[str], Optional[int]], memo_fail: set
) -> Optional[list[str]]:
    """An elimination order of h, or None; ``witness(x)`` is
    ``is_codominated(h, x)``, asked only as the search reaches x.  More
    than ``DEFAULT_CODISMANTLE_CAP`` failed edge sets in ``memo_fail``
    raise ``SearchLimitExceeded``."""
    if not h.edges:
        return []
    state = frozenset(h.edges)
    if state in memo_fail:
        return None
    support = 0
    for e in h.edges:
        support |= e
    for i in bit_ids(support):
        x = h.labels[i]
        if witness(x) is None:
            continue
        rest_h = deletion(h, x)
        rest = _codismantle_order(rest_h, partial(is_codominated, rest_h), memo_fail)
        if rest is not None:
            return [x] + rest
    memo_fail.add(state)
    if len(memo_fail) > DEFAULT_CODISMANTLE_CAP:
        raise SearchLimitExceeded(
            f"codismantlability search failed states exceed cap {DEFAULT_CODISMANTLE_CAP}")
    return None


def is_codismantlable(h: Hypergraph) -> Optional[EliminationOrder]:
    """Backtracking search for a codominated-vertex elimination order.

    Its first step reads the codominated witnesses of H's profile.
    """
    from .profile import profile_of  # the profile module builds on this one

    order = _codismantle_order(h, profile_of(h).codominated_witness, set())
    if order is None:
        return None
    return EliminationOrder(tuple(order), True)


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
    from .profile import profile_of  # the profile module builds on this one

    p = profile_of(h)
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
