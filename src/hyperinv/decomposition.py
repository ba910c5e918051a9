"""Vertex classifications on hypergraphs: codominated vertices, shedding
vertices, codismantlability, and the shedding/codominated equivalence
report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import independence_complex, is_shedding
from .hypergraph import (
    Hypergraph,
    bit_ids,
    deletion,
    find_cycle,
    neighborhood_minus,
    three_cycle_edge_condition,
)


def is_codominated(h: Hypergraph, x: str) -> Optional[int]:
    """Least witness edge mask if x is codominated, else None.

    x is codominated when some edge E through x has, for every y in
    E\\{x}, N(y\\x) contained in N(x\\y).  Vertices in no edge are never
    codominated.
    """
    bx = 1 << h.vertex_id(x)
    for e in h.edges:  # canonical order gives the least witness
        if e & bx and all(
            neighborhood_minus(h, y, x) <= neighborhood_minus(h, x, y)
            for y in h.edge_labels(e & ~bx)
        ):
            return e
    return None


def is_shedding_vertex(h: Hypergraph, x: str) -> bool:
    return is_shedding(independence_complex(h), x)


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[str, ...]
    valid: bool


def _codismantle_order(h: Hypergraph, memo_fail: set) -> Optional[list[str]]:
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
        if is_codominated(h, x) is None:
            continue
        rest = _codismantle_order(deletion(h, x), memo_fail)
        if rest is not None:
            return [x] + rest
    memo_fail.add(state)
    return None


def is_codismantlable(h: Hypergraph) -> Optional[EliminationOrder]:
    """Backtracking search for a codominated-vertex elimination order."""
    order = _codismantle_order(h, set())
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
    """Per-vertex shedding/codominated table with the equivalence verdict."""
    delta = independence_complex(h)
    rows = []
    shed_set, codom_set = set(), set()
    for x in h.labels:
        shed = is_shedding(delta, x)
        witness = is_codominated(h, x)
        if shed:
            shed_set.add(x)
        if witness is not None:
            codom_set.add(x)
        rows.append(
            {
                "vertex": x,
                "shedding": shed,
                "codominated": witness is not None,
                "codominated_witness": list(h.edge_labels(witness)) if witness is not None else None,
            }
        )
    hyp = {
        "c5_free": find_cycle(h, 5) is None,
        "three_cycle_condition": three_cycle_edge_condition(h),
    }
    return VertexClassification(tuple(rows), hyp, shed_set == codom_set)
