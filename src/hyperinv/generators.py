"""Deterministic instance sources: exhaustive labeled graphs, seeded
random hypergraphs, named worked examples, and hypothesis filters.

Every stream is reproducible from its spec alone; random instances are
seeded per index so workers can regenerate any shard independently.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterator, Optional

from .complexes import independence_complex, vertex_decomposable
from .errors import HyperinvError, SizeLimitExceeded, Unsatisfiable, UnknownFilter
from .hypergraph import (
    Hypergraph,
    build,
    c2_free,
    find_cycle,
    from_masks,
    is_graph,
    three_cycle_edge_condition,
    uniformity_profile,
)

MAX_ENUM_VERTICES = 7


def _labels(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # all_graphs | random_hypergraph | named
    n: int = 0
    max_edge_size: int = 3
    edge_count: int = 0
    seed: int = 0
    count: int = 0  # raw draws for random streams
    name: str = ""
    dedup: bool = False
    filters: tuple[str, ...] = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "max_edge_size": self.max_edge_size,
            "edge_count": self.edge_count,
            "seed": self.seed,
            "count": self.count,
            "name": self.name,
            "dedup": self.dedup,
            "filters": list(self.filters),
        }


def family_from_json(text: str) -> FamilySpec:
    """Read a family spec; every field must have the type of its default."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise HyperinvError("a family spec is a JSON object with a \"kind\" field")
    defaults = FamilySpec(kind="").to_json_obj()
    bad = set(obj) - set(defaults)
    if bad:
        raise HyperinvError(f"unknown family fields: {sorted(bad)}")
    for key, value in obj.items():
        want = type(defaults[key])
        if type(value) is not want or (want is list and not all(isinstance(f, str) for f in value)):
            raise HyperinvError(f"family field {key!r} must be a JSON {want.__name__}, not {value!r}")
    obj["filters"] = tuple(obj.get("filters", ()))
    return FamilySpec(**obj)


# ---------------------------------------------------------------------------
# exhaustive labeled graphs


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Hypergraph]:
    """All labeled graphs on n vertices in lexicographic edge-set order."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise SizeLimitExceeded(f"graph enumeration supports 1..{MAX_ENUM_VERTICES} vertices")
    labels = _labels(n)
    pairs = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    seen: set[tuple[int, ...]] = set()
    perm_tables = None
    if dedup:
        perm_tables = []
        for perm in permutations(range(n)):
            perm_tables.append({(1 << a) | (1 << b): (1 << perm[a]) | (1 << perm[b]) for a, b in combinations(range(n), 2)})
    for selector in range(1 << len(pairs)):
        masks = tuple(p for i, p in enumerate(pairs) if selector >> i & 1)
        if dedup:
            canon = min(tuple(sorted(t[m] for m in masks)) for t in perm_tables)
            if canon in seen:
                continue
            seen.add(canon)
        yield from_masks(labels, masks)


# ---------------------------------------------------------------------------
# seeded random hypergraphs


def random_hypergraph(spec: FamilySpec, index: int) -> Hypergraph:
    """Instance ``index`` of a random family; deterministic in (spec, index).

    Duplicate draws are resampled; a draw containing an existing edge is
    discarded, and a draw strictly inside existing edges evicts those
    supersets.  The final edge count can therefore fall below the
    requested one, but generation always terminates.
    """
    rng = random.Random(f"{spec.seed}:{index}")
    n = spec.n
    if spec.max_edge_size < 2 or n < 2:
        raise Unsatisfiable("need at least two vertices and edge size two")
    edges: list[int] = []
    for _ in range(spec.edge_count):
        for _attempt in range(200):
            size = rng.randint(2, min(spec.max_edge_size, n))
            m = 0
            for v in rng.sample(range(n), size):
                m |= 1 << v
            if m not in edges:
                break
        else:
            raise Unsatisfiable(f"cannot place {spec.edge_count} distinct edges")
        if any(e & m == e for e in edges):
            continue  # the draw contains an existing edge: discard the superset
        edges = [e for e in edges if e & m != m or e == m]
        edges = [e for e in edges if not (m & e == m and e != m)]
        edges.append(m)
    return from_masks(_labels(n), edges)


# ---------------------------------------------------------------------------
# named worked examples


def _named() -> dict[str, Hypergraph]:
    return {
        "h1": build(_labels(6), [["x1", "x2", "x3"], ["x2", "x3", "x4"], ["x4", "x5", "x6"]]),
        "h2": build(_labels(5), [["x1", "x2", "x3"], ["x2", "x3", "x4"], ["x4", "x5"]]),
        "star3": build(_labels(4), [["x1", "x2"], ["x1", "x3"], ["x1", "x4"]]),
        "p3": build(_labels(3), [["x1", "x2"], ["x2", "x3"]]),
        "single_edge": build(_labels(2), [["x1", "x2"]]),
        "two_disjoint_edges": build(_labels(4), [["x1", "x2"], ["x3", "x4"]]),
        "c4": build(_labels(4), [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x1"]]),
        "c5": build(
            _labels(5),
            [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x5"], ["x5", "x1"]],
        ),
    }


def named_instance(name: str) -> Hypergraph:
    table = _named()
    if name not in table:
        raise HyperinvError(f"unknown named instance {name!r}; have {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# filters


FILTERS: dict[str, Callable[[Hypergraph], bool]] = {
    "graph": lambda h: bool(h.edges) and is_graph(h),
    "c2_free": c2_free,
    "c5_free": lambda h: find_cycle(h, 5) is None,
    "three_cycle_condition": three_cycle_edge_condition,
    "vertex_decomposable": lambda h: vertex_decomposable(independence_complex(h)),
    # the strong intersection property is only ever set for a uniform H
    "d_uniform_strong": lambda h: bool(h.edges) and uniformity_profile(h)["strong_intersection"],
    "has_edges": lambda h: bool(h.edges),
}


def check_filters(names) -> None:
    for name in names:
        if name not in FILTERS:
            raise UnknownFilter(f"unknown filter {name!r}; have {sorted(FILTERS)}")


def passes_filters(h: Hypergraph, names) -> bool:
    return all(FILTERS[name](h) for name in names)


def filter_stream(src: Iterator, names) -> Iterator:
    check_filters(names)
    for item in src:
        h = item[1] if isinstance(item, tuple) else item
        if passes_filters(h, names):
            yield item


# ---------------------------------------------------------------------------
# spec-driven streams


def raw_stream(spec: FamilySpec) -> Iterator[tuple[int, Hypergraph]]:
    if spec.kind == "all_graphs":
        for i, h in enumerate(enumerate_graphs(spec.n, dedup=spec.dedup)):
            yield i, h
    elif spec.kind == "random_hypergraph":
        for i in range(spec.count):
            yield i, random_hypergraph(spec, i)
    elif spec.kind == "named":
        yield 0, named_instance(spec.name)
    else:
        raise HyperinvError(f"unknown family kind {spec.kind!r}")


def stream(spec: FamilySpec) -> Iterator[tuple[int, Hypergraph]]:
    check_filters(spec.filters)
    return filter_stream(raw_stream(spec), spec.filters)
