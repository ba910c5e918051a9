"""Deterministic instance sources: exhaustive labeled graphs, seeded
random hypergraphs, named worked examples, and hypothesis filters.

Every stream is reproducible from its spec alone; random instances are
seeded per index so workers can regenerate any shard independently.
``stream`` is the one filtered source: the (index, instance) pairs of a
family that pass its filters.  A spec the generators cannot meet, such as
a graph enumeration past its vertex bound, is an input error: a plain
``HyperinvError``, never a cap.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterator, Optional

from .errors import HyperinvError
from .hypergraph import (
    Hypergraph,
    build,
    c2_free,
    from_masks,
    is_graph,
    uniformity_profile,
)
from .profile import profile_of

MAX_ENUM_VERTICES = 7
MAX_DEDUP_VERTICES = 6
MAX_FAMILY_SIZE = 1_000  # bound on a family's n and edge_count


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple[str, ...]:
    """x1..xn, one tuple shared by every instance on n vertices."""
    return tuple(f"x{i + 1}" for i in range(n))


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
    for key in ("count", "edge_count"):
        if obj.get(key, 0) < 0:
            raise HyperinvError(f"family field {key!r} must be non-negative, not {obj[key]}")
    for key in ("n", "edge_count"):
        if obj.get(key, 0) > MAX_FAMILY_SIZE:
            raise HyperinvError(f"family field {key!r} must be at most {MAX_FAMILY_SIZE}, not {obj[key]}")
    obj["filters"] = tuple(obj.get("filters", ()))
    return FamilySpec(**obj)


# ---------------------------------------------------------------------------
# exhaustive labeled graphs


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Hypergraph]:
    """All labeled graphs on n vertices in lexicographic edge-set order;
    ``dedup`` tries all n! relabelings of each, so it stops at 6 vertices."""
    top = MAX_DEDUP_VERTICES if dedup else MAX_ENUM_VERTICES
    if not 1 <= n <= top:
        raise HyperinvError(f"graph enumeration{' with dedup' if dedup else ''} supports 1..{top} vertices")
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
        yield Hypergraph(labels, masks)  # pairs in combinations order are in canonical order


# ---------------------------------------------------------------------------
# seeded random hypergraphs


_RNG = random.Random()  # re-seeded by every draw: no state passes between draws


def random_hypergraph(spec: FamilySpec, index: int) -> Hypergraph:
    """Instance ``index`` of a random family; deterministic in (spec, index).

    Duplicate draws are resampled; a draw containing an existing edge is
    discarded, and a draw strictly inside existing edges evicts those
    supersets.  The final edge count can therefore fall below the
    requested one, but generation always terminates.  An edge is
    ``sample(bits, randint(2, top))``, their ``getrandbits`` calls made
    inline while n <= 21; past that ``sample`` may take its set branch.
    """
    n = spec.n
    if spec.max_edge_size < 2 or n < 2:
        raise HyperinvError("need at least two vertices and edge size two")
    rng = _RNG
    rng.seed(f"{spec.seed}:{index}")  # the state Random(seed) starts in
    getrandbits = rng.getrandbits
    # sample picks by position, so drawing bit values picks the same vertices
    bits = [1 << v for v in range(n)]
    sizes = min(spec.max_edge_size, n) - 1  # randint(2, top) is 2 + _randbelow(top - 1)
    edges: list[int] = []
    for _ in range(spec.edge_count):
        for _attempt in range(200):
            while (k := getrandbits(sizes.bit_length())) >= sizes:
                pass  # _randbelow rejects draws past its bound
            if n > 21:
                m = sum(rng.sample(bits, k + 2))
            else:  # sample's pool branch: swap each pick with the last unpicked
                pool, m = bits.copy(), 0
                for left in range(n, n - k - 2, -1):
                    while (j := getrandbits(left.bit_length())) >= left:
                        pass
                    m |= pool[j]
                    pool[j] = pool[left - 1]
            if m not in edges:
                break
        else:
            raise HyperinvError(f"cannot place {spec.edge_count} distinct edges")
        if any(e & m == e for e in edges):
            continue  # the draw contains an existing edge: discard the superset
        edges = [e for e in edges if e & m != m or e == m]
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


# The costly filters read the instance's profile, so the suite check that
# follows reuses their verdicts.
FILTERS: dict[str, Callable[[Hypergraph], bool]] = {
    "graph": lambda h: bool(h.edges) and is_graph(h),
    "c2_free": c2_free,
    "c5_free": lambda h: profile_of(h).c5_free,
    "three_cycle_condition": lambda h: profile_of(h).three_cycle_condition,
    "vertex_decomposable": lambda h: profile_of(h).vertex_decomposable,
    # the strong intersection property is only ever set for a uniform H
    "d_uniform_strong": lambda h: bool(h.edges) and uniformity_profile(h)["strong_intersection"],
    "has_edges": lambda h: bool(h.edges),
}


def check_filters(names) -> None:
    for name in names:
        if name not in FILTERS:
            raise HyperinvError(f"unknown filter {name!r}; have {sorted(FILTERS)}")


def passes_filters(h: Hypergraph, names) -> bool:
    return all(FILTERS[name](h) for name in names)


# ---------------------------------------------------------------------------
# spec-driven streams


def raw_stream(spec: FamilySpec, shard: int = 0, jobs: int = 1) -> Iterator[tuple[int, Hypergraph]]:
    """The instances of a family with their indices; with ``jobs`` > 1 only
    those whose index is ``shard`` modulo ``jobs``.  Random instances of
    other shards are never drawn."""
    if spec.kind == "all_graphs":
        for i, h in enumerate(enumerate_graphs(spec.n, dedup=spec.dedup)):
            if i % jobs == shard:
                yield i, h
    elif spec.kind == "random_hypergraph":
        for i in range(shard, spec.count, jobs):
            yield i, random_hypergraph(spec, i)
    elif spec.kind == "named":
        if shard == 0:
            yield 0, named_instance(spec.name)
    else:
        raise HyperinvError(f"unknown family kind {spec.kind!r}")


def stream(spec: FamilySpec, shard: int = 0, jobs: int = 1) -> Iterator[tuple[int, Hypergraph]]:
    """The (index, instance) pairs of ``raw_stream`` that pass the family's
    filters; an unknown filter is refused before any draw."""
    check_filters(spec.filters)
    return ((i, h) for i, h in raw_stream(spec, shard, jobs) if passes_filters(h, spec.filters))
