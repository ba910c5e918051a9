"""Simplicial complexes as facet antichains.

Three kinds of complex occur: ordinary (at least one nonempty facet),
the complex whose only face is the empty set, and the void complex with
no faces at all.  The last two both arise from contracting singleton
edges and both count as vertex decomposable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnknownVertex
from .hypergraph import (
    Hypergraph,
    _compress,
    _maximal,
    _shift_mask,
    bit_ids,
    mask_of,
    maximal_independent_sets,
)

KIND_VOID = "void"
KIND_EMPTY = "empty"
KIND_ORDINARY = "ordinary"


@dataclass(frozen=True)
class SimplicialComplex:
    labels: tuple[str, ...]
    facets: tuple[int, ...]  # masks in ascending order; () = void, (0,) = {∅}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def kind(self) -> str:
        if not self.facets:
            return KIND_VOID
        if self.facets == (0,):
            return KIND_EMPTY
        return KIND_ORDINARY

    def vertex_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    def facet_labels(self) -> list[list[str]]:
        return [[self.labels[i] for i in bit_ids(f)] for f in self.facets]

    def is_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def to_json_obj(self) -> dict:
        return {
            "ground_set": list(self.labels),
            "facets": self.facet_labels(),
            "kind": self.kind,
        }


def complex_from_facets(labels: Sequence[str], facet_masks: Sequence[int]) -> SimplicialComplex:
    """Normalize an arbitrary face list to its facet antichain."""
    return SimplicialComplex(tuple(labels), _maximal(set(facet_masks)))


def independence_complex(h: Hypergraph) -> SimplicialComplex:
    """Faces are the vertex sets containing no edge of H."""
    if h.void:
        return SimplicialComplex(h.labels, ())
    return SimplicialComplex(h.labels, maximal_independent_sets(h))


def link_and_deletion(d: SimplicialComplex, x: str) -> tuple[SimplicialComplex, SimplicialComplex]:
    """(link, deletion) of the vertex, both on the ground set minus x."""
    i = d.vertex_id(x)
    bit = 1 << i
    labels = d.labels[:i] + d.labels[i + 1 :]
    link_facets = _maximal({f & ~bit for f in d.facets if f & bit})
    shift = lambda fs: tuple(sorted(_shift_mask(f, i) for f in fs))
    link = SimplicialComplex(labels, shift(link_facets))
    deletion = SimplicialComplex(labels, shift(_deletion(d.facets, bit)[0]))
    return link, deletion


def dimension(d: SimplicialComplex) -> Optional[int]:
    """Max facet size minus one; -1 for {∅}; None for the void complex."""
    if d.kind == KIND_VOID:
        return None
    return max(f.bit_count() for f in d.facets) - 1


def induced_subcomplex(d: SimplicialComplex, w: Sequence[str]) -> SimplicialComplex:
    """Restriction to the vertex subset W, reindexed onto W."""
    ids = sorted(d.vertex_id(lab) for lab in w)
    labels = tuple(d.labels[i] for i in ids)
    wmask = mask_of(ids)
    restricted = _maximal({f & wmask for f in d.facets})
    return SimplicialComplex(labels, tuple(sorted(_compress(restricted, ids))))


def _deletion(facets: tuple[int, ...], bit: int) -> tuple[tuple[int, ...], bool]:
    """Facets of the deletion of the vertex with this bit, and whether the
    vertex sheds: every facet of the deletion is a facet of the complex."""
    del_facets = _maximal({f & ~bit for f in facets})
    return del_facets, set(del_facets) <= set(facets)


def is_shedding(d: SimplicialComplex, x: str) -> bool:
    """True iff every facet of del(x) is a facet of D."""
    return _deletion(d.facets, 1 << d.vertex_id(x))[1]


# ---------------------------------------------------------------------------
# vertex decomposability


def _profile_permutation(n: int, facets: tuple[int, ...]) -> list[int]:
    """Deterministic relabeling by facet-membership profile.

    A permutation never conflates distinct complexes; sorting by profile
    just improves memo hits across isomorphic relabelings.
    """
    profiles = []
    for v in range(n):
        sizes = tuple(sorted(f.bit_count() for f in facets if f >> v & 1))
        profiles.append((len(sizes), sizes, v))
    order = sorted(range(n), key=lambda v: profiles[v])
    return order


def _compressed_key(n: int, facets: tuple[int, ...]) -> tuple:
    return (n, tuple(sorted(_compress(facets, _profile_permutation(n, facets)))))


_VD_MEMO: dict[tuple, bool] = {}


def _vd_verdict(n: int, facets: tuple[int, ...]) -> bool:
    """Memoized verdict on (ground size, facet masks over 0..n-1).

    Vertices in no facet shed trivially and cone vertices never affect the
    verdict, so both are stripped before the recursion.
    """
    if len(facets) <= 1:
        return True  # void, {∅}, or a simplex over its support
    support = 0
    common = facets[0]
    for f in facets:
        support |= f
        common &= f
    if common or support != (1 << n) - 1:
        keep = list(bit_ids(support & ~common))
        stripped = _compress([f & ~common for f in facets], keep)
        return _vd_verdict(len(keep), tuple(sorted(set(stripped))))
    key = _compressed_key(n, facets)
    hit = _VD_MEMO.get(key)
    if hit is not None:
        return hit
    verdict = False
    for v in range(n):
        bit = 1 << v
        del_facets, sheds = _deletion(facets, bit)
        # the link is built only for a shedding vertex whose deletion is VD
        if sheds and _vd_verdict(n, del_facets) and _vd_verdict(
            n, _maximal({f & ~bit for f in facets if f & bit})
        ):
            verdict = True
            break
    _VD_MEMO[key] = verdict
    return verdict


def vertex_decomposable(d: SimplicialComplex) -> bool:
    """Fast memoized verdict without certificate construction."""
    return _vd_verdict(d.n, d.facets)


@dataclass(frozen=True)
class VDCertificate:
    verdict: bool
    tree: Optional[dict]
    failure_witness: Optional[dict]


def _is_simplex(d: SimplicialComplex) -> bool:
    return len(d.facets) == 1 and d.facets[0] == (1 << d.n) - 1


def is_vertex_decomposable(d: SimplicialComplex) -> VDCertificate:
    """Literal recursion; shedding candidates tried in ascending vertex id.

    A VD complex gets the tree of its first shedding vertex whose deletion
    and link are both VD.  Any other complex gets a failure witness: the
    walk follows the first shedding vertex into its side that is not VD,
    the deletion before the link, down to a complex where none is left.
    """
    if d.kind != KIND_ORDINARY or _is_simplex(d):
        # the base cases are named "void", "empty" and "simplex"
        return VDCertificate(True, {"base": d.kind if d.kind != KIND_ORDINARY else "simplex"}, None)
    failing: Optional[SimplicialComplex] = None
    for x in d.labels:
        if not is_shedding(d, x):
            continue
        link, dele = link_and_deletion(d, x)
        del_vd, link_vd = vertex_decomposable(dele), vertex_decomposable(link)
        if del_vd and link_vd:
            tree = {
                "vertex": x,
                "deletion": is_vertex_decomposable(dele).tree,
                "link": is_vertex_decomposable(link).tree,
            }
            return VDCertificate(True, tree, None)
        if failing is None:
            failing = link if del_vd else dele
    witness = d.to_json_obj() if failing is None else is_vertex_decomposable(failing).failure_witness
    return VDCertificate(False, None, witness)


def verify_certificate(d: SimplicialComplex, cert: VDCertificate) -> bool:
    """Replay a positive certificate against the complex it claims to cover."""
    if not cert.verdict or cert.tree is None:
        return False

    def replay(dd: SimplicialComplex, node: dict) -> bool:
        base = node.get("base")
        if base == "void":
            return dd.kind == KIND_VOID
        if base == "empty":
            return dd.kind == KIND_EMPTY
        if base == "simplex":
            return _is_simplex(dd)
        x = node["vertex"]
        if x not in dd.labels or not is_shedding(dd, x):
            return False
        link, dele = link_and_deletion(dd, x)
        return replay(dele, node["deletion"]) and replay(link, node["link"])

    return replay(d, cert.tree)
