"""Shared fixtures and independent oracle implementations.

The oracles deliberately avoid the package's algorithms: raw subset
enumeration for matching numbers, definition-level enumeration of
bouquet sets, naive recursion for vertex decomposability, pairwise
comparison for minimal and maximal sets, every rotation and reflection
for cycle witnesses, dense
Gaussian elimination (Fractions, or integers mod p) for homology ranks,
a fresh generator per draw, picking vertices one at a time, for
random hypergraphs, and a backtracking search that builds each deleted
hypergraph for codismantlability.
Tests freeze oracle outputs and compare the package against them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from hyperinv import build, deletion, from_masks, is_codominated, named_instance
from hyperinv.complexes import complex_from_facets
from hyperinv.errors import Unsatisfiable
from hyperinv.hypergraph import bit_ids


@pytest.fixture
def h1():
    return named_instance("h1")


@pytest.fixture
def h2():
    return named_instance("h2")


@pytest.fixture
def star3():
    return named_instance("star3")


@pytest.fixture
def p3():
    return named_instance("p3")


@pytest.fixture
def c5():
    return named_instance("c5")


# The real projective plane on six vertices: its homology has 2-torsion,
# so its Betti numbers over F2 differ from those over Q and F3.
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")


def rp2():
    labels = [str(i) for i in range(1, 7)]
    masks = [sum(1 << (int(c) - 1) for c in f) for f in RP2_FACETS]
    return complex_from_facets(labels, masks)


# ---------------------------------------------------------------------------
# matching oracle: raw subset enumeration straight from the definitions


def oracle_matching_numbers(h):
    """(c, c', m, optima): optima maps "c", "c_prime" and "m" to the least
    edge-index tuple among that maximum's families (() when it is 0), with
    that family's (matching, semi-induced) flags."""
    edges = h.edges
    best = {name: (0, (), True, True) for name in ("c", "c_prime", "m")}
    for r in range(1, len(edges) + 1):
        for ids in combinations(range(len(edges)), r):
            fam = [edges[i] for i in ids]
            union = 0
            total = 0
            for e in fam:
                union |= e
                total += e.bit_count()
            weight = union.bit_count() - r
            matching = total == union.bit_count()
            semi = all(e in fam for e in edges if e & union == e)
            for name, holds in (("m", matching), ("c_prime", semi), ("c", matching and semi)):
                w, least = best[name][:2]
                if holds and (weight > w or weight == w > 0 and ids < least):
                    best[name] = (weight, ids, matching, semi)
    optima = {name: b[1:] for name, b in best.items()}
    return best["c"][0], best["c_prime"][0], best["m"][0], optima


# ---------------------------------------------------------------------------
# bouquet oracle: enumerate bouquet sets literally from the definition


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _proper_subsets(mask):
    ids = list(bit_ids(mask))
    for r in range(1, len(ids)):
        for combo in combinations(ids, r):
            m = 0
            for i in combo:
                m |= 1 << i
            yield m


def _group_root_options(group):
    """Possible root sets for one bouquet; [] means the group is invalid."""
    if len(group) >= 2:
        inter = group[0]
        for e in group[1:]:
            inter &= e
        return [inter] if inter else []
    return list(_proper_subsets(group[0]))


def oracle_bouquet_numbers(h):
    """(d, d') by literal enumeration; practical only for few small edges."""
    edges = list(h.edges)
    best_d = best_dp = 0
    for r in range(1, len(edges) + 1):
        for chosen in combinations(edges, r):
            for part in _partitions(list(chosen)):
                options = [_group_root_options(g) for g in part]
                if any(not o for o in options):
                    continue

                def walk(i, roots, flowers):
                    nonlocal best_d, best_dp
                    if i == len(part):
                        if not any(e & roots == e for e in edges):
                            best_dp = max(best_dp, flowers.bit_count())
                        from itertools import product

                        for stems in product(*part):
                            if len(set(stems)) != len(stems):
                                continue
                            u = 0
                            tot = 0
                            for s in stems:
                                u |= s
                                tot += s.bit_count()
                            if tot != u.bit_count():
                                continue
                            if all(e in stems for e in edges if e & u == e):
                                best_d = max(best_d, flowers.bit_count())
                                return
                        return
                    g = part[i]
                    u = 0
                    for e in g:
                        u |= e
                    for rt in options[i]:
                        walk(i + 1, roots | rt, flowers | (u & ~rt))

                walk(0, 0, 0)
    return best_d, best_dp


def oracle_dprime_search(h, facets):
    """(d', witness) by the face-by-face search that scores every root set
    R with a dynamic program over the roots each contested edge keeps:
    no star masks, no root bound and no closed-form freed count.  Root
    sets are the faces of the independence complex inside the edge
    support, in ascending mask order, and the first best one is reported;
    only the witness is built with the package's bouquet classes."""
    from hyperinv.bouquets import Bouquet, classify_bouquet_set

    support = 0
    for e in h.edges:
        support |= e
    faces = set()
    for f in facets:
        r = f & support
        while r:
            faces.add(r)
            r = (r - 1) & f & support
    best, best_r, best_kept = 0, 0, ()
    for r_mask in sorted(faces):
        union = 0
        contested = []
        for e in h.edges:
            common = e & r_mask
            if common:
                union |= e
                if common & (common - 1):
                    contested.append(common)
        # each contested edge keeps one root; the first choice reaching a
        # freed set wins, and of the largest freed sets the least mask
        states = {0: ()}
        for common in contested:
            nxt = {}
            for freed, kept in states.items():
                for v in bit_ids(common):
                    nxt.setdefault(freed | (common & ~(1 << v)), kept + (1 << v,))
            states = nxt
        freed = max(states, key=lambda f: (f.bit_count(), -f))
        size = (union & ~r_mask).bit_count() + freed.bit_count()
        if size > best:
            best, best_r, best_kept = size, r_mask, states[freed]
    kept_roots = iter(best_kept)
    bouquets = tuple(
        Bouquet((e,), next(kept_roots) if c & (c - 1) else c)
        for e in h.edges
        if (c := e & best_r)
    )
    return best, classify_bouquet_set(h, bouquets)


# ---------------------------------------------------------------------------
# vertex decomposability oracle: naive recursion on facet lists


def oracle_vd(facets, n):
    facets = tuple(sorted(facets))
    if not facets or facets == (0,):
        return True
    if len(facets) == 1:
        return True
    fs = set(facets)
    support = 0
    for f in facets:
        support |= f
    for v in bit_ids(support):
        bit = 1 << v
        dele = {f & ~bit for f in facets}
        dele = {f for f in dele if not any(o != f and f & o == f for o in dele)}
        if not all(f in fs for f in dele):
            continue
        link = {f & ~bit for f in facets if f & bit}
        link = {f for f in link if not any(o != f and f & o == f for o in link)}
        if oracle_vd(tuple(dele), n) and oracle_vd(tuple(link), n):
            return True
    return False


def oracle_minimal_sets(masks):
    """The inclusion-minimal members of a collection of masks, ascending, by
    comparing every pair."""
    masks = set(masks)
    return tuple(sorted(m for m in masks if not any(o != m and o & m == o for o in masks)))


def oracle_split(facets, i):
    """(link, deletion, sheds) of vertex i, renumbered onto the ground set
    without i: the maximal sets of f \\ i over the facets f through i, and
    over all facets; i sheds iff every facet of the deletion is a facet."""

    def maximal(sets):
        return tuple(sorted(s for s in sets if not any(o != s and s & o == s for o in sets)))

    def drop(m):
        return m & ((1 << i) - 1) | m >> (i + 1) << i

    bit = 1 << i
    link = maximal({f & ~bit for f in facets if f & bit})
    dele = maximal({f & ~bit for f in facets})
    return tuple(map(drop, link)), tuple(map(drop, dele)), set(dele) <= set(facets)


def oracle_independence_facets(h):
    ind = [u for u in range(1 << h.n) if not any(e & u == e for e in h.edges)]
    s = set(ind)
    return tuple(
        sorted(u for u in ind if not any((u | 1 << v) in s for v in range(h.n) if not u >> v & 1))
    )


def oracle_minimal_transversals(edges, n):
    """Inclusion-minimal subsets of the n-vertex ground set that meet every
    edge, by scanning every subset."""
    hits = [u for u in range(1 << n) if all(e & u for e in edges)]
    return tuple(sorted(u for u in hits if not any(o != u and o & u == o for o in hits)))


def oracle_minimal_nonfaces(facets, n):
    """Inclusion-minimal non-faces, by scanning every subset of the ground set."""
    nonfaces = [u for u in range(1 << n) if not any(u & f == u for f in facets)]
    return tuple(sorted(u for u in nonfaces if not any(o != u and o & u == o for o in nonfaces)))


# ---------------------------------------------------------------------------
# cycle witness oracle: every rotation and reflection


def oracle_canonical_witness(w):
    """The least of the 2n rotations and reflections of a cycle witness,
    comparing vertex ids, then the edges' vertex ids."""
    from hyperinv.hypergraph import CycleWitness

    n = w.length
    vs, es = w.vertex_ids, w.edge_masks
    best = None
    for r in range(n):
        fwd_v = tuple(vs[(r + i) % n] for i in range(n))
        fwd_e = tuple(es[(r + i) % n] for i in range(n))
        # reversed from the same anchor: the edge closing the cycle comes first
        rev_v = (fwd_v[0],) + tuple(reversed(fwd_v[1:]))
        rev_e = tuple(reversed(fwd_e))
        for cand in ((fwd_v, fwd_e), (rev_v, rev_e)):
            key = (cand[0], tuple(tuple(bit_ids(e)) for e in cand[1]))
            if best is None or key < best[0]:
                best = (key, cand)
    return CycleWitness(*best[1])


# ---------------------------------------------------------------------------
# homology oracle: dense Gauss-Jordan elimination, over Q with Fractions
# or over GF(p) with integers mod p


def oracle_rank(rows, p=None):
    if not rows or not rows[0]:
        return 0
    m = [[v % p if p else Fraction(v) for v in r] for r in rows]

    def norm(x):
        return x % p if p else x

    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p) if p else 1 / m[row][col]
        m[row] = [norm(v * inv) for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [norm(a - f * b) for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def oracle_reduced_homology(faces, p=None):
    """Reduced Betti numbers of a face set (masks), dims from -1 up, over Q
    or, given a prime p, over GF(p)."""
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim)
    bdr = {}
    for d in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(d - 1, []))}
        cols = by_dim.get(d, [])
        rows = [[0] * len(cols) for _ in lower]
        for j, f in enumerate(cols):
            for k, v in enumerate(bit_ids(f)):
                rows[lower[f & ~(1 << v)]][j] = -1 if k % 2 else 1
        bdr[d] = oracle_rank(rows, p)
    out = {}
    for d in range(-1, top + 1):
        b = len(by_dim.get(d, [])) - bdr.get(d, 0) - bdr.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def oracle_betti_table(h, p=None):
    """Graded Betti numbers via the homology sum, oracle homology inside,
    over Q or, given a prime p, over GF(p)."""
    entries = {}
    for w in range(1, 1 << h.n):
        sub = [e for e in h.edges if e & w == e]
        if not sub:
            continue
        ids = list(bit_ids(w))
        j = len(ids)
        faces = [
            u
            for u in range(1 << h.n)
            if u & w == u and not any(e & u == e for e in sub)
        ]
        hom = oracle_reduced_homology(faces, p)
        for dim, rank in hom.items():
            i = j - dim - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + rank
    return entries


# ---------------------------------------------------------------------------
# random hypergraph oracle: a generator seeded afresh, one vertex at a time


def oracle_random_hypergraph(spec, index):
    """Instance ``index`` of a random family, drawn as the package first drew it."""
    rng = random.Random(f"{spec.seed}:{index}")
    n = spec.n
    if spec.max_edge_size < 2 or n < 2:
        raise Unsatisfiable("need at least two vertices and edge size two")
    edges = []
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
            continue
        edges = [e for e in edges if e & m != m or e == m]
        edges.append(m)
    return from_masks([f"x{i + 1}" for i in range(n)], edges)


# ---------------------------------------------------------------------------
# codismantlability oracle: every step builds the deleted hypergraph


def oracle_codismantle_order(h, witness, memo_fail):
    """An elimination order of h, or None, by backtracking: the first order
    in ascending vertex id; ``witness(x)`` is ``is_codominated(h, x)``, asked
    only as the search reaches x, and ``memo_fail`` keeps the failed edge
    sets."""
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
        rest = oracle_codismantle_order(rest_h, partial(is_codominated, rest_h), memo_fail)
        if rest is not None:
            return [x] + rest
    memo_fail.add(state)
    return None


# ---------------------------------------------------------------------------
# small instance helper for property tests


def tiny_hypergraphs():
    """A deterministic mixed bag of small instances used across tests."""
    out = [
        named_instance(k)
        for k in ("h1", "h2", "star3", "p3", "single_edge", "two_disjoint_edges", "c4", "c5")
    ]
    out.append(build(["x1", "x2", "x3"], []))
    out.append(
        build(["x1", "x2", "x3", "x4", "x5"], [["x1", "x2", "x3"], ["x3", "x4", "x5"]])
    )
    return out


def disjoint_edges_and_c5(k):
    """k disjoint edges x1x2, x3x4, ... and a C5 on the last five vertices."""
    labels = [f"x{i + 1}" for i in range(2 * k + 5)]
    cycle = labels[2 * k:]
    edges = [labels[2 * j: 2 * j + 2] for j in range(k)]
    return build(labels, edges + [[cycle[i], cycle[(i + 1) % 5]] for i in range(5)])
