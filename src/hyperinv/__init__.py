"""Exact combinatorial and homological invariants of finite simple
hypergraphs: matching-type numbers, bouquet numbers, vertex
decomposability, codismantlability, graded Betti tables, and
machine-checked verification suites for the theorems relating them.
"""

from .bouquets import (
    Bouquet,
    BouquetInvariants,
    BouquetSet,
    bouquet_invariants,
    classify_bouquet_set,
    cover_from_bouquets,
    dprime_invariant,
    make_bouquet,
)
from .complexes import (
    SimplicialComplex,
    dimension,
    independence_complex,
    vertex_decomposable,
)
from .decomposition import (
    EliminationOrder,
    VertexClassification,
    is_codismantlable,
    is_codominated,
    is_shedding_vertex,
    replay_elimination,
    theorem_main_report,
)
from .errors import HyperinvError
from .generators import (
    FamilySpec,
    enumerate_graphs,
    family_from_json,
    named_instance,
    random_hypergraph,
    stream,
)
from .homological import (
    BettiTable,
    alexander_dual,
    betti_table,
    complex_to_hypergraph,
    minimal_nonfaces,
    reduced_homology,
    reg_and_pd,
)
from .hypergraph import (
    CoverList,
    CycleWitness,
    Hypergraph,
    build,
    contraction,
    deletion,
    find_cycle,
    from_json,
    from_json_obj,
    from_masks,
    maximal_independent_sets,
    minimal_vertex_covers,
    three_cycle_edge_condition,
    uniformity_profile,
)
from .matchings import (
    EdgeFamily,
    MatchingInvariants,
    classify_family,
    independent_set_from_semi_induced,
    is_two_collage,
    matching_invariants,
    maximal_matchings,
)
from .profile import Profile, profile_of
from .suites import SUITES, SuiteResult, VerificationReport, check_instance, run_suite

__version__ = "0.1.0"

__all__ = [
    "Bouquet",
    "BouquetInvariants",
    "BouquetSet",
    "BettiTable",
    "CoverList",
    "CycleWitness",
    "EdgeFamily",
    "EliminationOrder",
    "FamilySpec",
    "Hypergraph",
    "HyperinvError",
    "MatchingInvariants",
    "Profile",
    "SUITES",
    "SimplicialComplex",
    "SuiteResult",
    "VerificationReport",
    "VertexClassification",
    "alexander_dual",
    "betti_table",
    "bouquet_invariants",
    "build",
    "check_instance",
    "classify_bouquet_set",
    "classify_family",
    "complex_to_hypergraph",
    "contraction",
    "cover_from_bouquets",
    "deletion",
    "dimension",
    "dprime_invariant",
    "enumerate_graphs",
    "family_from_json",
    "find_cycle",
    "from_json",
    "from_json_obj",
    "from_masks",
    "independence_complex",
    "independent_set_from_semi_induced",
    "is_codismantlable",
    "is_codominated",
    "is_shedding_vertex",
    "is_two_collage",
    "make_bouquet",
    "matching_invariants",
    "maximal_independent_sets",
    "maximal_matchings",
    "minimal_nonfaces",
    "minimal_vertex_covers",
    "named_instance",
    "profile_of",
    "random_hypergraph",
    "reduced_homology",
    "reg_and_pd",
    "replay_elimination",
    "run_suite",
    "stream",
    "theorem_main_report",
    "three_cycle_edge_condition",
    "uniformity_profile",
    "vertex_decomposable",
]
