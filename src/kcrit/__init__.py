"""Exact tools for k-vertex-critical graphs with small forbidden subgraphs.

Bitmask graphs up to 31 vertices, exact invariants (chromatic,
independence, clique, matching numbers), induced-pattern detection,
canonical forms, isomorph-free enumeration, criticality censuses, and a
certifying k-colorability test for graphs with no induced P3+P1.
"""

from .graph import (
    MAX_VERTICES,
    Graph,
    bits,
    complement,
    delete_vertex,
    disjoint_union,
    format_edge_list,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    join,
    mask_of,
    parse_edge_list,
    parse_graph_line,
    read_graph_file,
    relabel,
    to_graph6,
)
from .canon import (
    automorphism_generators,
    automorphism_orbits,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    is_isomorphic,
)
from .invariants import (
    Coloring,
    chromatic_number,
    clique_number,
    coloring_with_min_class_size,
    independence_number,
    is_k_colorable,
    is_proper_coloring,
    max_matching,
)
from .patterns import (
    JoinDecomposition,
    ORDER4_NAMES,
    contains_induced,
    co_components,
    copaw_decompose,
    is_free,
    is_p2_lp1_free,
    maximal_independent_set,
    named_graph,
    nonneighbor_profile,
)
from .critical import (
    CriticalityReport,
    check_min_class_colorings,
    find_critical_subgraph,
    is_vertex_critical,
    verify_join_criticality,
)
from .families import (
    clique_substituted_odd_cycle,
    co_odd_cycle,
    odd_cycle,
    substitute_clique,
)
from .generate import (
    ALL_GRAPHS,
    TRIANGLE_FREE,
    child_graphs,
    generate_graphs,
    generate_level,
    generate_triangle_free,
    independent_set_masks,
)
from .census import (
    CensusRow,
    VerifyReport,
    census_copaw_critical,
    census_general,
    verify_list,
)
from .certify import (
    NO,
    NOT_IN_CLASS,
    YES,
    CertifiedAnswer,
    CriticalDatabase,
    build_database,
    certify_color,
    load_database,
    save_database,
    verify_certificate,
)

__version__ = "0.1.0"
