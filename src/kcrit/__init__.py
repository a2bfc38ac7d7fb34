"""Exact tools for k-vertex-critical graphs with small forbidden subgraphs.

Bitmask graphs up to 31 vertices, exact invariants (chromatic,
independence and clique numbers), induced-pattern detection, canonical
forms, isomorph-free enumeration, criticality censuses, and a certifying
k-colorability test for graphs with no induced P3+P1.  The package holds
what the census, the criticality test, the certifier and the command
line call, plus the entry points ``generate_graphs``, ``relabel`` and
``census_general``; the paper's lemma checkers are test code
(``tests/lemmas.py``); the lists ``data/critical<k>.g6`` are read-only data.
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
from .canon import canonical_form
from .invariants import (
    Coloring,
    chromatic_number,
    clique_number,
    independence_number,
    is_k_colorable,
    is_proper_coloring,
)
from .patterns import (
    JoinDecomposition,
    ORDER4_NAMES,
    contains_induced,
    copaw_decompose,
    is_free,
    named_graph,
)
from .critical import (
    CriticalityReport,
    find_critical_subgraph,
    is_vertex_critical,
)
from .families import (
    clique_substituted_odd_cycle,
    co_odd_cycle,
    odd_cycle,
)
from .generate import (
    ALL_GRAPHS,
    TRIANGLE_FREE,
    child_graphs,
    generate_graphs,
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
    verify_certificate,
)

__version__ = "0.1.0"
