"""Distance and distance-signless-Laplacian spectra, spreads and
quotient-matrix lower bounds for connected graphs."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    LegacyComparison,
    Witness,
    bound_bipartite_distance,
    bound_bipartite_dsl,
    bound_cactus,
    bound_clique,
    bound_diameter,
    legacy_2012_counterexample,
)
from .errors import (
    AcyclicError,
    DegenerateBoundError,
    NotBipartiteError,
    NotCactusError,
    NotConnectedError,
    NumericError,
    ParseError,
    SpreadlabError,
)
from .graph import (
    DistanceData,
    Graph,
    all_pairs_distances,
    average_distance_degree,
    bipartition,
    builtin,
    builtin_names,
    complete,
    complete_bipartite,
    cycle,
    generate,
    is_bipartite,
    is_connected,
    kite,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    write_graph6,
)
from .linalg import Spectrum, SymMatrix, eigenvalues_symmetric, jacobi_eigenvalues
from .quotient import InterlacingResult, Partition, QuotientMatrix, block_spectrum, interlaces, quotient
from .search import (
    ConjectureReport,
    canonical_graph,
    canonical_graph6,
    check_conjecture,
    check_monotonicity,
    enumerate_connected_bipartite,
    isomorphic,
)
from .spectral import (
    KIND_DISTANCE,
    KIND_DSL,
    SpreadReport,
    closed_form_spread,
    kab_distance_spectrum,
    kab_q_extremes,
    kab_q_spectrum,
    spread,
)
from .structures import (
    WitnessSet,
    cactus_longest_cycles,
    cycle_internal_sum,
    diameter_paths,
    is_cactus,
    maximum_cliques,
    path_internal_sum,
)
from .tables import CellResult, verify_tables
