"""Colouring toolkit for triangle-free graphs.

Exact hard-core-model statistics, a greedy fractional colouring algorithm
with degree-local weights, a local-lemma-certified correspondence
colouring solver, a semi-bipartite subgraph extractor, and the recursive
lower-bound construction showing the minimum-degree condition is needed.
"""

from .errors import (
    FormatError,
    HcchromaError,
    HypothesisError,
    InputError,
    InternalError,
    NumericError,
    SizeError,
    StateError,
)
from .graph import (
    Graph,
    VertexSet,
    complete,
    complete_bipartite,
    cycle,
    edgeless,
    format_edge_list,
    induced_subgraph,
    is_triangle_free,
    parse_edge_list,
    path,
    petersen,
    random_triangle_free,
    read_edge_list,
    star,
    vertex_set,
    write_edge_list,
)
from .numerics import lambert_w
from .hardcore import (
    FactCheckReport,
    OccupancyStats,
    conditional_fact_check,
    enumerate_stats,
    glauber_sample,
    hcm_lower_bound,
)
from .fractional import (
    FractionalColouring,
    LocalWeights,
    SetDistribution,
    choose_local_weights,
    extract_independent_set,
    greedy_fractional_colouring,
    hard_core_oracle,
    table_oracle,
    uniform_set_oracle,
    validate_colouring,
    vertex_interval_bound,
)
from .dpcolor import (
    Cover,
    finishing_blow_hypothesis,
    from_list_assignment,
    lll_certify,
    solve,
    two_phase_colour,
    validate_cover,
    verify_dp_colouring,
)
from .constructions import (
    NecessaryInstance,
    necessary_construction,
    semi_bipartite_extract,
    structural_not_colourable,
    verify_construction,
)
