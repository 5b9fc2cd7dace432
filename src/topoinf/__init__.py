"""Topology/task compatibility, per-edge influence scores, and graph rewiring.

The pipeline: a graph plus node labels and a polynomial filter (standing in
for a message-passing model's aggregation) give a compatibility number C;
each edge's influence score is the change in C when that edge alone is
removed; the scores drive edge-removal strategies and a biased edge-dropping
sampler.
"""

__version__ = "0.1.0"

from .compat import CompatReport, compatibility
from .csbm import (
    CsbmParams,
    CsbmSample,
    check_distance_contraction,
    check_variance_reduction,
    cora_like_params,
    generate_csbm,
)
from .filters import (
    PRESETS,
    FilterSpec,
    apply_filter,
)
from .graphs import (
    Graph,
    GraphFormatError,
    LabelData,
    NormalizedAdjacency,
    khop_set,
    load_edge_list,
    load_labels,
    node_set,
    normalized_adjacency,
    write_edge_list,
    write_labels,
)
from .influence import (
    DeltaWorkspace,
    ScoreReport,
    TopoInfScore,
    greedy_refine,
    score_all_edges,
    topoinf_oracle,
)
from .pseudo import (
    LinearModel,
    TrainConfig,
    predict_pseudo,
    train_linear_sgc,
)
from .rewire import (
    dropedge_weights,
    remove_adaedge,
    remove_by_topoinf,
    remove_random,
    sample_dropedge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
