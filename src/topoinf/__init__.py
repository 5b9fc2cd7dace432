"""Topology/task compatibility, per-edge influence scores, and graph rewiring.

The pipeline: a graph plus node labels and a polynomial filter (standing in
for a message-passing model's aggregation) give a compatibility number C;
each edge's influence score is the change in C when that edge alone is
removed; the scores drive edge-removal strategies and a biased edge-dropping
sampler.

`import topoinf` loads no submodule: each public name below imports its
submodule on first use (PEP 562), so a program loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "compat": ("CompatReport", "compatibility"),
    "csbm": ("CsbmParams", "CsbmSample", "check_distance_contraction",
             "check_variance_reduction", "cora_like_params", "generate_csbm"),
    "filters": ("PRESETS", "FilterSpec", "apply_filter"),
    "graphs": ("Graph", "GraphFormatError", "LabelData", "NormalizedAdjacency",
               "ParameterError", "khop_set", "load_edge_list", "load_labels", "node_set",
               "normalized_adjacency", "write_edge_list", "write_labels"),
    "influence": ("DeltaWorkspace", "ScoreReport", "TopoInfScore", "greedy_refine",
                  "score_all_edges", "topoinf_oracle"),
    "pseudo": ("LinearModel", "TrainConfig", "predict_pseudo", "train_linear_sgc"),
    "rewire": ("dropedge_weights", "remove_adaedge", "remove_by_topoinf", "remove_random",
               "sample_dropedge"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
