"""Weighted Benjamini-Hochberg procedures for classified hypotheses.

Hypotheses may carry a hierarchical classification (a tree of nested,
possibly overlapping groups), several simultaneous one-way classifications,
or a mix of both. Group-level null proportions — known exactly (oracle) or
estimated from the data — are turned into per-hypothesis p-value weights,
and the weighted step-up rule is applied at level alpha.
"""

from .classification import (
    ClassificationForest,
    HierTree,
    flat_tree,
    forest_from_dict,
    forest_from_grid,
    forest_to_dict,
    group_stats,
    leaf_memberships,
    load_forest,
    save_forest,
    tree_from_groups,
    tree_from_levels,
    validate_forest,
    validate_tree,
)
from .stepup import OutcomeMetrics, TestOutcome, brute_force_bh, outcome_metrics, weighted_bh
from .weights import (
    NullCountEstimate,
    da_flat_weights,
    da_gen_weights,
    da_hier_effects,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_gen_weights,
    oracle_hier_effects,
    oracle_hier_weights,
    oracle_overlap_oneway_weights,
    oracle_sway_weights,
    storey_null_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationForest",
    "HierTree",
    "NullCountEstimate",
    "OutcomeMetrics",
    "TestOutcome",
    "brute_force_bh",
    "da_flat_weights",
    "da_gen_weights",
    "da_hier_effects",
    "da_hier_weights",
    "da_sway_weights",
    "flat_tree",
    "forest_from_dict",
    "forest_from_grid",
    "forest_to_dict",
    "group_stats",
    "leaf_memberships",
    "load_forest",
    "oracle_flat_weights",
    "oracle_gen_weights",
    "oracle_hier_effects",
    "oracle_hier_weights",
    "oracle_overlap_oneway_weights",
    "oracle_sway_weights",
    "outcome_metrics",
    "save_forest",
    "storey_null_estimate",
    "tree_from_groups",
    "tree_from_levels",
    "validate_forest",
    "validate_tree",
    "weighted_bh",
]
