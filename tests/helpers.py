"""Shared builders for network-level tests.

Gradient checks must run away from the assembled start point: zero biases
plus narrow relu layers can park pre-activations exactly on the kink, where
central differences straddle two one-sided slopes and disagree with the
analytic rule. ``randomize_params`` moves every parameter (biases included)
to a generic interior point first.
"""

import numpy as np

from survfuse.errors import DimensionError
from survfuse.genegraph import GeneGraph, build_adjacency, canonical_pairs
from survfuse.netmodel import NetworkConfig, assemble
from survfuse.numcore import FactoredGradient, RngStream, named_views

VARIANT_HEAD_COMBOS = [
    (variant, heads)
    for variant in ("fused", "gene-only", "image-only")
    for heads in ("survival", "grade", "both")
]

SCHEDULE_HEAD_COMBOS = [
    (schedule, heads)
    for schedule in ("alternate", "joint-add", "survival-only", "grade-only")
    for heads in ("survival", "grade", "both")
]

# The pairs a run accepts: the heads cover every task the schedule trains.
ACCEPTED_SCHEDULE_HEADS = {
    ("alternate", "both"), ("joint-add", "both"),
    ("survival-only", "survival"), ("survival-only", "both"),
    ("grade-only", "grade"), ("grade-only", "both"),
}


def graph_of(genes, symbol_pairs=()):
    """A ``GeneGraph`` over ``genes`` whose edges are the symbol pairs,
    canonicalised by the package's one rule."""
    index = {g: i for i, g in enumerate(genes)}
    ids = [(index[a], index[b]) for a, b in symbol_pairs]
    return GeneGraph(genes=tuple(genes),
                     pairs=canonical_pairs(ids, len(genes)))


def symbol_pairs(graph):
    """The graph's edges as ``(min, max)`` symbol tuples, in row order."""
    return [tuple(sorted((graph.genes[i], graph.genes[j])))
            for i, j in graph.pairs.tolist()]


def random_mask(p, seed, edges=None):
    """Symmetric self-looped adjacency over p placeholder genes."""
    gen = np.random.default_rng(seed)
    genes = tuple(f"g{i:03d}" for i in range(p))
    drawn = [tuple(genes[v] for v in gen.integers(0, p, size=2))
             for _ in range(edges if edges is not None else 2 * p)]
    return build_adjacency(graph_of(genes, drawn))


def neighbors(graph, gene):
    """The genes that share an edge of ``graph`` with ``gene``."""
    if gene not in graph.genes:
        raise KeyError(f"gene {gene!r} not in graph")
    return frozenset(b if a == gene else a for a, b in symbol_pairs(graph)
                     if gene in (a, b))


def micro_config(variant, heads, p=12, image_dim=7, k=3, dropout_p=0.25):
    """Widths small enough that finite differences over every parameter
    stay cheap."""
    if variant == "fused":
        return NetworkConfig(variant=variant, heads=heads, gene_dim=p,
                             image_dim=image_dim, grade_classes=k,
                             gene_branch_dim=5, trunk_dims=(8, 5, 4),
                             head_hidden_dim=3, dropout_p=dropout_p)
    if variant == "gene-only":
        return NetworkConfig(variant=variant, heads=heads, gene_dim=p,
                             grade_classes=k, trunk_dims=(9, 6, 4),
                             head_hidden_dim=3, dropout_p=dropout_p)
    return NetworkConfig(variant=variant, heads=heads,
                         image_dim=image_dim, grade_classes=k,
                         trunk_dims=(8, 5, 4), head_hidden_dim=3,
                         dropout_p=dropout_p)


def micro_network(variant, heads, p=12, image_dim=7, k=3, seed=0,
                  dropout_p=0.25, mask_seed=5):
    config = micro_config(variant, heads, p=p, image_dim=image_dim, k=k,
                          dropout_p=dropout_p)
    mask = random_mask(p, mask_seed) if variant in ("fused", "gene-only") else None
    return assemble(config, mask, RngStream(seed, 31))


def randomize_params(net, seed, scale=0.4):
    """Refill every parameter, biases included, from N(0, scale^2) so no
    pre-activation sits exactly on an activation kink."""
    gen = np.random.default_rng(seed)
    params = {name: gen.standard_normal(v.shape) * scale
              for name, v in net.params().items()}
    set_params(net, params)
    return net


def set_params(net, params):
    """Copy new values into every parameter of ``net`` (all names required)."""
    for name, view in net.params().items():
        if params[name].shape != view.shape:
            raise DimensionError(f"shape mismatch for {name!r}")
    for name, view in net.params().items():
        np.copyto(view, params[name])


def expanded(grads):
    """``backward``'s gradients as plain arrays: each dense weight's
    ``FactoredGradient`` formed whole, the other arrays copied."""
    return {name: g.expand() if isinstance(g, FactoredGradient) else g.copy()
            for name, g in grads.items()}


def moments(state):
    """An ``AdamState``'s first and second moments, each mapped by name."""
    return named_views(state.m, state.plan), named_views(state.v, state.plan)


def masked_from_dense(mask, dense_weights):
    """The values of a dense p x p matrix at the mask's coordinates, in the
    order of ``gene.masked.values``; values off the mask are discarded."""
    dense_weights = np.asarray(dense_weights, dtype=np.float64)
    if dense_weights.shape != (mask.dim, mask.dim):
        raise DimensionError(
            f"dense weights {dense_weights.shape} != mask dim {mask.dim}")
    return dense_weights[mask.rows, mask.cols]
