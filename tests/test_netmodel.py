import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    VARIANT_HEAD_COMBOS,
    expanded,
    graph_of,
    masked_from_dense,
    micro_config,
    micro_network,
    moments,
    random_mask,
    randomize_params,
    set_params,
)
import survfuse
from survfuse import netmodel
from survfuse.errors import ConfigError, DataError, DimensionError, UsageError
from survfuse.genegraph import AdjacencyMask, build_adjacency
from survfuse.netmodel import (
    MaskedSparseLayer,
    NetworkConfig,
    assemble,
    load_checkpoint,
    save_checkpoint,
    save_params,
)
from survfuse.numcore import AdamState, FactoredGradient, RngStream, adam_step
from survfuse.training import cox_loss, nll_loss


def scatter_dense(mask, values, junk=None):
    """Dense matrix carrying ``values`` on the mask pattern and ``junk``
    (default 0) everywhere else."""
    dense = np.zeros((mask.dim, mask.dim))
    if junk is not None:
        dense[:] = junk
    dense[mask.rows, mask.cols] = values
    return dense


def fused_around(mask, values, compress_w, compress_b=None, image_dim=3,
                 seed=0):
    """An assembled fused dual-head network whose gene branch holds
    ``values`` in gene.masked and ``compress_w``/``compress_b`` (default
    zero) in gene.compress; the rest is initialized from ``seed``."""
    cfg = NetworkConfig(variant="fused", heads="both", gene_dim=mask.dim,
                        image_dim=image_dim, gene_branch_dim=compress_w.shape[1],
                        trunk_dims=(6, 4), head_hidden_dim=3, dropout_p=0.0)
    net = assemble(cfg, mask, RngStream(seed, 31))
    if compress_b is None:
        compress_b = np.zeros(compress_w.shape[1])
    set_params(net, {**net.params(), "gene.masked.values": values,
                     "gene.compress.w": compress_w,
                     "gene.compress.b": compress_b})
    return net


def gene_branch_output(net, gene_x, image_x=None):
    """Eval-mode forward; returns the gene branch output (with no dropout,
    the last gene layer's activation) and the trace."""
    if image_x is None:
        image_x = np.zeros((len(gene_x), net.config.image_dim))
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    return trace.caches["gene"][-1].act, trace


# ---------------------------------------------------------------------------
# Masked sparse layer
# ---------------------------------------------------------------------------


def masked_layer(mask, values):
    return MaskedSparseLayer(name="gene.masked", mask=mask, weights=values)


def test_identity_mask_layer_product_is_identity():
    genes = ("a", "b", "c", "d")
    mask = build_adjacency(graph_of(genes))
    x = np.random.default_rng(0).standard_normal((3, 4))
    layer = masked_layer(mask, masked_from_dense(mask, np.eye(4)))
    assert np.array_equal(layer.product(x), x)
    # A o W with W all ones is the adjacency itself, and with W all zeros
    # the product is zero.
    mask = random_mask(6, seed=3)
    x = np.random.default_rng(1).standard_normal((3, 6))
    out = masked_layer(mask, masked_from_dense(mask, np.ones((6, 6)))).product(x)
    dense_mask = oracles.mask_dense(mask)
    assert np.max(np.abs(out - oracles.matmul_loops(x, dense_mask))) < 1e-12
    out = masked_layer(mask, masked_from_dense(mask, np.zeros((6, 6)))).product(x)
    assert not out.any()


def test_sgcn_matches_dense_hadamard_oracle():
    """sigma(x (A o W)) computed the slow dense way, scalar selu and loop
    matrix products included."""
    gen = np.random.default_rng(14)
    mask = random_mask(6, seed=3)
    values = gen.standard_normal(mask.nnz)
    w2 = gen.standard_normal((6, 4))
    b2 = gen.standard_normal(4)
    x = gen.standard_normal((3, 6))
    out, trace = gene_branch_output(fused_around(mask, values, w2, b2), x)

    selu = np.vectorize(oracles.selu_scalar)
    hidden = selu(oracles.matmul_loops(
        x, oracles.mask_dense(mask) * scatter_dense(mask, values)))
    expect = selu(oracles.matmul_loops(hidden, w2) + b2)
    assert np.max(np.abs(out - expect)) < 1e-12
    assert [c.layer.name for c in trace.caches["gene"]] == [
        "gene.masked", "gene.compress"]


def test_from_dense_discards_off_mask_junk():
    gen = np.random.default_rng(4)
    mask = random_mask(8, seed=9)
    values = gen.standard_normal(mask.nnz)
    junked = masked_from_dense(mask, scatter_dense(mask, values, junk=1e6))
    assert np.array_equal(values, junked)
    x = gen.standard_normal((5, 8))
    image_x = gen.standard_normal((5, 3))
    assert np.array_equal(masked_layer(mask, values).product(x),
                          masked_layer(mask, junked).product(x))
    out_a, trace_a = gene_branch_output(
        fused_around(mask, values, np.eye(8)), x, image_x)
    out_b, trace_b = gene_branch_output(
        fused_around(mask, junked, np.eye(8)), x, image_x)
    assert np.array_equal(out_a, out_b)
    for head in ("survival", "grade"):
        assert np.array_equal(trace_a.outputs[head], trace_b.outputs[head])


# ---------------------------------------------------------------------------
# Fusion and heads
# ---------------------------------------------------------------------------


def test_fusion_concatenates_image_first():
    gen = np.random.default_rng(6)
    net = randomize_params(micro_network("fused", "both"), seed=7)
    gene_x, image_x = gen.standard_normal((4, 12)), gen.standard_normal((4, 7))
    z_gene, trace = gene_branch_output(net, gene_x, image_x)
    first = trace.caches["trunk"][0]
    assert np.array_equal(first.x, np.concatenate([image_x, z_gene], axis=1))
    assert first.x.shape[1] == 7 + 5
    assert np.array_equal(first.x[:, :7], image_x)
    assert np.array_equal(first.x[:, 7:], z_gene)
    w, b = net.params()["trunk.0.w"], net.params()["trunk.0.b"]
    assert first.layer.activation == "relu"
    expect = np.maximum(oracles.matmul_loops(first.x, w) + b, 0.0)
    assert np.allclose(first.act, expect, atol=1e-13)
    swapped = oracles.matmul_loops(
        np.concatenate([z_gene, image_x], axis=1), w) + b
    assert not np.allclose(first.act, np.maximum(swapped, 0.0))


def test_fusion_row_mismatch():
    net = micro_network("fused", "both")
    with pytest.raises(DimensionError, match="row"):
        net.forward(gene_x=np.zeros((3, 12)), image_x=np.zeros((4, 7)))


def _set_head(net, head, fill):
    """Overwrite every parameter of one head through ``fill(name, value)``."""
    set_params(net, {name: fill(name, value) if name.startswith(head + ".")
                     else value
                     for name, value in net.params().items()})


def test_survival_head_zero_weights_give_half():
    net = randomize_params(micro_network("fused", "both"), seed=8)
    _set_head(net, "survival", lambda _, v: np.zeros_like(v))
    gen = np.random.default_rng(0)
    out = net.forward(gene_x=gen.standard_normal((5, 12)),
                      image_x=gen.standard_normal((5, 7))).outputs["survival"]
    assert out.shape == (5, 1)
    assert np.all(out == 0.5)


def test_survival_head_outputs_in_unit_interval():
    gen = np.random.default_rng(19)
    net = randomize_params(micro_network("fused", "both"), seed=9)
    _set_head(net, "survival", lambda name, v: v * 5 if name.endswith(".1.w")
              else v)
    trace = net.forward(gene_x=gen.standard_normal((50, 12)),
                        image_x=gen.standard_normal((50, 7)))
    out = trace.outputs["survival"]
    assert out.shape == (50, 1)
    assert np.all((out > 0.0) & (out < 1.0))
    last = trace.caches["survival"][-1]
    pre = last.x @ last.layer.weights + last.layer.bias
    expect = np.vectorize(oracles.sigmoid_scalar)(pre)
    assert np.max(np.abs(out - expect)) < 1e-15


def test_grade_head_rows_are_log_probabilities():
    gen = np.random.default_rng(23)
    net = randomize_params(micro_network("fused", "both", k=4), seed=10)
    out = net.forward(gene_x=gen.standard_normal((7, 12)),
                      image_x=gen.standard_normal((7, 7))).outputs["grade"]
    assert out.shape == (7, 4)
    assert np.max(np.abs(np.exp(out).sum(axis=1) - 1.0)) < 1e-12
    _set_head(net, "grade", lambda _, v: np.zeros_like(v))
    uniform = net.forward(gene_x=np.ones((2, 12)),
                          image_x=np.ones((2, 7))).outputs["grade"]
    assert np.allclose(uniform, -np.log(4.0), atol=1e-15)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


_HEADS_ON_32 = [
    ("survival.0", 32, 16, "relu"), ("survival.1", 16, 1, "sigmoid"),
    ("grade.0", 32, 16, "relu"), ("grade.1", 16, 3, "log_softmax_rows"),
]
# (name, dim_in, dim_out, activation) of every layer each variant builds at
# its default widths, for 20 genes and 1000-wide embeddings.
_DEFAULT_STACKS = {
    "fused": [
        ("gene.masked", 20, 20, "selu"), ("gene.compress", 20, 1000, "selu"),
        ("trunk.0", 2000, 512, "relu"), ("trunk.1", 512, 128, "relu"),
        ("trunk.2", 128, 32, "relu"),
    ] + _HEADS_ON_32,
    "gene-only": [
        ("gene.masked", 20, 20, "selu"),
        ("trunk.0", 20, 1000, "selu"), ("trunk.1", 1000, 512, "selu"),
        ("trunk.2", 512, 128, "selu"), ("trunk.3", 128, 32, "selu"),
    ] + _HEADS_ON_32,
    "image-only": [
        ("trunk.0", 1000, 512, "relu"), ("trunk.1", 512, 256, "relu"),
        ("trunk.2", 256, 128, "relu"), ("trunk.3", 128, 32, "relu"),
    ] + _HEADS_ON_32,
}


def test_config_default_widths():
    for variant, layers in _DEFAULT_STACKS.items():
        gene_dim = 20 if variant != "image-only" else 0
        mask = random_mask(20, seed=1) if gene_dim else None
        net = assemble(NetworkConfig(variant=variant, gene_dim=gene_dim),
                       mask, RngStream(0, 31))
        assert [(layer.name, layer.dim_in, layer.dim_out, layer.activation)
                for layer in net.all_layers()] == layers, variant
        assert list(net.params()) == [
            f"{name}.{part}" for name, *_ in layers
            for part in (("values",) if name == "gene.masked" else ("w", "b"))
        ], variant


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(variant="tabular")
    with pytest.raises(ConfigError):
        NetworkConfig(variant="fused", heads="none", gene_dim=5)
    with pytest.raises(ConfigError):
        NetworkConfig(variant="fused")  # missing gene_dim
    with pytest.raises(ConfigError):
        NetworkConfig(variant="gene-only", gene_dim=5, grade_classes=1)
    with pytest.raises(ConfigError):
        NetworkConfig(variant="image-only", dropout_p=1.0)
    with pytest.raises(ConfigError):
        NetworkConfig(variant="image-only", trunk_dims=(8, 0))
    # With no trunk layer the gene branch would get the whole trunk-input
    # gradient, image columns included.
    with pytest.raises(ConfigError, match="trunk_dims"):
        NetworkConfig(variant="fused", gene_dim=5, trunk_dims=())


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_assemble_registry_names():
    net = micro_network("fused", "both")
    names = list(net.params())
    assert names == [
        "gene.masked.values", "gene.compress.w", "gene.compress.b",
        "trunk.0.w", "trunk.0.b", "trunk.1.w", "trunk.1.b",
        "trunk.2.w", "trunk.2.b",
        "survival.0.w", "survival.0.b", "survival.1.w", "survival.1.b",
        "grade.0.w", "grade.0.b", "grade.1.w", "grade.1.b",
    ]


def test_assemble_is_deterministic():
    a = micro_network("fused", "both", seed=77)
    b = micro_network("fused", "both", seed=77)
    c = micro_network("fused", "both", seed=78)
    for name, value in a.params().items():
        assert np.array_equal(value, b.params()[name]), name
    assert any(not np.array_equal(v, c.params()[k])
               for k, v in a.params().items())


def test_assemble_zero_biases_and_bounded_weights():
    net = micro_network("fused", "both", seed=5)
    mask = net.mask
    col_nnz = np.bincount(mask.cols, minlength=mask.dim)
    row_nnz = np.bincount(mask.rows, minlength=mask.dim)
    for name, value in net.params().items():
        if name.endswith(".b"):
            assert not value.any(), name
        elif name == "gene.masked.values":
            limit = np.sqrt(6.0 / (col_nnz[mask.cols] + row_nnz[mask.rows]))
            assert np.all(np.abs(value) <= limit)
        else:
            d_in, d_out = value.shape
            assert np.max(np.abs(value)) <= np.sqrt(6.0 / (d_in + d_out))


@pytest.mark.parametrize("variant, heads", VARIANT_HEAD_COMBOS)
@pytest.mark.parametrize("seed", [0, 9])
def test_assemble_draws_match_uniform_oracle(variant, heads, seed):
    """assemble fills each weight array in place, bit for bit what one
    gen.uniform array per layer gives."""
    config = dataclasses.replace(micro_config(variant, heads),
                                 gene_branch_dim=33)
    mask = random_mask(12, 5) if "gene" in config.inputs else None
    net = assemble(config, mask, RngStream(seed, 31))
    want = oracles.uniform_init_draws(RngStream(seed, 31).generator(),
                                      net.all_layers())
    for layer, draws in zip(net.all_layers(), want, strict=True):
        assert layer.weights.tobytes() == draws.tobytes(), layer.name
    for name, value in net.params().items():
        if name.endswith(".b"):
            assert not value.any(), name


def test_assemble_mask_contract():
    cfg = micro_config("fused", "both", p=12)
    with pytest.raises(ConfigError):
        assemble(cfg, None, RngStream(0, 31))
    with pytest.raises(ConfigError):
        assemble(cfg, random_mask(5, seed=2), RngStream(0, 31))
    img = micro_config("image-only", "both")
    with pytest.raises(ConfigError):
        assemble(img, random_mask(5, seed=2), RngStream(0, 31))


# ---------------------------------------------------------------------------
# Forward contract
# ---------------------------------------------------------------------------


def _inputs_for(variant, n, gen, p=12, image_dim=7):
    gene_x = gen.standard_normal((n, p)) if variant != "image-only" else None
    image_x = gen.standard_normal((n, image_dim)) if variant != "gene-only" else None
    return gene_x, image_x


@pytest.mark.parametrize("variant,heads", VARIANT_HEAD_COMBOS)
def test_forward_output_shapes(variant, heads):
    gen = np.random.default_rng(31)
    net = micro_network(variant, heads)
    gene_x, image_x = _inputs_for(variant, 6, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    if heads in ("survival", "both"):
        assert trace.outputs["survival"].shape == (6, 1)
        assert np.all((trace.outputs["survival"] > 0)
                      & (trace.outputs["survival"] < 1))
    else:
        assert "survival" not in trace.outputs
    if heads in ("grade", "both"):
        lp = trace.outputs["grade"]
        assert lp.shape == (6, 3)
        assert np.max(np.abs(np.log(np.exp(lp).sum(axis=1)))) < 1e-12
    else:
        assert "grade" not in trace.outputs
    assert trace.outputs["representation"].shape == (6, 4)


def test_eval_forward_is_deterministic_and_row_equivariant():
    gen = np.random.default_rng(40)
    net = randomize_params(micro_network("fused", "both"), seed=2)
    gene_x, image_x = _inputs_for("fused", 5, gen)
    a = net.forward(gene_x=gene_x, image_x=image_x).outputs
    b = net.forward(gene_x=gene_x, image_x=image_x).outputs
    assert np.array_equal(a["survival"], b["survival"])
    perm = np.array([3, 0, 4, 1, 2])
    c = net.forward(gene_x=gene_x[perm], image_x=image_x[perm]).outputs
    assert np.allclose(c["survival"], a["survival"][perm], atol=1e-12)
    assert np.allclose(c["grade"], a["grade"][perm], atol=1e-12)


def test_train_forward_keyed_dropout():
    gen = np.random.default_rng(41)
    net = randomize_params(micro_network("fused", "both"), seed=3)
    gene_x, image_x = _inputs_for("fused", 4, gen)
    stream = RngStream(11, 22)
    a = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                    rng=stream, key=(5,)).outputs
    b = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                    rng=stream, key=(5,)).outputs
    c = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                    rng=stream, key=(6,)).outputs
    assert np.array_equal(a["survival"], b["survival"])
    assert not np.array_equal(a["survival"], c["survival"])
    with pytest.raises(UsageError):
        net.forward(gene_x=gene_x, image_x=image_x, mode="train")


def test_forward_input_validation():
    net = micro_network("fused", "both")
    gen = np.random.default_rng(1)
    with pytest.raises(DimensionError):
        net.forward(gene_x=gen.standard_normal((2, 12)))  # image missing
    with pytest.raises(DimensionError):
        net.forward(gene_x=gen.standard_normal((2, 5)),
                    image_x=gen.standard_normal((2, 7)))
    with pytest.raises(DimensionError):
        net.forward(gene_x=gen.standard_normal((2, 12)),
                    image_x=gen.standard_normal((3, 7)))
    with pytest.raises(ValueError):
        net.forward(gene_x=gen.standard_normal((2, 12)),
                    image_x=gen.standard_normal((2, 7)), mode="test")


def test_predict_returns_heads_only():
    gen = np.random.default_rng(2)
    net = micro_network("image-only", "survival")
    out = net.predict(image_x=gen.standard_normal((3, 7)))
    assert set(out) == {"survival"}


# ---------------------------------------------------------------------------
# Backward contract
# ---------------------------------------------------------------------------


def _cache_arrays(trace):
    return [(seg, i, part, getattr(cache, part))
            for seg, caches in trace.caches.items()
            for i, cache in enumerate(caches)
            for part in ("x", "act", "drop_scale")]


@pytest.mark.parametrize("variant,heads", VARIANT_HEAD_COMBOS)
def test_backward_only_reads_the_trace(variant, heads):
    """A second backward over one train-mode trace, dropout on, gives the
    same gradients bit for bit and leaves every cache as it was."""
    gen = np.random.default_rng(3)
    net = randomize_params(micro_network(variant, heads, dropout_p=0.25),
                           seed=4)
    gene_x, image_x = _inputs_for(variant, 5, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                        rng=RngStream(5, 22), key=(2,))
    upstream = {f"d_{head}": gen.standard_normal(trace.outputs[head].shape)
                for head in ("survival", "grade") if head in trace.outputs}
    before = [(seg, i, part, None if a is None else a.copy())
              for seg, i, part, a in _cache_arrays(trace)]
    assert any(part == "drop_scale" and a is not None
               for _, _, part, a in before)
    first = expanded(net.backward(trace, **upstream))
    assert all(first[layer.name + ".w"].any() for layer in net.all_layers()
               if layer.name != "gene.masked")
    second = expanded(net.backward(trace, **upstream))
    assert list(second) == list(first) == list(net.params())
    for name, g in second.items():
        assert np.array_equal(g.view(np.int64), first[name].view(np.int64)), name
    after = _cache_arrays(trace)
    assert [key[:3] for key in after] == [key[:3] for key in before]
    for (*key, old), (_, _, _, new) in zip(before, after):
        if old is None:
            assert new is None, key
        else:
            assert np.array_equal(new.view(np.int64), old.view(np.int64)), key


def _gradient_arrays(grads):
    """The arrays a backward pass made: every gradient array, and each
    factored gradient's ``d_pre`` (its ``x`` is the trace's)."""
    return [g.d_pre if isinstance(g, FactoredGradient) else g
            for g in grads.values()]


@pytest.mark.parametrize("variant,heads", VARIANT_HEAD_COMBOS)
def test_two_backward_passes_hold_their_own_gradients(variant, heads):
    """Two backward passes over one trace, with different head gradients,
    return arrays that share no memory: the first pass's gradients keep
    their values after the second."""
    gen = np.random.default_rng(8)
    net = randomize_params(micro_network(variant, heads, dropout_p=0.25),
                           seed=9)
    gene_x, image_x = _inputs_for(variant, 5, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                        rng=RngStream(5, 22), key=(1,))
    heads_present = [h for h in ("survival", "grade") if h in trace.outputs]
    # With both heads, the first pass is on one task and the second on the
    # other, so each leaves the other head's gradients at zero.
    passes = ([[heads_present[0]], [heads_present[1]]]
              if len(heads_present) == 2 else [heads_present] * 2)
    first = net.backward(trace, **{f"d_{h}": gen.standard_normal(
        trace.outputs[h].shape) for h in passes[0]})
    kept = expanded(first)
    second = net.backward(trace, **{f"d_{h}": gen.standard_normal(
        trace.outputs[h].shape) for h in passes[1]})
    for a in _gradient_arrays(first):
        assert not any(np.shares_memory(a, b) for b in _gradient_arrays(second))
    for name, g in expanded(first).items():
        assert np.array_equal(g.view(np.int64), kept[name].view(np.int64)), name
    assert any(not np.array_equal(g, kept[name])
               for name, g in expanded(second).items())


@pytest.mark.parametrize("variant,heads", VARIANT_HEAD_COMBOS)
def test_layers_are_views_of_their_own_network(variant, heads):
    net = micro_network(variant, heads)
    other = micro_network(variant, heads)
    with pytest.raises(TypeError):
        dataclasses.replace(net, config=net.config)
    arrays = [getattr(layer, attr) for layer in net.all_layers()
              for attr in ("weights", "bias") if hasattr(layer, attr)]
    assert sum(a.size for a in arrays) == net.param_vector.size
    for a in arrays:
        assert a.base is net.param_vector
        assert not np.shares_memory(a, other.param_vector)


def test_backward_returns_dense_weight_gradients_as_factors():
    """Dense weight gradients come back as their factors, never formed;
    the masked values' and biases' gradients are arrays of their own."""
    net = randomize_params(micro_network("fused", "both"), seed=2)
    gene_x, image_x = _inputs_for("fused", 4, np.random.default_rng(2))
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    grads = net.backward(trace, d_survival=np.ones((4, 1)))
    for name, g in grads.items():
        if not name.endswith(".w"):
            assert isinstance(g, np.ndarray) and g.base is None, name
            assert g.shape == net.params()[name].shape, name
        else:
            assert isinstance(g, FactoredGradient), name
            assert g.shape == net.params()[name].shape
    for cache in trace.caches["trunk"]:
        assert grads[cache.layer.name + ".w"].x is cache.x
    # The grade head got no upstream: factors with no batch rows.
    assert len(grads["grade.0.w"].x) == 0


def test_backward_and_adam_store_no_weight_gradient():
    """Building a network and its Adam state, then a forward, backward and
    Adam step, allocates the parameters and the two moments, plus scratch
    and batch-sized arrays below half of one more model-sized vector."""
    mask = random_mask(12, 23)
    # 1.06M parameters, nearly all in gene.compress and trunk.0.
    cfg = NetworkConfig(variant="fused", heads="both", gene_dim=12,
                        image_dim=7, gene_branch_dim=2000, trunk_dims=(512, 4),
                        head_hidden_dim=3, dropout_p=0.1)
    batch = 8
    gen = np.random.default_rng(23)
    gene_x = gen.standard_normal((batch, 12))
    image_x = gen.standard_normal((batch, 7))
    tracemalloc.start()
    try:
        net = assemble(cfg, mask, RngStream(23, 31))
        state = AdamState.for_params(net.params())
        trace = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                            rng=RngStream(23, 22), key=(1,))
        grads = net.backward(trace, d_survival=np.ones((batch, 1)))
        adam_step(net.params(), grads, state, rate=1e-3, weight_decay=4e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model_bytes = net.param_vector.nbytes
    assert model_bytes > 8_000_000
    assert 3 * model_bytes < peak < 3.5 * model_bytes


def test_adam_moments_are_laid_out_like_param_vector():
    """Each moment is one vector of ``param_vector``'s size, and every
    name's view of it sits at that parameter's manifest offset; steps
    reuse the plan and the scratch built with the state."""
    net = micro_network("fused", "both", seed=3)
    state = AdamState.for_params(net.params())
    size = net.param_vector.size
    for vector, by_name in zip((state.m, state.v), moments(state)):
        assert vector.shape == (size,)
        vector[:] = np.arange(size)
        for entry in netmodel._manifest_params(net):
            view = by_name[entry["name"]]
            assert view.base is vector and view.shape == tuple(entry["shape"])
            assert np.array_equal(view.ravel(), np.arange(
                entry["offset"], entry["offset"] + view.size))
        vector[:] = 0.0
    plan, work = state.plan, state.work
    gen = np.random.default_rng(3)
    for c in range(1, 4):
        trace = net.forward(gene_x=gen.standard_normal((5, 12)),
                            image_x=gen.standard_normal((5, 7)),
                            mode="train", rng=RngStream(3, 22), key=(c,))
        grads = net.backward(trace, d_survival=np.ones((5, 1)),
                             d_grade=np.ones((5, 3)))
        adam_step(net.params(), grads, state, rate=1e-3, weight_decay=4e-4)
    assert state.plan is plan and state.work is work
    assert moments(state)[0]["trunk.0.w"].any()


def test_backward_requires_a_head_gradient():
    net = micro_network("gene-only", "survival")
    trace = net.forward(gene_x=np.zeros((2, 12)))
    with pytest.raises(UsageError):
        net.backward(trace)


def test_backward_zero_upstream_gives_zero_grads():
    gen = np.random.default_rng(4)
    net = randomize_params(micro_network("fused", "both"), seed=5)
    gene_x, image_x = _inputs_for("fused", 4, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    grads = expanded(net.backward(trace, d_survival=np.zeros((4, 1)),
                                  d_grade=np.zeros((4, 3))))
    assert set(grads) == set(net.params())
    assert all(not g.any() for g in grads.values())


def test_backward_unused_head_gets_zero_grads():
    gen = np.random.default_rng(5)
    net = randomize_params(micro_network("fused", "both"), seed=6)
    gene_x, image_x = _inputs_for("fused", 4, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    grads = expanded(net.backward(trace, d_survival=np.ones((4, 1))))
    assert not grads["grade.0.w"].any()
    assert not grads["grade.1.b"].any()
    assert grads["trunk.0.w"].any()
    assert grads["gene.masked.values"].any()


def test_backward_matches_fd_on_joint_loss():
    """Full finite differences over every parameter of the fused dual-head
    micro network in train mode, at a random interior parameter point."""
    gen = np.random.default_rng(60)
    net = randomize_params(micro_network("fused", "both"), seed=61)
    gene_x, image_x = _inputs_for("fused", 6, gen)
    times = np.array([3.0, 1.0, 4.0, 2.0, 5.0, 2.5])
    events = np.array([1, 1, 0, 1, 1, 0])
    grades = np.array([0, 2, 1, 1, 0, 2])
    stream = RngStream(7, 22)

    def loss_and_trace():
        trace = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                            rng=stream, key=(1,))
        ls, ds = cox_loss(trace.outputs["survival"], times, events)
        lg, dg = nll_loss(trace.outputs["grade"], grades)
        return ls + lg, trace, ds, dg

    total, trace, ds, dg = loss_and_trace()
    analytic = expanded(net.backward(trace, d_survival=ds, d_grade=dg))
    fd = oracles.fd_param_gradients(net.params(),
                                   lambda: loss_and_trace()[0])
    worst = max(oracles.rel_err(analytic[name], fd[name]) for name in fd)
    assert worst < 1e-6


@pytest.mark.parametrize("batch", [7, 32])
def test_masked_gradient_in_slices_equals_one_full_gather(monkeypatch, batch):
    mask = random_mask(400, 12, edges=6000)
    config = NetworkConfig(variant="gene-only", heads="survival", gene_dim=400,
                           trunk_dims=(5,), head_hidden_dim=2)
    net = randomize_params(assemble(config, mask, RngStream(3, 31)), seed=6)
    x = np.random.default_rng(batch).standard_normal((batch, 400))
    stream = RngStream(9, 1)

    def masked_gradient():
        trace = net.forward(gene_x=x, mode="train", rng=stream, key=(batch,))
        grads = net.backward(trace, d_survival=np.ones((batch, 1)))
        return grads["gene.masked.values"].copy()

    assert mask.nnz > 2 * (netmodel._ADAM_CHUNK // batch)
    sliced = masked_gradient()
    monkeypatch.setattr(netmodel, "_ADAM_CHUNK", mask.nnz * batch)
    full = masked_gradient()
    assert np.array_equal(sliced.view(np.int64), full.view(np.int64))


@pytest.mark.parametrize("batch", [1, 2, 7, 8, 24, 31, 32, 33, 64])
def test_masked_gradient_row_gathers_equal_column_gathers(batch):
    """Gathering rows of x.T and d_pre.T gives einsum the layout that
    gathering columns of x and d_pre gave, so the same bits, also over a
    hub column and a ragged last slice."""
    dim, hub = 2000, 3
    gen = np.random.default_rng(batch)
    coords = {(int(r), int(c)) for r, c in gen.integers(0, dim, (41_000, 2))}
    coords |= {(r, hub) for r in range(0, dim, 2)}
    mask = _coordinate_mask(dim, coords)
    assert np.count_nonzero(mask.cols == hub) >= dim // 2
    step = netmodel._ADAM_CHUNK // batch
    assert mask.nnz > step and mask.nnz % step
    layer = MaskedSparseLayer("gene.masked", mask, np.zeros(mask.nnz))
    x = _awkward_values(gen, (batch, dim))
    d_pre = gen.standard_normal((batch, dim))
    got = layer.gradient(x, d_pre)
    want = oracles.masked_gradient_column_gathers(x, d_pre, mask,
                                                  netmodel._ADAM_CHUNK)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_masked_backward_memory_stays_below_one_gather():
    # The masked gradient once gathered x[:, rows] and d_pre[:, cols] in
    # full: two batch x nnz arrays, 10 MB each here.
    p, batch = 3000, 32
    mask = random_mask(p, 11, edges=20_000)
    config = NetworkConfig(variant="gene-only", heads="survival", gene_dim=p,
                           trunk_dims=(4,), head_hidden_dim=2, dropout_p=0.0)
    net = assemble(config, mask, RngStream(3, 31))
    x = np.random.default_rng(4).standard_normal((batch, p))
    trace = net.forward(gene_x=x)
    gather = batch * mask.nnz * 8
    tracemalloc.start()
    try:
        net.backward(trace, d_survival=np.ones((batch, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gather / 2


def _coordinate_mask(dim, coords):
    """AdjacencyMask over ``dim`` placeholder genes with exactly the given
    (row, col) nonzeros, none added."""
    keys = sorted(r * dim + c for r, c in set(coords))
    return AdjacencyMask(genes=tuple(f"g{i}" for i in range(dim)),
                         rows=np.array([k // dim for k in keys], dtype=np.intp),
                         cols=np.array([k % dim for k in keys], dtype=np.intp))


def _awkward_values(gen, shape):
    """Normal draws, a fifth of them scaled to magnitudes from 1e-320
    (subnormal) to 1e150, with signed zeros mixed in. Sums of a few hundred
    such products cannot overflow."""
    values = gen.standard_normal(shape)
    scaled = gen.random(shape) < 0.2
    values[scaled] *= 10.0 ** gen.integers(-320, 151, np.count_nonzero(scaled))
    values[gen.random(shape) < 0.1] = -0.0
    values[gen.random(shape) < 0.05] = 0.0
    return values


@st.composite
def _masked_products(draw, shape):
    if shape == "empty":
        dim, coords = draw(st.integers(1, 20)), []
    else:
        dim = draw(st.integers(100, 140) if shape == "hub"
                   else st.integers(1, 60))
        cell = st.integers(0, dim - 1)
        coords = draw(st.lists(st.tuples(cell, cell), max_size=300))
        if shape == "hub":
            hub = draw(cell)
            skip = draw(st.sets(cell, max_size=dim - 100))
            coords += [(r, hub) for r in range(dim) if r not in skip]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = _coordinate_mask(dim, coords)
    batch = draw(st.integers(1, 40))
    block = draw(st.sampled_from([1, 3, netmodel._SLOT_BLOCK]))
    return (mask, _awkward_values(gen, mask.nnz),
            _awkward_values(gen, (batch, dim)), block)


@pytest.mark.parametrize("shape", ["scattered", "hub", "empty"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_masked_product_matches_the_loop_oracle_bit_for_bit(shape, data):
    # Non-symmetric masks with empty rows and columns; a hub column of at
    # least 100 nonzeros; no nonzeros at all (a checkpoint's mask.bin may
    # hold none). Small blocks split each depth into several steps.
    mask, values, x, block = data.draw(_masked_products(shape))
    with mock.patch.object(netmodel, "_SLOT_BLOCK", block):
        layer = MaskedSparseLayer("gene.masked", mask, values)
        got = layer.product(x)
    want = oracles.masked_product_loops(x, mask, values)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_masked_product_equals_scipy_csr_product(batch):
    sparse = pytest.importorskip("scipy.sparse")
    gen = np.random.default_rng(batch)
    dim = 1500
    coords = [tuple(rc) for rc in gen.integers(0, dim, (6000, 2))]
    coords += [(r, 17) for r in range(0, dim, 3)]
    mask = _coordinate_mask(dim, coords)
    assert dim > netmodel._SLOT_BLOCK
    values = _awkward_values(gen, mask.nnz)
    x = _awkward_values(gen, (batch, dim))
    # The product survfuse computed with scipy before it had its own.
    indptr = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(np.bincount(mask.rows, minlength=dim), out=indptr[1:])
    want = x @ sparse.csr_array((values, mask.cols, indptr), shape=(dim, dim))
    got = MaskedSparseLayer("gene.masked", mask, values).product(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    gen = np.random.default_rng(70)
    net = randomize_params(micro_network("fused", "both", seed=8), seed=9)
    save_checkpoint(net, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == net.config
    assert loaded.init_seed == net.init_seed
    assert loaded.mask.genes == net.mask.genes
    assert np.array_equal(loaded.mask.rows, net.mask.rows)
    assert np.array_equal(loaded.mask.cols, net.mask.cols)
    for name, value in net.params().items():
        assert np.array_equal(value, loaded.params()[name]), name
    gene_x, image_x = _inputs_for("fused", 5, gen)
    a = net.predict(gene_x=gene_x, image_x=image_x)
    b = loaded.predict(gene_x=gene_x, image_x=image_x)
    assert np.array_equal(a["survival"], b["survival"])
    assert np.array_equal(a["grade"], b["grade"])


def test_checkpoint_completed_from_saved_params(tmp_path, monkeypatch):
    """save_params makes a checkpoint directory unloadable at once; the
    save_checkpoint that completes it, from the params.bin on disk or from
    a known digest, writes the bytes a plain save_checkpoint writes."""
    # Python 3.10, which the package supports, has no hashlib.file_digest.
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    net = randomize_params(micro_network("fused", "both", seed=8), seed=9)
    digest = save_checkpoint(net, tmp_path / "plain")
    want = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    assert digest == hashlib.sha256(want["params.bin"]).hexdigest()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(randomize_params(micro_network("fused", "both"), seed=1),
                    ckpt)
    save_params(net, ckpt)
    with pytest.raises(DataError, match="missing checksums.txt"):
        load_checkpoint(ckpt)
    assert save_checkpoint(net, ckpt, params_saved=True) == digest
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == want
    assert save_checkpoint(net, tmp_path / "known", digest) == digest
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "known").iterdir()} == want


def test_checkpoint_round_trip_without_mask(tmp_path):
    net = randomize_params(micro_network("image-only", "grade", seed=3), seed=4)
    save_checkpoint(net, tmp_path / "ckpt")
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "checksums.txt", "manifest.json", "params.bin"]
    loaded = load_checkpoint(tmp_path / "ckpt")
    x = np.random.default_rng(5).standard_normal((4, 7))
    assert np.array_equal(net.predict(image_x=x)["grade"],
                          loaded.predict(image_x=x)["grade"])


def test_checkpoint_without_mask_removes_an_earlier_mask(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(micro_network("fused", "both", seed=1), ckpt)
    assert (ckpt / "mask.bin").is_file()
    net = randomize_params(micro_network("image-only", "grade", seed=3), seed=4)
    save_checkpoint(net, ckpt)
    assert sorted(p.name for p in ckpt.iterdir()) == [
        "checksums.txt", "manifest.json", "params.bin"]
    assert np.array_equal(load_checkpoint(ckpt).param_vector, net.param_vector)


def test_checkpoint_version_3_layout(tmp_path):
    net = randomize_params(micro_network("gene-only", "both", seed=2), seed=3)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    assert sorted(p.name for p in ckpt.iterdir()) == [
        "checksums.txt", "manifest.json", "mask.bin", "params.bin"]
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["version"] == 3
    assert manifest["genes"] == list(net.mask.genes)
    offset = 0
    for entry, (name, value) in zip(manifest["params"], net.params().items(),
                                    strict=True):
        assert entry == {"name": name, "shape": list(value.shape),
                         "offset": offset}
        offset += value.size
    assert (ckpt / "params.bin").read_bytes() == \
        net.param_vector.astype("<f8").tobytes()
    assert (ckpt / "mask.bin").read_bytes() == np.concatenate(
        (net.mask.rows, net.mask.cols)).astype("<i4").tobytes()
    listed = {line.split("  ")[1]: line.split("  ")[0]
              for line in (ckpt / "checksums.txt").read_text().splitlines()}
    assert listed == {name: hashlib.sha256((ckpt / name).read_bytes()).hexdigest()
                      for name in ("manifest.json", "mask.bin", "params.bin")}


def test_checkpoint_detects_tampering(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    target = tmp_path / "ckpt" / "params.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum mismatch for params.bin"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_checks_manifest_before_reading_it(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["version"] = 4
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="checksum mismatch for manifest.json"):
        load_checkpoint(ckpt)


def test_checkpoint_detects_missing_file(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    (tmp_path / "ckpt" / "params.bin").unlink()
    with pytest.raises(DataError, match="missing: params.bin"):
        load_checkpoint(tmp_path / "ckpt")


def _rewrite_checksums(ckpt, edit):
    """Apply ``edit`` to the checksum lines and write them back."""
    path = ckpt / "checksums.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _reseal(ckpt, name):
    """Make the checksum of file ``name`` match its current contents."""
    digest = hashlib.sha256((ckpt / name).read_bytes()).hexdigest()
    _rewrite_checksums(ckpt, lambda lines: [
        f"{digest}  {name}" if line.endswith("  " + name) else line
        for line in lines])


def _edit_manifest(ckpt, edit):
    """Apply ``edit`` to the parsed manifest, write it back and reseal it."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    _reseal(ckpt, "manifest.json")


@pytest.mark.parametrize("name", ["manifest.json", "params.bin", "mask.bin"])
def test_checkpoint_rejects_unlisted_file(tmp_path, name):
    # An unlisted file used to be read without being hashed at all.
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    _rewrite_checksums(ckpt, lambda lines: [
        line for line in lines if not line.endswith("  " + name)])
    if name != "manifest.json":
        raw = bytearray((ckpt / name).read_bytes())
        raw[0] ^= 0x01
        (ckpt / name).write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"checksums.txt does not list {name}"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("name", ["../outside.bin", "sub/trunk.0.w.bin",
                                  "sub\\trunk.0.w.bin"])
def test_checkpoint_rejects_checksum_names_leaving_directory(tmp_path, name):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    (tmp_path / "outside.bin").write_bytes(b"")
    _rewrite_checksums(tmp_path / "ckpt", lambda lines: lines + [
        f"{hashlib.sha256(b'').hexdigest()}  {name}"])
    with pytest.raises(DataError, match="checksums.txt lists unexpected file"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_rejects_older_versions(tmp_path, version):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    _edit_manifest(ckpt, lambda m: m.update(version=version))
    with pytest.raises(DataError, match=f"^checkpoint version {version} is "
                                        "not supported$"):
        load_checkpoint(ckpt)


def test_checkpoint_rejects_unknown_parameter_name(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    _edit_manifest(ckpt, lambda m: m["params"][1].update(name="gene.bogus"))
    with pytest.raises(DataError, match="manifest.json: parameter .*gene.bogus"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("edit", [
    lambda params: params[2].update(shape=[9, 5]),
    lambda params: params[2].update(offset=params[2]["offset"] + 1),
    lambda params: params.pop(),
    lambda params: params.append(dict(params[-1])),
    lambda params: params.reverse(),
], ids=["shape", "offset", "missing", "extra", "order"])
def test_checkpoint_rejects_layout_mismatch(tmp_path, edit):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    _edit_manifest(ckpt, lambda m: edit(m["params"]))
    with pytest.raises(DataError, match="does not match the network's layout"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("cut", [8, -8])
def test_checkpoint_rejects_parameter_file_of_wrong_size(tmp_path, cut):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    target = ckpt / "params.bin"
    raw = target.read_bytes()
    target.write_bytes(raw[:cut] if cut < 0 else raw + raw[:cut])
    _reseal(ckpt, target.name)
    with pytest.raises(DataError, match="params.bin: size mismatch"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("edit, message", [
    (lambda rows, cols: (rows.tobytes() + cols.tobytes())[:-4],
     "mask.bin: size .* not a whole number"),
    # Still sorted and in range, but one weight short of gene.masked.values.
    (lambda rows, cols: rows[:-1].tobytes() + cols[:-1].tobytes(),
     "gene.masked.values.*does not match the network's layout"),
], ids=["half-pair", "one-pair-short"])
def test_checkpoint_rejects_mask_file_of_wrong_size(tmp_path, edit, message):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    rows, cols = np.frombuffer((ckpt / "mask.bin").read_bytes(),
                               "<i4").reshape(2, -1)
    (ckpt / "mask.bin").write_bytes(edit(rows, cols))
    _reseal(ckpt, "mask.bin")
    with pytest.raises(DataError, match=message):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("bad", ["no-separator-here", "deadbeef  "])
def test_checkpoint_malformed_checksum_line_names_line(tmp_path, bad):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    _rewrite_checksums(tmp_path / "ckpt", lambda lines: lines[:2] + [bad] + lines[2:])
    with pytest.raises(DataError, match="checksums.txt:3: malformed"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_other_directories(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path)


_NO_SCIPY_RUN = """
import csv, json, sys
sys.modules["scipy"] = None  # from here on, importing scipy raises
from pathlib import Path
from helpers import micro_network
from survfuse.cli import main

work = Path(sys.argv[1])
data = work / "data"
codes = [main(["synth", "--patients", "40", "--genes", "12", "--causal", "4",
               "--censor", "0.3", "--seed", "0", "--embedding-dim", "7",
               "--out", str(data)]),
         main(["splits", "--clinical", str(data / "clinical.csv"), "--reps",
               "1", "--seed", "0", "--out", str(data / "splits.json")])]
run = work / "run.json"
run.write_text(json.dumps({
    "variant": "fused", "schedule": "alternate", "preset": "mmmt-default",
    "epochs": 2, "batch": 16, "seed": 5,
    **{key: str(data / name) for key, name in (
        ("expression", "expression.csv"), ("embeddings", "embeddings.csv"),
        ("clinical", "clinical.csv"), ("edge_list", "edges.tsv"),
        ("splits", "splits.json"))},
    "out": str(work / "out")}))
codes.append(main(["train", str(run), "--rep", "0"]))
codes.append(main(["eval", "--config", str(run), "--model",
                   str(work / "out" / "rep00" / "final"), "--rep", "0",
                   "--out", str(work / "eval-model.json")]))
with open(data / "clinical.csv", newline="") as fh:
    rows = list(csv.reader(fh))[1:]
with open(work / "risks.csv", "w", newline="") as fh:
    csv.writer(fh).writerows([["sample_id", "risk"]]
                             + [[r[0], repr(-float(r[2]))] for r in rows])
risk_args = ["--risks", str(work / "risks.csv"), "--clinical",
             str(data / "clinical.csv")]
codes.append(main(["eval", *risk_args, "--out", str(work / "eval-risks.json")]))
codes.append(main(["km", *risk_args, "--out", str(work / "km.csv"),
                   "--svg", str(work / "km.svg")]))
micro_network("gene-only", "both")
micro_network("image-only", "both")
print(json.dumps([codes, sorted(name for name, module in sys.modules.items()
                                if name.split(".")[0] == "scipy"
                                and module is not None)]))
"""


def test_no_command_or_network_needs_scipy(tmp_path):
    # scipy is not a runtime dependency. With every scipy import made to
    # fail, a fused train, the eval of its checkpoint, the scoring commands
    # and the gene-only and image-only builders must all still work.
    paths = [str(Path(survfuse.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 6, done.stderr
    assert loaded == []
