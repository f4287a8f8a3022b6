import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    VARIANT_HEAD_COMBOS,
    micro_config,
    micro_network,
    random_mask,
    randomize_params,
)
import survfuse
from survfuse.errors import ConfigError, DataError, DimensionError, UsageError
from survfuse.genegraph import GeneGraph, build_adjacency
from survfuse.netmodel import (
    DenseLayer,
    MaskedSparseLayer,
    NetworkConfig,
    assemble,
    fusion_forward,
    grade_head,
    load_checkpoint,
    save_checkpoint,
    sgcn_forward,
    survival_head,
)
from survfuse.numcore import RngStream
from survfuse.training import SurvivalBatchLabels, cox_loss, nll_loss


def identity_dense(name, dim, activation="linear"):
    return DenseLayer(name=name, weights=np.eye(dim), bias=np.zeros(dim),
                      activation=activation)


def scatter_dense(mask, values, junk=None):
    """Dense matrix carrying ``values`` on the mask pattern and ``junk``
    (default 0) everywhere else."""
    dense = np.zeros((mask.dim, mask.dim))
    if junk is not None:
        dense[:] = junk
    dense[mask.rows, mask.cols] = values
    return dense


# ---------------------------------------------------------------------------
# Masked sparse layer
# ---------------------------------------------------------------------------


def test_identity_mask_linear_layer_is_identity():
    genes = ("a", "b", "c", "d")
    mask = build_adjacency(GeneGraph(genes=genes, edges=frozenset()))
    layer1 = MaskedSparseLayer.from_dense("m", mask, np.eye(4),
                                          activation="linear")
    x = np.random.default_rng(0).standard_normal((3, 4))
    out, _ = sgcn_forward(x, layer1, identity_dense("c", 4))
    assert np.array_equal(out, x)


def test_sgcn_matches_dense_hadamard_oracle():
    """sigma(x (A o W)) computed the slow dense way, scalar selu included."""
    gen = np.random.default_rng(14)
    mask = random_mask(6, seed=3)
    values = gen.standard_normal(mask.nnz)
    layer1 = MaskedSparseLayer("m", mask, values)
    w2 = gen.standard_normal((6, 4))
    b2 = gen.standard_normal(4)
    layer2 = DenseLayer("c", w2, b2, activation="selu")
    x = gen.standard_normal((3, 6))
    out, trace = sgcn_forward(x, layer1, layer2)

    selu = np.vectorize(oracles.selu_scalar)
    hidden = selu(x @ (mask.dense() * scatter_dense(mask, values)))
    expect = selu(hidden @ w2 + b2)
    assert np.max(np.abs(out - expect)) < 1e-12
    assert trace.segments == {"gene": (0, 2)}


def test_from_dense_discards_off_mask_junk():
    gen = np.random.default_rng(4)
    mask = random_mask(8, seed=9)
    values = gen.standard_normal(mask.nnz)
    clean = MaskedSparseLayer("m", mask, values.copy())
    junked = MaskedSparseLayer.from_dense(
        "m", mask, scatter_dense(mask, values, junk=1e6))
    assert np.array_equal(clean.weights, junked.weights)
    x = gen.standard_normal((5, 8))
    same = identity_dense("c", 8)
    out_a, _ = sgcn_forward(x, clean, same)
    out_b, _ = sgcn_forward(x, junked, same)
    assert np.array_equal(out_a, out_b)


def test_masked_layer_validates_weight_count():
    mask = random_mask(5, seed=1)
    with pytest.raises(DimensionError):
        MaskedSparseLayer("m", mask, np.zeros(mask.nnz + 1))
    with pytest.raises(DimensionError):
        MaskedSparseLayer.from_dense("m", mask, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# Fusion and heads
# ---------------------------------------------------------------------------


def test_fusion_concatenates_image_first():
    gen = np.random.default_rng(6)
    z_img = gen.standard_normal((4, 3))
    z_gene = gen.standard_normal((4, 2))
    w = gen.standard_normal((5, 2))
    trunk = [DenseLayer("t0", w, np.zeros(2), activation="linear")]
    out, trace = fusion_forward(z_img, z_gene, trunk)
    expect = np.concatenate([z_img, z_gene], axis=1) @ w
    assert np.allclose(out, expect, atol=1e-15)
    assert trace.concat_split == 3
    swapped = np.concatenate([z_gene, z_img], axis=1) @ w
    assert not np.allclose(out, swapped)


def test_fusion_row_mismatch():
    with pytest.raises(DimensionError, match="row"):
        fusion_forward(np.zeros((3, 2)), np.zeros((4, 2)),
                       [identity_dense("t", 4)])


def test_survival_head_zero_weights_give_half():
    head = [DenseLayer("s0", np.zeros((6, 3)), np.zeros(3), activation="relu"),
            DenseLayer("s1", np.zeros((3, 1)), np.zeros(1), activation="sigmoid")]
    out = survival_head(np.random.default_rng(0).standard_normal((5, 6)), head)
    assert out.shape == (5, 1)
    assert np.all(out == 0.5)


def test_survival_head_outputs_in_unit_interval():
    gen = np.random.default_rng(19)
    head = [DenseLayer("s0", gen.standard_normal((6, 3)), gen.standard_normal(3),
                       activation="relu"),
            DenseLayer("s1", gen.standard_normal((3, 1)) * 5,
                       gen.standard_normal(1), activation="sigmoid")]
    out = survival_head(gen.standard_normal((50, 6)), head)
    assert np.all((out > 0.0) & (out < 1.0))


def test_grade_head_rows_are_log_probabilities():
    gen = np.random.default_rng(23)
    head = [DenseLayer("g0", gen.standard_normal((6, 3)), gen.standard_normal(3),
                       activation="relu"),
            DenseLayer("g1", gen.standard_normal((3, 4)), gen.standard_normal(4),
                       activation="log_softmax_rows")]
    out = grade_head(gen.standard_normal((7, 6)), head)
    assert out.shape == (7, 4)
    assert np.max(np.abs(np.exp(out).sum(axis=1) - 1.0)) < 1e-12
    zero_head = [DenseLayer("g0", np.zeros((6, 3)), np.zeros(3), activation="relu"),
                 DenseLayer("g1", np.zeros((3, 4)), np.zeros(4),
                            activation="log_softmax_rows")]
    uniform = grade_head(np.ones((2, 6)), zero_head)
    assert np.allclose(uniform, -np.log(4.0), atol=1e-15)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_default_widths():
    fused = NetworkConfig(variant="fused", gene_dim=10673)
    assert fused.resolved_trunk_dims() == (512, 128, 32)
    assert fused.resolved_trunk_activation() == "relu"
    assert fused.trunk_input_dim() == 2000
    gene = NetworkConfig(variant="gene-only", gene_dim=200)
    assert gene.resolved_trunk_dims() == (1000, 512, 128, 32)
    assert gene.resolved_trunk_activation() == "selu"
    image = NetworkConfig(variant="image-only")
    assert image.resolved_trunk_dims() == (512, 256, 128, 32)
    assert image.representation_dim() == 32


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


def test_backward_trace_consumed_once():
    gen = np.random.default_rng(3)
    net = micro_network("gene-only", "survival")
    trace = net.forward(gene_x=gen.standard_normal((3, 12)))
    net.backward(trace, d_survival=np.ones((3, 1)))
    with pytest.raises(UsageError):
        net.backward(trace, d_survival=np.ones((3, 1)))


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
    grads = net.backward(trace, d_survival=np.zeros((4, 1)),
                         d_grade=np.zeros((4, 3)))
    assert set(grads) == set(net.params())
    assert all(not g.any() for g in grads.values())


def test_backward_unused_head_gets_zero_grads():
    gen = np.random.default_rng(5)
    net = randomize_params(micro_network("fused", "both"), seed=6)
    gene_x, image_x = _inputs_for("fused", 4, gen)
    trace = net.forward(gene_x=gene_x, image_x=image_x)
    grads = net.backward(trace, d_survival=np.ones((4, 1)))
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
    labels = SurvivalBatchLabels(times=np.array([3.0, 1.0, 4.0, 2.0, 5.0, 2.5]),
                                 events=np.array([1, 1, 0, 1, 1, 0]))
    grades = np.array([0, 2, 1, 1, 0, 2])
    stream = RngStream(7, 22)

    def loss_and_trace():
        trace = net.forward(gene_x=gene_x, image_x=image_x, mode="train",
                            rng=stream, key=(1,))
        ls, ds = cox_loss(trace.outputs["survival"], labels)
        lg, dg = nll_loss(trace.outputs["grade"], grades)
        return ls + lg, trace, ds, dg

    total, trace, ds, dg = loss_and_trace()
    analytic = net.backward(trace, d_survival=ds, d_grade=dg)
    fd = oracles.fd_param_gradients(net.params(),
                                   lambda: loss_and_trace()[0])
    worst = max(oracles.rel_err(analytic[name], fd[name]) for name in fd)
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    gen = np.random.default_rng(70)
    net = randomize_params(micro_network("fused", "both", seed=8), seed=9)
    save_checkpoint(net, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == net.config
    for name, value in net.params().items():
        assert np.array_equal(value, loaded.params()[name]), name
    gene_x, image_x = _inputs_for("fused", 5, gen)
    a = net.predict(gene_x=gene_x, image_x=image_x)
    b = loaded.predict(gene_x=gene_x, image_x=image_x)
    assert np.array_equal(a["survival"], b["survival"])
    assert np.array_equal(a["grade"], b["grade"])


def test_checkpoint_round_trip_without_mask(tmp_path):
    net = randomize_params(micro_network("image-only", "grade", seed=3), seed=4)
    save_checkpoint(net, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    x = np.random.default_rng(5).standard_normal((4, 7))
    assert np.array_equal(net.predict(image_x=x)["grade"],
                          loaded.predict(image_x=x)["grade"])


def test_checkpoint_detects_tampering(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    target = tmp_path / "ckpt" / "trunk.0.w.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_detects_missing_file(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    (tmp_path / "ckpt" / "trunk.1.w.bin").unlink()
    with pytest.raises(DataError, match="missing"):
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


@pytest.mark.parametrize("name", ["../outside.bin", "sub/trunk.0.w.bin",
                                  "sub\\trunk.0.w.bin"])
def test_checkpoint_rejects_checksum_names_leaving_directory(tmp_path, name):
    net = micro_network("gene-only", "survival", seed=1)
    save_checkpoint(net, tmp_path / "ckpt")
    (tmp_path / "outside.bin").write_bytes(b"")
    _rewrite_checksums(tmp_path / "ckpt", lambda lines: lines + [
        f"{hashlib.sha256(b'').hexdigest()}  {name}"])
    with pytest.raises(DataError, match="leaves the checkpoint directory"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_manifest_names_leaving_directory(tmp_path):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["params"][0]["name"] = "../" + manifest["params"][0]["name"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    _reseal(ckpt, "manifest.json")
    with pytest.raises(DataError, match="manifest.json.*leaves"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("cut", [8, -8])
def test_checkpoint_rejects_parameter_file_of_wrong_size(tmp_path, cut):
    net = micro_network("gene-only", "survival", seed=1)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(net, ckpt)
    target = ckpt / "trunk.1.b.bin"
    raw = target.read_bytes()
    target.write_bytes(raw[:cut] if cut < 0 else raw + raw[:cut])
    _reseal(ckpt, target.name)
    with pytest.raises(DataError, match="trunk.1.b.*size mismatch"):
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


def test_scipy_loads_with_the_first_gene_layer_not_at_import():
    code = (
        "import json, sys\n"
        "import survfuse.cli\n"
        "at_import = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from helpers import micro_network\n"
        "micro_network('image-only', 'both')\n"
        "image_only = 'scipy.sparse' in sys.modules\n"
        "micro_network('fused', 'both')\n"
        "print(json.dumps([at_import, image_only, 'scipy.sparse' in sys.modules]))\n")
    paths = [str(Path(survfuse.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], False, True]
