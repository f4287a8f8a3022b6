"""Layer types, the four model variants, and bit-exact checkpointing.

A network is a plain container of layers grouped into a gene branch, an
image branch, a shared trunk, and up to two output heads. The gene branch
starts with a sparse layer whose weights exist only at the nonzeros of a
gene-interaction adjacency mask, so interactions absent from the graph can
never influence the forward product.

Variants:
  fused       masked(p->p) + dense(p->1000) gene branch, 1000-wide image
              embeddings passed through, trunk 2000->512->128->32 (ReLU),
              heads on the 32-wide shared representation
  gene-only   masked(p->p) then a four-layer compressor p->1000->512->128->32
              (SELU throughout)
  image-only  four-layer compressor 1000->512->256->128->32 (ReLU)

Dropout follows the activation: SELU layers use the self-normalizing
variant, others use standard inverted dropout; heads carry none.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UsageError
from .genegraph import AdjacencyMask
from .numcore import (
    Array,
    RngStream,
    activation,
    activation_backward,
    alpha_dropout,
    as_matrix,
    dense_backward,
    dense_forward,
    dropout_mask,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

VARIANTS = ("gene-only", "image-only", "fused")
HEAD_CHOICES = ("survival", "grade", "both")


@dataclass
class DenseLayer:
    """Fully connected layer: out = dropout(act(x @ weights + bias))."""

    name: str
    weights: Array
    bias: Array
    activation: str = "relu"
    dropout_p: float = 0.0

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DimensionError(f"{self.name}: weights must be 2-D")
        if self.bias.shape != (self.weights.shape[1],):
            raise DimensionError(
                f"{self.name}: bias length {self.bias.shape} != out width "
                f"{self.weights.shape[1]}")

    @property
    def dim_in(self) -> int:
        return self.weights.shape[0]

    @property
    def dim_out(self) -> int:
        return self.weights.shape[1]

    def param_items(self):
        return [(f"{self.name}.w", "weights"), (f"{self.name}.b", "bias")]


@dataclass
class MaskedSparseLayer:
    """Square layer whose weight matrix is nonzero only on the mask pattern.

    ``weights`` aligns one-to-one with the mask's coordinate list; the
    forward product touches those positions and no others, so values at
    masked-out positions do not exist rather than being zeroed. No bias.
    """

    name: str
    mask: AdjacencyMask
    weights: Array
    activation: str = "selu"
    dropout_p: float = 0.0
    _indptr: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.weights.shape != (self.mask.nnz,):
            raise DimensionError(
                f"{self.name}: {len(self.weights)} weights for "
                f"{self.mask.nnz} mask positions")
        # Mask coordinates are row-major sorted (AdjacencyMask invariant),
        # so they double as a CSR structure with indices = cols.
        counts = np.bincount(self.mask.rows, minlength=self.mask.dim)
        indptr = np.zeros(self.mask.dim + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        self._indptr = indptr
        # Importing scipy.sparse takes about a quarter second. Pay it while
        # the network is built, and only for networks with a gene branch:
        # the scoring commands build none and never load scipy.
        import scipy.sparse  # noqa: F401

    @property
    def dim_in(self) -> int:
        return self.mask.dim

    @property
    def dim_out(self) -> int:
        return self.mask.dim

    def param_items(self):
        return [(f"{self.name}.values", "weights")]

    def sparse_weight(self) -> csr_array:
        from scipy.sparse import csr_array
        return csr_array(
            (self.weights, self.mask.cols, self._indptr),
            shape=(self.mask.dim, self.mask.dim))

    @classmethod
    def from_dense(cls, name: str, mask: AdjacencyMask, dense_weights: Array,
                   **kwargs) -> "MaskedSparseLayer":
        """Gather a dense p x p matrix down to the mask pattern. Values at
        zero positions of the mask are discarded by construction."""
        dense_weights = as_matrix(dense_weights)
        if dense_weights.shape != (mask.dim, mask.dim):
            raise DimensionError(
                f"dense weights {dense_weights.shape} != mask dim {mask.dim}")
        values = np.ascontiguousarray(dense_weights[mask.rows, mask.cols])
        return cls(name=name, mask=mask, weights=values, **kwargs)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description; widths beyond the fixed endpoints may be
    overridden for small test instances."""

    variant: str
    heads: str = "both"
    gene_dim: int = 0
    image_dim: int = 1000
    grade_classes: int = 3
    gene_branch_dim: int = 1000
    trunk_dims: tuple[int, ...] | None = None
    head_hidden_dim: int = 16
    trunk_activation: str | None = None
    dropout_p: float = 0.25

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.heads not in HEAD_CHOICES:
            raise ConfigError(f"unknown heads choice {self.heads!r}")
        if self.variant in ("fused", "gene-only") and self.gene_dim < 1:
            raise ConfigError(f"variant {self.variant!r} needs gene_dim >= 1")
        if self.variant in ("fused", "image-only") and self.image_dim < 1:
            raise ConfigError(f"variant {self.variant!r} needs image_dim >= 1")
        if self.heads in ("grade", "both") and self.grade_classes < 2:
            raise ConfigError("grade head needs >= 2 classes")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.head_hidden_dim < 1:
            raise ConfigError("head_hidden_dim must be >= 1")
        if self.trunk_dims is not None:
            object.__setattr__(self, "trunk_dims", tuple(self.trunk_dims))
            if any(d < 1 for d in self.trunk_dims):
                raise ConfigError("trunk dims must be positive")

    @property
    def with_survival(self) -> bool:
        return self.heads in ("survival", "both")

    @property
    def with_grade(self) -> bool:
        return self.heads in ("grade", "both")

    def resolved_trunk_dims(self) -> tuple[int, ...]:
        if self.trunk_dims is not None:
            return self.trunk_dims
        if self.variant == "fused":
            return (512, 128, 32)
        if self.variant == "gene-only":
            return (self.gene_branch_dim, 512, 128, 32)
        return (512, 256, 128, 32)

    def resolved_trunk_activation(self) -> str:
        if self.trunk_activation is not None:
            return self.trunk_activation
        return "selu" if self.variant == "gene-only" else "relu"

    def trunk_input_dim(self) -> int:
        if self.variant == "fused":
            return self.image_dim + self.gene_branch_dim
        if self.variant == "gene-only":
            return self.gene_dim
        return self.image_dim

    def representation_dim(self) -> int:
        return self.resolved_trunk_dims()[-1]


@dataclass
class LayerCache:
    layer: object
    x: Array
    pre: Array
    act: Array
    drop_scale: Array | None
    out: Array


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward pass; feeds exactly one backward."""

    caches: list[LayerCache] = field(default_factory=list)
    segments: dict[str, tuple[int, int]] = field(default_factory=dict)
    outputs: dict[str, Array] = field(default_factory=dict)
    concat_split: int | None = None
    mode: str = "eval"
    consumed: bool = False

    def segment_caches(self, name: str) -> list[LayerCache]:
        lo, hi = self.segments[name]
        return self.caches[lo:hi]


def _run_layers(x: Array, layers, mode: str, gen) -> tuple[Array, list[LayerCache]]:
    caches: list[LayerCache] = []
    out = x
    for layer in layers:
        x_in = out
        if x_in.shape[1] != layer.dim_in:
            raise DimensionError(
                f"{layer.name}: input width {x_in.shape[1]} != expected "
                f"{layer.dim_in}")
        if isinstance(layer, MaskedSparseLayer):
            pre = x_in @ layer.sparse_weight()
        else:
            pre = dense_forward(x_in, layer.weights, layer.bias)
        act = activation(pre, layer.activation)
        drop_scale = None
        out = act
        if mode == "train" and layer.dropout_p > 0.0:
            if layer.activation == "selu":
                out, drop_scale = alpha_dropout(act, layer.dropout_p, gen)
            else:
                drop_scale = dropout_mask(act.shape, layer.dropout_p, gen)
                out = act * drop_scale
        caches.append(LayerCache(layer, x_in, pre, act, drop_scale, out))
    return out, caches


def _backward_layers(caches: list[LayerCache], upstream: Array,
                     grads: Mapping[str, Array], dx_start: int = 0) -> Array | None:
    """Backpropagate through one segment, writing every parameter gradient
    into its array in ``grads``. Returns the gradient w.r.t. the segment
    input's columns ``dx_start:``, or None when the caller needs none."""
    d_out = upstream
    for i in reversed(range(len(caches))):
        cache = caches[i]
        layer = cache.layer
        start = dx_start if i == 0 else 0
        d_act = d_out if cache.drop_scale is None else d_out * cache.drop_scale
        d_pre = activation_backward(layer.activation, d_act, cache.pre, cache.act)
        if isinstance(layer, MaskedSparseLayer):
            mask = layer.mask
            np.einsum("nk,nk->k", cache.x[:, mask.rows], d_pre[:, mask.cols],
                      out=grads[f"{layer.name}.values"])
            d_out = ((d_pre @ layer.sparse_weight().T)[:, start:]
                     if start < layer.dim_in else None)
        else:
            d_out, _, _ = dense_backward(
                cache.x, layer.weights, d_pre, grads[f"{layer.name}.w"],
                grads[f"{layer.name}.b"], start)
    return d_out


# ---------------------------------------------------------------------------
# Stand-alone forward operations
# ---------------------------------------------------------------------------

def sgcn_forward(x: Array, layer1: MaskedSparseLayer, layer2: DenseLayer,
                 mode: str = "eval", gen=None) -> tuple[Array, ForwardTrace]:
    """Gene branch: sparse masked layer then a dense compression layer."""
    x = as_matrix(x)
    out, caches = _run_layers(x, [layer1, layer2], mode, gen)
    trace = ForwardTrace(caches=caches, segments={"gene": (0, 2)}, mode=mode)
    trace.outputs["gene"] = out
    return out, trace


def fusion_forward(z_image: Array, z_gene: Array, trunk,
                   mode: str = "eval", gen=None) -> tuple[Array, ForwardTrace]:
    """Concatenate the two modality blocks (image first) and run the trunk."""
    z_image, z_gene = as_matrix(z_image), as_matrix(z_gene)
    if z_image.shape[0] != z_gene.shape[0]:
        raise DimensionError(
            f"row mismatch: image {z_image.shape[0]} vs gene {z_gene.shape[0]}")
    z = np.concatenate([z_image, z_gene], axis=1)
    out, caches = _run_layers(z, trunk, mode, gen)
    trace = ForwardTrace(caches=caches, segments={"trunk": (0, len(caches))},
                         concat_split=z_image.shape[1], mode=mode)
    trace.outputs["representation"] = out
    return out, trace


def survival_head(z: Array, head) -> Array:
    """Two dense layers ending in a sigmoid; one risk per sample in (0,1)."""
    out, _ = _run_layers(as_matrix(z), head, "eval", None)
    return out


def grade_head(z: Array, head) -> Array:
    """Two dense layers ending in row-wise log-softmax."""
    out, _ = _run_layers(as_matrix(z), head, "eval", None)
    return out


# ---------------------------------------------------------------------------
# Network assembly
# ---------------------------------------------------------------------------

@dataclass
class Network:
    """Layers plus the storage behind their parameters.

    Every parameter lives in ``param_vector``, one contiguous float64 vector
    in layer order, and each layer's ``weights``/``bias`` is a reshaped view
    into it; ``grad_vector`` mirrors that layout for gradients. Parameters
    are only ever written through those views, never rebound, so a whole
    model is snapshotted or restored with one ``np.copyto``.
    """

    config: NetworkConfig
    gene_layers: list = field(default_factory=list)
    trunk_layers: list = field(default_factory=list)
    survival_layers: list = field(default_factory=list)
    grade_layers: list = field(default_factory=list)
    init_seed: int | None = None
    param_vector: Array = field(init=False, repr=False)
    grad_vector: Array = field(init=False, repr=False)
    _params: Mapping[str, Array] = field(init=False, repr=False)
    _grads: Mapping[str, Array] = field(init=False, repr=False)

    def __post_init__(self):
        slots = [(name, layer, attr) for layer in self.all_layers()
                 for name, attr in layer.param_items()]
        names = [name for name, _, _ in slots]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate parameter names in {names}")
        total = sum(getattr(layer, attr).size for _, layer, attr in slots)
        self.param_vector = np.zeros(total)
        self.grad_vector = np.zeros(total)
        params: dict[str, Array] = {}
        grads: dict[str, Array] = {}
        lo = 0
        for name, layer, attr in slots:
            value = getattr(layer, attr)
            hi = lo + value.size
            view = self.param_vector[lo:hi].reshape(value.shape)
            np.copyto(view, value)
            setattr(layer, attr, view)
            params[name] = view
            grads[name] = self.grad_vector[lo:hi].reshape(value.shape)
            lo = hi
        self._params = MappingProxyType(params)
        self._grads = MappingProxyType(grads)

    def all_layers(self):
        return (self.gene_layers + self.trunk_layers + self.survival_layers
                + self.grade_layers)

    def params(self) -> Mapping[str, Array]:
        """Read-only registry of every parameter under a stable name, in
        layer order. The values are the live views into ``param_vector``."""
        return self._params

    def set_params(self, params: Mapping[str, Array]) -> None:
        """Copy new values into every parameter (all names required)."""
        for name, view in self._params.items():
            new = params[name]
            if new.shape != view.shape:
                raise DimensionError(
                    f"shape mismatch for {name!r}: {new.shape}")
        for name, view in self._params.items():
            np.copyto(view, params[name])

    def forward(self, gene_x: Array | None = None, image_x: Array | None = None,
                mode: str = "eval", rng: RngStream | None = None,
                key: tuple[int, ...] = ()) -> ForwardTrace:
        """Full forward pass; in train mode ``rng``/``key`` seed the dropout
        draws so a repeated call with the same key is bit-identical."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        cfg = self.config
        gen = None
        if mode == "train" and cfg.dropout_p > 0.0:
            if rng is None:
                raise UsageError("train-mode forward needs an RngStream")
            gen = rng.generator(*key)

        trace = ForwardTrace(mode=mode)
        if cfg.variant in ("fused", "gene-only"):
            if gene_x is None:
                raise DimensionError(f"variant {cfg.variant!r} requires gene_x")
            gene_x = as_matrix(gene_x)
            if gene_x.shape[1] != cfg.gene_dim:
                raise DimensionError(
                    f"gene_x width {gene_x.shape[1]} != gene_dim {cfg.gene_dim}")
        if cfg.variant in ("fused", "image-only"):
            if image_x is None:
                raise DimensionError(f"variant {cfg.variant!r} requires image_x")
            image_x = as_matrix(image_x)
            if image_x.shape[1] != cfg.image_dim:
                raise DimensionError(
                    f"image_x width {image_x.shape[1]} != image_dim {cfg.image_dim}")

        def add_segment(name, x, layers):
            lo = len(trace.caches)
            out, caches = _run_layers(x, layers, mode, gen)
            trace.caches.extend(caches)
            trace.segments[name] = (lo, len(trace.caches))
            return out

        if cfg.variant == "fused":
            gene_out = add_segment("gene", gene_x, self.gene_layers)
            image_out = image_x  # embeddings pass straight through
            if image_out.shape[0] != gene_out.shape[0]:
                raise DimensionError(
                    f"row mismatch: image {image_out.shape[0]} vs gene "
                    f"{gene_out.shape[0]}")
            trunk_in = np.concatenate([image_out, gene_out], axis=1)
            trace.concat_split = image_out.shape[1]
        elif cfg.variant == "gene-only":
            trunk_in = add_segment("gene", gene_x, self.gene_layers)
        else:
            trunk_in = image_x

        rep = add_segment("trunk", trunk_in, self.trunk_layers)
        trace.outputs["representation"] = rep
        if cfg.with_survival:
            trace.outputs["survival"] = add_segment(
                "survival", rep, self.survival_layers)
        if cfg.with_grade:
            trace.outputs["grade"] = add_segment("grade", rep, self.grade_layers)
        return trace

    def backward(self, trace: ForwardTrace, d_survival: Array | None = None,
                 d_grade: Array | None = None) -> Mapping[str, Array]:
        """Gradients of a scalar loss w.r.t. every parameter given the loss
        gradients at the head outputs. Heads with no upstream contribute
        zeros, so the result always covers the full registry.

        The gradients are written into ``grad_vector``; the returned
        read-only mapping holds views into it, which the next backward pass
        overwrites.
        """
        if trace.consumed:
            raise UsageError("ForwardTrace already consumed by a backward pass")
        trace.consumed = True
        if d_survival is None and d_grade is None:
            raise UsageError("backward needs at least one head gradient")

        grads = self._grads
        rep = trace.outputs["representation"]
        d_rep = np.zeros_like(rep)
        for head, layers, upstream in (
                ("survival", self.survival_layers, d_survival),
                ("grade", self.grade_layers, d_grade)):
            if upstream is None:
                for layer in layers:
                    for name, _ in layer.param_items():
                        grads[name].fill(0.0)
                continue
            if head not in trace.segments:
                raise UsageError(f"network has no {head} head")
            d_rep += _backward_layers(trace.segment_caches(head), upstream, grads)

        # Only the gene branch's columns of the trunk input need a gradient;
        # nothing reads the gradient w.r.t. the raw inputs.
        variant = self.config.variant
        gene_from = {"fused": trace.concat_split, "gene-only": 0}.get(
            variant, self.config.trunk_input_dim())
        d_gene = _backward_layers(trace.segment_caches("trunk"), d_rep, grads,
                                  gene_from)
        if variant in ("fused", "gene-only"):
            _backward_layers(trace.segment_caches("gene"), d_gene, grads,
                             self.config.gene_dim)
        return grads

    def predict(self, gene_x: Array | None = None,
                image_x: Array | None = None) -> dict[str, Array]:
        """Evaluation-mode forward; returns the head outputs only."""
        trace = self.forward(gene_x=gene_x, image_x=image_x, mode="eval")
        return {k: v for k, v in trace.outputs.items() if k != "representation"}

    @property
    def mask(self) -> AdjacencyMask | None:
        for layer in self.gene_layers:
            if isinstance(layer, MaskedSparseLayer):
                return layer.mask
        return None


def _build_structure(config: NetworkConfig, mask: AdjacencyMask | None) -> Network:
    """Allocate all layers with zero weights; init or checkpoint fills them."""
    if config.variant in ("fused", "gene-only"):
        if mask is None:
            raise ConfigError("gene branch requires an adjacency mask")
        if mask.dim != config.gene_dim:
            raise ConfigError(
                f"mask dim {mask.dim} != config gene_dim {config.gene_dim}")
    elif mask is not None:
        raise ConfigError("image-only variant takes no adjacency mask")

    def dense(name, d_in, d_out, act, p):
        return DenseLayer(name=name, weights=np.zeros((d_in, d_out)),
                          bias=np.zeros(d_out), activation=act, dropout_p=p)

    p_drop = config.dropout_p
    gene_layers: list = []
    if config.variant == "fused":
        gene_layers = [
            MaskedSparseLayer(name="gene.masked", mask=mask,
                              weights=np.zeros(mask.nnz), activation="selu",
                              dropout_p=p_drop),
            dense("gene.compress", config.gene_dim, config.gene_branch_dim,
                  "selu", p_drop),
        ]
    elif config.variant == "gene-only":
        gene_layers = [
            MaskedSparseLayer(name="gene.masked", mask=mask,
                              weights=np.zeros(mask.nnz), activation="selu",
                              dropout_p=p_drop),
        ]

    trunk_act = config.resolved_trunk_activation()
    trunk_layers = []
    d_in = config.trunk_input_dim()
    for i, d_out in enumerate(config.resolved_trunk_dims()):
        trunk_layers.append(dense(f"trunk.{i}", d_in, d_out, trunk_act, p_drop))
        d_in = d_out

    rep = config.representation_dim()
    survival_layers = []
    if config.with_survival:
        survival_layers = [
            dense("survival.0", rep, config.head_hidden_dim, "relu", 0.0),
            dense("survival.1", config.head_hidden_dim, 1, "sigmoid", 0.0),
        ]
    grade_layers = []
    if config.with_grade:
        grade_layers = [
            dense("grade.0", rep, config.head_hidden_dim, "relu", 0.0),
            dense("grade.1", config.head_hidden_dim, config.grade_classes,
                  "log_softmax_rows", 0.0),
        ]
    return Network(config=config, gene_layers=gene_layers,
                   trunk_layers=trunk_layers, survival_layers=survival_layers,
                   grade_layers=grade_layers)


def assemble(config: NetworkConfig, mask: AdjacencyMask | None,
             rng: RngStream) -> Network:
    """Build a variant with scaled-uniform initial weights and zero biases.

    Dense layers draw from U(+-sqrt(6/(fan_in+fan_out))). Sparse weights use
    the same rule with connectivity-aware fans: for the value at (r, c), the
    fan-in is the nonzero count of column c and the fan-out the nonzero
    count of row r. Same seed, same parameters, bit for bit.
    """
    net = _build_structure(config, mask)
    gen = rng.generator()
    for layer in net.all_layers():
        if isinstance(layer, MaskedSparseLayer):
            m = layer.mask
            col_nnz = np.bincount(m.cols, minlength=m.dim)
            row_nnz = np.bincount(m.rows, minlength=m.dim)
            fans = col_nnz[m.cols] + row_nnz[m.rows]
            limit = np.sqrt(6.0 / fans)
            layer.weights[...] = gen.uniform(-1.0, 1.0, size=m.nnz) * limit
        else:
            d_in, d_out = layer.weights.shape
            limit = np.sqrt(6.0 / (d_in + d_out))
            layer.weights[...] = gen.uniform(-limit, limit, size=(d_in, d_out))
    net.init_seed = rng.seed
    return net


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_CHECKSUM_NAME = "checksums.txt"
_MASK_NAME = "mask.tsv"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_checkpoint(network: Network, path) -> None:
    """Write a checkpoint directory: manifest, one little-endian float64
    binary per parameter, the adjacency mask when present, and checksums."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    params = network.params()
    manifest = {
        "format": "survfuse-checkpoint",
        "version": 1,
        "config": asdict(network.config),
        "seed": network.init_seed,
        "params": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    mask = network.mask
    if mask is not None:
        manifest["genes"] = list(mask.genes)
        mask.save(path / _MASK_NAME)
    with open(path / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, value in params.items():
        with open(path / f"{name}.bin", "wb") as fh:
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    files = sorted(p.name for p in path.iterdir() if p.name != _CHECKSUM_NAME)
    with open(path / _CHECKSUM_NAME, "w", encoding="utf-8") as fh:
        for name in files:
            fh.write(f"{_sha256(path / name)}  {name}\n")


def _plain_name(name: str, where: str) -> str:
    """A file name from a checkpoint's own listing must stay inside it."""
    if "/" in name or "\\" in name or ".." in name:
        raise DataError(f"{where}: file name {name!r} leaves the checkpoint "
                        "directory")
    return name


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint directory, verifying checksums.
    The loaded parameters are bit-identical to what was saved."""
    path = Path(path)
    checksum_file = path / _CHECKSUM_NAME
    if not checksum_file.is_file():
        raise DataError(f"missing {_CHECKSUM_NAME} in {path}")
    lines = checksum_file.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{_CHECKSUM_NAME}:{lineno}"
        digest, sep, name = line.partition("  ")
        if not sep or not name:
            raise DataError(f"{where}: malformed checksum line {line!r}")
        target = path / _plain_name(name, where)
        if not target.is_file():
            raise DataError(f"checkpoint file missing: {name}")
        if _sha256(target) != digest:
            raise DataError(f"checksum mismatch for {name}")

    with open(path / _MANIFEST_NAME, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "survfuse-checkpoint":
        raise DataError(f"{path}: not a checkpoint directory")
    cfg_dict = dict(manifest["config"])
    if cfg_dict.get("trunk_dims") is not None:
        cfg_dict["trunk_dims"] = tuple(cfg_dict["trunk_dims"])
    config = NetworkConfig(**cfg_dict)

    mask = None
    if config.variant in ("fused", "gene-only"):
        genes = tuple(manifest["genes"])
        mask = AdjacencyMask.load(path / _MASK_NAME, genes=genes)
    net = _build_structure(config, mask)
    net.init_seed = manifest.get("seed")
    expected = net.params()
    loaded = set()
    for entry in manifest["params"]:
        name, shape = entry["name"], tuple(entry["shape"])
        _plain_name(name, _MANIFEST_NAME)
        if name not in expected:
            raise DataError(f"unexpected parameter {name!r} in manifest")
        view = expected[name]
        if shape != view.shape:
            raise DimensionError(f"shape mismatch for {name!r}: {shape}")
        # Read straight into the parameter's slot of the network's vector.
        with open(path / f"{name}.bin", "rb") as fh:
            if fh.readinto(memoryview(view).cast("B")) != view.nbytes or fh.read(1):
                raise DataError(f"parameter {name!r}: size mismatch on disk")
        if sys.byteorder != "little":
            view.byteswap(inplace=True)
        loaded.add(name)
    if loaded != set(expected):
        missing = sorted(set(expected) - loaded)
        raise DataError(f"checkpoint missing parameters: {missing[:5]}")
    return net
