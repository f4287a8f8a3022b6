"""Layer types, the three model variants, and bit-exact checkpointing.

``Network(config, mask)`` is the one builder. It lays out a gene branch,
image embeddings passed straight through, a shared trunk and up to two
output heads from ``VARIANT_LAYOUT``, the config and the mask; allocates
every parameter in one vector; and makes each layer on views into it. The
gene branch starts with a sparse layer whose weights exist only at the
nonzeros of a gene-interaction adjacency mask, so interactions absent from
the graph can never influence the forward product.

Variants (``VARIANT_LAYOUT`` holds these rules):
  fused       masked(p->p) + dense(p->1000) gene branch, 1000-wide image
              embeddings passed through, trunk 2000->512->128->32 (ReLU),
              heads on the 32-wide shared representation
  gene-only   masked(p->p) then a four-layer compressor p->1000->512->128->32
              (SELU throughout)
  image-only  four-layer compressor 1000->512->256->128->32 (ReLU)

Dropout follows the activation: SELU layers use the self-normalizing
variant, others use standard inverted dropout; heads carry none.

A checkpoint (format version 3) stores ``Network.param_vector`` as one
``params.bin``; each of its files is written or read once and hashed once.
Checkpoints of any other version are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict
from itertools import zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UsageError
from .genegraph import AdjacencyMask, file_sha256, read_text
from .numcore import (
    _ADAM_CHUNK,
    Array,
    FactoredGradient,
    RngStream,
    activation,
    activation_backward,
    alpha_dropout,
    as_matrix,
    dense_backward,
    dense_forward,
    dropout_mask,
    named_views,
)

# Per variant: the input matrices it reads, whether a dense gene.compress
# follows gene.masked, the default trunk widths and the trunk activation.
VARIANT_LAYOUT = {
    "gene-only": (("gene",), False, (1000, 512, 128, 32), "selu"),
    "image-only": (("image",), False, (512, 256, 128, 32), "relu"),
    "fused": (("gene", "image"), True, (512, 128, 32), "relu"),
}
VARIANT_INPUTS = {v: layout[0] for v, layout in VARIANT_LAYOUT.items()}
# Which task heads each head choice builds.
HEAD_TASKS = {"survival": ("survival",), "grade": ("grade",),
              "both": ("survival", "grade")}
VARIANTS = tuple(VARIANT_INPUTS)
HEAD_CHOICES = tuple(HEAD_TASKS)
# Output rows per step of MaskedSparseLayer.product. At batch 32 a block is
# 256 KiB, which stays in cache between the gather, multiply and add; at
# paper scale the product took 13 ms in blocks against 17 ms in whole depths.
_SLOT_BLOCK = 1024


@dataclass
class DenseLayer:
    """Fully connected layer: out = dropout(act(x @ weights + bias))."""

    name: str
    weights: Array
    bias: Array
    activation: str = "relu"
    dropout_p: float = 0.0

    @property
    def dim_in(self) -> int:
        return self.weights.shape[0]

    @property
    def dim_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class MaskedSparseLayer:
    """Square layer whose weight matrix is nonzero only on the mask pattern.

    ``weights`` aligns one-to-one with the mask's coordinate list; the
    forward product touches those positions and no others, so values at
    masked-out positions do not exist rather than being zeroed. No bias.

    ``product`` sums each output as ``y[n, c] = ((0 + w1*x[n, r1]) +
    w2*x[n, r2]) + ...`` over column c's nonzeros in ascending row order,
    rounding every multiply and every add on its own. The mask's row-major
    coordinate order is what fixes that order; ``tests/oracles.py`` spells
    it out as a scalar loop.
    """

    name: str
    mask: AdjacencyMask
    weights: Array
    activation: str = "selu"
    dropout_p: float = 0.0
    _order: Array = field(init=False, repr=False)
    _src_rows: Array = field(init=False, repr=False)
    _spans: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)
    _slot: Array = field(init=False, repr=False)

    def __post_init__(self):
        # A nonzero's depth is its rank within its column. Each column gets
        # a slot, in descending order of nonzero count, so depth d touches
        # every one of the first k_d slots exactly once and no other. The
        # plan stores the nonzeros by (depth, slot); each span (lo, hi, s)
        # of _order and _src_rows feeds slots s .. s + hi - lo of one depth.
        rows, cols, dim = self.mask.rows, self.mask.cols, self.mask.dim
        counts = np.bincount(cols, minlength=dim)
        self._slot = np.empty(dim, dtype=np.intp)
        self._slot[np.argsort(-counts, kind="stable")] = np.arange(dim)
        widths = dim - np.cumsum(np.bincount(counts))[:-1]
        starts = np.cumsum(widths) - widths
        by_col = np.argsort(cols, kind="stable")
        depth = np.empty_like(cols)
        depth[by_col] = (np.arange(len(cols))
                         - (np.cumsum(counts) - counts)[cols[by_col]])
        self._order = np.empty_like(cols)
        self._order[starts[depth] + self._slot[cols]] = np.arange(len(cols))
        self._src_rows = rows[self._order]
        self._spans = tuple(
            (lo + s, lo + min(s + _SLOT_BLOCK, k), s)
            for lo, k in zip(starts.tolist(), widths.tolist())
            for s in range(0, k, _SLOT_BLOCK))

    @property
    def dim_in(self) -> int:
        return self.mask.dim

    @property
    def dim_out(self) -> int:
        return self.mask.dim

    def product(self, x: Array) -> Array:
        """``x @ W`` for an (n, dim) batch, in the order the class states:
        one gather, multiply and add per span, into slot-ordered rows of
        the transposed output."""
        xt = np.ascontiguousarray(x.T)
        yt = np.zeros_like(xt)
        part_buf = np.empty((min(_SLOT_BLOCK, len(xt)), len(x)))
        w = self.weights[self._order, None]
        for lo, hi, s in self._spans:
            part = part_buf[:hi - lo]
            # mode="clip" lets take write straight into ``part``; the
            # default mode buffers an ``out=`` result (one paper-scale
            # gather: 26 ms against 9 ms). AdjacencyMask keeps every index
            # in range.
            np.take(xt, self._src_rows[lo:hi], axis=0, out=part, mode="clip")
            part *= w[lo:hi]
            yt[s:s + hi - lo] += part
        return yt[self._slot].T

    def gradient(self, x: Array, d_pre: Array) -> Array:
        """Each nonzero's weight gradient, the batch sum of
        ``x[n, r] * d_pre[n, c]``, aligned with ``weights``.

        Whole rows of ``x.T`` and ``d_pre.T`` are gathered into (k, batch)
        scratch, at most ``_ADAM_CHUNK`` elements each, and einsum reads
        their transposes: the F-ordered (batch, k) layout that gathering
        columns of ``x`` and ``d_pre`` gives, so it sums each batch in the
        same order and writes the same bits, but every gather copies
        contiguous rows (135,479 nonzeros at batch 32, one Xeon core:
        9-11 ms against 21-25 ms).
        """
        n, nnz = len(x), self.mask.nnz
        step = max(1, _ADAM_CHUNK // n)
        xt = np.ascontiguousarray(x.T)
        dt = np.ascontiguousarray(d_pre.T)
        scratch = np.empty((2, min(step, nnz), n))
        out = np.empty(nnz)
        for lo in range(0, nnz, step):
            hi = min(lo + step, nnz)
            xs, ds = scratch[0, :hi - lo], scratch[1, :hi - lo]
            np.take(xt, self.mask.rows[lo:hi], axis=0, out=xs, mode="clip")
            np.take(dt, self.mask.cols[lo:hi], axis=0, out=ds, mode="clip")
            np.einsum("nk,nk->k", xs.T, ds.T, out=out[lo:hi])
        return out


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description; widths beyond the fixed endpoints may be
    overridden for small test instances. ``gene_branch_dim`` is the width
    of the fused variant's gene.compress layer."""

    variant: str
    heads: str = "both"
    gene_dim: int = 0
    image_dim: int = 1000
    grade_classes: int = 3
    gene_branch_dim: int = 1000
    trunk_dims: tuple[int, ...] | None = None
    head_hidden_dim: int = 16
    dropout_p: float = 0.25

    def __post_init__(self):
        if self.variant not in VARIANT_INPUTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.heads not in HEAD_TASKS:
            raise ConfigError(f"unknown heads choice {self.heads!r}")
        if "gene" in self.inputs and self.gene_dim < 1:
            raise ConfigError(f"variant {self.variant!r} needs gene_dim >= 1")
        if "image" in self.inputs and self.image_dim < 1:
            raise ConfigError(f"variant {self.variant!r} needs image_dim >= 1")
        if self.with_grade and self.grade_classes < 2:
            raise ConfigError("grade head needs >= 2 classes")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.head_hidden_dim < 1:
            raise ConfigError("head_hidden_dim must be >= 1")
        if self.trunk_dims is not None:
            object.__setattr__(self, "trunk_dims", tuple(self.trunk_dims))
            if not self.trunk_dims:
                raise ConfigError("trunk_dims must name at least one layer")
            if any(d < 1 for d in self.trunk_dims):
                raise ConfigError("trunk dims must be positive")

    @property
    def inputs(self) -> tuple[str, ...]:
        return VARIANT_INPUTS[self.variant]

    @property
    def with_survival(self) -> bool:
        return "survival" in HEAD_TASKS[self.heads]

    @property
    def with_grade(self) -> bool:
        return "grade" in HEAD_TASKS[self.heads]


@dataclass
class LayerCache:
    """What ``backward`` reads of one layer's forward pass: its input, its
    activation output, and the dropout scale applied to that output (None
    without dropout)."""

    layer: object
    x: Array
    act: Array
    drop_scale: Array | None


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward pass, by segment (gene, trunk,
    survival, grade). ``backward`` only reads it, so one trace can feed
    any number of backward passes."""

    caches: dict[str, list[LayerCache]] = field(default_factory=dict)
    outputs: dict[str, Array] = field(default_factory=dict)


def _run_layers(x: Array, layers, mode: str, gen) -> tuple[Array, list[LayerCache]]:
    caches: list[LayerCache] = []
    out = x
    for layer in layers:
        x_in = out
        if isinstance(layer, MaskedSparseLayer):
            pre = layer.product(x_in)
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
        caches.append(LayerCache(layer, x_in, act, drop_scale))
    return out, caches


def _backward_layers(caches: list[LayerCache], upstream: Array,
                     grads: dict, dx_start: int = 0) -> Array | None:
    """Backpropagate through one segment, setting each of its parameters'
    entries in ``grads``: a new array, or a dense weight's
    ``FactoredGradient``. Returns the gradient w.r.t. the segment input's
    columns ``dx_start:``, or None when the caller needs none."""
    d_out = upstream
    for i in reversed(range(len(caches))):
        cache = caches[i]
        layer = cache.layer
        start = dx_start if i == 0 else 0
        d_pre = activation_backward(
            layer.activation,
            d_out if cache.drop_scale is None else d_out * cache.drop_scale,
            cache.act)
        if isinstance(layer, MaskedSparseLayer):
            # gene.masked is the first layer of the gene segment, and
            # nothing reads the gradient w.r.t. the raw gene input. Dropping
            # d_out first makes room for the gradient's transposed copies.
            d_out = None
            grads[f"{layer.name}.values"] = layer.gradient(cache.x, d_pre)
        else:
            (grads[f"{layer.name}.b"], grads[f"{layer.name}.w"],
             d_out) = dense_backward(cache.x, layer.weights, d_pre, start)
    return d_out


# ---------------------------------------------------------------------------
# Network assembly
# ---------------------------------------------------------------------------

class Network:
    """The layers of one variant and the storage behind their parameters.

    The constructor owns the parameter layout. It derives each layer's name,
    widths, activation and dropout from ``VARIANT_LAYOUT``, the config and
    the mask; allocates ``param_vector`` (every parameter, one contiguous
    float64 vector in layer order) once; and makes each layer with its
    ``weights``/``bias`` as reshaped views into ``param_vector``. Nothing
    rebinds them, and a network is not a dataclass, so no layer can end up
    pointing into another network's vector. A whole model is snapshotted or restored with one
    ``np.copyto``. Parameters start at zero until ``assemble`` or
    ``load_checkpoint`` fills ``param_vector``.
    """

    def __init__(self, config: NetworkConfig, mask: AdjacencyMask | None):
        if "gene" in config.inputs:
            if mask is None:
                raise ConfigError("gene branch requires an adjacency mask")
            if mask.dim != config.gene_dim:
                raise ConfigError(
                    f"mask dim {mask.dim} != config gene_dim {config.gene_dim}")
        elif mask is not None:
            raise ConfigError("image-only variant takes no adjacency mask")
        self.config = config
        self.mask = mask
        self.init_seed: int | None = None

        # Layer specs in parameter order: (segment, name, in width, out
        # width, activation, dropout). The trunk input is the image columns,
        # then the gene branch output.
        inputs, compress, trunk_dims, trunk_act = VARIANT_LAYOUT[config.variant]
        p_drop = config.dropout_p
        specs = []
        width = config.image_dim if "image" in inputs else 0
        if "gene" in inputs:
            specs.append(("gene", "gene.masked", mask.dim, mask.dim, "selu",
                          p_drop))
            if compress:
                specs.append(("gene", "gene.compress", mask.dim,
                              config.gene_branch_dim, "selu", p_drop))
            width += specs[-1][3]
        for i, d_out in enumerate(config.trunk_dims or trunk_dims):
            specs.append(("trunk", f"trunk.{i}", width, d_out, trunk_act, p_drop))
            width = d_out
        hidden = config.head_hidden_dim
        for head, d_out, act in (("survival", 1, "sigmoid"),
                                 ("grade", config.grade_classes,
                                  "log_softmax_rows")):
            if head in HEAD_TASKS[config.heads]:
                specs += [(head, f"{head}.0", width, hidden, "relu", 0.0),
                          (head, f"{head}.1", hidden, d_out, act, 0.0)]

        # Each parameter's name, shape and offset, recorded once.
        layout, offset = [], 0
        for _, name, d_in, d_out, _, _ in specs:
            for part, shape in ((("values", (mask.nnz,)),)
                                if name == "gene.masked" else
                                (("w", (d_in, d_out)), ("b", (d_out,)))):
                layout.append((f"{name}.{part}", shape, offset))
                offset += math.prod(shape)
        self._layout = tuple(layout)
        self.param_vector = np.zeros(offset)
        self._params = params = named_views(self.param_vector, layout)
        # Layers by segment, in parameter order.
        self._layers: dict[str, list] = {}
        for seg, name, _, _, act, p in specs:
            if name == "gene.masked":
                layer = MaskedSparseLayer(name, mask, params[f"{name}.values"],
                                          act, p)
            else:
                layer = DenseLayer(name, params[f"{name}.w"],
                                   params[f"{name}.b"], act, p)
            self._layers.setdefault(seg, []).append(layer)

    def all_layers(self):
        return [layer for layers in self._layers.values() for layer in layers]

    def params(self) -> Mapping[str, Array]:
        """Read-only registry of every parameter under a stable name, in
        layer order. The values are the live views into ``param_vector``."""
        return self._params

    def forward(self, gene_x: Array | None = None, image_x: Array | None = None,
                mode: str = "eval", rng: RngStream | None = None,
                key: tuple[int, ...] = ()) -> ForwardTrace:
        """Full forward pass; in train mode ``rng``/``key`` seed the dropout
        draws so a repeated call with the same key is bit-identical. An
        input the variant does not read is skipped, whatever its shape."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        cfg = self.config
        gen = None
        if mode == "train" and cfg.dropout_p > 0.0:
            if rng is None:
                raise UsageError("train-mode forward needs an RngStream")
            gen = rng.generator(*key)

        trace = ForwardTrace()
        xs = {}
        for name, x, dim in (("gene", gene_x, cfg.gene_dim),
                             ("image", image_x, cfg.image_dim)):
            if name not in cfg.inputs:
                continue
            if x is None:
                raise DimensionError(f"variant {cfg.variant!r} requires {name}_x")
            xs[name] = as_matrix(x)
            if xs[name].shape[1] != dim:
                raise DimensionError(
                    f"{name}_x width {xs[name].shape[1]} != {name}_dim {dim}")

        def add_segment(name, x):
            out, trace.caches[name] = _run_layers(x, self._layers[name], mode,
                                                  gen)
            return out

        if "gene" in xs:
            xs["gene"] = add_segment("gene", xs["gene"])
        # The trunk reads the image embeddings (passed straight through)
        # first, then the gene branch output.
        parts = [xs[name] for name in ("image", "gene") if name in xs]
        if len(parts) > 1 and parts[0].shape[0] != parts[1].shape[0]:
            raise DimensionError(f"row mismatch: image {parts[0].shape[0]} "
                                 f"vs gene {parts[1].shape[0]}")
        trunk_in = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]

        rep = add_segment("trunk", trunk_in)
        trace.outputs["representation"] = rep
        if cfg.with_survival:
            trace.outputs["survival"] = add_segment("survival", rep)
        if cfg.with_grade:
            trace.outputs["grade"] = add_segment("grade", rep)
        return trace

    def backward(self, trace: ForwardTrace, d_survival: Array | None = None,
                 d_grade: Array | None = None
                 ) -> Mapping[str, Array | FactoredGradient]:
        """Gradients of a scalar loss w.r.t. every parameter given the loss
        gradients at the head outputs, as a read-only mapping in layer
        order. Heads with no upstream contribute zeros, so the result
        always covers the full registry.

        The masked values' and biases' gradients are new arrays, owned by
        the caller, so gradients from several passes over one trace can be
        held together. A dense weight's gradient ``x.T @ d_pre`` is never
        formed: it is mapped to a ``FactoredGradient`` over the layer input
        the trace holds and the ``d_pre`` computed here, which
        ``adam_step`` expands block by block (``expand()`` forms it whole).
        An unused head's weights get factors with no batch rows.
        """
        if d_survival is None and d_grade is None:
            raise UsageError("backward needs at least one head gradient")

        grads = dict.fromkeys(self._params)  # fixes the layer order
        rep = trace.outputs["representation"]
        d_rep = np.zeros_like(rep)
        for head, upstream in (("survival", d_survival), ("grade", d_grade)):
            if upstream is None:
                for layer in self._layers.get(head, ()):
                    grads[f"{layer.name}.b"] = np.zeros(layer.dim_out)
                    grads[f"{layer.name}.w"] = FactoredGradient(
                        np.empty((0, layer.dim_in)),
                        np.empty((0, layer.dim_out)))
                continue
            if head not in trace.caches:
                raise UsageError(f"network has no {head} head")
            d_rep += _backward_layers(trace.caches[head], upstream, grads)

        # Only the gene branch's columns of the trunk input need a gradient;
        # nothing reads the gradient w.r.t. the raw inputs. Those columns
        # follow the image columns.
        cfg = self.config
        gene_from = cfg.image_dim if "image" in cfg.inputs else 0
        d_gene = _backward_layers(trace.caches["trunk"], d_rep, grads, gene_from)
        if "gene" in cfg.inputs:
            _backward_layers(trace.caches["gene"], d_gene, grads, cfg.gene_dim)
        return MappingProxyType(grads)

    def predict(self, gene_x: Array | None = None,
                image_x: Array | None = None) -> dict[str, Array]:
        """Evaluation-mode forward; returns the head outputs only."""
        trace = self.forward(gene_x=gene_x, image_x=image_x, mode="eval")
        return {k: v for k, v in trace.outputs.items() if k != "representation"}


def assemble(config: NetworkConfig, mask: AdjacencyMask | None,
             rng: RngStream) -> Network:
    """Build a variant with scaled-uniform initial weights and zero biases.

    Dense layers draw from U(+-sqrt(6/(fan_in+fan_out))). Sparse weights use
    the same rule with connectivity-aware fans: for the value at (r, c), the
    fan-in is the nonzero count of column c and the fan-out the nonzero
    count of row r. Same seed, same parameters, bit for bit.
    """
    net = Network(config, mask)
    gen = rng.generator()
    for layer in net.all_layers():
        if isinstance(layer, MaskedSparseLayer):
            m = layer.mask
            col_nnz = np.bincount(m.cols, minlength=m.dim)
            row_nnz = np.bincount(m.rows, minlength=m.dim)
            fans = col_nnz[m.cols] + row_nnz[m.rows]
            _uniform_into(layer.weights, -1.0, 1.0, gen)
            layer.weights *= np.sqrt(6.0 / fans)
        else:
            d_in, d_out = layer.weights.shape
            limit = np.sqrt(6.0 / (d_in + d_out))
            _uniform_into(layer.weights, -limit, limit, gen)
    net.init_seed = rng.seed
    return net


def _uniform_into(out: Array, low: float, high: float, gen) -> None:
    """``out[...] = gen.uniform(low, high, out.shape)``, bit for bit, with no
    temporary: numpy draws each value as ``low + (high - low) * u`` from the
    ``u`` that ``gen.random`` draws, in the same order."""
    gen.random(out=out)
    out *= high - low
    out += low


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_FORMAT = "survfuse-checkpoint"
_VERSION = 3
_MANIFEST_NAME = "manifest.json"
_CHECKSUM_NAME = "checksums.txt"
_PARAMS_NAME = "params.bin"
_MASK_NAME = "mask.bin"


def _write(path: Path, data) -> str:
    """Write ``data`` in one call and return the sha256 of what was written."""
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _manifest_params(network: Network) -> list[dict]:
    """Name, shape and offset in ``param_vector`` of each parameter."""
    return [{"name": name, "shape": list(shape), "offset": offset}
            for name, shape, offset in network._layout]


def _params_bytes(network: Network):
    # On a little-endian machine this is param_vector itself, not a copy.
    return np.asarray(network.param_vector, dtype="<f8")


def save_params(network: Network, path) -> None:
    """Start a checkpoint in directory ``path``: remove its
    ``checksums.txt``, so that it cannot be loaded, then write
    ``params.bin`` from ``param_vector``, unhashed."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / _CHECKSUM_NAME).unlink(missing_ok=True)
    # An existing file is overwritten in place, not truncated first, so its
    # cached pages are reused: 2.7 ms against 10-13 ms for a 10 MB write on
    # a 2-vCPU machine.
    fd = os.open(path / _PARAMS_NAME, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(_params_bytes(network))
        fh.truncate()


def save_checkpoint(network: Network, path, params_sha256: str | None = None,
                    params_saved: bool = False) -> str:
    """Write a version-3 checkpoint directory and return the sha256 of its
    ``params.bin``: ``manifest.json`` (config, seed, genes, and each
    parameter's name, shape and float64 offset), ``params.bin``
    (``param_vector`` as little-endian float64), ``mask.bin`` (gene branch
    only: the mask's rows then cols as little-endian int32) and, last,
    ``checksums.txt``, whose digests hash the bytes in memory. A
    ``mask.bin`` left by an earlier checkpoint in ``path`` is removed when
    this one has none.

    ``params_sha256``, when given, is the known digest of ``param_vector``.
    With ``params_saved``, the checkpoint that ``save_params`` started is
    completed: its ``params.bin`` is kept and hashed from the file.
    """
    path = Path(path)
    if params_saved:
        params_sha256 = file_sha256(path / _PARAMS_NAME)
    else:
        save_params(network, path)
        params_sha256 = (params_sha256
                         or hashlib.sha256(_params_bytes(network)).hexdigest())
    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "config": asdict(network.config),
        "seed": network.init_seed,
        "params": _manifest_params(network),
    }
    digests = {_PARAMS_NAME: params_sha256}
    mask = network.mask
    if mask is not None:
        manifest["genes"] = list(mask.genes)
        coords = np.concatenate((mask.rows, mask.cols)).astype("<i4")
        digests[_MASK_NAME] = _write(path / _MASK_NAME, coords)
    else:
        # An earlier checkpoint in this directory may have had a mask.
        (path / _MASK_NAME).unlink(missing_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    digests[_MANIFEST_NAME] = _write(path / _MANIFEST_NAME, text.encode("utf-8"))
    with open(path / _CHECKSUM_NAME, "w", encoding="utf-8") as fh:
        for name in sorted(digests):
            fh.write(f"{digests[name]}  {name}\n")
    return params_sha256


def _read_checksums(path: Path) -> dict[str, str]:
    """File name -> sha256 from a checkpoint's checksums.txt."""
    checksum_file = path / _CHECKSUM_NAME
    if not checksum_file.is_file():
        raise DataError(f"missing {_CHECKSUM_NAME} in {path}")
    digests: dict[str, str] = {}
    lines = read_text(checksum_file, DataError).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{_CHECKSUM_NAME}:{lineno}"
        digest, sep, name = line.partition("  ")
        if not sep or not name:
            raise DataError(f"{where}: malformed checksum line {line!r}")
        if name in digests:
            raise DataError(f"{where}: {name} is listed twice")
        digests[name] = digest
    return digests


def _read(path: Path, name: str, digests: Mapping[str, str], into=None):
    """Read listed file ``name`` once, into the buffer ``into`` when given,
    and check the sha256 of the bytes read."""
    if name not in digests:
        raise DataError(f"{_CHECKSUM_NAME} does not list {name}")
    try:
        fh = open(path / name, "rb")
    except FileNotFoundError:
        raise DataError(f"checkpoint file missing: {name}") from None
    with fh:
        if into is None:
            data = fh.read()
        elif fh.readinto(into) != into.nbytes or fh.read(1):
            raise DataError(f"{name}: size mismatch on disk "
                            f"(expected {into.nbytes} bytes)")
        else:
            data = into
    if hashlib.sha256(data).hexdigest() != digests[name]:
        raise DataError(f"checksum mismatch for {name}")
    return data


def _read_mask(data: bytes, genes: tuple[str, ...]) -> AdjacencyMask:
    """Decode mask.bin; AdjacencyMask checks the coordinates' range and
    order, and its error is reported against the file."""
    if len(data) % 8:
        raise DataError(f"{_MASK_NAME}: size {len(data)} is not a whole "
                        "number of (row, col) int32 pairs")
    rows, cols = np.frombuffer(data, dtype="<i4").astype(np.intp).reshape(2, -1)
    try:
        return AdjacencyMask(genes=genes, rows=rows, cols=cols)
    except DataError as exc:
        raise DataError(f"{_MASK_NAME}: {exc}") from None


def load_checkpoint(path) -> Network:
    """Rebuild a network from a version-3 checkpoint directory, bit for bit.

    The manifest's checksum is checked before anything in it is used.
    ``checksums.txt`` must list exactly the format's files, and the
    manifest's parameter layout must equal the built network's.
    ``params.bin`` is read straight into the new ``param_vector`` and
    hashed there, so no file is read twice.
    """
    path = Path(path)
    digests = _read_checksums(path)
    data = _read(path, _MANIFEST_NAME, digests)
    try:
        manifest = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        read_text(path / _MANIFEST_NAME, DataError)  # names the bad line
        raise
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path / _MANIFEST_NAME}: "
                        f"{exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise DataError(f"{path}: not a checkpoint directory")
    if manifest.get("version") != _VERSION:
        raise DataError(f"checkpoint version {manifest.get('version')} is "
                        "not supported")
    try:
        config = NetworkConfig(**manifest["config"])
        genes = tuple(manifest["genes"]) if "gene" in config.inputs else None
        layout = list(manifest["params"])
    except KeyError as exc:
        raise DataError(f"{_MANIFEST_NAME}: missing {exc.args[0]!r}") from None
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{_MANIFEST_NAME}: {exc}") from None
    if genes is not None and len(genes) != config.gene_dim:
        raise DataError(f"{_MANIFEST_NAME}: {len(genes)} genes for gene_dim "
                        f"{config.gene_dim}")
    files = {_MANIFEST_NAME, _PARAMS_NAME}
    if genes is not None:
        files.add(_MASK_NAME)
    extra = sorted(set(digests) - files)
    if extra:
        raise DataError(f"{_CHECKSUM_NAME} lists unexpected file {extra[0]!r}")

    mask = None
    if genes is not None:
        mask = _read_mask(_read(path, _MASK_NAME, digests), genes)
    net = Network(config, mask)
    net.init_seed = manifest.get("seed")
    for got, want in zip_longest(layout, _manifest_params(net)):
        if got != want:
            raise DataError(f"{_MANIFEST_NAME}: parameter {got} does not "
                            f"match the network's layout {want}")
    _read(path, _PARAMS_NAME, digests, memoryview(net.param_vector).cast("B"))
    if sys.byteorder != "little":
        net.param_vector.byteswap(inplace=True)
    return net
