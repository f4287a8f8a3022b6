"""Float64 matrix primitives: activations, layer gradients, Adam, RNG streams.

Activations, dropout and the dense-layer forward are pure functions of their
arguments (plus an explicit random generator where randomness is involved).
``dense_backward`` writes its bias gradient into a caller-owned array and
returns its weight gradient unexpanded, as a ``FactoredGradient``;
``adam_step`` expands such a gradient a block of rows at a time and updates
parameters and moments in place, so one ``AdamState`` must not be shared
between concurrent updates. All arrays are C-contiguous float64; mixed
inputs are coerced on entry.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError

Array = np.ndarray

# Self-normalizing activation constants (Klambauer et al. values).
SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717
# Value that alpha dropout writes into dropped units.
ALPHA_DROP_VALUE = -SELU_LAMBDA * SELU_ALPHA


@dataclass(frozen=True)
class RngStream:
    """Named deterministic random stream.

    Identical (seed, stream_id) always reproduce the same draws; distinct
    stream ids are statistically independent. ``generator`` accepts extra
    integer key parts so call sites can carve out sub-streams (per epoch,
    per iteration, ...) without coordinating id ranges.
    """

    seed: int
    stream_id: int = 0

    def generator(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id, *key))
        return np.random.default_rng(ss)


def as_matrix(values) -> Array:
    """Coerce to a C-ordered float64 2-D array."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    # Branch on sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_softmax_rows(x: Array) -> Array:
    shift = x - x.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def activation(x: Array, kind: str) -> Array:
    """Apply an element-wise (or per-row, for log_softmax_rows) transform."""
    x = as_matrix(x)
    if kind == "linear":
        return x.copy()
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "selu":
        return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "log_softmax_rows":
        if x.shape[1] < 1:
            raise DimensionError("log_softmax_rows needs >=1 entry per row")
        return _log_softmax_rows(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_backward(kind: str, upstream: Array, pre: Array, out: Array) -> Array:
    """Gradient of ``activation`` w.r.t. its input.

    ``pre`` is the pre-activation input and ``out`` the cached activation
    output from the matching forward pass.
    """
    if kind == "linear":
        return upstream.copy()
    if kind == "relu":
        return upstream * (pre > 0)
    if kind == "selu":
        # d/dx = lambda for x>0, else lambda*alpha*e^x = out + lambda*alpha
        return upstream * np.where(pre > 0, SELU_LAMBDA, out + SELU_LAMBDA * SELU_ALPHA)
    if kind == "sigmoid":
        return upstream * out * (1.0 - out)
    if kind == "log_softmax_rows":
        return upstream - np.exp(out) * upstream.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def dropout_mask(shape, p: float, gen: np.random.Generator) -> Array:
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p).

    Training-mode only; evaluation skips the mask entirely.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = gen.random(size=shape) >= p
    return keep / (1.0 - p)


def alpha_dropout(x: Array, p: float,
                  gen: np.random.Generator) -> tuple[Array, Array]:
    """SELU-matched dropout: dropped units are set to -lambda*alpha, then an
    affine correction restores zero mean / unit variance. Returns the output
    and the element scale factor needed by the backward pass."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = gen.random(size=x.shape) >= p
    q = 1.0 - p
    a = (q * (1.0 + p * ALPHA_DROP_VALUE ** 2)) ** -0.5
    b = -a * p * ALPHA_DROP_VALUE
    out = a * np.where(keep, x, ALPHA_DROP_VALUE) + b
    return out, a * keep


# ---------------------------------------------------------------------------
# Dense-layer primitives
# ---------------------------------------------------------------------------

def dense_forward(x: Array, w: Array, b: Array) -> Array:
    """Pre-activation z = x @ w + b."""
    return x @ w + b


@dataclass(frozen=True)
class FactoredGradient:
    """A dense layer's weight gradient ``x.T @ d_pre``, kept as its factors:
    the layer input ``x`` (batch x d_in) and the gradient at the
    pre-activation ``d_pre`` (batch x d_out). Neither is copied, so both
    must stay unchanged until the gradient is read.

    ``expand(r0, r1)`` forms rows ``r0:r1`` of the product; ``adam_step``
    forms it in blocks that equal the same rows of the whole product bit
    for bit (see ``_rows_per_block``). Factors with no batch rows stand for
    an exact +0.0 gradient.
    """

    x: Array
    d_pre: Array

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape[1], self.d_pre.shape[1]

    def expand(self, r0: int = 0, r1: int | None = None,
               out: Array | None = None) -> Array:
        return np.matmul(self.x[:, r0:r1].T, self.d_pre, out=out)


def dense_backward(x: Array, w: Array, upstream_z: Array, db: Array,
                   dx_start: int = 0) -> tuple[FactoredGradient, Array | None]:
    """Gradients of z = x @ w + b given dL/dz.

    ``db`` receives the bias gradient in place. The weight gradient is
    returned as its factors ``(x, dL/dz)``, never formed here, together
    with dx. dx covers input columns ``dx_start:`` only, and is None when
    that range is empty: columns whose gradient nobody reads are never
    computed.
    """
    np.sum(upstream_z, axis=0, out=db)
    dx = upstream_z @ w[dx_start:].T if dx_start < w.shape[0] else None
    return FactoredGradient(x, upstream_z), dx


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

# Elements per pass of the in-place update. The sixteen passes over one chunk
# of parameter, gradient, moments and scratch then stay in a core's L2 cache
# instead of streaming the whole model through memory sixteen times. A
# factored gradient is expanded into scratch in blocks of whole rows of about
# this many elements (see _rows_per_block), and the masked layer's gradient
# bounds its gathers by the same count.
_ADAM_CHUNK = 1 << 15
# Adam's moment decay rates and denominator guard (Kingma and Ba's values).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# A factored gradient whose batch size times its factors' largest magnitudes
# stays below this cannot overflow: no sum of products comes near 2**1024.
_FINITE_BOUND = 2.0 ** 1000


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step counter.

    It also owns the scratch that ``adam_step`` works in: two rows for the
    update and one for an expanded gradient block, each ``_ADAM_CHUNK``
    elements unless a factored gradient needs a larger block. A step
    allocates nothing that grows with the model.
    """

    first_moment: dict[str, Array] = field(default_factory=dict)
    second_moment: dict[str, Array] = field(default_factory=dict)
    step_count: int = 0
    work: Array = field(default_factory=lambda: np.empty((3, _ADAM_CHUNK)),
                        init=False, repr=False)
    finite: Array = field(default_factory=lambda: np.empty(_ADAM_CHUNK, dtype=bool),
                          init=False, repr=False)

    @classmethod
    def for_params(cls, params: Mapping[str, Array]) -> "AdamState":
        return cls(
            first_moment={k: np.zeros_like(v) for k, v in params.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.items()},
            step_count=0,
        )


def _rows_per_block(d_in: int, d_out: int) -> int:
    """Rows of a factored gradient expanded at once: as many whole rows as
    fit in ``_ADAM_CHUNK`` elements, but at least two, and every row of a
    one-column gradient. With one BLAS thread, each element of a block of
    two or more rows sums its batch terms in the order the whole product
    does, so it has the same bits. A one-row block (vector times matrix)
    and part of a column (matrix times vector) go to other BLAS kernels,
    whose sums can round differently."""
    return d_in if d_out == 1 else min(d_in, max(2, _ADAM_CHUNK // d_out))


def _gradient_blocks(g, state: AdamState):
    """``(lo, hi, values)`` for consecutive blocks of one flat gradient:
    slices of a stored one, or whole rows of a factored one expanded into
    ``state.work[2]``, which the next block overwrites. A lone last row is
    expanded together with the row before it."""
    if not isinstance(g, FactoredGradient):
        for lo in range(0, g.size, _ADAM_CHUNK):
            yield lo, lo + _ADAM_CHUNK, g[lo:lo + _ADAM_CHUNK]
        return
    d_in, d_out = g.shape
    rows = _rows_per_block(d_in, d_out)
    for r0 in range(0, d_in, rows):
        r1 = min(r0 + rows, d_in)
        first = r0 - 1 if r1 - r0 == 1 and r0 > 0 else r0
        block = state.work[2, :(r1 - first) * d_out]
        g.expand(first, r1, out=block.reshape(r1 - first, d_out))
        yield r0 * d_out, r1 * d_out, block[(r0 - first) * d_out:]


def _is_finite(g, state: AdamState) -> bool:
    if isinstance(g, FactoredGradient):
        # Finite factors make finite products, and their batch sums cannot
        # overflow below the bound. Only when it fails is every block formed.
        bound = (len(g.x) * float(np.abs(g.x).max(initial=0.0))
                 * float(np.abs(g.d_pre).max(initial=0.0)))
        if bound < _FINITE_BOUND:
            return True
    with np.errstate(over="ignore", invalid="ignore"):
        return all(np.isfinite(block, out=state.finite[:block.size]).all()
                   for _, _, block in _gradient_blocks(g, state))


def adam_step(
    params: Mapping[str, Array],
    grads: Mapping[str, Array | FactoredGradient],
    state: AdamState,
    rate: float,
    weight_decay: float = 0.0,
) -> tuple[Mapping[str, Array], AdamState]:
    """One Adam update over all parameters; weight decay is decoupled
    (applied to the parameter directly, never mixed into the moments).

    A gradient is an array or a ``FactoredGradient``; a factored one is
    expanded one block of rows at a time into scratch and updated while the
    block is in cache, so no weight-sized gradient is ever stored.

    The update is in place: every parameter array, both moments and
    ``state.step_count`` change, and ``grads`` is only read. The same
    ``params`` and ``state`` objects are returned. The rate, the weight
    decay and all gradients are checked before anything is written, so a
    rejected step leaves the parameters and the state as they were. Each
    element goes through the same floating-point operations in the same
    order as the out-of-place update, with (b1, b2, eps) =
    (_BETA1, _BETA2, _EPS): m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p = p - (rate*(m/bc1) / (sqrt(v/bc2)+eps) + (rate*wd)*p), so the
    result is bit-identical to it.
    """
    # NaN compares False with everything, so finiteness is checked first.
    if not math.isfinite(rate) or rate <= 0:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not math.isfinite(weight_decay) or weight_decay < 0:
        raise ValueError(
            f"weight_decay must be >= 0 and finite, got {weight_decay}")
    flat = []
    width = _ADAM_CHUNK
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} must be C-contiguous to be "
                             "updated in place")
        if isinstance(g, FactoredGradient):
            width = max(width, _rows_per_block(*g.shape) * g.shape[1])
        else:
            g = np.ascontiguousarray(g).reshape(-1)
        flat.append((name, p.reshape(-1), g,
                     state.first_moment[name].reshape(-1),
                     state.second_moment[name].reshape(-1)))
    if state.work.shape[1] < width:
        state.work = np.empty((3, width))
        state.finite = np.empty(width, dtype=bool)
    for name, _, g, _, _ in flat:
        if not _is_finite(g, state):
            raise NumericError(f"non-finite gradient for parameter {name!r}")

    t = state.step_count + 1
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    decay = rate * weight_decay
    for _, p_all, g_all, m_all, v_all in flat:
        for lo, hi, g in _gradient_blocks(g_all, state):
            p, m, v = p_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a, b = state.work[0, :p.size], state.work[1, :p.size]
            np.multiply(m, _BETA1, out=m)
            np.multiply(g, 1.0 - _BETA1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, _BETA2, out=v)
            np.multiply(g, 1.0 - _BETA2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            np.add(a, _EPS, out=a)
            np.divide(m, bc1, out=b)
            np.multiply(b, rate, out=b)
            np.divide(b, a, out=b)
            if weight_decay:
                np.multiply(p, decay, out=a)
                np.add(b, a, out=b)
            np.subtract(p, b, out=p)
    state.step_count = t
    return params, state
