"""Float64 matrix primitives: activations, layer gradients, Adam, RNG streams.

Activations, dropout and the dense-layer forward and backward are pure
functions of their arguments (plus an explicit random generator where
randomness is involved) and write into no array they are given.
``dense_backward`` returns its weight gradient unexpanded, as a
``FactoredGradient`` over its arguments. An
``AdamState`` is built for one parameter mapping and must be stepped with
it; ``adam_step`` updates parameters and moments in place, so one state
must not be shared between concurrent updates. All arrays are C-contiguous
float64; mixed inputs are coerced on entry.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

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
    per iteration, ...) without coordinating id ranges. A negative seed is
    a ConfigError.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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


def activation_backward(kind: str, upstream: Array, out: Array) -> Array:
    """Gradient of ``activation`` w.r.t. its input, given the output ``out``
    of the matching forward pass.

    relu and selu take the input's sign from ``out``: ``out > 0`` exactly
    where the input is > 0, also for NaN, signed zeros and subnormals. A
    positive input x gives max(x, 0) = x or lambda*x with lambda > 1; any
    other gives zero, NaN or lambda*alpha*expm1(x), none of them > 0.
    """
    if kind == "linear":
        return upstream.copy()
    if kind == "relu":
        return upstream * (out > 0)
    if kind == "selu":
        # d/dx = lambda for x>0, else lambda*alpha*e^x = out + lambda*alpha
        return upstream * np.where(out > 0, SELU_LAMBDA, out + SELU_LAMBDA * SELU_ALPHA)
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
    for bit (see ``_blocks``). Factors with no batch rows stand for
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


def dense_backward(x: Array, w: Array, upstream_z: Array, dx_start: int = 0
                   ) -> tuple[Array, FactoredGradient, Array | None]:
    """Gradients of z = x @ w + b given dL/dz: ``(db, dw, dx)``.

    The weight gradient ``dw`` is returned as its factors ``(x, dL/dz)``,
    never formed here. dx covers input columns ``dx_start:`` only, and is
    None when that range is empty: columns whose gradient nobody reads are
    never computed.
    """
    db = upstream_z.sum(axis=0)
    dx = upstream_z @ w[dx_start:].T if dx_start < w.shape[0] else None
    return db, FactoredGradient(x, upstream_z), dx


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

# Elements per pass of the in-place update. The sixteen passes over one chunk
# of parameter, gradient, moments and scratch then stay in a core's L2 cache
# instead of streaming the whole model through memory sixteen times. A
# factored gradient is expanded into scratch in blocks of whole rows of about
# this many elements (see _blocks), and the masked layer's gradient
# bounds its gathers by the same count.
_ADAM_CHUNK = 1 << 15
# Adam's moment decay rates and denominator guard (Kingma and Ba's values).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# A factored gradient whose batch size times its factors' largest magnitudes
# stays below this cannot overflow: no sum of products comes near 2**1024.
_FINITE_BOUND = 2.0 ** 1000


def named_views(vector: Array, layout) -> Mapping[str, Array]:
    """Map each ``(name, shape, offset, ...)`` in ``layout`` to its view."""
    return MappingProxyType({
        name: vector[lo:lo + math.prod(shape)].reshape(shape)
        for name, shape, lo, *_ in layout})


@dataclass
class AdamState:
    """Adam's state for the one parameter mapping ``for_params`` was given,
    which every step must be given too. The moments ``m`` and ``v`` are flat
    vectors laid out like it (``named_views(m, plan)`` maps them by name).
    ``plan`` holds each parameter's name, shape, offset and ``_blocks``;
    ``work`` is two rows for the update and one for an expanded gradient
    block, as wide as the widest block, so a step allocates nothing that
    grows with the model."""

    plan: tuple
    m: Array
    v: Array
    work: Array = field(repr=False)
    step_count: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, Array]) -> "AdamState":
        plan, offset = [], 0
        for name, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} must be C-contiguous to "
                                 "be updated in place")
            plan.append((name, p.shape, offset, _blocks(p.shape)))
            offset += p.size
        # A lone last row's two-row expansion is never wider than a block.
        width = max((hi - lo for *_, blocks in plan for lo, hi, _, _ in blocks),
                    default=0)
        return cls(plan=tuple(plan), m=np.zeros(offset), v=np.zeros(offset),
                   work=np.empty((3, width)))


def _blocks(shape: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """``(lo, hi, r0, r1)`` per block of one flat parameter: elements
    ``lo:hi`` are updated together, and a factored gradient for them is
    expanded from rows ``r0:r1``. A matrix is cut into as many whole rows as
    fit in ``_ADAM_CHUNK`` elements, but at least two (all of a one-column
    matrix), and a lone last row is expanded with the row before it: with
    one BLAS thread, each element of a block of two or more rows sums its
    batch terms in the order the whole product does, so it has the same
    bits, while a one-row block (vector times matrix) and part of a column
    (matrix times vector) go to other BLAS kernels, whose sums can round
    differently. Any other shape is cut into ``_ADAM_CHUNK`` elements."""
    d_in, d_out, rows = math.prod(shape), 1, _ADAM_CHUNK
    if len(shape) == 2 and d_in:
        d_in, d_out = shape
        rows = d_in if d_out == 1 else min(d_in, max(2, _ADAM_CHUNK // d_out))
    blocks = []
    for r0 in range(0, d_in, rows):
        r1 = min(r0 + rows, d_in)
        first = r0 - 1 if r1 - r0 == 1 and r0 > 0 else r0
        blocks.append((r0 * d_out, r1 * d_out, first, r1))
    return tuple(blocks)


def _gradient_block(g, lo: int, hi: int, r0: int, r1: int, out: Array) -> Array:
    """Elements ``lo:hi`` of gradient ``g``, flattened; a factored one's rows
    ``r0:r1`` are expanded into ``out``, which the next block overwrites."""
    if not isinstance(g, FactoredGradient):
        return np.ravel(g)[lo:hi]
    d_out = g.shape[1]
    block = out[:hi - r0 * d_out]
    g.expand(r0, r1, out=block.reshape(r1 - r0, d_out))
    return block[lo - r0 * d_out:]


def adam_step(
    params: Mapping[str, Array],
    grads: Mapping[str, Array | FactoredGradient],
    state: AdamState,
    rate: float,
    weight_decay: float = 0.0,
) -> tuple[Mapping[str, Array], AdamState]:
    """One Adam update over all parameters; weight decay is decoupled
    (applied to the parameter directly, never mixed into the moments).

    ``params`` must be the mapping ``state`` was built for. A gradient, an
    array or a ``FactoredGradient``, is read in the blocks of ``state.plan``;
    a factored one is expanded into scratch a block at a time, never whole.

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
    for name, shape, _, blocks in state.plan:
        g = grads[name]
        if g.shape != shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {shape} for {name!r}")
        if isinstance(g, FactoredGradient):
            # Finite factors make finite products, and their batch sums cannot
            # overflow below the bound. Only when it fails is every block formed.
            bound = (len(g.x) * float(np.abs(g.x).max(initial=0.0))
                     * float(np.abs(g.d_pre).max(initial=0.0)))
            if bound < _FINITE_BOUND:
                continue
        for block in blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                values = _gradient_block(g, *block, state.work[2])
            if not np.isfinite(values).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")

    t = state.step_count + 1
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    decay = rate * weight_decay
    for name, _, offset, blocks in state.plan:
        g_all, p_all = grads[name], params[name].reshape(-1)
        m_all, v_all = state.m[offset:], state.v[offset:]
        for lo, hi, r0, r1 in blocks:
            g = _gradient_block(g_all, lo, hi, r0, r1, state.work[2])
            p, m, v = p_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a, b = state.work[0, :hi - lo], state.work[1, :hi - lo]
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
