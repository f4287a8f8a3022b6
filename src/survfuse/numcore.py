"""Float64 matrix primitives: activations, layer gradients, Adam, RNG streams.

Activations, dropout and the dense-layer forward are pure functions of their
arguments (plus an explicit random generator where randomness is involved).
``dense_backward`` writes its weight and bias gradients into caller-owned
arrays, and ``adam_step`` updates parameters and moments in place, so one
``AdamState`` must not be shared between concurrent updates. All arrays are
C-contiguous float64; mixed inputs are coerced on entry.
"""

from __future__ import annotations

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


def dense_backward(x: Array, w: Array, upstream_z: Array, dw: Array, db: Array,
                   dx_start: int = 0) -> Array | None:
    """Gradients of z = x @ w + b given dL/dz.

    ``dw`` and ``db`` receive their gradients in place; the return value is
    dx. It covers input columns ``dx_start:`` only, and is None when that
    range is empty: columns whose gradient nobody reads are never computed.
    """
    np.matmul(x.T, upstream_z, out=dw)
    np.sum(upstream_z, axis=0, out=db)
    return upstream_z @ w[dx_start:].T if dx_start < w.shape[0] else None


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

# Elements per pass of the in-place update. The sixteen passes over one chunk
# of parameter, gradient, moments and scratch then stay in a core's L2 cache
# instead of streaming the whole model through memory sixteen times. The
# masked layer's gradient bounds its gathers by the same count.
_ADAM_CHUNK = 1 << 15
# Adam's moment decay rates and denominator guard (Kingma and Ba's values).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step counter.

    It also owns the fixed-size scratch that ``adam_step`` works in, so a step
    allocates nothing that grows with the model.
    """

    first_moment: dict[str, Array] = field(default_factory=dict)
    second_moment: dict[str, Array] = field(default_factory=dict)
    step_count: int = 0
    work: Array = field(default_factory=lambda: np.empty((2, _ADAM_CHUNK)),
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


def adam_step(
    params: Mapping[str, Array],
    grads: Mapping[str, Array],
    state: AdamState,
    rate: float,
    weight_decay: float = 0.0,
) -> tuple[Mapping[str, Array], AdamState]:
    """One Adam update over all parameters; weight decay is decoupled
    (applied to the parameter directly, never mixed into the moments).

    The update is in place: every parameter array, both moments and
    ``state.step_count`` change, and ``grads`` is only read. The same
    ``params`` and ``state`` objects are returned. All gradients
    are checked before anything is written, so a rejected step leaves the
    parameters and the state as they were. Each element goes through the
    same floating-point operations in the same order as the out-of-place
    update, with (b1, b2, eps) = (_BETA1, _BETA2, _EPS):
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p = p - (rate*(m/bc1) / (sqrt(v/bc2)+eps) + (rate*wd)*p), so the
    result is bit-identical to it.
    """
    if rate <= 0:
        raise ValueError(f"learning rate must be positive, got {rate}")
    flat = []
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} must be C-contiguous to be "
                             "updated in place")
        flat.append((name, p.reshape(-1), np.ascontiguousarray(g).reshape(-1),
                     state.first_moment[name].reshape(-1),
                     state.second_moment[name].reshape(-1)))
    for name, _, g, _, _ in flat:
        for lo in range(0, g.size, _ADAM_CHUNK):
            chunk = g[lo:lo + _ADAM_CHUNK]
            if not np.isfinite(chunk, out=state.finite[:chunk.size]).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")

    t = state.step_count + 1
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    decay = rate * weight_decay
    for _, p_all, g_all, m_all, v_all in flat:
        for lo in range(0, p_all.size, _ADAM_CHUNK):
            span = slice(lo, lo + _ADAM_CHUNK)
            p, g, m, v = p_all[span], g_all[span], m_all[span], v_all[span]
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

