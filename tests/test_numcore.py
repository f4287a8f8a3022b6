import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from survfuse import numcore
from survfuse.datakit import synth_gen
from survfuse.errors import ConfigError, DimensionError, NumericError
from survfuse.numcore import (
    ALPHA_DROP_VALUE,
    SELU_ALPHA,
    SELU_LAMBDA,
    _ADAM_CHUNK,
    AdamState,
    FactoredGradient,
    RngStream,
    activation,
    activation_backward,
    adam_step,
    alpha_dropout,
    dense_backward,
    dense_forward,
    dropout_mask,
    one_blas_thread,
    openblas_info,
)
from survfuse.training import TrainingProfile, train

# ---------------------------------------------------------------------------
# The matrix product inside dense_forward
# ---------------------------------------------------------------------------


def test_matmul_identity():
    m = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(dense_forward(np.eye(2), m, np.zeros(3)), m)


def test_matmul_hand_example():
    out = dense_forward(np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.array([[1.0], [1.0]]), np.zeros(1))
    assert np.array_equal(out, [[3.0], [7.0]])


def test_matmul_matches_triple_loop():
    gen = np.random.default_rng(42)
    a = gen.standard_normal((5, 7))
    b = gen.standard_normal((7, 3))
    c = gen.standard_normal(3)
    assert np.max(np.abs(dense_forward(a, b, np.zeros(3))
                         - oracles.matmul_loops(a, b))) < 1e-12
    assert np.max(np.abs(dense_forward(a, b, c)
                         - (oracles.matmul_loops(a, b) + c))) < 1e-12


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def test_activation_spot_values():
    assert activation([[0.0]], "sigmoid")[0, 0] == 0.5
    assert activation([[0.0]], "selu")[0, 0] == 0.0
    assert activation([[1.0]], "selu")[0, 0] == pytest.approx(SELU_LAMBDA, rel=1e-15)
    assert activation([[-2.0, 3.0]], "relu")[0].tolist() == [0.0, 3.0]
    row = activation([[0.0, 0.0, 0.0]], "log_softmax_rows")[0]
    assert np.allclose(row, -math.log(3.0), atol=1e-15)


def test_activation_matches_scalar_oracles():
    gen = np.random.default_rng(7)
    x = gen.standard_normal((4, 5)) * 2.0
    for kind, fn in (("relu", oracles.relu_scalar),
                     ("selu", oracles.selu_scalar),
                     ("sigmoid", oracles.sigmoid_scalar)):
        out = activation(x, kind)
        expect = np.vectorize(fn)(x)
        assert np.max(np.abs(out - expect)) < 1e-14, kind
    out = activation(x, "log_softmax_rows")
    for i in range(4):
        assert np.allclose(out[i], oracles.log_softmax_row(list(x[i])),
                           atol=1e-14)


def test_sigmoid_extreme_inputs_saturate_cleanly():
    out = activation([[-1000.0, 1000.0]], "sigmoid")
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0


def test_log_softmax_rows_logsumexp_zero():
    gen = np.random.default_rng(11)
    out = activation(gen.standard_normal((6, 4)) * 30.0, "log_softmax_rows")
    lse = np.log(np.exp(out).sum(axis=1))
    assert np.max(np.abs(lse)) < 1e-12


def test_activation_unknown_kind():
    with pytest.raises(ValueError):
        activation([[1.0]], "tanh")


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
       st.floats(-50, 50))
def test_log_softmax_shift_invariance(row, shift):
    base = activation([row], "log_softmax_rows")
    shifted = activation([[v + shift for v in row]], "log_softmax_rows")
    assert np.allclose(base, shifted, atol=1e-9)


@given(st.floats(-700, 700))
def test_sigmoid_stays_in_unit_interval(v):
    out = activation([[v]], "sigmoid")[0, 0]
    assert 0.0 <= out <= 1.0


@given(st.floats(-20, 20), st.floats(-20, 20))
def test_selu_is_monotone(a, b):
    lo, hi = sorted((a, b))
    out = activation([[lo, hi]], "selu")
    assert out[0, 0] <= out[0, 1]


def _fd_activation_gradient(kind, x, upstream):
    def f(v):
        return float(np.sum(activation(v, kind) * upstream))

    return oracles.fd_array_gradient(f, x)


def test_activation_backward_matches_fd():
    gen = np.random.default_rng(3)
    x = gen.standard_normal((4, 5))
    # Keep kinked activations away from the exact kink, where one-sided
    # slopes differ and central differences average them.
    x = x + 0.2 * np.sign(x)
    upstream = gen.standard_normal((4, 5))
    for kind in ("relu", "selu", "sigmoid", "log_softmax_rows"):
        out = activation(x, kind)
        analytic = activation_backward(kind, upstream, out)
        fd = _fd_activation_gradient(kind, x, upstream)
        assert oracles.rel_err(analytic, fd) < 1e-6, kind


def test_selu_backward_uses_cached_output():
    # The negative-side derivative is out + lambda*alpha, so tampering with
    # the cached output must change the reported gradient.
    x = np.array([[-1.0]])
    out = activation(x, "selu")
    g1 = activation_backward("selu", np.ones_like(x), out)
    g2 = activation_backward("selu", np.ones_like(x), out + 1.0)
    assert g1[0, 0] != g2[0, 0]
    assert g1[0, 0] == pytest.approx(
        SELU_LAMBDA * SELU_ALPHA * math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("kind", ["relu", "selu"])
def test_activation_backward_sign_from_output_matches_sign_from_input(kind):
    """Reading the input's sign from the output gives the bits the rule
    that read it from the input gave, on every kind of float64 edge."""
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308,
             -2.2250738585072014e-308, 1e-300, -1e-300, math.inf, -math.inf,
             math.nan, -math.nan, 1.5, -1.5, 750.0, -750.0, 1e308, -1e308]
    pre = np.array([edges] * 3)
    upstream = np.random.default_rng(5).standard_normal(pre.shape)
    upstream[1] = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0] * 3
    with np.errstate(invalid="ignore", over="ignore"):
        out = activation(pre, kind)
        got = activation_backward(kind, upstream, out)
        want = oracles.relu_selu_backward_from_pre(kind, upstream, pre, out)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def test_dropout_mask_p_zero_is_identity():
    mask = dropout_mask((3, 4), 0.0, RngStream(1, 2).generator())
    assert np.array_equal(mask, np.ones((3, 4)))


def test_dropout_mask_values_and_determinism():
    mask = dropout_mask((50, 50), 0.25, RngStream(9, 22).generator())
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
    again = dropout_mask((50, 50), 0.25, RngStream(9, 22).generator())
    assert np.array_equal(mask, again)


def test_dropout_mask_mean_is_one():
    mask = dropout_mask((1000, 1000), 0.25, RngStream(4, 22).generator())
    # var of one entry is p/(1-p); three sigma over 1e6 draws
    sigma = math.sqrt(0.25 / 0.75) / 1000.0
    assert abs(float(mask.mean()) - 1.0) < 3.0 * sigma


def test_dropout_mask_rejects_bad_p():
    for p in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            dropout_mask((2, 2), p, RngStream(0, 0).generator())


def test_alpha_dropout_affine_form():
    gen = np.random.default_rng(8)
    x = gen.standard_normal((40, 30))
    p = 0.25
    out, scale = alpha_dropout(x, p, RngStream(8, 22).generator())
    q = 1.0 - p
    a = (q * (1.0 + p * ALPHA_DROP_VALUE ** 2)) ** -0.5
    b = -a * p * ALPHA_DROP_VALUE
    kept = scale != 0.0
    assert np.allclose(out[kept], a * x[kept] + b, atol=1e-12)
    assert np.allclose(out[~kept], a * ALPHA_DROP_VALUE + b, atol=1e-12)
    assert np.allclose(scale[kept], a, atol=1e-15)
    assert 0.1 < float(kept.mean()) < 0.95


def test_alpha_dropout_preserves_first_two_moments():
    gen = np.random.default_rng(12)
    x = gen.standard_normal((2000, 500))
    out, _ = alpha_dropout(x, 0.25, RngStream(12, 22).generator())
    assert abs(float(out.mean())) < 0.01
    assert abs(float(out.var()) - 1.0) < 0.01


def test_alpha_dropout_deterministic():
    x = np.random.default_rng(5).standard_normal((10, 10))
    a1 = alpha_dropout(x, 0.3, RngStream(5, 22).generator())
    a2 = alpha_dropout(x, 0.3, RngStream(5, 22).generator())
    assert np.array_equal(a1[0], a2[0])
    assert np.array_equal(a1[1], a2[1])


# ---------------------------------------------------------------------------
# Dense primitives
# ---------------------------------------------------------------------------


def test_dense_forward_matches_definition():
    gen = np.random.default_rng(2)
    x = gen.standard_normal((3, 4))
    w = gen.standard_normal((4, 2))
    b = gen.standard_normal(2)
    assert np.allclose(dense_forward(x, w, b), x @ w + b, atol=1e-15)


def test_dense_backward_matches_fd():
    gen = np.random.default_rng(21)
    x = gen.standard_normal((4, 5))
    w = gen.standard_normal((5, 3))
    b = gen.standard_normal(3)
    upstream = gen.standard_normal((4, 3))
    db, factored, dx = dense_backward(x, w, upstream)
    dw = factored.expand()

    fd_w = oracles.fd_array_gradient(
        lambda v: float(np.sum(dense_forward(x, v, b) * upstream)), w)
    fd_b = oracles.fd_array_gradient(
        lambda v: float(np.sum(dense_forward(x, w, v) * upstream)), b)
    fd_x = oracles.fd_array_gradient(
        lambda v: float(np.sum(dense_forward(v, w, b) * upstream)), x)
    assert oracles.rel_err(dw, fd_w) < 1e-6
    assert oracles.rel_err(db, fd_b) < 1e-6
    assert oracles.rel_err(dx, fd_x) < 1e-6


def test_dense_backward_zero_upstream():
    x = np.ones((2, 3))
    w = np.ones((3, 2))
    db, factored, dx = dense_backward(x, w, np.zeros((2, 2)))
    dw = factored.expand()
    assert not dx.any() and not dw.any() and not db.any()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _state_for(value):
    return AdamState.for_params({"w": np.asarray(value)})


def test_adam_matches_scalar_simulation():
    gen = np.random.default_rng(30)
    p = 0.7
    params = {"w": np.array([p])}
    state = _state_for(params["w"])
    m = v = 0.0
    for t in range(1, 51):
        g = float(gen.standard_normal())
        params, state = adam_step(params, {"w": np.array([g])}, state,
                                  rate=0.01, weight_decay=0.004)
        p, m, v = oracles.adam_scalar(p, g, m, v, t, 0.01, wd=0.004)
        assert abs(float(params["w"][0]) - p) < 1e-13
    assert state.step_count == 50


def test_adam_zero_grad_zero_decay_is_noop():
    params = {"w": np.array([[1.5, -2.0]])}
    state = AdamState.for_params(params)
    new_params, new_state = adam_step(
        params, {"w": np.zeros((1, 2))}, state, rate=0.1)
    assert np.array_equal(new_params["w"], params["w"])
    assert new_state.step_count == 1


def test_adam_first_step_magnitude_is_rate():
    params = {"w": np.array([1.0, -1.0, 0.3])}
    before = params["w"].copy()
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.array([0.5, -2.0, 1.0])}, state, rate=0.01)
    step = before - params["w"]
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) up to eps
    assert np.allclose(np.abs(step), 0.01, rtol=1e-6)
    assert np.array_equal(np.sign(step), np.sign([0.5, -2.0, 1.0]))


def test_adam_matches_array_oracle_bit_for_bit():
    """50 steps with weight decay on tensors of several shapes, one of them
    longer than a chunk of the in-place update: every parameter and moment
    equals the out-of-place textbook formula exactly."""
    gen = np.random.default_rng(31)
    shapes = {"a.w": (3, 4), "a.b": (4,), "big": (70_001,), "s": (1,)}
    params = {k: gen.standard_normal(s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    moments = {k: (np.zeros(s), np.zeros(s)) for k, s in shapes.items()}
    state = AdamState.for_params(params)
    for t in range(1, 51):
        grads = {k: gen.standard_normal(s) * 10.0 ** gen.integers(-6, 2)
                 for k, s in shapes.items()}
        adam_step(params, grads, state, rate=1e-3, weight_decay=4e-4)
        ref, moments = oracles.adam_arrays(ref, grads, moments, t, 1e-3,
                                           wd=4e-4)
    first, second = helpers.moments(state)
    for k in shapes:
        assert np.array_equal(params[k], ref[k]), k
        assert np.array_equal(first[k], moments[k][0]), k
        assert np.array_equal(second[k], moments[k][1]), k
    assert state.step_count == 50


@pytest.mark.parametrize("t", [1, 2, 10, 300, 5000])
@pytest.mark.parametrize("weight_decay", [0.0, 4e-4, 0.5])
def test_adam_step_stays_within_rounding_of_the_textbook_formula(
        t, weight_decay):
    """One step at step count ``t``, on gradients of magnitude 1e-6 to 10
    and moments that such gradients would have built, agrees with the
    textbook formula of ``oracles.adam_scalar`` per element within
    1e-13 * (|p| + |rate * m_hat / (sqrt(v_hat) + eps)|). The bound is
    not relative to the update alone: decay and step can cancel."""
    gen = np.random.default_rng(t)
    n, rate = 400, 1e-3
    scale = 10.0 ** gen.uniform(-6, 1, n)
    g = scale * gen.standard_normal(n)
    m = scale * gen.standard_normal(n) * (1 - 0.9 ** (t - 1))
    v = scale ** 2 * gen.chisquare(1, n) * (1 - 0.999 ** (t - 1))
    p = gen.standard_normal(n) * 10.0 ** gen.uniform(-4, 1, n)
    params = {"w": p.copy()}
    state = AdamState.for_params(params)
    state.m[:], state.v[:], state.step_count = m, v, t - 1
    adam_step(params, {"w": g}, state, rate=rate, weight_decay=weight_decay)
    for i in range(n):
        want, m_i, v_i = oracles.adam_scalar(p[i], g[i], m[i], v[i], t, rate,
                                             wd=weight_decay)
        update = rate * (m_i / (1 - 0.9 ** t)) / (
            math.sqrt(v_i / (1 - 0.999 ** t)) + 1e-8)
        assert abs(params["w"][i] - want) <= 1e-13 * (abs(p[i]) + abs(update))


def test_adam_quadratic_descent():
    """100 steps on f(w) = w^2 from w=1 at rate 0.1: the trajectory matches
    the scalar simulation exactly and decays toward zero (the overshoot
    oscillates, so it is the peak envelope that shrinks monotonically)."""
    params = {"w": np.array([1.0])}
    state = AdamState.for_params(params)
    w, m, v = 1.0, 0.0, 0.0
    values = [1.0]
    for t in range(1, 101):
        g = 2.0 * float(params["w"][0])
        params, state = adam_step(params, {"w": np.array([g])}, state, rate=0.1)
        w, m, v = oracles.adam_scalar(w, 2.0 * w, m, v, t, 0.1)
        assert abs(float(params["w"][0]) - w) < 1e-13
        values.append(abs(float(params["w"][0])))
    assert all(b < a for a, b in zip(values[:10], values[1:11]))
    peaks = [values[i] for i in range(1, 100)
             if values[i] >= values[i - 1] and values[i] >= values[i + 1]]
    assert all(b < a for a, b in zip([1.0, *peaks], peaks))
    assert values[-1] < 0.01


def test_adam_decoupled_decay_ignores_moments():
    # A parameter with zero gradient still shrinks by exactly rate*wd*p.
    params = {"w": np.array([2.0])}
    state = AdamState.for_params(params)
    new_params, _ = adam_step(params, {"w": np.zeros(1)}, state,
                              rate=0.1, weight_decay=0.5)
    assert float(new_params["w"][0]) == pytest.approx(
        2.0 - 0.1 * 0.5 * 2.0, rel=1e-15)


def test_adam_updates_in_place_and_leaves_grads_untouched():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.3])}
    state = AdamState.for_params(params)
    w, m, v = params["w"], state.m, state.v
    returned = adam_step(params, grads, state, rate=0.01)
    assert returned[0] is params and returned[1] is state
    assert float(grads["w"][0]) == 0.3
    assert params["w"] is w and float(w[0]) < 1.0
    assert state.m is m and m[0] > 0.0
    assert state.v is v and v[0] > 0.0
    assert state.step_count == 1


def test_adam_rejected_step_changes_nothing():
    # The bad gradient comes after a good one: nothing may be half-applied.
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match="'b'"):
        adam_step(params, {"a": np.array([0.1, 0.2]), "b": np.array([np.inf])},
                  state, rate=0.01)
    assert params["a"].tolist() == [1.0, 2.0] and params["b"][0] == 3.0
    assert not state.m.any() and state.step_count == 0


def test_adam_nonfinite_grad_names_parameter():
    params = {"trunk.w": np.array([1.0])}
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match="trunk.w"):
        adam_step(params, {"trunk.w": np.array([np.nan])}, state, rate=0.01)


def test_adam_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    with pytest.raises(DimensionError):
        adam_step(params, {"w": np.zeros(3)}, state, rate=0.01)


def test_adam_rejects_non_contiguous_params():
    # A strided view cannot be updated in place through a flat view of it.
    params = {"w": np.zeros((4, 4))[:, ::2]}
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(params, {"w": np.ones((4, 2))},
                  AdamState.for_params(params), rate=0.01)


def test_adam_rejects_bad_rate():
    params = {"w": np.zeros(1)}
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.zeros(1)}, AdamState.for_params(params),
                  rate=0.0)


@pytest.mark.parametrize("rate, weight_decay, named", [
    (math.nan, 0.0, "rate"), (math.inf, 0.0, "rate"),
    (-math.inf, 0.0, "rate"), (0.01, math.nan, "weight_decay"),
    (0.01, math.inf, "weight_decay"), (0.01, -1.0, "weight_decay")])
def test_adam_rejected_setting_changes_nothing(rate, weight_decay, named):
    # One good step first, so the moments and step count are not zeros.
    params = {"w": np.array([0.5])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.array([0.25])}, state, rate=0.01,
              weight_decay=0.1)
    before = [a.tobytes() for a in (params["w"], state.m, state.v)]
    with pytest.raises(ValueError, match=f"^{named} "):
        adam_step(params, {"w": np.array([0.25])}, state, rate=rate,
                  weight_decay=weight_decay)
    assert [a.tobytes() for a in (params["w"], state.m, state.v)] == before
    assert state.step_count == 1


def _factors(batch, d_in, d_out, seed):
    """Random factors with exact zeros, negative zeros and an all-zero
    ``d_pre`` column mixed in."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((batch, d_in))
    d = gen.standard_normal((batch, d_out)) * 1e-3
    x[gen.random(x.shape) < 0.1] = 0.0
    x[gen.random(x.shape) < 0.1] = -0.0
    d[:, d_out // 2] = 0.0
    return x, d


def _step_pair(factored, materialised, weight_decay=4e-4, steps=3):
    """Adam steps on the factored gradients and, on a copy, on the same
    gradients formed whole; returns both (params, state) pairs."""
    sides = []
    for grads in (factored, materialised):
        params = {name: np.random.default_rng(40).standard_normal(g.shape)
                  for name, g in grads.items()}
        state = AdamState.for_params(params)
        for _ in range(steps):
            adam_step(params, grads, state, rate=1e-3,
                      weight_decay=weight_decay)
        sides.append((params, state))
    return sides


def _same_bytes(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("batch,d_in,d_out", [
    (32, 2000, 512), (7, 2000, 512), (32, 200, 1000), (8, 1000, 512),
    (32, 32, 16), (32, 16, 1), (32, 16, 3), (32, 65, 512), (1, 130, 512),
    (8, _ADAM_CHUNK + 9, 1), (3, 5, _ADAM_CHUNK + 7)])
def test_factored_step_equals_step_on_formed_gradient(batch, d_in, d_out):
    """Expanding x.T @ d_pre one block of rows at a time gives the step a
    whole formed gradient gives, byte for byte: with a lone last row, a
    one-row batch, a single column longer than a chunk, and rows wider than
    a chunk."""
    x, d = _factors(batch, d_in, d_out, seed=d_in + d_out)
    factored = {"l.w": FactoredGradient(x, d), "l.b": d.sum(axis=0)}
    formed = {"l.w": np.ascontiguousarray(x.T @ d), "l.b": d.sum(axis=0)}
    (p1, s1), (p2, s2) = _step_pair(factored, formed)
    for name in formed:
        assert _same_bytes(p1[name], p2[name]), name
    assert _same_bytes(s1.m, s2.m) and _same_bytes(s1.v, s2.v)
    assert s1.step_count == s2.step_count == 3


def _assert_rejected(grads, bad):
    params = {"a": np.array([1.0, 2.0]), bad: np.ones(grads[bad].shape)}
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match=f"'{bad}'"):
        adam_step(params, grads, state, rate=0.01)
    assert params["a"].tolist() == [1.0, 2.0] and (params[bad] == 1.0).all()
    assert not state.m.any() and not state.v.any() and state.step_count == 0


@pytest.mark.parametrize("factor,value", [
    ("x", np.nan), ("x", np.inf), ("d_pre", -np.inf), ("d_pre", np.nan)])
def test_adam_rejects_non_finite_factors(factor, value):
    x, d = _factors(4, 6, 3, seed=1)
    (x if factor == "x" else d)[2, 1] = value
    _assert_rejected({"a": np.array([0.1, 0.2]),
                      "w": FactoredGradient(x, d)}, "w")


@pytest.mark.parametrize("x,d", [
    ([[1e200]], [[1e200]]),  # one product overflows
    ([[1e308], [1e308]], [[1.0], [1.0]]),  # finite products, the sum overflows
])
def test_adam_rejects_factors_whose_product_overflows(x, d):
    _assert_rejected({"a": np.array([0.1, 0.2]),
                      "w": FactoredGradient(np.array(x), np.array(d))}, "w")


def test_adam_steps_on_finite_factors_above_the_bound():
    """The certificate fails (2 * 1e152 * 1e152 > 2**1000), but every
    formed element is finite: the step is taken, as on the formed
    gradient."""
    x = np.array([[1e152, 0.0, 2.0], [0.0, 1e-150, -1.0]])
    d = np.array([[1e-150, 3.0], [1e152, -0.5]])
    formed = x.T @ d
    assert np.isfinite(formed).all()
    (p1, s1), (p2, s2) = _step_pair({"w": FactoredGradient(x, d)},
                                    {"w": formed})
    assert _same_bytes(p1["w"], p2["w"])
    assert _same_bytes(s1.v, s2.v)
    assert s1.step_count == 3


# ---------------------------------------------------------------------------
# Learning-rate schedule: training.train steps Adam with
# base_lr * (1 - e / epochs) in epoch e and records the rate in history.csv
# ---------------------------------------------------------------------------


def micro_profile(**overrides):
    base = dict(epochs=3, base_lr=1e-3, weight_decay=0.0, batch_size=8,
                dropout_p=0.1, schedule="alternate", seed=12)
    base.update(overrides)
    return TrainingProfile(**base)


def history_rates(out_dir, base_lr, epochs):
    """Train a micro fused network and return the (epoch, rate) pairs that
    its history.csv records, one per row."""
    cohort, _, _ = synth_gen(patients=16, genes=12, causal_genes=4,
                             censor_rate=0.3, label_noise=0.1, seed=12,
                             embedding_dim=7)
    net = helpers.micro_network("fused", "both", seed=12, dropout_p=0.1)
    train(net, cohort, list(cohort.sample_ids),
          micro_profile(base_lr=base_lr, epochs=epochs), out_dir=out_dir)
    rows = [line.split(",") for line in
            (out_dir / "history.csv").read_text().splitlines()[1:]]
    return [(int(row[1]), float(row[4])) for row in rows]


def test_lr_schedule_values(tmp_path):
    """Bit for bit base_lr * (1 - e/E) in every row: base_lr at the first
    epoch, half of it midway, base_lr / E at the last."""
    for base_lr, epochs in ((1e-4, 30), (2e-3, 50), (0.03, 7)):
        pairs = history_rates(tmp_path / f"lr-{epochs}", base_lr, epochs)
        assert sorted({e for e, _ in pairs}) == list(range(epochs))
        assert all(rate == base_lr * (1.0 - e / epochs) for e, rate in pairs)
        rate_at = dict(pairs)
        assert rate_at[0] == base_lr
        assert rate_at[epochs - 1] == pytest.approx(base_lr / epochs,
                                                    rel=1e-12)
    assert dict(history_rates(tmp_path / "half", 1e-4, 30))[15] == \
        pytest.approx(5e-5, rel=1e-15)


def test_lr_schedule_never_increases(tmp_path):
    rates = [rate for _, rate in history_rates(tmp_path / "run", 0.3, 17)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert all(r > 0.0 for r in rates)


def test_lr_schedule_validates_fields():
    with pytest.raises(ConfigError):
        micro_profile(base_lr=0.0)
    with pytest.raises(ConfigError):
        micro_profile(base_lr=-1e-3)
    with pytest.raises(ConfigError):
        micro_profile(epochs=-1)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def test_rng_stream_determinism():
    a = RngStream(123, 7).generator(3, 1).standard_normal(5)
    b = RngStream(123, 7).generator(3, 1).standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_stream_independence():
    base = RngStream(123, 7).generator().standard_normal(8)
    other_stream = RngStream(123, 8).generator().standard_normal(8)
    other_key = RngStream(123, 7).generator(1).standard_normal(8)
    other_seed = RngStream(124, 7).generator().standard_normal(8)
    for other in (other_stream, other_key, other_seed):
        assert not np.array_equal(base, other)


def test_rng_stream_is_frozen_and_hashable():
    s = RngStream(1, 2)
    with pytest.raises(AttributeError):
        s.seed = 5
    assert {s: "ok"}[RngStream(1, 2)] == "ok"


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(0, 100), st.integers(0, 100))
def test_rng_stream_reproducible_for_any_key(seed, stream_id, key):
    a = RngStream(seed, stream_id).generator(key).random(3)
    b = RngStream(seed, stream_id).generator(key).random(3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The BLAS thread pin
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not {"get_num_threads", "set_num_threads"} <= numcore._openblas().keys(),
    reason="numpy bundles no OpenBLAS with the thread calls")
def test_one_blas_thread_restores_the_callers_count():
    """Inside the pin OpenBLAS runs one thread; after it, also when the
    body raises, it runs the count the caller had set."""
    set_threads = numcore._openblas()["set_num_threads"]
    before = openblas_info()[1]
    try:
        set_threads(2)
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert openblas_info()[1] == "1"
                raise KeyError
        assert openblas_info()[1] == "2"
    finally:
        set_threads(int(before))
