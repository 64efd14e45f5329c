import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit.errors import ConfigError, NumericalError, ShapeError
from adaptkit.losses import (cross_entropy, cross_entropy_grad, diversity_loss,
                             diversity_loss_grad, entropy_loss, entropy_loss_grad,
                             infomax_loss, infomax_loss_grad, infonce_loss,
                             infonce_loss_grad, kl_soft_loss, kl_soft_loss_grad,
                             smoothed_targets, softmax)
from fdcheck import fd_grad, max_rel_error


def random_probs(rng, b, c):
    p = rng.random((b, c)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros((1, 4))), 0.25)


def test_softmax_shift_invariance():
    logits = np.array([[0.3, -1.2, 2.0]])
    assert np.allclose(softmax(logits), softmax(logits + 17.0), atol=1e-12)


def test_softmax_reference_values():
    # direct evaluation of exp / sum(exp)
    out = softmax(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-8)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericalError):
        softmax(np.array([[np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# cross entropy with label smoothing


def test_ce_perfect_prediction_zero():
    probs = np.array([[1.0, 0.0, 0.0]])
    assert cross_entropy(probs, np.array([0])).scalar == pytest.approx(0.0, abs=1e-9)


def test_ce_uniform_is_log_c():
    probs = np.full((3, 5), 0.2)
    loss = cross_entropy(probs, np.array([0, 2, 4]))
    assert loss.scalar == pytest.approx(np.log(5), abs=1e-12)


def test_ce_smoothing_oracle():
    # q = [0.93333, 0.03333, 0.03333]; scalar summation over -q ln p
    probs = np.array([[0.7, 0.2, 0.1]])
    loss = cross_entropy(probs, np.array([0]), smoothing=0.1)
    assert loss.scalar == pytest.approx(0.463298, abs=1e-6)


def test_ce_target_out_of_range():
    with pytest.raises(ConfigError):
        cross_entropy(np.full((1, 3), 1 / 3), np.array([3]))


def test_ce_clamp_flagged():
    probs = np.array([[1.0, 0.0]])
    loss = cross_entropy(probs, np.array([1]))
    assert loss.clamped


def test_smoothed_targets_rows_sum_to_one():
    q = smoothed_targets(np.array([0, 3]), 5, 0.2)
    assert np.allclose(q.sum(axis=1), 1.0)


@pytest.mark.parametrize("targets", [np.array([0.0, 1.0]), np.array([0.5, 1.0]), [1.0, 2.0],
                                     np.array([True, False]), np.array([[0], [1]])],
                         ids=["float", "fraction", "float_list", "bool", "column"])
def test_targets_that_are_not_1d_integer_labels_are_config_errors(targets):
    with pytest.raises(ConfigError):
        smoothed_targets(targets, 3, 0.1)
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ConfigError):
        cross_entropy(probs, targets)
    with pytest.raises(ConfigError):
        cross_entropy_grad(probs, targets)


@pytest.mark.parametrize("loss", [cross_entropy, cross_entropy_grad, kl_soft_loss,
                                  kl_soft_loss_grad])
@pytest.mark.parametrize("rows", [1, 3, 5])
def test_losses_take_one_target_per_row(loss, rows):
    # a target vector or a teacher of another row count never broadcasts over the batch
    probs = random_probs(np.random.default_rng(rows), 4, 3)
    targets = np.zeros(rows, dtype=np.int64)
    teachers = [random_probs(np.random.default_rng(0), rows, 3)]
    if rows == 1:
        teachers.append(teachers[0][0])  # a (C,) teacher
    for target in ([targets] if loss in (cross_entropy, cross_entropy_grad) else teachers):
        with pytest.raises(ShapeError):
            loss(probs, target)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_one_hot_zero():
    assert entropy_loss(np.array([[0.0, 1.0]])).scalar == pytest.approx(0.0, abs=1e-9)


def test_entropy_fair_coin():
    assert entropy_loss(np.array([[0.5, 0.5]])).scalar == pytest.approx(np.log(2), abs=1e-12)


def test_entropy_oracle():
    assert entropy_loss(np.array([[0.9, 0.1]])).scalar == pytest.approx(0.325083, abs=1e-6)


# ---------------------------------------------------------------------------
# diversity


def test_diversity_uniform_mean():
    probs = np.eye(10)  # batch mean is uniform
    assert diversity_loss(probs).scalar == pytest.approx(-np.log(10), abs=1e-12)


def test_diversity_collapsed_batch():
    probs = np.tile([[1.0, 0.0, 0.0]], (4, 1))
    assert diversity_loss(probs).scalar == pytest.approx(0.0, abs=1e-9)


def test_diversity_oracle():
    probs = np.array([[0.9, 0.1], [0.5, 0.5]])  # mean [0.7, 0.3]
    assert diversity_loss(probs).scalar == pytest.approx(-0.610864, abs=1e-6)


# ---------------------------------------------------------------------------
# infomax


def test_infomax_confident_balanced():
    probs = np.eye(4)
    assert infomax_loss(probs).scalar == pytest.approx(-np.log(4), abs=1e-9)


def test_infomax_all_uniform_is_zero():
    probs = np.full((6, 5), 0.2)
    assert infomax_loss(probs).scalar == pytest.approx(0.0, abs=1e-12)


def test_infomax_oracle():
    probs = np.array([[0.9, 0.1], [0.5, 0.5]])
    loss = infomax_loss(probs)
    assert loss.scalar == pytest.approx(0.509115 - 0.610864, abs=2e-6)


def test_infomax_minimizer_grid():
    # C=2, B=2 product distributions on a 0.01 grid: the minimum is attained
    # only by one-hot rows covering both classes.
    grid = np.arange(0.0, 1.0 + 1e-9, 0.01)
    best, arg = np.inf, None
    for a, b in itertools.product(grid, grid):
        probs = np.array([[a, 1 - a], [b, 1 - b]])
        v = infomax_loss(probs).scalar
        if v < best - 1e-12:
            best, arg = v, (a, b)
    assert best == pytest.approx(-np.log(2), abs=1e-9)
    assert sorted(arg) == [0.0, 1.0]


# ---------------------------------------------------------------------------
# KL soft labels


def test_kl_identical_zero():
    p = np.array([[0.2, 0.3, 0.5]])
    assert kl_soft_loss(p, p).scalar == pytest.approx(0.0, abs=1e-12)


def test_kl_one_hot_teacher_reduces_to_ce():
    student = np.array([[0.6, 0.3, 0.1]])
    teacher = np.array([[0.0, 1.0, 0.0]])
    kl = kl_soft_loss(student, teacher)
    ce = cross_entropy(student, np.array([1])).scalar
    assert kl.scalar == pytest.approx(ce, abs=1e-9)
    assert kl.clamped  # the teacher's zeros are clamped in its log, the student has none


def test_kl_oracle():
    kl = kl_soft_loss(np.array([[0.5, 0.5]]), np.array([[0.7, 0.3]]))
    assert kl.scalar == pytest.approx(0.082282, abs=1e-6)


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_soft_loss(np.full((2, 2), 0.5), np.full((3, 2), 0.5))


def test_ce_equals_kl_against_one_hot_teacher():
    rng = np.random.default_rng(0)
    probs = random_probs(rng, 8, 5)
    targets = rng.integers(0, 5, 8)
    teacher = np.eye(5)[targets]
    assert cross_entropy(probs, targets).scalar == pytest.approx(
        kl_soft_loss(probs, teacher).scalar, abs=1e-9)


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_identical_embeddings_ln_b():
    e = np.tile([[1.0, 0.0, 0.0]], (5, 1))
    assert infonce_loss(e, e, 0.2).scalar == pytest.approx(np.log(5), abs=1e-9)


def test_infonce_orthogonal_pairs_oracle():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = infonce_loss(q, q, 1.0)
    assert loss.scalar == pytest.approx(0.313262, abs=1e-6)


def test_infonce_scale_invariance():
    rng = np.random.default_rng(1)
    q, k = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    assert infonce_loss(q, k, 0.2).scalar == pytest.approx(
        infonce_loss(3.7 * q, 3.7 * k, 0.2).scalar, abs=1e-12)


def test_infonce_rejects_bad_inputs():
    q = np.ones((3, 2))
    for tau in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError):
            infonce_loss(q, q, tau)
        with pytest.raises(ConfigError):
            infonce_loss_grad(q, q, tau)
    q[1] = 0.0
    with pytest.raises(NumericalError):
        infonce_loss(q, np.ones((3, 2)), 0.2)
    # the gradient runs the value's checks
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        infonce_loss_grad(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), 0.2)
    with pytest.raises(ConfigError):
        infonce_loss_grad(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)), 0.2)
    with pytest.raises(ConfigError):
        infonce_loss_grad(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), -1.0)
    with pytest.raises(NumericalError):
        infonce_loss_grad(q, np.ones((3, 2)), 0.2)
    with pytest.raises(NumericalError), np.errstate(all="ignore"):  # similarities overflow
        infonce_loss_grad(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), 1e-320)


def _two_pass_infonce(queries, keys, temperature):
    """infonce_loss and infonce_loss_grad as two separate passes, each normalizing
    the rows and exponentiating the transposed similarities itself: the reference
    that the one-pass gradient must match bit for bit."""
    q = queries / np.sqrt(np.einsum("ij,ij->i", queries, queries))[:, None]
    k = keys / np.sqrt(np.einsum("ij,ij->i", keys, keys))[:, None]
    sims_t = k @ (q / temperature).T
    top = sims_t.max(axis=0)
    per = np.log(np.exp(sims_t - top).sum(axis=0)) + top - np.diag(sims_t)

    b = queries.shape[0]
    qn = np.sqrt(np.einsum("ij,ij->i", queries, queries))[:, None]
    kn = np.sqrt(np.einsum("ij,ij->i", keys, keys))[:, None]
    q, k = queries / qn, keys / kn
    sims_t = k @ (q / temperature).T
    e_t = np.exp(sims_t - sims_t.max(axis=0))
    w = (1 / (e_t.sum(axis=0) * (b * temperature)))[:, None]
    dqhat = w * (e_t.T @ k) - k / (b * temperature)
    dkhat = e_t @ (w * q) - q / (b * temperature)
    dq = (dqhat - np.einsum("ij,ij->i", dqhat, q)[:, None] * q) / qn
    dk = (dkhat - np.einsum("ij,ij->i", dkhat, k)[:, None] * k) / kn
    return float(per.mean()), per, dq, dk


def _old_two_pass_infonce(queries, keys, temperature):
    """The two passes in the expressions read before the similarities were scaled
    through the queries and held transposed, and dS was formed: the same numbers to
    rounding."""
    q = queries / np.sqrt((queries * queries).sum(axis=1, keepdims=True))
    k = keys / np.sqrt((keys * keys).sum(axis=1, keepdims=True))
    sims = q @ k.T / temperature
    top = sims.max(axis=1, keepdims=True)
    lse = np.log(np.exp(sims - top).sum(axis=1)) + top[:, 0]
    per = lse - np.diag(sims)

    b = queries.shape[0]
    qn = np.sqrt((queries * queries).sum(axis=1, keepdims=True))
    kn = np.sqrt((keys * keys).sum(axis=1, keepdims=True))
    q, k = queries / qn, keys / kn
    ds = softmax(q @ k.T / temperature)
    ds[np.diag_indices(b)] -= 1.0
    ds /= b * temperature
    dqhat, dkhat = ds @ k, ds.T @ q
    dq = (dqhat - (dqhat * q).sum(axis=1, keepdims=True) * q) / qn
    dk = (dkhat - (dkhat * k).sum(axis=1, keepdims=True) * k) / kn
    return float(per.mean()), per, dq, dk


def test_infonce_grad_is_the_two_pass_result_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b, d, tau = int(rng.integers(2, 201)), int(rng.integers(2, 41)), rng.uniform(0.05, 2)
        q, k = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        value, (dq, dk) = infonce_loss_grad(q, k, tau)
        scalar, per, ref_dq, ref_dk = _two_pass_infonce(q, k, tau)
        assert value.scalar == scalar
        assert infonce_loss(q, k, tau).scalar == scalar
        assert dq.tobytes() == ref_dq.tobytes() and dk.tobytes() == ref_dk.tobytes()
        for got, old in zip((value.scalar, per, dq, dk), _old_two_pass_infonce(q, k, tau)):
            np.testing.assert_allclose(got, old, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# per-sample decomposition and properties


def test_loss_value_scalar_is_mean_of_per_sample():
    # each value is the batch mean of its per-row terms, here written out row by row
    rng = np.random.default_rng(2)
    probs, teacher = random_probs(rng, 16, 6), random_probs(rng, 16, 6)
    targets = rng.integers(0, 6, 16)
    q = np.full((16, 6), 0.1 / 6)
    q[np.arange(16), targets] += 0.9
    rows = range(16)
    cases = [(cross_entropy(probs, targets, 0.1), [-q[i] @ np.log(probs[i]) for i in rows]),
             (entropy_loss(probs), [-probs[i] @ np.log(probs[i]) for i in rows]),
             (kl_soft_loss(probs, teacher),
              [teacher[i] @ (np.log(teacher[i]) - np.log(probs[i])) for i in rows])]
    for lv, per in cases:
        assert lv.scalar == pytest.approx(np.mean(per), abs=1e-12)


@pytest.mark.parametrize("zeros", [False, True], ids=["random", "clamping"])
def test_infomax_kernels_give_the_value_functions_loss_values_bit_for_bit(zeros):
    # each _grad kernel's value is its value function's, clamp flag included, and both
    # are the textbook per-row entropy mean and sum pbar ln pbar, bit for bit
    probs = random_probs(np.random.default_rng(4), 16, 6)
    if zeros:  # rows holding 0, and a class no row predicts: both logs clamp
        probs[:, 0], probs[::3, 1] = 0.0, 0.0
        probs /= probs.sum(axis=1, keepdims=True)
    logp = np.log(np.maximum(probs, 1e-12))
    pbar = probs.mean(axis=0)
    for kernel, value, scalar in [
            (entropy_loss_grad, entropy_loss, (-(probs * logp).sum(axis=1)).mean()),
            (diversity_loss_grad, diversity_loss, (pbar * np.log(np.maximum(pbar, 1e-12))).sum())]:
        got = kernel(probs)[0]
        assert got == value(probs) and got.clamped is zeros
        assert got.scalar.hex() == float(scalar).hex()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(2, 8), st.integers(0, 10_000))
def test_entropy_and_diversity_ranges(b, c, seed):
    probs = random_probs(np.random.default_rng(seed), b, c)
    ent = entropy_loss(probs).scalar
    div = diversity_loss(probs).scalar
    assert -1e-9 <= ent <= np.log(c) + 1e-9
    assert -np.log(c) - 1e-9 <= div <= 1e-9
    assert -np.log(c) - 1e-9 <= infomax_loss(probs).scalar <= np.log(c) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(2, 6), st.integers(0, 10_000))
def test_batch_permutation_invariance(b, c, seed):
    rng = np.random.default_rng(seed)
    probs = random_probs(rng, b, c)
    perm = rng.permutation(b)
    assert entropy_loss(probs).scalar == pytest.approx(
        entropy_loss(probs[perm]).scalar, abs=1e-12)
    assert diversity_loss(probs).scalar == pytest.approx(
        diversity_loss(probs[perm]).scalar, abs=1e-12)


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences (logit / embedding space)


@pytest.mark.parametrize("seed", range(5))
def test_logit_space_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    b, c = 5, 4
    logits = rng.normal(size=(b, c))
    targets = rng.integers(0, c, b)
    teacher = random_probs(rng, b, c)
    cases = [
        (lambda z: cross_entropy(softmax(z), targets, 0.1).scalar,
         lambda z: cross_entropy_grad(softmax(z), targets, 0.1)),
        (lambda z: entropy_loss(softmax(z)).scalar,
         lambda z: entropy_loss_grad(softmax(z))[1]),
        (lambda z: diversity_loss(softmax(z)).scalar,
         lambda z: diversity_loss_grad(softmax(z))[1]),
        (lambda z: infomax_loss(softmax(z)).scalar,
         lambda z: infomax_loss_grad(softmax(z))),
        (lambda z: kl_soft_loss(softmax(z), teacher).scalar,
         lambda z: kl_soft_loss_grad(softmax(z), teacher)),
    ]
    for value, grad in cases:
        assert max_rel_error([grad(logits)], [fd_grad(value, logits)]) < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_infonce_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(4, 3))
    _, (dq, dk) = infonce_loss_grad(q, k, 0.2)
    fdq = fd_grad(lambda x: infonce_loss(x, k, 0.2).scalar, q.copy())
    fdk = fd_grad(lambda x: infonce_loss(q, x, 0.2).scalar, k.copy())
    assert max_rel_error([dq, dk], [fdq, fdk]) < 1e-4
