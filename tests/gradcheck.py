"""Shared gradient-checking harness and the per-operation case registry."""

import zlib

import numpy as np

import ncgc.numerics as nm
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from oracles import appnp_propagate, finite_difference_grads, rel_error, soft_orthogonal


def tape_value_and_grads(build, arrays):
    """Run build(*params) under a tape, return (loss value, list of grads)."""
    params = [nm.Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)]
    tape = nm.Tape()
    with tape:
        loss = build(*params)
    grads = nm.backward(tape, loss)
    return loss.item(), [grads[p] for p in params]


def eager_value(build, arrays):
    return build(*[nm.Tensor(a) for a in arrays]).item()


def check_gradients(build, arrays, tol=1e-4, step=1e-5):
    _, grads = tape_value_and_grads(build, arrays)
    fd = finite_difference_grads(lambda arrs: eager_value(build, arrs),
                                 [a.copy() for a in arrays], step=step)
    for g, gn in zip(grads, fd):
        assert rel_error(g, gn) < tol


def trial_rng(name: str, trial: int) -> RngState:
    """The generator of one op's gradcheck instance, the same in every process.

    ``zlib.crc32`` rather than ``hash``: Python salts ``str`` hashes per
    process, which would make a failing instance impossible to replay.
    """
    return RngState(1000 + 37 * trial + zlib.crc32(name.encode()) % 1000)


OPS = {}


def op_case(name):
    def deco(fn):
        OPS[name] = fn
        return fn
    return deco


@op_case("matmul")
def _build_matmul(rng):
    c = rng.normal((4, 5))
    return (lambda a, b: nm.sum_all(nm.mul(nm.matmul(a, b), c)),
            [rng.normal((4, 3)), rng.normal((3, 5))])


@op_case("sparse_dense_matmul")
def _build_spmm(rng):
    dense = rng.normal((5, 5)) * (rng.uniform((5, 5)) < 0.5)
    s = CsrMatrix.from_dense(dense)
    c = rng.normal((5, 3))
    return (lambda b: nm.sum_all(nm.mul(nm.sparse_dense_matmul(s, b), c)),
            [rng.normal((5, 3))])


@op_case("appnp_propagate")
def _build_appnp(rng):
    dense = rng.normal((5, 5)) * (rng.uniform((5, 5)) < 0.5)
    dense[0, 1], dense[1, 0] = 0.8, 0.0  # asymmetric: the adjoint needs the transpose
    s = CsrMatrix.from_dense(dense)
    alpha = float(rng.uniform((1,), 0.05, 0.95)[0])
    hops = int(rng.integers(1, 5))
    c = rng.normal((5, 3))
    return (lambda z: nm.sum_all(nm.mul(appnp_propagate(s, z, alpha, hops), c)),
            [rng.normal((5, 3))])


@op_case("transpose")
def _build_transpose(rng):
    c = rng.normal((3, 4))
    return (lambda x: nm.sum_all(nm.mul(nm.transpose(x), c)), [rng.normal((4, 3))])


@op_case("add")
def _build_add(rng):
    c = rng.normal((4, 4))
    return (lambda a, b: nm.sum_all(nm.mul(nm.add(a, b), c)),
            [rng.normal((4, 4)), rng.normal((4, 4))])


@op_case("sub")
def _build_sub(rng):
    c = rng.normal((4, 4))
    return (lambda a, b: nm.sum_all(nm.mul(nm.sub(a, b), c)),
            [rng.normal((4, 4)), rng.normal((4, 4))])


@op_case("mul")
def _build_mul(rng):
    c = rng.normal((3, 5))
    return (lambda a, b: nm.sum_all(nm.mul(nm.mul(a, b), c)),
            [rng.normal((3, 5)), rng.normal((3, 5))])


@op_case("scale")
def _build_scale(rng):
    c = rng.normal((3, 3))
    return (lambda x: nm.sum_all(nm.mul(nm.scale(x, -1.7), c)), [rng.normal((3, 3))])


@op_case("add_bias")
def _build_add_bias(rng):
    c = rng.normal((5, 3))
    return (lambda x, b: nm.sum_all(nm.mul(nm.add_bias(x, b), c)),
            [rng.normal((5, 3)), rng.normal((1, 3))])


@op_case("relu")
def _build_relu(rng):
    x = rng.normal((4, 4))
    x += 0.1 * np.sign(x)  # keep entries away from the kink
    c = rng.normal((4, 4))
    return (lambda t: nm.sum_all(nm.mul(nm.relu(t), c)), [x])


@op_case("affine_relu_sparse")
def _build_affine_relu_sparse(rng):
    dense = rng.normal((5, 4)) * (rng.uniform((5, 4)) < 0.5)
    x = CsrMatrix.from_dense(dense)
    c = rng.normal((5, 3))
    return (lambda w, b: nm.sum_all(nm.mul(nm.affine_relu(x, w, b), c)),
            [rng.normal((4, 3)), rng.normal((1, 3))])


@op_case("affine_relu_dense")
def _build_affine_relu_dense(rng):
    c = rng.normal((5, 3))
    return (lambda x, w, b: nm.sum_all(nm.mul(nm.affine_relu(x, w, b), c)),
            [rng.normal((5, 4)), rng.normal((4, 3)), rng.normal((1, 3))])


@op_case("softmax_rows")
def _build_softmax(rng):
    c = rng.normal((4, 5))
    return (lambda x: nm.sum_all(nm.mul(nm.softmax_rows(x), c)), [rng.normal((4, 5))])


@op_case("log_softmax_rows")
def _build_log_softmax(rng):
    c = rng.normal((4, 5))
    return (lambda x: nm.sum_all(nm.mul(nm.log_softmax_rows(x), c)), [rng.normal((4, 5))])


@op_case("log_elementwise")
def _build_log(rng):
    c = rng.normal((3, 4))
    return (lambda x: nm.sum_all(nm.mul(nm.log_elementwise(x), c)),
            [rng.uniform((3, 4), 0.2, 3.0)])


@op_case("log_of_softmax_fused")
def _build_log_fused(rng):
    c = rng.normal((4, 3))
    return (lambda x: nm.sum_all(nm.mul(nm.log_elementwise(nm.softmax_rows(x)), c)),
            [rng.normal((4, 3))])


@op_case("dropout")
def _build_dropout(rng):
    c = rng.normal((4, 4))
    seed = int(rng.integers(0, 2 ** 31))

    def build(x):
        return nm.sum_all(nm.mul(nm.dropout(x, 0.4, RngState(seed), training=True), c))

    return (build, [rng.normal((4, 4))])


@op_case("column_l2_normalize")
def _build_colnorm(rng):
    c = rng.normal((5, 3))
    x = rng.normal((5, 3)) + 0.5
    return (lambda t: nm.sum_all(nm.mul(nm.column_l2_normalize(t), c)), [x])


@op_case("soft_orthogonal")
def _build_soft_orth(rng):
    c = rng.normal((6, 3))
    x = rng.normal((6, 3)) + 0.5  # columns away from zero: differences would cross the guard
    beta = float(rng.uniform((1,), 0.1, 2.0)[0])
    return (lambda t: nm.sum_all(nm.mul(soft_orthogonal(t, beta), c)), [x])


@op_case("frobenius_sq_diff")
def _build_frob(rng):
    return (lambda a, b: nm.frobenius_sq_diff(a, b),
            [rng.normal((4, 3)), rng.normal((4, 3))])


@op_case("pairwise_sqdist")
def _build_sqdist(rng):
    c = rng.normal((4, 3))
    return (lambda h, cc: nm.sum_all(nm.mul(nm.pairwise_sqdist(h, cc), c)),
            [rng.normal((4, 2)), rng.normal((3, 2))])


@op_case("reciprocal")
def _build_recip(rng):
    c = rng.normal((3, 3))
    return (lambda x: nm.sum_all(nm.mul(nm.reciprocal(x), c)),
            [rng.uniform((3, 3), 0.5, 2.0)])


@op_case("row_normalize")
def _build_rownorm(rng):
    c = rng.normal((4, 3))
    return (lambda x: nm.sum_all(nm.mul(nm.row_normalize(x), c)),
            [rng.uniform((4, 3), 0.2, 2.0)])


@op_case("take_rows")
def _build_take(rng):
    idx = np.array([0, 2, 2, 4])
    c = rng.normal((4, 3))
    return (lambda x: nm.sum_all(nm.mul(nm.take_rows(x, idx), c)), [rng.normal((5, 3))])


@op_case("take_rows_of_softmax_logged")
def _build_take_fused(rng):
    idx = np.array([1, 3, 3])
    c = rng.normal((3, 4))
    return (lambda x: nm.sum_all(nm.mul(nm.log_elementwise(nm.take_rows(nm.softmax_rows(x), idx)), c)),
            [rng.normal((5, 4))])


@op_case("sum_all")
def _build_sum(rng):
    return (lambda x: nm.sum_all(x), [rng.normal((3, 4))])
