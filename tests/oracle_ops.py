"""Test-only primitives and the unrolled graphs the fused nodes replace.

The production tape records only what the estimators need.  The oracles in
conftest.py and the composite-graph recipes of test_autodiff.py build
their graphs from the generic primitives below, so their gradients come
from the engine's per-node VJPs: an independent check of each hand-written
VJP in sfattack.estimators.
"""

import numpy as np

from sfattack import autodiff as ad
from sfattack import estimators
from sfattack.autodiff import DomainError, ShapeError, Tensor, constant


def exp(a) -> Tensor:
    a = ad._coerce(a)
    value = np.exp(a.data)
    return ad._emit("exp", (a,), value, lambda g: (g * value,))


def log(a) -> Tensor:
    a = ad._coerce(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    va = a.data
    return ad._emit("log", (a,), np.log(va), lambda g: (g / va,))


def relu(a) -> Tensor:
    a = ad._coerce(a)
    va = a.data
    mask = va > 0.0
    return ad._emit("relu", (a,), np.where(mask, va, 0.0), lambda g: (g * mask,))


def row_sum(a) -> Tensor:
    a = ad._coerce(a)
    if a.data.ndim != 2:
        raise ShapeError("row-sum expects a matrix")
    m = a.shape[1]
    return ad._emit("row-sum", (a,), a.data.sum(axis=1, keepdims=True),
                    lambda g: (np.repeat(g, m, axis=1),))


def gather_rows(a, indices) -> Tensor:
    a = ad._coerce(a)
    if a.data.ndim != 2:
        raise ShapeError("gather-rows expects a matrix")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather-rows indices must be a flat list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather-rows index out of range")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return ad._emit("gather-rows", (a,), a.data[idx], vjp)


def recip(t) -> Tensor:
    """1/x for strictly positive x, as exp(-log x)."""
    return exp(ad.smul(log(t), -1.0))


def unrolled_median_scale(cost) -> Tensor:
    """estimators.median_scale as the 6-node graph it fuses: gather the
    median's row, pick its column with a one-hot matmul, take the
    reciprocal and multiply."""
    if not isinstance(cost, Tensor):
        cost = constant(cost)
    vals = cost.data
    m = vals.shape[1]
    r, c = divmod(estimators._lower_median_index(vals.ravel()), m)
    if vals[r, c] <= 1e-300:
        return cost
    row = gather_rows(cost, [r])                          # (1, m)
    onehot = np.zeros((m, 1))
    onehot[c, 0] = 1.0
    med = ad.matmul(row, constant(onehot))                # (1, 1)
    return ad.mul(cost, recip(med))


def unrolled_dense(x, w, b, relu_on: bool) -> Tensor:
    """estimators.dense as the matmul, bias add and relu nodes it fuses."""
    out = ad.add(ad.matmul(x, w), b)
    return relu(out) if relu_on else out
