"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Graph is a tape: operations append nodes in topological order, and
backward() sweeps the tape once in reverse.  Tensors are thin handles
around numpy arrays; a tensor either lives on a graph (tracked) or is a
plain constant.  The primitive set is only what the two estimators, the
EPE loss and the trainer record: elementwise add/sub, scalar-mul, matmul,
mean, concat, rowwise L2 norm, and pairwise squared distances.  Four fused
nodes with hand-written VJPs go through _emit like any primitive; they live
in sfattack.estimators next to their callers: median-scale, sinkhorn, dense
(one tiny-net layer) and knn-attention.  add and sub take operands of equal
shape, and concat joins two matrices column-wise.

backward() releases the tape as it goes: once a node's gradient has been
passed to its parents, the node's value, its VJP closure and its gradient
are dropped, since every consumer of the node lies later on the tape.  Peak
memory is then about one tape, not a tape plus a gradient per node.  VJP
closures capture arrays and shapes, never Tensors, so no reference cycle
ties a graph to itself and reference counting frees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested primitive."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the primitive."""


class GraphError(RuntimeError):
    """Misuse of the differentiation graph (non-scalar root, reuse, ...)."""


@dataclass
class _Node:
    tag: str
    parent_ids: tuple
    value: np.ndarray
    # maps the output gradient to one gradient per parent (None for
    # non-differentiable parents such as constants)
    vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]


class Graph:
    """Append-only tape of primitive operations; backward() consumes it."""

    def __init__(self):
        self._nodes: list[Optional[_Node]] = []
        self._leaf_ids: list[int] = []
        self._consumed = False

    def __len__(self):
        return len(self._nodes)

    def leaf(self, data) -> "Tensor":
        """Register an input tensor whose gradient backward() will report."""
        value = _as_array(data)
        if not np.all(np.isfinite(value)):
            raise DomainError("leaf values must be finite")
        self._leaf_ids.append(len(self._nodes))
        return self._record("leaf", (), value, None)

    def _record(self, tag, parent_ids, value, vjp) -> "Tensor":
        self._nodes.append(_Node(tag, tuple(parent_ids), value, vjp))
        return Tensor(value, self, len(self._nodes) - 1)


class Tensor:
    """Dense float64 array, optionally attached to a differentiation graph."""

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: Optional[Graph] = None, node_id: Optional[int] = None):
        self.data = _as_array(data)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tracked = "" if self.graph is None else f", node={self.node_id}"
        return f"Tensor(shape={self.data.shape}{tracked})"


def _as_array(data) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    return np.asarray(data, dtype=np.float64)


def constant(data) -> Tensor:
    """Wrap a value as an untracked tensor."""
    return Tensor(data)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(tag, parents: Sequence[Tensor], value, vjp) -> Tensor:
    graphs = {p.graph for p in parents if p.graph is not None}
    if len(graphs) > 1:
        raise GraphError("operands belong to different graphs")
    if not graphs:
        return Tensor(value)
    graph = graphs.pop()
    ids = tuple(p.node_id if p.graph is graph else None for p in parents)
    return graph._record(tag, ids, value, vjp)


# -- elementwise primitives (no broadcasting: operands of equal shape) ----

def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"operand shapes differ: {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _same_shape(a, b)
    return _emit("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _same_shape(a, b)
    return _emit("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def smul(a, c: float) -> Tensor:
    a = _coerce(a)
    c = float(c)
    return _emit("scalar-mul", (a,), a.data * c, lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (N,K)x(K,M), got {a.shape} and {b.shape}")
    va, vb = a.data, b.data
    ta, tb = a.graph is not None, b.graph is not None  # a constant operand gets None
    return _emit("matmul", (a, b), va @ vb,
                 lambda g: (g @ vb.T if ta else None, va.T @ g if tb else None))


# -- reductions and shape primitives ------------------------------------

def tmean(a) -> Tensor:
    a = _coerce(a)
    shape = a.shape
    size = a.data.size
    if size == 0:
        raise ShapeError("mean of an empty tensor")
    return _emit("mean", (a,), np.asarray(a.data.mean()),
                 lambda g: (np.full(shape, float(g) / size),))


def concat(a, b) -> Tensor:
    """Join two matrices with the same number of rows column-wise."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat needs (N,K) and (N,L), got {a.shape} and {b.shape}")
    split = a.shape[1]
    return _emit("concat", (a, b), np.concatenate([a.data, b.data], axis=1),
                 lambda g: (g[:, :split], g[:, split:]))


def rownorm(a) -> Tensor:
    """Rowwise Euclidean norm of a matrix; subgradient 0 at zero rows."""
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError("rowwise-L2-norm expects a matrix")
    va = a.data
    value = np.sqrt((va * va).sum(axis=1))

    def vjp(g):
        safe = np.where(value > 0.0, value, 1.0)
        out = (g / safe)[:, None] * va
        out[value == 0.0] = 0.0
        return (out,)

    return _emit("rowwise-L2-norm", (a,), value, vjp)


def pairwise_sqdist(a, b) -> Tensor:
    """Matrix of squared Euclidean distances between rows of a and b.

    Rows are 3-vectors (positions or colours).  The three squares are summed
    as (d0² + d2²) + d1², the order numpy 2.4's einsum("ijk,ijk->ij") takes
    for C-contiguous operands, in one N×M scratch array beside the result;
    no N×M×3 difference is formed, and the bits do not depend on the
    operands' memory layout.
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != 3 or b.shape[1] != 3:
        raise ShapeError(f"pairwise-sqdist needs (N,3) and (M,3), got {a.shape}, {b.shape}")
    va, vb = a.data, b.data
    value = np.subtract(va[:, 0, None], vb[None, :, 0])
    value *= value
    scratch = np.empty_like(value)
    for j in (2, 1):
        np.subtract(va[:, j, None], vb[None, :, j], out=scratch)
        scratch *= scratch
        value += scratch
    ta, tb = a.graph is not None, b.graph is not None  # a constant operand gets None

    def vjp(g):
        ga = 2.0 * (g.sum(axis=1)[:, None] * va - g @ vb) if ta else None
        gb = 2.0 * (g.sum(axis=0)[:, None] * vb - g.T @ va) if tb else None
        return ga, gb

    return _emit("pairwise-sqdist", (a, b), value, vjp)


def backward(root: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root; returns gradients for every leaf.

    The graph is consumed: a second backward over the same graph raises.
    Each non-leaf node up to the root is released (value, VJP closure and
    gradient) as soon as its gradient has been propagated; leaves are kept.
    """
    if root.graph is None:
        raise GraphError("root is not attached to a graph")
    if root.data.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {root.data.shape}")
    graph = root.graph
    if graph._consumed:
        raise GraphError("graph already consumed by a previous backward")
    graph._consumed = True

    nodes = graph._nodes
    grads: list[Optional[np.ndarray]] = [None] * len(nodes)
    grads[root.node_id] = np.ones(())
    for i in range(root.node_id, -1, -1):
        node = nodes[i]
        if node.vjp is None:  # a leaf keeps its node and its gradient
            continue
        # every consumer of this node lies later on the tape and is done
        g, grads[i], nodes[i] = grads[i], None, None
        if g is None:
            continue
        for pid, pg in zip(node.parent_ids, node.vjp(g)):
            if pid is None or pg is None:
                continue
            pg = np.asarray(pg, dtype=np.float64)
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
    out = {}
    for i in graph._leaf_ids:
        out[i] = grads[i] if grads[i] is not None else np.zeros(nodes[i].value.shape)
    return out


@dataclass
class GradcheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int


def gradcheck(fn, leaf_values, rel_tol: float = 1e-4) -> GradcheckReport:
    """Compare backward() against central finite differences.

    fn maps one tensor per leaf value to a scalar tensor.  The central
    differences step by h = 1e-5; coordinates where both the analytic and
    numeric gradients are below abs_tol = 1e-8 are compared absolutely.
    """
    h, abs_tol = 1e-5, 1e-8
    leaf_values = [np.asarray(v, dtype=np.float64) for v in leaf_values]

    graph = Graph()
    leaves = [graph.leaf(v) for v in leaf_values]
    root = fn(*leaves)
    if not np.isfinite(root.data):
        raise DomainError("gradcheck forward value is not finite")
    grads = backward(root)
    analytic = [grads[t.node_id] for t in leaves]

    def eval_at(values) -> float:
        out = fn(*[constant(v) for v in values])
        return float(out.data)

    max_rel = 0.0
    n_coords = 0
    for k, base in enumerate(leaf_values):
        flat_a = analytic[k].ravel()
        for j in range(base.size):
            n_coords += 1
            bumped = [v.copy() for v in leaf_values]
            bumped[k].ravel()[j] = base.ravel()[j] + h
            fp = eval_at(bumped)
            bumped[k].ravel()[j] = base.ravel()[j] - h
            fm = eval_at(bumped)
            fd = (fp - fm) / (2.0 * h)
            a = flat_a[j]
            denom = max(abs(a), abs(fd))
            if denom <= abs_tol:
                continue
            err = abs(a - fd) / denom if abs(a - fd) > abs_tol else 0.0
            max_rel = max(max_rel, err)
    return GradcheckReport(max_rel_err=max_rel, passed=max_rel < rel_tol,
                           n_coords=n_coords)
