"""Differentiable scene-flow estimators and the end-point-error loss.

Two estimators share one interface: an entropic optimal-transport matcher
(soft correspondence via Sinkhorn, flow = barycentric target minus source)
and a tiny trainable flow-embedding network (per-point encoder plus
softmax attention over k nearest second-cloud points).  Both expose the
flow as a graph tensor so attacks can backpropagate to the first cloud.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, constant
from .scene import FlowField, FormatError, LengthError, ScenePair, ValidationError


class NumericError(ArithmeticError):
    """Numerical breakdown (underflow to a degenerate Sinkhorn marginal)."""


class TrainingError(RuntimeError):
    """Training aborted on a non-finite loss."""


# -- loss -----------------------------------------------------------------

def epe_loss(pred, gt) -> Tensor:
    """Mean Euclidean distance between predicted and true flow vectors."""
    pred_t = pred if isinstance(pred, Tensor) else constant(_vectors(pred))
    gt_v = _vectors(gt)
    if pred_t.shape != gt_v.shape:
        raise ad.ShapeError(f"flow shapes differ: {pred_t.shape} vs {gt_v.shape}")
    return ad.tmean(ad.rownorm(ad.sub(pred_t, constant(gt_v))))


def epe(pred, gt) -> float:
    """Plain-number EPE for reporting."""
    return float(epe_loss(pred, gt).data)


def _vectors(flow) -> np.ndarray:
    if isinstance(flow, FlowField):
        return flow.vectors
    return np.asarray(flow, dtype=np.float64)


def _lower_median_index(flat: np.ndarray) -> int:
    """Flat index a stable argsort ranks at the lower median, in linear time.

    Entries equal to the median value keep their index order in a stable
    sort, and NaNs sort last, so the rank among the ties picks the index.
    """
    kth = (flat.size - 1) // 2
    v = np.partition(flat, kth)[kth]
    if np.isnan(v):
        ties = np.flatnonzero(np.isnan(flat))
        below = flat.size - ties.size
    else:
        ties = np.flatnonzero(flat == v)
        below = np.count_nonzero(flat < v)
    return int(ties[kth - below])


def median_scale(cost: Tensor) -> Tensor:
    """Divide a cost matrix by its (lower) median entry, differentiably.

    The median entry is located on detached values, by linear-time
    selection that breaks ties as a stable sort would.  The division is one
    tape node whose VJP accounts for the scale: the picked entry also gets
    -<g, cost> / med^2, in the order of operations of the graph it replaces
    (pick the entry, take exp(-log med), multiply).  A non-positive median
    leaves the cost unscaled (nothing to guard against).
    """
    if not isinstance(cost, Tensor):
        cost = constant(cost)
    vals = cost.data
    r, c = divmod(_lower_median_index(vals.ravel()), vals.shape[1])
    med = vals[r, c]
    if med <= 1e-300:
        return cost
    recip = _np_recip(vals[r:r + 1, c:c + 1])             # (1, 1)

    def vjp(g):
        out = g * recip
        out[r, c] += ((g * vals).sum() * recip[0, 0] * -1.0) / med
        out += 0.0  # -0.0 becomes 0.0, as in the unrolled graph's gradient sum
        return (out,)

    return ad._emit("median-scale", (cost,), vals * recip, vjp)


def sinkhorn(cost, reg: float, iters: int) -> Tensor:
    """Row-stochastic entropic transport plan from alternating normalization.

    The cost is pre-divided by its median entry as an overflow guard, then
    K = exp(-cost/reg) is alternately normalized (rows to 1/N, columns to
    1/M) for `iters` rounds and finally rescaled so each row sums to 1.

    The iterations form one tape node with a hand-written VJP.  Every
    iterate is diag(a)·K·diag(b) (the scaling form of Cuturi, "Sinkhorn
    Distances", NeurIPS 2013), so the node keeps K and the (N,1) and (1,M)
    scalings of each iterate, not the iterates: memory is a few N×M arrays
    whatever `iters` is.  The forward is the unrolled arithmetic, operation
    for operation, so the plan is bitwise what the unrolled graph computes.

    The backward is the derivative of the same unrolled iterations, taken on
    the scaling vectors.  Walking the normalizations in reverse, each adds
    one rank-1 term u·w to the gradient w.r.t. K, where u and w come from
    the row and column sums of the gradient against the plan, kept as
    running (N,1) and (1,M) sums.  That is one K mat-vec per normalization.
    One (N×S)·(S×M) product sums the S = 2·iters+1 terms; adding g's own
    share, a ⊙K and a ×(-1/reg) give the gradient w.r.t. the cost.  The
    backward allocates one N×M array, which it returns.
    """
    if reg <= 0.0:
        raise ValidationError("sinkhorn reg must be > 0")
    if iters < 1:
        raise ValidationError("sinkhorn iters must be >= 1")
    if not isinstance(cost, Tensor):
        cost = constant(cost)
    if cost.data.ndim != 2:
        raise ad.ShapeError("cost must be a matrix")
    if not np.all(np.isfinite(cost.data)):
        raise ad.DomainError("cost must be finite")
    n, m = cost.shape
    scaled = median_scale(cost)
    neg_inv_reg = -1.0 / reg
    k0 = np.exp(scaled.data * neg_inv_reg)
    ones_row = np.ones((1, n))
    # a[t], b[t]: scalings of the iterate entering round t (and the final
    # row normalization for t = iters); rows[t], cols[t]: its marginals
    a, b = [np.ones((n, 1))], [np.ones((1, m))]
    rows, cols = [], []
    k = k0.copy()  # updated in place, in the unrolled order of operations
    for _ in range(iters):
        r = k.sum(axis=1, keepdims=True)                  # (n, 1)
        _check_marginal(r, "row")
        r_inv = _np_recip(r)
        k *= r_inv
        k *= 1.0 / n
        c = ones_row @ k                                  # (1, m)
        _check_marginal(c, "column")
        c_inv = _np_recip(c)
        k *= c_inv
        k *= 1.0 / m
        rows.append(r)
        cols.append(c)
        a.append(a[-1] * r_inv * (1.0 / n))
        b.append(b[-1] * c_inv * (1.0 / m))
    r = k.sum(axis=1, keepdims=True)
    _check_marginal(r, "row")
    r_inv = _np_recip(r)
    rows.append(r)
    k *= r_inv

    def vjp(g):
        # plan = diag(pa)·K0·diag(qb).  The gradient w.r.t. K0 is g's own
        # share pa⊙(g⊙K0)⊙qb plus one rank-1 term u·w per normalization.
        # g's row and column sums against the plan are the same at every
        # step, since the scalings telescope.
        h = np.multiply(g, k0)                 # H = g⊙K0, the one N×M scratch array
        pa, qb = a[iters] * r_inv, b[iters]  # r_inv: the final row normalization
        row_g, col_g = pa * (h @ qb.T), (pa.T @ h) * qb
        # the later steps' rank-1 terms, summed against the current iterate
        row_acc, col_acc = np.zeros((n, 1)), np.zeros((1, m))
        steps = [(1, a[iters], b[iters], rows[iters])]
        for t in reversed(range(iters)):
            steps += [(0, a[t + 1], b[t], cols[t]), (1, a[t], b[t], rows[t])]
        us, ws = np.empty((n, len(steps))), np.empty((len(steps), m))
        for s, (axis, a_in, b_in, x) in enumerate(steps):
            if axis == 1:
                d = -(row_g + row_acc) / x
                u, w = d * a_in, b_in
                row_acc += d * x
                col_acc += (u.T @ k0) * w
            else:
                d = -(col_g + col_acc) / x
                u, w = a_in, d * b_in
                col_acc += d * x
                row_acc += (k0 @ w.T) * u
            us[:, s:s + 1], ws[s:s + 1] = u, w
        # (U·W)⊙K0 + pa⊙H⊙qb as ((U/pa)·(W/qb) + g)⊙K0⊙pa⊙qb, written into H
        us /= pa
        ws /= qb
        np.matmul(us, ws, out=h)
        h += g
        h *= k0
        h *= pa
        h *= qb
        h *= neg_inv_reg
        return (h,)

    return ad._emit("sinkhorn", (scaled,), k, vjp)


def _np_recip(x: np.ndarray) -> np.ndarray:
    # 1/x as exp(-log x): the reciprocal of the unrolled graphs the fused
    # nodes replace, so their values keep every bit
    return np.exp(np.log(x) * -1.0)


def _check_marginal(v: np.ndarray, which: str) -> None:
    # NaN fails every comparison, so it raises like 0, negatives and ±inf
    if not 0.0 < v.min() <= v.max() < np.inf:
        raise NumericError(f"degenerate {which} marginal in sinkhorn (underflow)")


# -- estimators -----------------------------------------------------------

class Estimator:
    """Interface: estimate() for plain flow, flow_tensor() for gradients."""

    tag = "estimator"

    def flow_tensor(self, pos1: Tensor, col1: Optional[Tensor], pair: ScenePair) -> Tensor:
        raise NotImplementedError

    def estimate(self, pair: ScenePair) -> FlowField:
        pos1 = constant(pair.pc1.positions)
        col1 = constant(pair.pc1.colors) if pair.pc1.has_colors else None
        return FlowField(self.flow_tensor(pos1, col1, pair).data)

    def config_digest(self) -> str:
        return hashlib.sha256(repr(self._digest_key()).encode()).hexdigest()[:12]

    def _digest_key(self):
        return self.tag


class OTEstimator(Estimator):
    """Soft-correspondence flow from an entropic transport plan.

    The cost is the median-scaled squared distance between positions, plus
    the squared distance between colours when both clouds have them.
    """

    tag = "ot"

    def __init__(self, reg: float = 0.02, sinkhorn_iters: int = 30):
        if reg <= 0.0:
            raise ValidationError("reg must be > 0")
        if sinkhorn_iters < 1:
            raise ValidationError("sinkhorn_iters must be >= 1")
        self.reg = reg
        self.sinkhorn_iters = sinkhorn_iters

    def flow_tensor(self, pos1, col1, pair):
        pos2 = constant(pair.pc2.positions)
        cost = median_scale(ad.pairwise_sqdist(pos1, pos2))
        if pair.pc2.has_colors and col1 is not None:
            cost = ad.add(cost, ad.pairwise_sqdist(col1, constant(pair.pc2.colors)))
        plan = sinkhorn(cost, self.reg, self.sinkhorn_iters)
        return ad.sub(ad.matmul(plan, pos2), pos1)

    def _digest_key(self):
        # the trailing 1.0 is the colour weight, which was once settable: without
        # it the default label ot:1ee4a7dc357a would become ot:f24ac1c485d9, and
        # every report, perfbench's reference reports included, would change
        return (self.tag, self.reg, self.sinkhorn_iters, 1.0)


HIDDEN = 32


@dataclass
class TinyNetWeights:
    """Two-layer point encoder plus two-layer flow head."""

    w1: np.ndarray  # (in, 32)
    b1: np.ndarray  # (1, 32)
    w2: np.ndarray  # (32, 32)
    b2: np.ndarray  # (1, 32)
    w3: np.ndarray  # (64, 32)
    b3: np.ndarray  # (1, 32)
    w4: np.ndarray  # (32, 3)
    b4: np.ndarray  # (1, 3)
    k_neighbors: int = 8

    def __post_init__(self):
        in_dim = self.w1.shape[0]
        expect = {
            "w1": (in_dim, HIDDEN), "b1": (1, HIDDEN),
            "w2": (HIDDEN, HIDDEN), "b2": (1, HIDDEN),
            "w3": (2 * HIDDEN, HIDDEN), "b3": (1, HIDDEN),
            "w4": (HIDDEN, 3), "b4": (1, 3),
        }
        if in_dim not in (3, 6):
            raise ValidationError(f"input width must be 3 or 6, got {in_dim}")
        for name, shape in expect.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValidationError(f"{name} must be {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} has non-finite entries")
            setattr(self, name, arr)
        if self.k_neighbors < 1:
            raise ValidationError("k_neighbors must be >= 1")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4, self.b4]

    def replace_arrays(self, arrays) -> "TinyNetWeights":
        return TinyNetWeights(*[np.asarray(a) for a in arrays], k_neighbors=self.k_neighbors)


def init_weights(in_dim: int, seed: int, k_neighbors: int = 8) -> TinyNetWeights:
    """Seeded init; the first layer starts near a scaled pass-through of the
    coordinates so encoding distances reflect point geometry from step one."""
    rng = np.random.default_rng(seed)

    def layer(n_in, n_out):
        return rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))

    w1 = layer(in_dim, HIDDEN) * 0.1
    w1[:3, :3] += 2.0 * np.eye(3)
    w2 = layer(HIDDEN, HIDDEN) * 0.1
    w2[:HIDDEN, :HIDDEN] += np.eye(HIDDEN)
    return TinyNetWeights(
        w1=w1, b1=np.zeros((1, HIDDEN)),
        w2=w2, b2=np.zeros((1, HIDDEN)),
        w3=layer(2 * HIDDEN, HIDDEN), b3=np.zeros((1, HIDDEN)),
        w4=layer(HIDDEN, 3) * 0.1, b4=np.zeros((1, 3)),
        k_neighbors=k_neighbors,
    )


def knn_indices(query: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows of `points` for each row of `query`."""
    # ((q0 - p0)^2 + (q1 - p1)^2) + (q2 - p2)^2, bitwise what the sum over
    # an (N, M, 3) difference gives, without building it
    d = (query[:, 0, None] - points[None, :, 0]) ** 2
    for axis in (1, 2):
        d += (query[:, axis, None] - points[None, :, axis]) ** 2
    return _stable_smallest(d, min(k, points.shape[0]))


def _stable_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of a stable argsort of each row, by partial selection.

    The k smallest of a row are every entry below the kth value plus the
    lowest-index entries equal to it (NaNs sort last: a NaN kth value ties
    with every NaN and has every other entry below it).  Only those k are
    then sorted, stably and from index order, which keeps the ties in the
    order a full stable sort gives.
    """
    kth = np.take_along_axis(d, np.argpartition(d, k - 1, axis=1)[:, k - 1:k], axis=1)
    below = d < kth
    ties = d == kth
    nan_kth = np.isnan(kth[:, 0])
    if nan_kth.any():
        ties[nan_kth] = np.isnan(d[nan_kth])
        below[nan_kth] = ~ties[nan_kth]
    room = k - np.count_nonzero(below, axis=1, keepdims=True)
    chosen = below | (ties & (np.cumsum(ties, axis=1) <= room))
    cand = np.nonzero(chosen)[1].reshape(d.shape[0], k)
    order = np.argsort(np.take_along_axis(d, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


class TinyNetEstimator(Estimator):
    """Tiny flow-embedding network: encode both clouds, attend over the k
    nearest second-cloud points, decode a flow vector per first-cloud point."""

    tag = "tiny"

    def __init__(self, weights: TinyNetWeights):
        self.weights = weights

    def flow_tensor(self, pos1, col1, pair):
        w = [constant(a) for a in self.weights.arrays()]
        return tiny_flow(pos1, col1, pair, w, self.weights.k_neighbors)

    def _digest_key(self):
        blob = save_weights(self.weights)
        return (self.tag, hashlib.sha256(blob).hexdigest()[:12])


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One layer, x @ w + b with the bias row broadcast over rows, then an
    optional relu, recorded as one tape node with a hand-written VJP.

    The forward and the VJP are the arithmetic of the matmul, add and relu
    nodes it replaces, operation for operation.  The VJP skips x's gradient
    when x is a constant (the second cloud's features).
    """
    vx, vw = x.data, w.data
    value = vx @ vw + b.data
    if relu:
        mask = value > 0.0
        value = np.where(mask, value, 0.0)
    x_constant = x.graph is None

    def vjp(g):
        if relu:
            g = g * mask
        gx = None if x_constant else g @ vw.T
        return gx, vx.T @ g, g.sum(axis=0, keepdims=True)

    return ad._emit("dense", (x, w, b), value, vjp)


def knn_attention(e1: Tensor, e2: Tensor, idx: np.ndarray) -> Tensor:
    """Softmax attention of each row of e1 over its neighbour rows of e2,
    recorded as one tape node with a hand-written VJP.

    Row i attends over e2[idx[i, j]], j < k, with the logits
    -|e1[i] - e2[idx[i, j]]|^2.
    The forward is the per-neighbour arithmetic of the graph it replaces,
    operation for operation: logits shifted by their per-row maximum,
    exponentials and weighted features summed in neighbour order, and the
    reciprocal as exp(-log(total)).  The VJP is the softmax gradient; it
    regathers the neighbour rows instead of keeping the (k, N, H) arrays,
    and skips e2's scatter when e2 is a constant (as in an attack pass).
    """
    v1, v2 = e1.data, e2.data
    e2_constant = e2.graph is None
    cols = idx.T                                          # (k, N): neighbour j of each row
    feats = v2[cols]                                      # (k, N, H)
    diff = v1 - feats
    logits = (diff * diff).sum(axis=2) * -1.0             # (k, N)
    # per-row shift: softmax-invariant, keeps exp in range
    exps = np.exp(logits - np.maximum.reduce(logits))
    weights = exps * _np_recip(functools.reduce(np.add, exps))
    attended = functools.reduce(np.add, weights[:, :, None] * feats)

    def vjp(g):
        feats = v2[cols]
        # d loss / d logit_j = w_j (<g, f_j> - <g, attended>)
        glogit = weights * ((feats * g).sum(axis=2) - (g * attended).sum(axis=1))
        # d logit_j / d e1 = -2 (e1 - f_j) = -d logit_j / d f_j
        gdiff = np.subtract(v1, feats, out=feats)
        gdiff *= 2.0 * glogit[:, :, None]
        g1 = -gdiff.sum(axis=0)
        if e2_constant:
            return g1, None
        gdiff += weights[:, :, None] * g
        # scatter-add all N·k rows at once, by flat (row, column) slot of e2
        m, h = v2.shape
        slots = (cols.reshape(-1, 1) * h + np.arange(h)).ravel()
        g2 = np.bincount(slots, weights=gdiff.ravel(), minlength=m * h).reshape(m, h)
        return g1, g2

    return ad._emit("knn-attention", (e1, e2), attended, vjp)


def tiny_flow(pos1: Tensor, col1: Optional[Tensor], pair: ScenePair,
              w: list[Tensor], k_neighbors: int,
              idx: Optional[np.ndarray] = None) -> Tensor:
    """Differentiable tiny-net forward with explicit weight tensors.

    Neighbor indices are hard (recomputed from the current, possibly
    perturbed, first-cloud positions against the unperturbed second cloud);
    gradients flow through the attention logits only.  `idx` passes in
    knn_indices(pos1.data, pair.pc2.positions, k_neighbors) when the caller
    already has it.
    """
    w1, b1, w2, b2, w3, b3, w4, b4 = w
    in_dim = w1.shape[0]
    use_color = in_dim == 6
    if use_color and (col1 is None or not pair.pc2.has_colors):
        raise ValidationError("weights expect colors but the pair has none")

    f1 = ad.concat(pos1, col1) if use_color else pos1
    pos2 = constant(pair.pc2.positions)
    f2 = ad.concat(pos2, constant(pair.pc2.colors)) if use_color else pos2

    def encode(x):
        return dense(dense(x, w1, b1, True), w2, b2, True)

    e1 = encode(f1)                                       # (N, 32)
    e2 = encode(f2)                                       # (M, 32)

    if idx is None:
        idx = knn_indices(pos1.data, pair.pc2.positions, k_neighbors)
    attended = knn_attention(e1, e2, idx)                 # (N, 32)
    h = ad.concat(e1, attended)                           # (N, 64)
    return dense(dense(h, w3, b3, True), w4, b4, False)


# -- training -------------------------------------------------------------

def train_tiny(dataset: list[ScenePair], epochs: int,
               lr: float, seed: int) -> tuple[TinyNetWeights, list[float]]:
    """Plain full-gradient descent over shuffled minibatches of 4 pairs.

    Returns the final weights and the per-epoch mean EPE trace.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if not (np.isfinite(lr) and lr > 0.0):
        raise ValidationError(f"lr must be finite and > 0, got {lr}")
    if not dataset:
        raise ValidationError("empty training set")
    with_color = dataset[0].pc1.has_colors
    for pair in dataset:
        if pair.gt_flow is None:
            raise ValidationError(f"pair {pair.id} lacks gt_flow")
        if pair.pc1.has_colors != with_color:
            raise ValidationError(
                f"pair {pair.id} {'lacks' if with_color else 'has'} colors, unlike "
                f"{dataset[0].id}: a training set is all plain or all colored")
    weights = init_weights(6 if with_color else 3, seed)
    arrays = [a.copy() for a in weights.arrays()]
    rng = np.random.default_rng(seed)
    trace = []
    batch_size = 4
    # neither cloud moves during training, so neither do the neighbours
    neighbours = [knn_indices(p.pc1.positions, p.pc2.positions, weights.k_neighbors)
                  for p in dataset]

    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(dataset), batch_size):
            batch = [(dataset[i], neighbours[i]) for i in order[start:start + batch_size]]
            g = Graph()
            w = [g.leaf(a) for a in arrays]
            loss = None
            for pair, idx in batch:
                pos1 = constant(pair.pc1.positions)
                col1 = constant(pair.pc1.colors) if with_color else None
                pred = tiny_flow(pos1, col1, pair, w, weights.k_neighbors, idx=idx)
                term = epe_loss(pred, pair.gt_flow)
                loss = term if loss is None else ad.add(loss, term)
            loss = ad.smul(loss, 1.0 / len(batch))
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads = ad.backward(loss)
            for i, wt in enumerate(w):
                arrays[i] = arrays[i] - lr * grads[wt.node_id]
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    return weights.replace_arrays(arrays), trace


# -- SFTN weight file -----------------------------------------------------
#
# magic "SFTN" | u32 layer count | per layer: u32 rows, u32 cols,
# f32 data row-major.  k_neighbors rides along as a trailing 1x1 layer.

_WMAGIC = b"SFTN"


def save_weights(w: TinyNetWeights) -> bytes:
    layers = w.arrays() + [np.array([[float(w.k_neighbors)]])]
    chunks = [_WMAGIC, struct.pack("<I", len(layers))]
    for layer in layers:
        rows, cols = layer.shape
        chunks.append(struct.pack("<II", rows, cols))
        chunks.append(np.ascontiguousarray(layer, dtype="<f4").tobytes())
    return b"".join(chunks)


def load_weights(data: bytes) -> TinyNetWeights:
    if len(data) < 8:
        raise LengthError("SFTN header needs 8 bytes")
    if data[:4] != _WMAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    (count,) = struct.unpack_from("<I", data, 4)
    if count != 9:
        raise FormatError(f"expected 9 layers, header says {count}")
    offset = 8
    layers = []
    for _ in range(count):
        if len(data) < offset + 8:
            raise LengthError("truncated layer header")
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        nbytes = rows * cols * 4
        if len(data) < offset + nbytes:
            raise LengthError("truncated layer data")
        arr = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=offset)
        with np.errstate(invalid="ignore"):  # corrupt payloads may hold signaling NaNs
            layers.append(arr.astype(np.float64).reshape(rows, cols))
        offset += nbytes
    if offset != len(data):
        raise LengthError(f"{len(data) - offset} trailing bytes")
    ktail = layers.pop()
    if ktail.shape != (1, 1):
        raise FormatError("k_neighbors layer must be 1x1")
    try:
        return TinyNetWeights(*layers, k_neighbors=int(round(float(ktail[0, 0]))))
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"inconsistent layer data: {exc}") from exc


def zero_flow_aepe(dataset: list[ScenePair]) -> float:
    """AEPE of the constant-zero predictor: mean ground-truth magnitude."""
    return float(np.mean([
        np.linalg.norm(p.gt_flow.vectors, axis=1).mean() for p in dataset
    ]))
