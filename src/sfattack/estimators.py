"""Differentiable scene-flow estimators and the end-point-error loss.

Two estimators share one interface: an entropic optimal-transport matcher
(soft correspondence via Sinkhorn, flow = barycentric target minus source)
and a tiny trainable flow-embedding network (per-point encoder plus
softmax attention over k nearest second-cloud points).  Both expose the
flow as a graph tensor so attacks can backpropagate to the first cloud.
Both also score a batch of (pair, first cloud) items at once, on one
tape: per-pair EPEs, with or without the input gradients.  The OT
estimator's batch is one sub-graph per pair, its flows stacked by rows.
The tiny net's forward takes a batch of pairs with their points stacked by
rows, so training records one tape per minibatch.  Its nodes work per
cloud or per pair where the bits depend on it.  Every pass, one pair or a
batch, attack or training step, is scored by one fused node, pair_epes:
each pair's EPE, and their sum (a minibatch's mean) as the tape's root.
Either way a batch's values and gradients are those of one tape per pair,
bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, constant
from .scene import (FlowField, FormatError, LengthError, PointCloud, ScenePair,
                    ValidationError, _freeze)


class NumericError(ArithmeticError):
    """Numerical breakdown (underflow to a degenerate Sinkhorn marginal)."""


class TrainingError(RuntimeError):
    """Training aborted on a non-finite loss or non-finite weights."""


# -- loss -----------------------------------------------------------------

def epe_loss(pred, gt) -> Tensor:
    """Mean Euclidean distance between predicted and true flow vectors."""
    return pair_epes(pred, [gt])[0]


def pair_epes(flow, gts: list, scale: float = 1.0) -> tuple[Tensor, list[float]]:
    """The EPE of each pair of a batch of flows stacked by rows, and scale
    times their sum in pair order as one tape node.

    Pair p's flow is the rows of `flow` that gts[p], its ground truth,
    covers, in order.  The forward takes the difference, each row's
    Euclidean norm and each pair's mean norm, then adds the means in pair
    order and scales the sum: a batch of attack passes takes the plain sum,
    a training minibatch the mean (scale 1/B).  Row r of pair p gets the
    gradient ((g * scale) / N_p / |d_r|) * d_r, where d_r is its
    difference, and 0 where |d_r| is 0.  Value and gradient have the bits
    of the per-pair sub, rowwise-norm and mean nodes the node replaces.
    """
    flow = flow if isinstance(flow, Tensor) else constant(_vectors(flow))
    vecs = [_vectors(v) for v in gts]
    if (not vecs or flow.data.ndim != 2
            or any(v.shape[1:] != flow.shape[1:] or len(v) == 0 for v in vecs)
            or flow.shape[0] != sum(map(len, vecs))):
        raise ad.ShapeError(f"flow shapes differ: {flow.shape} vs "
                            f"{', '.join(str(v.shape) for v in vecs)}")
    diff = flow.data - np.concatenate(vecs)
    norms = np.sqrt((diff * diff).sum(axis=1))
    bounds = _offsets(vecs)
    spans = list(zip(bounds[:-1], bounds[1:]))
    means = [float(norms[s:e].mean()) for s, e in spans]
    total = means[0]
    for m in means[1:]:
        total += m

    def vjp(g):
        gs = float(g * scale)
        gn = np.concatenate([np.full(e - s, gs / (e - s)) for s, e in spans])
        out = (gn / np.where(norms > 0.0, norms, 1.0))[:, None] * diff
        out[norms == 0.0] = 0.0
        return (out,)

    return ad._emit("pair-epes", (flow,), np.asarray(total * scale), vjp), means


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
    """Interface: estimate() for plain flow, flow_tensor() for gradients, and
    per-pair EPEs of a batch of (pair, first cloud) items, with the input
    gradients (losses_and_grads) or without (epes).

    The batched methods score each cloud against its pair's ground truth,
    in place of the pair's own first cloud.  They run the whole batch as
    one forward (and one tape, with gradients) over the pairs' flows
    stacked by rows (_flows), scored by one pair-epes node, which gives
    each pair's EPE and their sum as the tape's root.  Nothing in the tape
    mixes pairs, so every pair's results keep the bits of its own tape.
    """

    tag = "estimator"

    def flow_tensor(self, pos1: Tensor, col1: Optional[Tensor], pair: ScenePair) -> Tensor:
        raise NotImplementedError

    def estimate(self, pair: ScenePair) -> FlowField:
        col1 = constant(pair.pc1.colors) if pair.pc1.has_colors else None
        return FlowField(self.flow_tensor(constant(pair.pc1.positions), col1, pair).data)

    def _flows(self, pos1: list[Tensor], col1: list[Optional[Tensor]],
               pairs: list[ScenePair]) -> Tensor:
        """The flows of a batch of pairs, rows stacked in pair order: one
        flow_tensor per pair."""
        return ad.stack_rows([self.flow_tensor(p, c, pair)
                              for p, c, pair in zip(pos1, col1, pairs)])

    def losses_and_grads(self, items: list[tuple[ScenePair, PointCloud]]) -> list[tuple]:
        """(EPE, position gradient, colour gradient) of each (pair, cloud).

        One forward and one backward pass over the batch, with each cloud's
        positions and colours (when present) as leaves; the colour gradient
        is None without colours.  The EPE is bitwise epes()'s.
        """
        g = Graph()
        pos1, col1, root, losses = self._score(items, g.leaf)
        grads = ad.backward(root)
        return [(loss, grads[p.node_id], grads[c.node_id] if c is not None else None)
                for loss, p, c in zip(losses, pos1, col1)]

    def epes(self, items: list[tuple[ScenePair, PointCloud]]) -> list[float]:
        """The forward-only EPE of each (pair, cloud)."""
        return self._score(items, constant)[3]

    def _score(self, items, wrap) -> tuple:
        """Each cloud's positions and colours (None without) through `wrap`,
        a graph's leaf or constant, then pair_epes of the batch's flows: the
        root and each pair's EPE."""
        pairs = [pair for pair, _ in items]
        for pair, cloud in items:  # pair_epes sees only the batch's row total
            if pair.gt_flow is None:
                raise ValidationError("attack requires a pair with gt_flow")
            if cloud.n_points != pair.gt_flow.n_points:
                raise ad.ShapeError(f"flow shapes differ: {cloud.n_points} points "
                                    f"vs {pair.gt_flow.n_points} flow vectors")
        pos1 = [wrap(cloud.positions) for _, cloud in items]
        col1 = [wrap(cloud.colors) if cloud.has_colors else None for _, cloud in items]
        return (pos1, col1, *pair_epes(self._flows(pos1, col1, pairs),
                                       [pair.gt_flow for pair in pairs]))

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
            # read-only, like PointCloud's arrays: an estimator may keep what
            # it computed from them
            arr = _freeze(getattr(self, name))
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

    Partial selection finds each row's k smallest entries and its kth value.
    They are sorted stably from index order, which keeps ties in the order a
    full stable sort gives.  Where exactly k entries are <= the kth value,
    the k selected are the stable sort's first k.  Otherwise a tie straddles
    place k, or the kth value is NaN, and selection may have picked any of
    the tied entries.  Only on those rows are the k taken from the whole
    row: every entry below the kth value, then the lowest-index entries equal
    to it (NaNs sort last: a NaN kth value ties with every NaN and has every
    other entry below it).
    """
    rows = np.arange(d.shape[0])[:, None]
    part = np.argpartition(d, k - 1, axis=1)
    kth = d[rows, part[:, k - 1:k]]
    cand = np.sort(part[:, :k], axis=1)
    tied = np.count_nonzero(d <= kth, axis=1) != k
    if tied.any():
        tied = np.flatnonzero(tied)
        dt, kt = d[tied], kth[tied]
        below = dt < kt
        ties = dt == kt
        nan_kth = np.isnan(kt[:, 0])
        if nan_kth.any():
            ties[nan_kth] = np.isnan(dt[nan_kth])
            below[nan_kth] = ~ties[nan_kth]
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        chosen = below | (ties & (np.cumsum(ties, axis=1) <= room))
        cand[tied] = np.nonzero(chosen)[1].reshape(tied.size, k)
    order = np.argsort(d[rows, cand], axis=1, kind="stable")
    return cand[rows, order]


class TinyNetEstimator(Estimator):
    """Tiny flow-embedding network: encode both clouds, attend over the k
    nearest second-cloud points, decode a flow vector per first-cloud point.

    A batch's flows come from one tiny_flow over the pairs' row-stacked
    points, with the second clouds' encodings kept per batch.
    """

    tag = "tiny"

    def __init__(self, weights: TinyNetWeights):
        self.weights = weights
        # per thread, .last = (pc2 of each pair, w1, b1, w2, b2, encoding):
        # the last batch of second clouds that thread encoded.  Holding each
        # pc2 keeps its id from being reused.
        self._e2_memo = threading.local()

    def flow_tensor(self, pos1, col1, pair):
        return self._flows([pos1], [col1], [pair])

    def _flows(self, pos1, col1, pairs) -> Tensor:
        w = [constant(a) for a in self.weights.arrays()]
        return tiny_flow(pos1, col1, pairs, w, self.weights.k_neighbors,
                         e2=self._encoded_pc2(pairs, w))

    def _encoded_pc2(self, pairs, w) -> Tensor:
        """encode(second clouds) of a batch under the encoder weights, rows
        stacked in pair order.  A batch's passes all share its second clouds
        and the weights, so they are encoded once per batch."""
        key = (*(pair.pc2 for pair in pairs), *(t.data for t in w[:4]))
        memo = getattr(self._e2_memo, "last", None)
        if (memo is None or len(memo) != len(key) + 1
                or any(a is not b for a, b in zip(memo, key))):
            feats = [second_features(p, self.weights.in_dim == 6) for p in pairs]
            memo = (*key, encode(ad.stack_rows(feats), w, _offsets(feats)))
            self._e2_memo.last = memo
        return memo[-1]

    def _digest_key(self):
        blob = save_weights(self.weights)
        return (self.tag, hashlib.sha256(blob).hexdigest()[:12])


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool,
          bounds: Optional[list[int]] = None) -> Tensor:
    """One layer, x @ w + b with the bias row broadcast over rows, then an
    optional relu, recorded as one tape node with a hand-written VJP.

    The forward and the VJP give the bits of the matmul, add and relu
    nodes it replaces.  `bounds`, the row offsets [0, r1, ..., R] of row
    segments (one segment when None), makes the node compute what one such
    node per segment would, bit for bit:
    - each matrix product over rows (x @ w, and g @ w.T in the VJP) is one
      BLAS call per segment, since BLAS may round a row differently in a
      taller matrix (another kernel, or another row blocking);
    - each segment's x_s.T @ g_s and column sum of g_s is formed on its
      own, and they are added the last segment first, the order in which
      backward() would add up the per-segment nodes' weight gradients.
    The VJP skips the gradient of each constant operand: x for the input
    features, w and b in an attack pass.  It keeps only what it reads: w
    for x's gradient, x for w's.
    """
    spans = _spans(bounds, x.shape[0])
    value = _matmul_by_segment(x.data, w.data, spans)
    value += b.data
    if relu:
        mask = value > 0.0
        # np.where(mask, value, 0.0), bit for bit (fmax maps NaN to 0, and
        # + 0.0 turns -0.0 into 0.0), without np.where's cost on a mask
        # that flips at random
        np.fmax(value, 0.0, out=value)
        value += 0.0
    keep_w = w.data if x.graph is not None else None
    keep_x = x.data if w.graph is not None else None
    b_tracked = b.graph is not None

    def vjp(g):
        if relu:
            g = g * mask
        gx = None if keep_w is None else _matmul_by_segment(g, keep_w.T, spans)
        gw = None if keep_x is None else _weight_grad(keep_x, g, spans)
        gb = _col_sums(g, spans) if b_tracked else None
        return gx, gw, gb

    return ad._emit("dense", (x, w, b), value, vjp)


def _spans(bounds: Optional[list[int]], rows: int) -> list[tuple[int, int]]:
    """The row segments [bounds[i], bounds[i+1]); one of all rows when
    bounds is None."""
    bounds = bounds or [0, rows]
    return list(zip(bounds[:-1], bounds[1:]))


def _matmul_by_segment(a: np.ndarray, b: np.ndarray, spans) -> np.ndarray:
    """a @ b with one BLAS call per row segment of a."""
    # segments of one height are one 3-D operand, which numpy multiplies
    # with the BLAS calls the loop makes, without the loop's per-call cost
    if _even(spans):
        return np.matmul(_stack(a, spans), b).reshape(a.shape[0], b.shape[1])
    out = np.empty((a.shape[0], b.shape[1]))
    for s, e in spans:
        np.matmul(a[s:e], b, out=out[s:e])
    return out


def _weight_grad(x: np.ndarray, g: np.ndarray, spans) -> np.ndarray:
    """The sum of x_s.T @ g_s over the row segments, the last first."""
    if _even(spans):
        return _sum_last_first(np.matmul(_stack(x, spans).transpose(0, 2, 1),
                                         _stack(g, spans)))
    return _sum_last_first([x[s:e].T @ g[s:e] for s, e in spans])


def _col_sums(g: np.ndarray, spans) -> np.ndarray:
    """The sum of g_s's column sums over the row segments, the last first."""
    if _even(spans):
        return _sum_last_first(_stack(g, spans).sum(axis=1, keepdims=True))
    return _sum_last_first([g[s:e].sum(axis=0, keepdims=True) for s, e in spans])


def _even(spans) -> bool:
    """Whether the row segments are all of one height."""
    return len({e - s for s, e in spans}) == 1


def _stack(a: np.ndarray, spans) -> np.ndarray:
    """Equal row segments of a as one 3-D array."""
    return a.reshape(len(spans), -1, a.shape[1])


def _sum_last_first(terms) -> np.ndarray:
    """terms[-1] + terms[-2] + ... + terms[0], added in that order."""
    total = terms[-1].copy()
    for term in terms[-2::-1]:
        total += term
    return total


def knn_attention(e1: Tensor, e2: Tensor, idx: np.ndarray,
                  bounds: Optional[list[int]] = None) -> Tensor:
    """Softmax attention of each row of e1 over its neighbour rows of e2,
    recorded as one tape node with a hand-written VJP.

    Row i attends over e2[idx[i, j]], j < k, with the logits
    -|e1[i] - e2[idx[i, j]]|^2.  A negative index marks an absent
    neighbour, whose weight is 0: in a batch of pairs, it pads the rows of
    a pair with fewer second-cloud points than k.
    The forward is the per-neighbour arithmetic of the graph it replaces,
    operation for operation: logits shifted by their per-row maximum,
    exponentials and weighted features summed in neighbour order, and the
    reciprocal as exp(-log(total)).  The VJP is the softmax gradient; it
    regathers the neighbour rows instead of keeping the (k, N, H) arrays,
    and skips e2's scatter when e2 is a constant (as in an attack pass).

    `bounds`, the row offsets of e1's segments (one segment when None),
    makes the forward and the VJP run segment by segment, so a (k, rows, H)
    array holds one segment's rows.  Rows are independent until the VJP
    scatters them into e2, and each segment's rows are scattered on their
    own.  Where the segments' neighbours are disjoint rows of e2, as each
    pair's own second cloud is in a batch of pairs, every row of e2 then
    adds its gradient terms in the order one node per segment would.
    """
    v1, v2 = e1.data, e2.data
    e2_constant = e2.graph is None
    cols = idx.T                                          # (k, N): neighbour j of each row
    absent = cols < 0
    padded = absent.any()
    if padded:
        cols = np.where(absent, 0, cols)
    spans = _spans(bounds, v1.shape[0])
    weights, attended = np.empty(cols.shape), np.empty_like(v1)
    for s, e in spans:
        _attention(v1[s:e], v2, cols[:, s:e], absent[:, s:e] if padded else None,
                   weights[:, s:e], attended[s:e])

    def vjp(g):
        g1 = np.empty_like(v1)
        g2 = None if e2_constant else np.zeros(v2.shape)
        for s, e in spans:
            _attention_vjp(v1[s:e], v2, cols[:, s:e], weights[:, s:e], attended[s:e],
                           g[s:e], g1[s:e], g2)
        return g1, g2

    return ad._emit("knn-attention", (e1, e2), attended, vjp)


def _attention(v1, v2, cols, absent, weights, attended) -> None:
    """knn_attention's forward for one segment of rows: writes the softmax
    weights (k, N_s) and the attended features (N_s, H)."""
    feats = v2[cols]                                      # (k, N_s, H)
    diff = v1 - feats
    diff *= diff
    logits = diff.sum(axis=2) * -1.0                      # (k, N_s)
    del diff
    if absent is not None:
        logits[absent] = -np.inf
    # per-row shift: softmax-invariant, keeps exp in range
    exps = np.exp(logits - np.maximum.reduce(logits))
    # sums over the leading axis add neighbour rows in order, one at a time
    np.multiply(exps, _np_recip(exps.sum(axis=0)), out=weights)
    feats *= weights[:, :, None]
    feats.sum(axis=0, out=attended)


def _attention_vjp(v1, v2, cols, weights, attended, g, g1, g2) -> None:
    """knn_attention's VJP for one segment of rows: writes e1's gradient
    into g1 and, unless g2 is None, adds the rows' share of e2's into g2."""
    feats = v2[cols]                                      # (k, N_s, H)
    scratch = np.multiply(feats, g)
    # d loss / d logit_j = w_j (<g, f_j> - <g, attended>)
    glogit = weights * (scratch.sum(axis=2) - (g * attended).sum(axis=1))
    # d logit_j / d e1 = -2 (e1 - f_j) = -d logit_j / d f_j
    gdiff = np.subtract(v1, feats, out=feats)
    gdiff *= 2.0 * glogit[:, :, None]
    np.negative(gdiff.sum(axis=0), out=g1)
    if g2 is None:
        return
    del scratch
    gdiff += weights[:, :, None] * g
    # scatter-add the N_s·k rows at once, by flat (row, column) slot of the
    # rows lo:hi of e2 they touch
    h = v2.shape[1]
    lo, hi = cols.min(), cols.max() + 1
    slots = ((cols - lo).reshape(-1, 1) * h + np.arange(h)).ravel()
    g2[lo:hi] += np.bincount(slots, weights=gdiff.ravel(),
                             minlength=(hi - lo) * h).reshape(hi - lo, h)


def second_features(pair: ScenePair, use_color: bool) -> Tensor:
    """The tiny net's input for the second cloud: positions, then colours."""
    if use_color and not pair.pc2.has_colors:
        raise ValidationError("weights expect colors but the pair has none")
    pos2 = constant(pair.pc2.positions)
    return ad.concat(pos2, constant(pair.pc2.colors)) if use_color else pos2


def encode(x: Tensor, w: list[Tensor], bounds: Optional[list[int]] = None) -> Tensor:
    """The per-point encoder, the first two of the weight tensors' layers;
    `bounds` are the row offsets of the clouds x stacks (see dense)."""
    w1, b1, w2, b2 = w[:4]
    return dense(dense(x, w1, b1, True, bounds), w2, b2, True, bounds)


def _offsets(tensors) -> list[int]:
    """Row offsets [0, n0, n0 + n1, ...] of matrices stacked by rows."""
    out = [0]
    for t in tensors:
        out.append(out[-1] + t.shape[0])
    return out


def tiny_flow(pos1: list[Tensor], col1: list[Optional[Tensor]],
              pairs: list[ScenePair], w: list[Tensor], k_neighbors: int,
              idx: Optional[list[np.ndarray]] = None,
              e2: Optional[Tensor] = None) -> Tensor:
    """Differentiable tiny-net forward of a batch of pairs, rows stacked.

    pos1[p] and col1[p] (None without colours) are the first cloud of
    pairs[p], possibly perturbed; the flows come back stacked by rows, in
    pair order.  Neighbor indices are hard (recomputed from the current
    first-cloud positions against the unperturbed second cloud); gradients
    flow through the attention logits only.  `idx[p]` passes in
    knn_indices(pos1[p].data, pairs[p].pc2.positions, k_neighbors) when the
    caller already has it.

    Each layer is one node for the whole batch.  The encoder runs once over
    the rows [pair 0 pc1, pair 0 pc2, pair 1 pc1, ...]; one row-gather node
    takes the first clouds' encodings out, and the attention reads each
    pair's second-cloud rows through neighbour indices offset by that
    pair's row start.  dense works per cloud (encoder) or per pair (head),
    so every value and gradient has the bits of a tape with one sub-graph
    per pair.  `e2` passes in the second clouds' encodings, rows stacked in
    pair order (encode over the stacked second_features, one segment per
    cloud), when the caller already has them: the encoder then runs over
    the stacked first clouds alone, one segment per pair.
    """
    w3, b3, w4, b4 = w[4:]
    use_color = w[0].shape[0] == 6
    if use_color and any(c is None for c in col1):  # second_features checks pc2
        raise ValidationError("weights expect colors but the pair has none")

    f1 = [ad.concat(p, c) if use_color else p for p, c in zip(pos1, col1)]
    if idx is None:
        idx = [knn_indices(p.data, pair.pc2.positions, k_neighbors)
               for p, pair in zip(pos1, pairs)]
    heads = _offsets(f1)                                  # each pair's flow rows
    if e2 is None:
        clouds = [f for pair_f in zip(f1, (second_features(p, use_color) for p in pairs))
                  for f in pair_f]
        rows = _offsets(clouds)
        source = encode(ad.stack_rows(clouds), w, rows)   # (sum N + M, 32)
        e1 = ad.gather_rows(source, np.concatenate(
            [np.arange(s, e) for s, e in zip(rows[0:-1:2], rows[1::2])]))
        starts = rows[1::2]
    else:
        source, e1 = e2, encode(ad.stack_rows(f1), w, heads)
        starts = _offsets([pair.pc2.positions for pair in pairs])
    # each pair's neighbours, offset by its pc2's first row; -1 pads the
    # rows of a pair whose second cloud has fewer than k points
    neighbours = np.full((heads[-1], max(i.shape[1] for i in idx)), -1)
    for s, e, i, start in zip(heads[:-1], heads[1:], idx, starts):
        neighbours[s:e, :i.shape[1]] = i + start
    attended = knn_attention(e1, source, neighbours, heads)  # (sum N, 32)
    h = ad.concat(e1, attended)                           # (sum N, 64)
    return dense(dense(h, w3, b3, True, heads), w4, b4, False, heads)


# -- training -------------------------------------------------------------

def train_tiny(dataset: list[ScenePair], epochs: int,
               lr: float, seed: int) -> tuple[TinyNetWeights, list[float]]:
    """Plain full-gradient descent over shuffled minibatches of 4 pairs.

    Each step records one tape for its minibatch: tiny_flow runs each layer
    once over the batch's row-stacked pairs, and the loss is the mean of
    the pairs' EPEs.  The weights and the trace have the bits of a tape
    with one sub-graph per pair (see tiny_flow and dense).

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
            batch = order[start:start + batch_size]
            pairs = [dataset[i] for i in batch]
            g = Graph()
            try:
                w = [g.leaf(a) for a in arrays]
            except ad.DomainError as exc:  # the previous step's update overflowed
                raise TrainingError(f"non-finite weights at epoch {epoch}") from exc
            pos1 = [constant(p.pc1.positions) for p in pairs]
            col1 = [constant(p.pc1.colors) if with_color else None for p in pairs]
            pred = tiny_flow(pos1, col1, pairs, w, weights.k_neighbors,
                             idx=[neighbours[i] for i in batch])
            loss, _ = pair_epes(pred, [p.gt_flow for p in pairs], 1.0 / len(pairs))
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads = ad.backward(loss)
            for i, wt in enumerate(w):
                arrays[i] = arrays[i] - lr * grads[wt.node_id]
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    try:
        weights = weights.replace_arrays(arrays)
    except ValidationError as exc:  # the final step's update overflowed
        raise TrainingError(f"non-finite weights at epoch {epochs - 1}") from exc
    with np.errstate(over="ignore"):  # save_weights writes float32
        if not all(np.isfinite(a.astype(np.float32)).all() for a in arrays):
            raise TrainingError(f"weights beyond float32's range at epoch {epochs - 1}")
    return weights, trace


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
