"""Test-only primitives and the unrolled graphs the fused nodes replace.

The production tape records only what the estimators need.  The oracles in
conftest.py and the composite-graph recipes of test_autodiff.py build
their graphs from the generic primitives below, so their gradients come
from the engine's per-node VJPs: an independent check of each hand-written
VJP in sfattack.estimators.  add, sub and mul here broadcast further than
the engine's add and sub: a scalar, (1,1), (1,M), (M,) or (N,1) operand
meets an (N,M) one, and its gradient is summed back to its shape.
gather_rows here takes rows in any order, repeats included, where the
engine's takes strictly increasing rows only.
tmean and rownorm, the whole-tensor mean and the rowwise Euclidean norm,
are not in the engine: with its sub, they are the unfused chain that
estimators.pair_epes replaces, and generic reductions for the composite
graphs.
train_tiny_per_pair is the trainer that records one sub-graph per pair:
the reference for the bits of estimators.train_tiny, which stacks a
minibatch's pairs by rows.  loss_and_grads, pgd_per_pair and
run_experiment_per_pair attack and score one pair at a time, with one tape
per pair through Estimator.flow_tensor: the reference for the bits of the
batched attacks and of harness.run_experiment, which score a batch of
pairs per step.
"""

from dataclasses import replace

import numpy as np

from sfattack import autodiff as ad
from sfattack import estimators, harness
from sfattack.attacks import AttackResult, fgsm_config, random_attack
from sfattack.autodiff import DomainError, ShapeError, Tensor, constant
from sfattack.scene import PointCloud


def _broadcast_ok(sa, sb):
    if sa == sb:
        return
    for s, t in ((sa, sb), (sb, sa)):
        if s == () or s == (1, 1):
            return
        if len(t) == 2:
            n, m = t
            if s in ((m,), (1, m), (n, 1)):
                return
    raise ShapeError(f"cannot broadcast {sa} with {sb}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if shape == (1, 1):
        return g.sum().reshape(1, 1)
    n, m = g.shape
    if shape == (m,):
        return g.sum(axis=0)
    if shape == (1, m):
        return g.sum(axis=0, keepdims=True)
    if shape == (n, 1):
        return g.sum(axis=1, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")


def add(a, b) -> Tensor:
    a, b = ad._coerce(a), ad._coerce(b)
    _broadcast_ok(a.shape, b.shape)
    sa, sb = a.shape, b.shape
    return ad._emit("add", (a, b), a.data + b.data,
                    lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = ad._coerce(a), ad._coerce(b)
    _broadcast_ok(a.shape, b.shape)
    sa, sb = a.shape, b.shape
    return ad._emit("sub", (a, b), a.data - b.data,
                    lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = ad._coerce(a), ad._coerce(b)
    _broadcast_ok(a.shape, b.shape)
    va, vb = a.data, b.data
    sa, sb = a.shape, b.shape
    return ad._emit("mul", (a, b), va * vb,
                    lambda g: (_unbroadcast(g * vb, sa), _unbroadcast(g * va, sb)))


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


def tmean(a) -> Tensor:
    a = ad._coerce(a)
    shape = a.shape
    size = a.data.size
    if size == 0:
        raise ShapeError("mean of an empty tensor")
    return ad._emit("mean", (a,), np.asarray(a.data.mean()),
                    lambda g: (np.full(shape, float(g) / size),))


def rownorm(a) -> Tensor:
    """Rowwise Euclidean norm of a matrix; subgradient 0 at zero rows."""
    a = ad._coerce(a)
    if a.data.ndim != 2:
        raise ShapeError("rowwise-L2-norm expects a matrix")
    va = a.data
    value = np.sqrt((va * va).sum(axis=1))

    def vjp(g):
        safe = np.where(value > 0.0, value, 1.0)
        out = (g / safe)[:, None] * va
        out[value == 0.0] = 0.0
        return (out,)

    return ad._emit("rowwise-L2-norm", (a,), value, vjp)


def gather_rows(a, indices) -> Tensor:
    """Rows of a matrix picked by a flat index list in any order, unlike the
    engine's gather_rows; a row may repeat, and its gradient is then the
    sum of its copies' gradients."""
    a = ad._coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather-rows needs a matrix and a flat index list")
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
    row = ad.gather_rows(cost, [r])                       # (1, m)
    onehot = np.zeros((m, 1))
    onehot[c, 0] = 1.0
    med = ad.matmul(row, constant(onehot))                # (1, 1)
    return mul(cost, recip(med))


def unrolled_dense(x, w, b, relu_on: bool, bounds=None) -> Tensor:
    """estimators.dense as the matmul, bias add and relu nodes it fuses: one
    such graph per row segment of x, the segments' outputs stacked by rows."""
    if bounds is None or len(bounds) == 2:
        out = add(ad.matmul(x, w), b)
        return relu(out) if relu_on else out
    return ad.stack_rows([unrolled_dense(ad.gather_rows(x, np.arange(s, e)), w, b, relu_on)
                          for s, e in zip(bounds[:-1], bounds[1:])])


def per_pair_flow(pos1, col1, pair, w, idx) -> Tensor:
    """The tiny-net forward of one pair as its own sub-graph: both clouds
    encoded apart, the second cloud after the first."""
    dense = estimators.dense
    w1, b1, w2, b2, w3, b3, w4, b4 = w
    use_color = w1.shape[0] == 6
    f1 = ad.concat(pos1, col1) if use_color else pos1
    e1 = dense(dense(f1, w1, b1, True), w2, b2, True)
    f2 = estimators.second_features(pair, use_color)
    e2 = dense(dense(f2, w1, b1, True), w2, b2, True)
    h = ad.concat(e1, estimators.knn_attention(e1, e2, idx))
    return dense(dense(h, w3, b3, True), w4, b4, False)


def train_tiny_per_pair(dataset, epochs, lr, seed):
    """estimators.train_tiny with one sub-graph per pair on each minibatch's
    tape: each pair's loss is its own mean, the losses are added in batch
    order and scaled by 1/B."""
    with_color = dataset[0].pc1.has_colors
    weights = estimators.init_weights(6 if with_color else 3, seed)
    arrays = [a.copy() for a in weights.arrays()]
    rng = np.random.default_rng(seed)
    neighbours = [estimators.knn_indices(p.pc1.positions, p.pc2.positions,
                                         weights.k_neighbors) for p in dataset]
    trace = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), 4):
            batch = order[start:start + 4]
            g = ad.Graph()
            w = [g.leaf(a) for a in arrays]
            loss = None
            for i in batch:
                pair = dataset[i]
                col1 = constant(pair.pc1.colors) if with_color else None
                pred = per_pair_flow(constant(pair.pc1.positions), col1, pair, w,
                                     neighbours[i])
                term = estimators.epe_loss(pred, pair.gt_flow)
                loss = term if loss is None else ad.add(loss, term)
            loss = ad.smul(loss, 1.0 / len(batch))
            grads = ad.backward(loss)
            arrays = [a - lr * grads[t.node_id] for a, t in zip(arrays, w)]
            losses.append(float(loss.data))
        trace.append(float(np.mean(losses)))
    return arrays, trace


def loss_and_grads(est, pair, cloud):
    """(EPE, position gradient, colour gradient) of one pair at `cloud`, on
    its own tape through est.flow_tensor."""
    g = ad.Graph()
    pos1 = g.leaf(cloud.positions)
    col1 = g.leaf(cloud.colors) if cloud.has_colors else None
    loss = estimators.epe_loss(est.flow_tensor(pos1, col1, pair), pair.gt_flow)
    grads = ad.backward(loss)
    return (float(loss.data), grads[pos1.node_id],
            grads[col1.node_id] if col1 is not None else None)


def epe_per_pair(est, pair, cloud):
    """The forward-only EPE of one pair at `cloud`, through est.estimate."""
    return estimators.epe(est.estimate(replace(pair, pc1=cloud)), pair.gt_flow)


def pgd_per_pair(pair, est, cfg, seed=0, clean=None):
    """attacks.pgd_sf on one pair, one loss_and_grads per step."""
    cfg.mask.check(pair)
    pos = pair.pc1.positions
    col = pair.pc1.colors if pair.pc1.has_colors else None
    is_color = cfg.mask.domain == "colors"
    base = col if is_color else pos
    alpha = cfg.resolved_alpha()
    clamp = is_color and cfg.clamp_colors
    x = base.copy()
    if cfg.random_start:
        rng = np.random.default_rng(seed)
        x = x + rng.uniform(-cfg.eps, cfg.eps, size=x.shape) * cfg.mask.axis_row()
        if clamp:
            x = np.clip(x, 0.0, 1.0)
    for step in range(cfg.iters):
        if step == 0 and clean is not None and not cfg.random_start:
            grads = clean
        else:
            grads = loss_and_grads(est, pair, PointCloud(pos, x) if is_color
                                   else PointCloud(x, col))
        grad = (grads[2] if is_color else grads[1]) * cfg.mask.axis_row()
        if is_color:
            x = np.clip(x + alpha * np.sign(grad), base - cfg.eps, base + cfg.eps)
            if clamp:
                x = np.clip(x, 0.0, 1.0)
        else:
            x = base + np.clip((x - base) + alpha * np.sign(grad), -cfg.eps, cfg.eps)
    adv = PointCloud(pos, x) if is_color else PointCloud(x, col)
    return AttackResult(adv_pc1=adv, delta=x - base)


def run_experiment_per_pair(dataset, est, grid, seed):
    """harness.run_experiment's records, each pair and cell on its own: the
    pair's clean pass (or forward-only EPE) as its baseline, then one
    attack and one scoring pass per cell.  A baseline that fails with a
    numerical error leaves every record of the pair carrying it."""
    label = f"{est.tag}:{est.config_digest()}"
    records = []
    for pair in dataset:
        clean = before = base_error = None
        try:
            if any(entry.steps_from_clean(pair) for entry in grid):
                try:
                    clean = loss_and_grads(est, pair, pair.pc1)
                    before = clean[0]
                except DomainError:
                    pass
            if clean is None:
                before = epe_per_pair(est, pair, pair.pc1)
        except (ArithmeticError, DomainError) as exc:
            before, base_error = float("nan"), f"{type(exc).__name__}: {exc}"
        for entry in grid:
            rec_seed = harness._record_seed(seed, pair.id, entry.digest())
            error, after = base_error, before
            if error is None and entry.attack != "none":
                try:
                    if entry.attack == "random":
                        [res] = random_attack([pair], entry.config, [rec_seed])
                    else:
                        cfg = (fgsm_config(entry.config) if entry.attack == "fgsm"
                               else entry.config)
                        res = pgd_per_pair(pair, est, cfg, rec_seed, clean)
                    after = epe_per_pair(est, pair, res.adv_pc1)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                after = float("nan")
            cfg = entry.ran_config()
            records.append(harness.ExperimentRecord(
                pair_id=pair.id, estimator=label, attack=entry.attack,
                mask=entry.mask_spec(), eps=cfg.eps if cfg else 0.0,
                iters=cfg.iters if cfg else 0,
                alpha=cfg.resolved_alpha() if cfg else 0.0, seed=rec_seed,
                epe_before=before, epe_after=after,
                rel=None if error else 0.0 if entry.attack == "none"
                else harness._rel(before, after),
                wall_time_ms=0, error=error))
    records.sort(key=lambda r: (r.pair_id, r.attack, r.mask, r.seed))
    return records
