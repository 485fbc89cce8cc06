import itertools
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack import estimators, harness
from sfattack.attacks import AttackConfig, clean_pass, pgd_sf
from sfattack.autodiff import Graph, constant
from sfattack.scene import (
    FlowField,
    FormatError,
    LengthError,
    PointCloud,
    ScenePair,
    ValidationError,
)
from sfattack.estimators import (
    HIDDEN,
    NumericError,
    OTEstimator,
    TrainingError,
    TinyNetEstimator,
    TinyNetWeights,
    dense,
    epe,
    epe_loss,
    init_weights,
    knn_attention,
    knn_indices,
    load_weights,
    median_scale,
    pair_epes,
    save_weights,
    sinkhorn,
    tiny_flow,
    train_tiny,
    zero_flow_aepe,
    _check_marginal,
    _lower_median_index,
    _stable_smallest,
)
from sfattack.harness import GridEntry, _run_cell
from sfattack.synth import DatasetSpec, MotionSpec, make_dataset, make_pair

import oracle_ops as ops


class TestEpe:
    def test_exact_match_is_zero(self):
        f = np.random.default_rng(0).normal(size=(6, 3))
        assert epe(f, f) == 0.0

    def test_three_four_five(self):
        pred = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        gt = np.zeros((2, 3))
        assert epe(pred, gt) == pytest.approx(2.5, abs=1e-15)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred, gt = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        expect = np.mean([np.sqrt(sum((pred[i, k] - gt[i, k]) ** 2
                                      for k in range(3))) for i in range(7)])
        assert abs(epe(pred, gt) - expect) < 1e-12

    def test_accepts_flowfields(self):
        f = FlowField(np.ones((3, 3)))
        assert epe(f, f) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            epe(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_gradient(self):
        g = Graph()
        pred = g.leaf([[3.0, 4.0, 0.0]])
        grads = ad.backward(epe_loss(pred, np.zeros((1, 3))))
        assert np.allclose(grads[pred.node_id], [[0.6, 0.8, 0.0]])


class TestPairEpes:
    """The fused scoring node against the unfused chain it replaces: per
    pair, sub, rownorm and tmean on the pair's own flow leaf; the pairs'
    means added in pair order, then scaled, as a training step does."""

    @staticmethod
    def _batch(sizes, seed=0):
        rng = np.random.default_rng(seed)
        return ([rng.normal(size=(n, 3)) for n in sizes],
                [rng.normal(size=(n, 3)) for n in sizes])

    @staticmethod
    def _fused(flows, gts, scale):
        g = Graph()
        leaves = [g.leaf(f) for f in flows]
        root, means = pair_epes(ad.stack_rows(leaves), gts, scale)
        grads = ad.backward(root)
        return float(root.data), means, [grads[t.node_id] for t in leaves], g

    @staticmethod
    def _oracle(flows, gts, scale):
        g = Graph()
        leaves = [g.leaf(f) for f in flows]
        terms = [ops.tmean(ops.rownorm(ad.sub(t, constant(v)))) for t, v in zip(leaves, gts)]
        root = terms[0]
        for term in terms[1:]:
            root = ad.add(root, term)
        if scale != 1.0:
            root = ad.smul(root, scale)
        grads = ad.backward(root)
        return (float(root.data), [float(t.data) for t in terms],
                [grads[t.node_id] for t in leaves])

    @pytest.mark.parametrize("sizes, scale", [((7,), 1.0), ((5, 17, 11, 1), 1.0),
                                              ((5, 17, 11, 1), 1.0 / 3)],
                             ids=["one-pair", "ragged", "ragged-scaled"])
    def test_matches_unfused_chain(self, sizes, scale):
        # at scale 1/3, a pair of 11 rows tells (g * scale) / N from
        # g / N * scale and from (g * scale) * (1 / N), bit for bit
        flows, gts = self._batch(sizes)
        value, means, grads, g = self._fused(flows, gts, scale)
        want_value, want_means, want_grads = self._oracle(flows, gts, scale)
        assert repr(value) == repr(want_value)
        assert [repr(m) for m in means] == [repr(m) for m in want_means]
        assert [a.tobytes() for a in grads] == [a.tobytes() for a in want_grads]
        # one node scores the batch: the leaves, a stack-rows for B > 1, pair-epes
        assert len(g) == len(sizes) + (len(sizes) > 1) + 1

    def test_one_pair_is_epe_loss(self):
        (flow,), (gt,) = self._batch((9,), seed=1)
        g = Graph()
        leaf = g.leaf(flow)
        loss = epe_loss(leaf, FlowField(gt))
        assert [node.tag for node in g._nodes] == ["leaf", "pair-epes"]
        grad = ad.backward(loss)[leaf.node_id]
        value, means, (want,), _ = self._fused([flow], [gt], 1.0)
        assert loss.data.shape == () and float(loss.data) == value == means[0]
        assert grad.tobytes() == want.tobytes()

    def test_zero_norm_row_gets_zero_gradient(self):
        flows, gts = self._batch((4, 3), seed=2)
        gts[1][2] = flows[1][2]
        _, means, grads, _ = self._fused(flows, gts, 0.5)
        assert np.array_equal(grads[1][2], np.zeros(3))
        assert np.all(grads[1][:2] != 0.0) and np.all(grads[0] != 0.0)
        _, want_means, want_grads = self._oracle(flows, gts, 0.5)
        assert means == want_means
        assert [a.tobytes() for a in grads] == [a.tobytes() for a in want_grads]

    @pytest.mark.parametrize("flow, gts", [
        (np.zeros((5, 3)), [np.zeros((2, 3)), np.zeros((2, 3))]),
        (np.zeros((4, 3)), [np.zeros((2, 3)), np.zeros((2, 2))]),
        (np.zeros((2, 3)), [np.zeros((2, 3)), np.zeros((0, 3))]),
        (np.zeros((3, 3)), [np.zeros(3)]),
        (np.zeros(3), [np.zeros(3)]),
        (np.zeros((0, 3)), []),
    ], ids=["rows", "width", "empty-pair", "flat-gt", "flat-flow", "no-pairs"])
    def test_shape_mismatch(self, flow, gts):
        with pytest.raises(ad.ShapeError):
            pair_epes(flow, gts)

    def test_batch_rows_checked_per_pair(self):
        # 3 + 5 cloud rows against 5 + 3 flow vectors: the totals agree
        a, b = (make_pair(n, MotionSpec(angle=0.2), False, seed=n) for n in (5, 3))
        items = [(a, b.pc1), (b, a.pc1)]
        for est in (OTEstimator(sinkhorn_iters=3), TinyNetEstimator(init_weights(3, seed=0))):
            with pytest.raises(ad.ShapeError):
                est.losses_and_grads(items)
            with pytest.raises(ad.ShapeError):
                est.epes(items)

    def test_gradcheck(self):
        flows, gts = self._batch((4, 2, 5), seed=3)
        rep = ad.gradcheck(lambda x: pair_epes(x, gts, 1.0 / 3)[0], [np.concatenate(flows)])
        assert rep.passed and rep.n_coords == 33


class TestSinkhorn:
    def test_one_by_one(self):
        plan = sinkhorn(np.array([[3.7]]), reg=0.1, iters=5)
        assert np.array_equal(plan.data, [[1.0]])

    def test_two_by_two_permutation(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan = sinkhorn(cost, reg=0.1, iters=20).data
        assert np.abs(plan - np.eye(2)).max() < 1e-8

    def test_row_stochastic_and_nonnegative(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0.0, 4.0, size=(6, 9))
        plan = sinkhorn(cost, reg=0.5, iters=25).data
        assert np.abs(plan.sum(axis=1) - 1.0).max() < 1e-9
        assert plan.min() >= 0.0

    def test_direct_fixed_point_oracle(self):
        # replicate the iteration with plain numpy
        rng = np.random.default_rng(3)
        cost = rng.uniform(0.0, 2.0, size=(4, 5))
        scaled = cost / np.sort(cost, axis=None)[(cost.size - 1) // 2]
        k = np.exp(-scaled / 0.3)
        for _ in range(10):
            k = k / k.sum(axis=1, keepdims=True) / 4
            k = k / k.sum(axis=0, keepdims=True) / 5
        k = k / k.sum(axis=1, keepdims=True)
        plan = sinkhorn(cost, reg=0.3, iters=10).data
        assert np.abs(plan - k).max() < 1e-12

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            sinkhorn(np.zeros((2, 2)), reg=0.0, iters=5)
        with pytest.raises(ValidationError):
            sinkhorn(np.zeros((2, 2)), reg=0.1, iters=0)
        with pytest.raises(ad.DomainError):
            sinkhorn(np.array([[np.inf, 0.0]]), reg=0.1, iters=1)

    def test_underflow_raises_numeric_error(self):
        cost = np.array([[0.0, 1.0], [0.0, 1.0]]) * 1e6
        with pytest.raises(NumericError):
            sinkhorn(cost, reg=1e-6, iters=5)

    @pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which,shape", [("row", (5, 1)), ("column", (1, 5))])
    def test_degenerate_marginal_raises(self, bad, which, shape):
        v = np.full(shape, 0.2)
        _check_marginal(v, which)
        v.flat[3] = bad
        with pytest.raises(NumericError,
                           match=f"^degenerate {which} marginal in sinkhorn \\(underflow\\)$"):
            _check_marginal(v, which)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.5, 2.0, size=(3, 4))
        w = np.random.default_rng(5).normal(size=(3, 4))

        def scalar(cost_t):
            plan = sinkhorn(cost_t, reg=0.4, iters=8)
            return ops.tmean(ops.mul(plan, constant(w)))

        g = Graph()
        leaf = g.leaf(base)
        analytic = ad.backward(scalar(leaf))[leaf.node_id]

        h = 1e-6
        fd = np.zeros_like(base)
        for j in range(base.size):
            bp = base.copy(); bp.ravel()[j] += h
            bm = base.copy(); bm.ravel()[j] -= h
            fp = float(scalar(constant(bp)).data)
            fm = float(scalar(constant(bm)).data)
            fd.ravel()[j] = (fp - fm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        assert (np.abs(analytic - fd) / denom).max() < 1e-4


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def _colored_pair(n):
    return make_pair(n, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0)),
                     with_color=True, seed=0)


class TestFusedSinkhorn:
    @pytest.mark.parametrize("iters", [1, 30])
    @pytest.mark.parametrize("shape", [(6, 6), (5, 9), (9, 4)],
                             ids=["square", "wide", "tall"])
    def test_matches_unrolled(self, unrolled_sinkhorn, shape, iters):
        rng = np.random.default_rng(10 * shape[0] + shape[1] + iters)
        base = rng.uniform(0.0, 2.0, size=shape)
        w = constant(rng.normal(size=shape))
        out = []
        for fn in (sinkhorn, unrolled_sinkhorn):
            g = Graph()
            leaf = g.leaf(base)
            plan = fn(leaf, 0.1, iters)
            out.append((plan.data, ad.backward(ops.tmean(ops.mul(plan, w)))[leaf.node_id]))
        (plan, grad), (ref_plan, ref_grad) = out
        assert np.array_equal(plan, ref_plan)
        assert _rel_err(grad, ref_grad) < 1e-12

    @pytest.mark.parametrize("iters", [1, 2, 30])
    def test_matches_unrolled_default_reg(self, unrolled_sinkhorn, iters):
        # at the default reg K0 spans many magnitudes, so the backward's
        # rank-1 terms can cancel
        rng = np.random.default_rng(48 + iters)
        base = rng.uniform(0.0, 2.0, size=(48, 40))
        w = constant(rng.normal(size=(48, 40)))
        out = []
        for fn in (sinkhorn, unrolled_sinkhorn):
            g = Graph()
            leaf = g.leaf(base)
            plan = fn(leaf, OTEstimator().reg, iters)
            out.append((plan.data, ad.backward(ops.tmean(ops.mul(plan, w)))[leaf.node_id]))
        (plan, grad), (ref_plan, ref_grad) = out
        assert np.array_equal(plan, ref_plan)
        assert _rel_err(grad, ref_grad) < 1e-12
        assert np.array_equal(np.sign(grad), np.sign(ref_grad))

    def test_one_tape_node(self):
        g = Graph()
        sinkhorn(g.leaf(np.random.default_rng(0).uniform(size=(4, 5))), 0.1, 30)
        tags = [node.tag for node in g._nodes]
        assert tags.count("sinkhorn") == 1
        assert "row-sum" not in tags

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_ot_estimator_matches_unrolled(self, monkeypatch, unrolled_sinkhorn,
                                           with_color):
        pair = make_pair(64, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0),
                                        noise_sigma=0.01), with_color, seed=5)

        def loss_and_grads():
            g = Graph()
            pos1 = g.leaf(pair.pc1.positions)
            col1 = g.leaf(pair.pc1.colors) if with_color else None
            leaves = [t for t in (pos1, col1) if t is not None]
            loss = epe_loss(OTEstimator().flow_tensor(pos1, col1, pair), pair.gt_flow)
            grads = ad.backward(loss)
            return loss.data, [grads[t.node_id] for t in leaves]

        loss, grads = loss_and_grads()
        monkeypatch.setattr(estimators, "sinkhorn", unrolled_sinkhorn)
        ref_loss, ref_grads = loss_and_grads()
        assert np.array_equal(loss, ref_loss)
        for grad, ref in zip(grads, ref_grads):
            assert _rel_err(grad, ref) < 1e-12
            assert np.array_equal(np.sign(grad), np.sign(ref))

    def test_memory_bounded_in_n(self):
        # the unrolled tape held about 130 N x M arrays for one pass; the
        # fused pass peaks at 6.2, since the tape keeps only what VJPs read.
        # A batched pass holds every pair's tape at once, and is held to the
        # same bound on the pairs' summed N x M bytes (two pairs: 4.9).
        pair = _colored_pair(256)
        nm_bytes = pair.pc1.n_points * pair.pc2.n_points * 8
        tracemalloc.start()
        try:
            g = Graph()
            pos1, col1 = g.leaf(pair.pc1.positions), g.leaf(pair.pc1.colors)
            ad.backward(epe_loss(OTEstimator().flow_tensor(pos1, col1, pair),
                                 pair.gt_flow))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.75 * nm_bytes
        batch = [make_pair(256, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0)),
                           with_color=True, seed=s) for s in (1, 2)]
        tracemalloc.start()
        try:
            OTEstimator().losses_and_grads([(p, p.pc1) for p in batch])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.75 * sum(p.pc1.n_points * p.pc2.n_points * 8 for p in batch)

    def test_forward_keeps_what_vjps_read(self):
        # three N x M arrays: the squared distances and the summed cost, read
        # by the two median scalings' VJPs, and Sinkhorn's K0; plus the
        # scaling vectors
        pair = _colored_pair(256)
        nm_bytes = pair.pc1.n_points * pair.pc2.n_points * 8
        tracemalloc.start()
        try:
            g = Graph()
            pos1, col1 = g.leaf(pair.pc1.positions), g.leaf(pair.pc1.colors)
            flow = OTEstimator().flow_tensor(pos1, col1, pair)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert flow.shape == (256, 3)
        assert live <= 4 * nm_bytes

    def test_flow_does_not_pin_the_plan(self, monkeypatch):
        # the plan's gradient reads pos2, and no VJP reads the plan itself
        plans = []

        def recording_sinkhorn(cost, reg, iters):
            plan = sinkhorn(cost, reg, iters)
            plans.append(weakref.ref(plan.data))
            return plan

        monkeypatch.setattr(estimators, "sinkhorn", recording_sinkhorn)
        pair = _colored_pair(256)
        g = Graph()
        pos1, col1 = g.leaf(pair.pc1.positions), g.leaf(pair.pc1.colors)
        flow = OTEstimator().flow_tensor(pos1, col1, pair)
        assert len(plans) == 1 and plans[0]() is None
        grads = ad.backward(epe_loss(flow, pair.gt_flow))
        assert np.abs(grads[pos1.node_id]).max() > 0.0

    @pytest.mark.parametrize("with_color, nodes", [(False, 8), (True, 11)],
                             ids=["plain", "color"])
    def test_pass_tape(self, with_color, nodes):
        # leaf, pairwise-sqdist, median-scale twice, sinkhorn, matmul and sub,
        # then the loss's pair-epes; colors add a leaf, their pairwise-sqdist
        # and an add
        pair = make_pair(32, MotionSpec(angle=0.2), with_color, seed=8)
        g = Graph()
        pos1 = g.leaf(pair.pc1.positions)
        col1 = g.leaf(pair.pc1.colors) if with_color else None
        epe_loss(OTEstimator().flow_tensor(pos1, col1, pair), pair.gt_flow)
        tags = [node.tag for node in g._nodes]
        assert len(tags) == nodes
        assert tags.count("median-scale") == 2 and tags.count("sinkhorn") == 1
        assert not {"gather-rows", "exp", "log"} & set(tags)


class TestMedianScale:
    def test_median_entry_becomes_one(self):
        cost = np.array([[4.0, 1.0], [9.0, 16.0]])
        scaled = median_scale(constant(cost)).data
        # lower median of {1,4,9,16} is 4
        assert np.array_equal(scaled, cost / 4.0)

    def test_zero_cost_left_alone(self):
        cost = np.zeros((2, 2))
        assert np.array_equal(median_scale(constant(cost)).data, cost)

    def test_pick_matches_stable_argsort(self):
        rng = np.random.default_rng(11)
        for case in range(20_000):
            vals = rng.integers(-2, 3, size=rng.integers(1, 7, size=2)).astype(float)
            if case % 2:
                vals[rng.random(vals.shape) < 0.3] = np.inf
                vals[rng.random(vals.shape) < 0.2] = -np.inf
            if case % 3 == 0:  # NaNs sort last, and tie among themselves
                vals[rng.random(vals.shape) < rng.random()] = np.nan
            flat = vals.ravel()
            expect = np.argsort(flat, kind="stable")[(flat.size - 1) // 2]
            assert _lower_median_index(flat) == expect

    def test_gradient_marks_the_stable_pick(self):
        # d mean(C / c_rc) is 1/(S c_rc) everywhere but at the picked entry
        rng = np.random.default_rng(12)
        for _ in range(300):
            vals = rng.integers(1, 4, size=rng.integers(1, 6, size=2)).astype(float)
            g = Graph()
            leaf = g.leaf(vals)
            grad = ad.backward(ops.tmean(median_scale(leaf)))[leaf.node_id]
            expect = np.argsort(vals, axis=None, kind="stable")[(vals.size - 1) // 2]
            assert np.argmin(grad) == expect

    @pytest.mark.parametrize("case", ["tall", "wide", "integer-ties", "unscaled"])
    def test_matches_unrolled(self, case):
        rng = np.random.default_rng(13)
        cost = {
            "tall": lambda: rng.uniform(0.0, 3.0, size=(9, 4)),
            "wide": lambda: rng.uniform(0.0, 3.0, size=(4, 9)),
            "integer-ties": lambda: rng.integers(0, 4, size=(6, 7)).astype(float),
            # a lower median of 0 leaves the cost unscaled, with no node
            "unscaled": lambda: np.where(rng.random((5, 6)) < 0.7, 0.0, 1.0),
        }[case]()
        w = rng.normal(size=cost.shape)
        w[rng.random(cost.shape) < 0.2] = -0.0  # the unrolled graph's sum turns these to 0.0
        w = constant(w)
        out = []
        for fn in (median_scale, ops.unrolled_median_scale):
            g = Graph()
            leaf = g.leaf(cost)
            scaled = fn(leaf)
            grad = ad.backward(ops.tmean(ops.mul(scaled, w)))[leaf.node_id]
            out.append((scaled.data.tobytes(), grad.tobytes()))
        assert out[0] == out[1]

    @pytest.mark.parametrize("n1, nan_rows", [(16, [3]), (1, [0]), (4, [0, 1, 2])],
                             ids=["one-row", "all-nan", "nan-median"])
    def test_nan_point_error_record(self, n1, nan_rows):
        # with most rows NaN the lower median itself is NaN
        pair = make_pair(16, MotionSpec(angle=0.2), with_color=False, seed=0)
        pos = pair.pc1.positions[:n1].copy()
        pos[nan_rows, 1] = np.nan
        bad = ScenePair(PointCloud(pos), pair.pc2,
                        FlowField(pair.gt_flow.vectors[:n1]), "nan")
        [rec] = _run_cell([bad], OTEstimator(), "ot:test",
                          GridEntry("random", AttackConfig(eps=0.1)), [(0.5, None)], 0, False)
        assert rec.error == "DomainError: cost must be finite"
        assert np.isnan(rec.epe_after)


class TestOTEstimator:
    def test_identity_pair(self):
        rng = np.random.default_rng(6)
        # well-separated points so the plan concentrates on the diagonal
        pos = rng.uniform(-1, 1, size=(9, 3)) * 3.0
        pair = ScenePair(PointCloud(pos), PointCloud(pos),
                         FlowField(np.zeros((9, 3))), "ident")
        est = OTEstimator(reg=0.01)
        flow = est.estimate(pair).vectors
        assert np.abs(flow).max() < 1e-3

    def test_translation_recovery(self):
        xs = np.linspace(-0.75, 0.75, 4)
        gridpts = np.array([[x, y, 0.0] for x in xs for y in xs])
        t = np.array([0.05, -0.03, 0.02])
        pair = ScenePair(PointCloud(gridpts), PointCloud(gridpts + t),
                         FlowField(np.tile(t, (16, 1))), "shift")
        flow = OTEstimator().estimate(pair).vectors
        assert np.abs(flow - t).max() < 1e-2

    def test_single_point_exact(self):
        a, b = np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, -0.5, 0.25]])
        pair = ScenePair(PointCloud(a), PointCloud(b), None, "one")
        flow = OTEstimator().estimate(pair).vectors
        assert np.allclose(flow, b - a, atol=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        p1 = rng.uniform(-1, 1, size=(12, 3))
        p2 = rng.uniform(-1, 1, size=(12, 3))
        est = OTEstimator()
        base = est.estimate(ScenePair(PointCloud(p1), PointCloud(p2), None, "a")).vectors
        shift = np.array([5.0, -3.0, 2.0])
        moved = est.estimate(ScenePair(PointCloud(p1 + shift), PointCloud(p2 + shift),
                                       None, "b")).vectors
        assert np.abs(base - moved).max() < 1e-9

    def test_color_changes_matching(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(-1, 1, size=(8, 3))
        colors = rng.uniform(size=(8, 3))
        pair_plain = ScenePair(PointCloud(pos), PointCloud(pos + 0.1), None, "p")
        pair_color = ScenePair(PointCloud(pos, colors),
                               PointCloud(pos + 0.1, colors[::-1].copy()), None, "c")
        est = OTEstimator(reg=0.1)
        f_plain = est.estimate(pair_plain).vectors
        f_color = est.estimate(pair_color).vectors
        assert np.abs(f_plain - f_color).max() > 1e-3

    def test_digest_depends_on_config(self):
        assert (OTEstimator(reg=0.02).config_digest()
                != OTEstimator(reg=0.05).config_digest())

    @pytest.mark.parametrize("kwargs, digest", [({}, "1ee4a7dc357a"),
                                                ({"sinkhorn_iters": 15}, "38b40bc502ae")],
                             ids=["default", "iters15"])
    def test_digest_pinned(self, kwargs, digest):
        # report labels (ot:<digest>) and perfbench's reference reports pin these
        assert OTEstimator(**kwargs).config_digest() == digest

    @pytest.mark.parametrize("kwargs", [{"reg": 0.0}, {"reg": -1.0}, {"sinkhorn_iters": 0}],
                             ids=["reg0", "reg-neg", "iters0"])
    def test_bad_config_rejected_at_construction(self, kwargs):
        with pytest.raises(ValidationError):
            OTEstimator(**kwargs)


@pytest.mark.parametrize("method", ["epes", "losses_and_grads"])
@pytest.mark.parametrize("kind", ["ot", "tiny"])
def test_scoring_requires_gt_flow(kind, method):
    # every score is against the ground truth, so a pair without it is bad input
    pair = make_pair(8, MotionSpec(angle=0.1), with_color=False, seed=0)
    bare = ScenePair(pair.pc1, pair.pc2, None, "bare")
    est = OTEstimator() if kind == "ot" else TinyNetEstimator(init_weights(3, seed=0))
    with pytest.raises(ValidationError, match="^attack requires a pair with gt_flow$"):
        getattr(est, method)([(pair, pair.pc1), (bare, bare.pc1)])


class TestTinyNet:
    def test_knn_indices(self):
        q = np.array([[0.0, 0.0, 0.0]])
        pts = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        assert knn_indices(q, pts, 2).tolist() == [[1, 2]]

    def test_knn_clamps_k(self):
        q = np.zeros((2, 3))
        pts = np.ones((3, 3))
        assert knn_indices(q, pts, 10).shape == (2, 3)

    def test_zero_head_gives_zero_flow(self):
        w = init_weights(3, seed=0)
        w.w4 = np.zeros_like(w.w4)
        w.b4 = np.zeros_like(w.b4)
        pair = make_pair(10, MotionSpec(translation=(0.1, 0.0, 0.0)),
                         with_color=False, seed=1)
        flow = TinyNetEstimator(w).estimate(pair).vectors
        assert np.array_equal(flow, np.zeros((10, 3)))

    def test_output_shape_and_determinism(self):
        w = init_weights(6, seed=1)
        pair = make_pair(12, MotionSpec(angle=0.2), with_color=True, seed=2)
        est = TinyNetEstimator(w)
        f1, f2 = est.estimate(pair).vectors, est.estimate(pair).vectors
        assert f1.shape == (12, 3)
        assert np.array_equal(f1, f2)

    def test_color_weights_require_colors(self):
        w = init_weights(6, seed=1)
        pair = make_pair(5, MotionSpec(), with_color=False, seed=3)
        with pytest.raises(ValidationError):
            TinyNetEstimator(w).estimate(pair)

    def test_color_weights_require_first_cloud_colors(self):
        # the second cloud has colours, the first has none
        w = init_weights(6, seed=1)
        pair = make_pair(5, MotionSpec(), with_color=True, seed=3)
        plain = replace(pair, pc1=PointCloud(pair.pc1.positions))
        with pytest.raises(ValidationError, match="weights expect colors but the pair has none"):
            TinyNetEstimator(w).estimate(plain)

    def test_k_neighbors_at_least_one(self):
        with pytest.raises(ValidationError, match="k_neighbors must be >= 1"):
            init_weights(3, seed=0, k_neighbors=0)

    def test_weight_shape_validation(self):
        w = init_weights(3, seed=0)
        with pytest.raises(ValidationError):
            TinyNetWeights(w.w1, w.b1, np.zeros((HIDDEN, HIDDEN + 1)), w.b2,
                           w.w3, w.b3, w.w4, w.b4)
        with pytest.raises(ValidationError):
            init_weights(4, seed=0)

    def test_weights_are_read_only(self):
        w = init_weights(3, seed=0)
        for arr in w.arrays():
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            w.w1[0, 0] = 1.0

    @pytest.fixture
    def encodes(self, monkeypatch):
        """The calls to second_features, one per encoding of a second cloud."""
        calls = []
        real = estimators.second_features
        monkeypatch.setattr(estimators, "second_features",
                            lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_pair_encodes_second_cloud_once(self, encodes, with_color):
        # a clean pass, PGD's steps and the scoring pass of the attacked pair
        # all share pc2: it is encoded once, and every flow keeps its bits
        w = init_weights(6 if with_color else 3, seed=7)
        pair = make_pair(24, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0),
                                        noise_sigma=0.02), with_color, seed=8)
        cfg = AttackConfig(eps=0.05, iters=4, random_start=True)

        class Fresh(TinyNetEstimator):
            # no memo: tiny_flow encodes pc2 itself on every pass
            def flow_tensor(self, pos1, col1, pair):
                w = [constant(a) for a in self.weights.arrays()]
                return tiny_flow([pos1], [col1], [pair], w, self.weights.k_neighbors)

        ref = Fresh(w)
        ref_clean = ops.loss_and_grads(ref, pair, pair.pc1)
        ref_adv = ops.pgd_per_pair(pair, ref, cfg, seed=5, clean=ref_clean).adv_pc1
        ref_flow = ref.estimate(replace(pair, pc1=ref_adv)).vectors
        encodes.clear()

        est = TinyNetEstimator(w)
        [clean] = clean_pass([pair], est)
        adv = pgd_sf([pair], est, cfg, seeds=[5], clean=[clean])[0].adv_pc1
        flow = est.estimate(replace(pair, pc1=adv)).vectors
        assert len(encodes) == 1
        assert clean[0] == ref_clean[0]
        assert [g.tobytes() for g in clean[1:] if g is not None] == \
            [g.tobytes() for g in ref_clean[1:] if g is not None]
        assert adv.positions.tobytes() == ref_adv.positions.tobytes()
        assert flow.tobytes() == ref_flow.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_encodes_each_second_cloud_once(self, encodes, jobs):
        # 16 pairs over two batches: each batch's baselines and tasks share
        # its second clouds' encoding, whatever the thread count
        data = make_dataset(16, DatasetSpec(n_points=40, angle_range=(0.0, 0.2)), seed=4)
        assert len(harness.batches(data)) == 2
        grid = [GridEntry("none"), GridEntry("fgsm", AttackConfig(eps=0.1)),
                GridEntry("pgd", AttackConfig(eps=0.1, iters=3)),
                GridEntry("random", AttackConfig(eps=0.1))]
        harness.run_experiment(data, TinyNetEstimator(init_weights(3, seed=1)), grid,
                               seed=0, jobs=jobs)
        assert sorted(pair.id for pair, _ in encodes) == sorted(p.id for p in data)

    def test_new_pair_or_weights_reencode(self, encodes):
        a, b = (make_pair(10, MotionSpec(angle=0.1), False, seed=s) for s in (1, 2))
        est = TinyNetEstimator(init_weights(3, seed=0))
        flows = [est.estimate(p).vectors for p in (a, a, b, a)]
        assert len(encodes) == 3
        assert flows[0].tobytes() == flows[1].tobytes() == flows[3].tobytes()
        est.weights = init_weights(3, seed=1)
        fresh = TinyNetEstimator(est.weights).estimate(a).vectors
        assert est.estimate(a).vectors.tobytes() == fresh.tobytes()
        assert len(encodes) == 5
        # a batch whose second clouds start with a's is another key
        encodes.clear()
        items = [(a, a.pc1), (b, b.pc1)]
        assert est.epes(items) == [epe(est.estimate(p), p.gt_flow) for p in (a, b)]
        assert est.epes(items[:1]) == est.epes(items)[:1]
        assert [p.id for p, _ in encodes] == [a.id, b.id, a.id, b.id, a.id, a.id, b.id]

    def test_shared_memo_under_threads(self):
        # four threads on two CPUs, switching every microsecond, each
        # alternating between pairs: a stale encoding would move a flow
        pairs = [make_pair(16, MotionSpec(angle=0.1 * s), False, seed=s) for s in range(3)]
        w = init_weights(3, seed=2)
        expect = [TinyNetEstimator(w).estimate(p).vectors.tobytes() for p in pairs]
        est = TinyNetEstimator(w)

        def work(start):
            return [(i % 3, est.estimate(pairs[i % 3]).vectors.tobytes())
                    for i in range(start, start + 60)]

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, t) for t in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(saved)
        for got in results:
            assert all(flow == expect[i] for i, flow in got)

    def test_gradient_reaches_positions(self):
        w = init_weights(3, seed=202)
        pair = make_pair(8, MotionSpec(angle=0.25, translation=(0.1, 0.0, 0.0),
                                       noise_sigma=0.03), with_color=False, seed=4)
        g = Graph()
        pos1 = g.leaf(pair.pc1.positions)
        pred = tiny_flow([pos1], [None], [pair], [constant(a) for a in w.arrays()], 8)
        grads = ad.backward(epe_loss(pred, pair.gt_flow))
        assert np.abs(grads[pos1.node_id]).max() > 0.0


class TestDense:
    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("track_x", [True, False], ids=["tracked-x", "constant-x"])
    def test_matches_unrolled(self, relu, track_x):
        rng = np.random.default_rng(3 * relu + track_x)
        x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4))
        out_w = constant(rng.normal(size=(7, 4)))
        out = []
        for fn in (dense, ops.unrolled_dense):
            g = Graph()
            leaves = [g.leaf(x) if track_x else constant(x), g.leaf(w), g.leaf(b)]
            y = fn(*leaves, relu)
            grads = ad.backward(ops.tmean(ops.mul(y, out_w)))
            out.append([y.data.tobytes()] + [grads[t.node_id].tobytes()
                                             for t in leaves if t.graph is not None])
        assert out[0] == out[1]
        assert len(out[0]) == (4 if track_x else 3)

    @pytest.mark.parametrize("bounds", [[0, 4, 8], [0, 3, 8], [0, 1, 6, 8]],
                             ids=["even", "ragged", "three"])
    @pytest.mark.parametrize("tracked", ["xwb", "wb", "x"],
                             ids=["tracked-x", "constant-x", "constant-weights"])
    def test_segments_match_unrolled(self, bounds, tracked):
        # one node over row-stacked segments against one unrolled graph per
        # segment: the value and the weight gradients keep every bit; with
        # constant weights, as in an attack pass, x's gradient is all the VJP
        # computes
        rng = np.random.default_rng(len(bounds) + 5 * ("x" in tracked))
        x, w, b = rng.normal(size=(8, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4))
        out_w = constant(rng.normal(size=(8, 4)))
        out = []
        for fn in (dense, ops.unrolled_dense):
            g = Graph()
            leaves = {name: g.leaf(a) if name in tracked else constant(a)
                      for name, a in zip("xwb", (x, w, b))}
            y = fn(*leaves.values(), True, bounds)
            grads = ad.backward(ops.tmean(ops.mul(y, out_w)))
            out.append((y.data, {name: grads[t.node_id] for name, t in leaves.items()
                                 if t.graph is not None}))
        (y, grads), (ref_y, ref_grads) = out
        assert y.tobytes() == ref_y.tobytes()
        assert set(grads) == set(ref_grads) == set(tracked)
        for name in set(tracked) - {"x"}:
            assert grads[name].tobytes() == ref_grads[name].tobytes()
        if "x" in tracked:  # the unrolled graph's scatter adds 0.0, which turns -0.0 into 0.0
            assert np.array_equal(grads["x"], ref_grads["x"])

    def test_constant_x_skips_gradient(self):
        rng = np.random.default_rng(4)
        g = Graph()
        y = dense(constant(rng.normal(size=(6, 3))), g.leaf(rng.normal(size=(3, 2))),
                  g.leaf(np.zeros((1, 2))), True)
        gx, gw, gb = g._nodes[y.node_id].vjp(np.ones((6, 2)))
        assert gx is None and gw.shape == (3, 2) and gb.shape == (1, 2)

    def test_constant_weights_skip_gradients(self):
        # an attack pass: only x is tracked, so the VJP computes x's gradient
        rng = np.random.default_rng(6)
        g = Graph()
        w = rng.normal(size=(3, 2))
        x = g.leaf(rng.normal(size=(6, 3)))
        y = dense(x, constant(w), constant(np.zeros((1, 2))), True)
        g_out = np.ones((6, 2))
        gx, gw, gb = g._nodes[y.node_id].vjp(g_out)
        assert gw is None and gb is None
        assert gx.tobytes() == ((g_out * (y.data > 0.0)) @ w.T).tobytes()

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    def test_gradcheck(self, relu):
        rng = np.random.default_rng(5)
        out_w = constant(rng.normal(size=(6, 3)))
        rep = ad.gradcheck(lambda x, w, b: ops.tmean(ops.mul(dense(x, w, b, relu), out_w)),
                           [rng.normal(size=(6, 4)), rng.normal(size=(4, 3)),
                            rng.normal(size=(1, 3))])
        assert rep.passed and rep.n_coords == 24 + 12 + 3

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_training_matches_unrolled(self, monkeypatch, with_color):
        ds = DatasetSpec(n_points=16, with_color=with_color, angle_range=(0.0, 0.2),
                         translation_scale=0.15)
        data = make_dataset(8, ds, seed=22)
        weights, trace = train_tiny(data, epochs=4, lr=0.1, seed=3)
        monkeypatch.setattr(estimators, "dense", ops.unrolled_dense)
        ref_weights, ref_trace = train_tiny(data, epochs=4, lr=0.1, seed=3)
        assert save_weights(weights) == save_weights(ref_weights)
        assert trace == ref_trace


def _attention_leaves(n, m, seed):
    rng = np.random.default_rng(seed)
    q, p = rng.uniform(-1, 1, size=(n, 3)), rng.uniform(-1, 1, size=(m, 3))
    return rng.normal(size=(n, HIDDEN)), rng.normal(size=(m, HIDDEN)), q, p


class TestKnnAttention:
    @pytest.mark.parametrize("n, m, k", [(9, 9, 1), (12, 7, 8), (5, 11, 8), (6, 4, 10)],
                             ids=["k1", "tall", "wide", "k-clamped"])
    def test_matches_looped(self, looped_attention, n, m, k):
        e1, e2, q, p = _attention_leaves(n, m, seed=n * m + k)
        idx = knn_indices(q, p, k)
        w = constant(np.random.default_rng(k).normal(size=(n, HIDDEN)))
        out = []
        for fn in (knn_attention, looped_attention):
            g = Graph()
            t1, t2 = g.leaf(e1), g.leaf(e2)
            att = fn(t1, t2, idx)
            grads = ad.backward(ops.tmean(ops.mul(att, w)))
            out.append((att.data, grads[t1.node_id], grads[t2.node_id]))
        (att, g1, g2), (ref_att, ref_g1, ref_g2) = out
        assert np.array_equal(att, ref_att)
        for grad, ref in ((g1, ref_g1), (g2, ref_g2)):
            # with k = 1 the weights are constant 1 and e1's gradient is 0
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_node_with_constant_e2(self):
        e1, e2, q, p = _attention_leaves(6, 8, seed=3)
        g = Graph()
        t1 = g.leaf(e1)
        loss = ops.tmean(knn_attention(t1, constant(e2), knn_indices(q, p, 3)))
        assert [node.tag for node in g._nodes] == ["leaf", "knn-attention", "mean"]
        assert np.abs(ad.backward(loss)[t1.node_id]).max() > 0.0

    @pytest.mark.parametrize("n, m, k", [(12, 7, 8), (5, 11, 3)], ids=["tall", "wide"])
    def test_constant_e2_skips_scatter(self, n, m, k):
        # e2's gradient is dropped, and e1's keeps every bit
        e1, e2, q, p = _attention_leaves(n, m, seed=n + m)
        idx = knn_indices(q, p, k)
        g_out = np.random.default_rng(n).normal(size=(n, HIDDEN))
        vjps = []
        for track_e2 in (False, True):
            g = Graph()
            t1 = g.leaf(e1)
            t2 = g.leaf(e2) if track_e2 else constant(e2)
            att = knn_attention(t1, t2, idx)
            vjps.append(g._nodes[att.node_id].vjp(g_out))
        (g1, g2), (ref_g1, ref_g2) = vjps
        assert g2 is None and ref_g2.shape == (m, HIDDEN)
        assert g1.tobytes() == ref_g1.tobytes()

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_tiny_flow_matches_looped(self, monkeypatch, looped_attention, with_color):
        pair = make_pair(24, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0),
                                        noise_sigma=0.02, drop_fraction=0.25),
                         with_color, seed=6)
        w = init_weights(6 if with_color else 3, seed=7)

        def flow_and_grads():
            g = Graph()
            pos1 = g.leaf(pair.pc1.positions)
            col1 = g.leaf(pair.pc1.colors) if with_color else None
            params = [g.leaf(a) for a in w.arrays()]
            pred = tiny_flow([pos1], [col1], [pair], params, w.k_neighbors)
            grads = ad.backward(epe_loss(pred, pair.gt_flow))
            leaves = [t for t in (pos1, col1) if t is not None] + params
            return pred.data, [grads[t.node_id] for t in leaves]

        pred, grads = flow_and_grads()
        monkeypatch.setattr(estimators, "knn_attention", looped_attention)
        ref_pred, ref_grads = flow_and_grads()
        assert np.array_equal(pred, ref_pred)
        for grad, ref in zip(grads, ref_grads):
            assert _rel_err(grad, ref) < 1e-12
            assert np.array_equal(np.sign(grad), np.sign(ref))

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_training_matches_looped(self, monkeypatch, looped_attention, with_color):
        ds = DatasetSpec(n_points=16, with_color=with_color, angle_range=(0.0, 0.2),
                         translation_scale=0.15)
        data = make_dataset(8, ds, seed=21)
        weights, trace = train_tiny(data, epochs=4, lr=0.1, seed=2)
        monkeypatch.setattr(estimators, "knn_attention", looped_attention)
        ref_weights, ref_trace = train_tiny(data, epochs=4, lr=0.1, seed=2)
        # gradients agree to rounding, which the 32-bit weight file absorbs
        assert save_weights(weights) == save_weights(ref_weights)
        assert np.abs(np.subtract(trace, ref_trace)).max() <= 1e-12 * max(ref_trace)

    def test_segments_match_one_node_each(self):
        # three segments, each attending over its own block of e2 rows, one
        # of them with fewer rows than k (its rows padded with -1): one node
        # gives each segment's value and gradients bit for bit
        rng = np.random.default_rng(9)
        sizes = [(12, 9), (7, 5), (10, 14)]
        parts = [_attention_leaves(n, m, seed=n + m) for n, m in sizes]
        idx = [knn_indices(q, p, 8) for _, _, q, p in parts]
        g_out = [rng.normal(size=(n, HIDDEN)) for n, _ in sizes]
        ref = []
        for (e1, e2, _, _), i, g_p in zip(parts, idx, g_out):
            g = Graph()
            att = knn_attention(g.leaf(e1), g.leaf(e2), i)
            ref.append((att.data, *g._nodes[att.node_id].vjp(g_p)))
        e2_rows = np.cumsum([0] + [m for _, m in sizes])
        stacked = np.full((sum(n for n, _ in sizes), 8), -1)
        stacked[:12] = idx[0]
        stacked[12:19, :5] = idx[1] + e2_rows[1]
        stacked[19:] = idx[2] + e2_rows[2]
        g = Graph()
        att = knn_attention(g.leaf(np.concatenate([p[0] for p in parts])),
                            g.leaf(np.concatenate([p[1] for p in parts])),
                            stacked, [0, 12, 19, 29])
        g1, g2 = g._nodes[att.node_id].vjp(np.concatenate(g_out))
        got = [(att.data[s:e], g1[s:e], g2[a:b]) for s, e, a, b in
               zip([0, 12, 19], [12, 19, 29], e2_rows[:-1], e2_rows[1:])]
        for parts_got, parts_ref in zip(got, ref):
            assert [a.tobytes() for a in parts_got] == [a.tobytes() for a in parts_ref]

    def test_attack_pass_tape(self):
        # leaf, four dense, knn-attention and concat, then the loss's
        # pair-epes; colors add a leaf and the concat of the input features
        for with_color, nodes in ((False, 8), (True, 10)):
            pair = make_pair(32, MotionSpec(angle=0.2), with_color=with_color, seed=8)
            est = TinyNetEstimator(init_weights(6 if with_color else 3, seed=0))
            g = Graph()
            col1 = g.leaf(pair.pc1.colors) if with_color else None
            epe_loss(est.flow_tensor(g.leaf(pair.pc1.positions), col1, pair), pair.gt_flow)
            tags = [node.tag for node in g._nodes]
            assert len(tags) == nodes
            assert tags.count("knn-attention") == 1
            assert tags.count("dense") == 4  # the second cloud's encoding is constant
            assert not {"gather-rows", "row-sum", "relu", "matmul", "add"} & set(tags)


class TestKnnSelection:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(13)
        tied = rows = 0
        for case in range(20_000):
            d = rng.integers(-2, 3, size=rng.integers(1, 9, size=2)).astype(float)
            if case % 2:
                d[rng.random(d.shape) < 0.3] = np.inf
                d[rng.random(d.shape) < 0.2] = -np.inf
            if case % 5 == 4:
                d[rng.random(d.shape) < 0.2] = np.nan
            k = int(rng.integers(1, d.shape[1] + 1))
            expect = np.argsort(d, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_stable_smallest(d, k), expect)
            kth = np.sort(d, axis=1)[:, k - 1:k]
            tied += np.count_nonzero(np.count_nonzero(d <= kth, axis=1) != k)
            rows += d.shape[0]
        # both ways of picking the k run often: rows tied at place k (or
        # with a NaN kth value) and rows where selection alone decides
        assert 0.2 < tied / rows < 0.8

    def test_mixed_rows(self):
        # untied rows, rows tied across place k, rows whose kth value is NaN
        # (or inf, or -inf) and a row tied inside the k, in one matrix
        nan, inf = np.nan, np.inf
        d = np.array([
            [5.0, 1.0, 4.0, 2.0, 3.0, 0.5],
            [2.0, 1.0, 2.0, 0.0, 2.0, 3.0],
            [nan, 0.0, nan, nan, 1.0, nan],
            [1.0, 1.0, 0.0, 9.0, 8.0, 7.0],
            [inf, 0.0, inf, nan, inf, -inf],
            [3.0, -inf, -inf, -inf, -inf, 1.0],
            [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
            [nan, nan, nan, nan, nan, nan],
        ])
        for k in range(1, d.shape[1] + 1):
            expect = np.argsort(d, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_stable_smallest(d, k), expect), k
        assert _stable_smallest(d, 3).tolist()[:3] == [[5, 1, 3], [3, 1, 0], [1, 4, 0]]

    @pytest.mark.parametrize("kind", ["integer", "huge", "permuted"])
    def test_clouds_match_stable_argsort(self, kind):
        # integer clouds tie often; at 1e200 most distances overflow to inf.
        # The six coordinate permutations of one vector, seen from the
        # origin, differ in distance only by rounding, so their order needs
        # the distances bit for bit (scales 1e-3..1e3).
        rng = np.random.default_rng(14)

        def clouds():
            if kind == "permuted":
                v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
                return np.zeros((1, 3)), v[list(itertools.permutations(range(3)))]
            scale = 1e200 if kind == "huge" else 1.0
            return tuple(rng.integers(-2, 3, size=(rng.integers(1, 10), 3)) * scale
                         for _ in range(2))

        with np.errstate(over="ignore"):
            for _ in range(500):
                q, p = clouds()
                d = ((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
                for k in (1, 3, 8, 12):
                    expect = np.argsort(d, axis=1, kind="stable")[:, :k]
                    assert np.array_equal(knn_indices(q, p, k), expect)


class TestWeightFile:
    def test_round_trip(self):
        w = init_weights(6, seed=9, k_neighbors=5)
        back = load_weights(save_weights(w))
        assert back.k_neighbors == 5
        assert back.in_dim == 6
        # stored values are 32-bit, so save(load(x)) is a fixed point
        assert save_weights(back) == save_weights(w)

    def test_byte_length(self):
        w = init_weights(3, seed=0)
        n_params = sum(a.size for a in w.arrays()) + 1
        assert len(save_weights(w)) == 4 + 4 + 9 * 8 + 4 * n_params

    def test_bad_magic(self):
        blob = bytearray(save_weights(init_weights(3, seed=0)))
        blob[:4] = b"NOPE"
        with pytest.raises(FormatError):
            load_weights(bytes(blob))

    def test_truncated(self):
        blob = save_weights(init_weights(3, seed=0))
        with pytest.raises(LengthError):
            load_weights(blob[:-3])
        with pytest.raises(LengthError):
            load_weights(blob + b"\x00")
        with pytest.raises(LengthError):
            load_weights(blob[:6])

    def test_wrong_layer_count(self):
        blob = bytearray(save_weights(init_weights(3, seed=0)))
        blob[4] = 7
        with pytest.raises(FormatError):
            load_weights(bytes(blob))


class TestTraining:
    def _dataset(self, n_pairs=8, seed=20):
        ds = DatasetSpec(n_points=16, kind="rigid", angle_range=(0.0, 0.2),
                         translation_scale=0.15)
        return make_dataset(n_pairs, ds, seed=seed)

    def test_loss_decreases(self):
        data = self._dataset()
        _, trace = train_tiny(data, epochs=8, lr=0.1, seed=0)
        assert trace[-1] < trace[0]

    def test_same_seed_identical_weights(self):
        data = self._dataset()
        w1, t1 = train_tiny(data, epochs=3, lr=0.1, seed=5)
        w2, t2 = train_tiny(data, epochs=3, lr=0.1, seed=5)
        assert save_weights(w1) == save_weights(w2)
        assert t1 == t2

    def test_requires_gt(self):
        pair = make_pair(8, MotionSpec(), with_color=False, seed=0)
        stripped = ScenePair(pair.pc1, pair.pc2, None, pair.id)
        with pytest.raises(ValidationError):
            train_tiny([stripped], epochs=1, lr=0.1, seed=0)

    def test_empty_training_set(self):
        with pytest.raises(ValidationError, match="empty training set"):
            train_tiny([], epochs=1, lr=0.1, seed=0)

    @pytest.mark.parametrize("n_pairs, epochs, lr, message, cause", [
        # the weights overflow to inf, which the next step's leaves reject
        (8, 30, 1e10, "non-finite weights at epoch 2", ad.DomainError),
        (8, 30, 1e300, "non-finite loss at epoch 0", None),
        # the final step's update overflows: no later step reads it
        (4, 2, 1e150, "non-finite weights at epoch 1", ValidationError),
        # finite in float64, but beyond the float32 the weight file stores
        (8, 30, 1e5, "weights beyond float32's range at epoch 29", None),
    ], ids=["lr-1e10", "lr-1e300", "last-step", "lr-1e5"])
    def test_divergence_raises_training_error(self, n_pairs, epochs, lr, message, cause):
        data = make_dataset(n_pairs, DatasetSpec(n_points=16), seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=f"^{message}$") as info:
                train_tiny(data, epochs=epochs, lr=lr, seed=0)
        assert type(info.value.__cause__) is (cause or type(None))

    @staticmethod
    def _case(name):
        ds = DatasetSpec(n_points=16, angle_range=(0.0, 0.2), translation_scale=0.15,
                         noise_sigma=0.02)
        if name == "plain":
            return make_dataset(8, ds, seed=20)
        if name == "color":
            return make_dataset(8, replace(ds, with_color=True), seed=21)
        if name == "ragged":
            # first and second clouds of every size here, some second clouds
            # smaller than k = 8
            return (make_dataset(3, replace(ds, n_points=20, drop_fraction=0.3), seed=22)
                    + make_dataset(3, replace(ds, n_points=12, drop_fraction=0.5), seed=23)
                    + make_dataset(2, replace(ds, n_points=9), seed=24))
        if name == "partial-batch":  # 4 + 2 pairs
            return make_dataset(6, replace(ds, with_color=True, drop_fraction=0.2), seed=25)
        return make_dataset(1, ds, seed=26)

    @pytest.mark.parametrize("case", ["plain", "color", "ragged", "partial-batch", "one-pair"])
    def test_matches_per_pair_trainer(self, case):
        # one tape per minibatch gives the float64 weights and the trace of
        # one sub-graph per pair, bit for bit
        data = self._case(case)
        weights, trace = train_tiny(data, epochs=3, lr=0.1, seed=4)
        ref_arrays, ref_trace = ops.train_tiny_per_pair(data, epochs=3, lr=0.1, seed=4)
        assert [a.tobytes() for a in weights.arrays()] == [a.tobytes() for a in ref_arrays]
        assert trace == ref_trace

    @pytest.mark.parametrize("n_pairs", [4, 1])
    def test_one_node_per_layer_per_step(self, monkeypatch, n_pairs):
        # four dense nodes and one attention node for the whole minibatch
        tapes = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: tapes.append(
            [node.tag for node in root.graph._nodes]) or backward(root))
        train_tiny(self._dataset(n_pairs), epochs=1, lr=0.1, seed=0)
        (tags,) = tapes
        assert tags.count("dense") == 4
        assert tags.count("knn-attention") == 1
        # 8 weight leaves, 4 dense, gather-rows, knn-attention, concat and
        # pair-epes, whatever the minibatch's size
        assert len(tags) == 16 and tags[-1] == "pair-epes"

    def test_step_memory_bounded(self):
        # one step of 4 pairs of 256 points: the traced peak above the start,
        # in (k, R, H) float64 arrays, R = 1024 first-cloud rows.  It reads
        # 2.20; the per-pair tape read 1.87, and the attention over the whole
        # batch at once, not pair by pair, 3.66.
        ds = DatasetSpec(n_points=256, angle_range=(0.0, 0.2))
        data = make_dataset(4, ds, seed=3)
        unit = 8 * (4 * 256) * HIDDEN * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_tiny(data, epochs=1, lr=0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * unit

    @pytest.mark.parametrize("with_color", [False, True], ids=["plain", "color"])
    def test_neighbours_once_per_run(self, monkeypatch, with_color):
        # the same weight file and trace as recomputing the neighbours per pass
        ds = DatasetSpec(n_points=16, with_color=with_color, angle_range=(0.0, 0.2),
                         translation_scale=0.15, noise_sigma=0.02, drop_fraction=0.2)
        data = make_dataset(6, ds, seed=22)
        knn_calls = []
        knn = estimators.knn_indices
        monkeypatch.setattr(estimators, "knn_indices",
                            lambda *a: knn_calls.append(1) or knn(*a))
        weights, trace = train_tiny(data, epochs=5, lr=0.1, seed=3)
        assert len(knn_calls) == len(data)
        flow = estimators.tiny_flow
        monkeypatch.setattr(estimators, "tiny_flow",
                            lambda *a, idx=None: flow(*a))
        knn_calls.clear()
        ref_weights, ref_trace = train_tiny(data, epochs=5, lr=0.1, seed=3)
        assert len(knn_calls) == len(data) + 5 * len(data)  # upfront, then per pass
        assert save_weights(weights) == save_weights(ref_weights)
        assert trace == ref_trace

    @pytest.mark.parametrize("plain_first", [True, False],
                             ids=["plain-first", "colored-first"])
    def test_mixed_colors_rejected(self, plain_first):
        plain = make_pair(8, MotionSpec(), with_color=False, seed=0)
        colored = make_pair(8, MotionSpec(), with_color=True, seed=1)
        data = [replace(plain, id="p"), replace(colored, id="c")]
        if not plain_first:
            data.reverse()
        word = "has" if plain_first else "lacks"
        first = data[0].id
        with pytest.raises(ValidationError,
                           match=f"pair {data[1].id} {word} colors, unlike {first}"):
            train_tiny(data, epochs=1, lr=0.1, seed=0)

    def test_zero_flow_aepe(self):
        t = (0.3, 0.0, 0.4)
        pair = make_pair(10, MotionSpec(translation=t), with_color=False, seed=1)
        assert zero_flow_aepe([pair]) == pytest.approx(0.5, abs=1e-12)
