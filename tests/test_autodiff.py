import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack import estimators
from sfattack.estimators import OTEstimator, epe_loss, init_weights, tiny_flow
from sfattack.synth import MotionSpec, make_pair

import oracle_ops as ops


def fd_grad(fn, values, h=1e-5):
    """Central finite differences of a scalar fn over a list of arrays."""
    out = []
    for k, base in enumerate(values):
        g = np.zeros_like(base)
        for j in range(base.size):
            bump = [v.copy() for v in values]
            bump[k].ravel()[j] = base.ravel()[j] + h
            fp = fn(*bump)
            bump[k].ravel()[j] = base.ravel()[j] - h
            fm = fn(*bump)
            g.ravel()[j] = (fp - fm) / (2 * h)
        out.append(g)
    return out


class TestPrimitives:
    def test_add(self):
        assert np.array_equal(ad.add([1.0, 2.0], [3.0, 4.0]).data, [4.0, 6.0])

    def test_matmul_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(np.eye(2), a).data, a)

    def test_exp_zero(self):
        assert ops.exp(np.zeros(1)).data[0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_add_sub_need_equal_shapes(self):
        # broadcasting, scalars included, is the test-only ops.add/sub/mul's
        g = ad.Graph()
        x = g.leaf(np.ones((2, 3)))
        y = g.leaf(np.ones((2, 3)))
        grads = ad.backward(ad.tmean(ad.sub(ad.add(x, ad.constant(np.full((2, 3), 2.0))), y)))
        assert np.array_equal(grads[x.node_id], np.full((2, 3), 1.0 / 6.0))
        assert np.array_equal(grads[y.node_id], np.full((2, 3), -1.0 / 6.0))
        for other in (2.0, np.zeros((1, 3)), np.zeros((2, 1)), np.zeros(3),
                      np.zeros((1, 1))):
            for op in (ad.add, ad.sub):
                with pytest.raises(ad.ShapeError):
                    op(x, other)
                with pytest.raises(ad.ShapeError):
                    op(other, x)

    def test_domain_errors(self):
        with pytest.raises(ad.DomainError):
            ops.log(np.array([-1.0]))
        with pytest.raises(ad.DomainError):
            ops.log(np.array([0.0]))

    def test_pairwise_sqdist_small(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        assert np.array_equal(ad.pairwise_sqdist(a, b).data, [[1.0], [0.0]])

    def test_pairwise_sqdist_self(self):
        a = np.random.default_rng(0).normal(size=(5, 3))
        d = ad.pairwise_sqdist(a, a).data
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)

    def test_pairwise_sqdist_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        expect = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                expect[i, j] = sum((a[i, k] - b[j, k]) ** 2 for k in range(3))
        assert np.abs(ad.pairwise_sqdist(a, b).data - expect).max() < 1e-12

    @pytest.mark.parametrize("case", ["n-ne-m", "one-row", "colour-range", "outlier"])
    def test_pairwise_sqdist_bits_match_einsum(self, case):
        # the explicit sum keeps every bit of the einsum it replaces
        rng = np.random.default_rng(2)
        a, b = {
            "n-ne-m": lambda: (rng.normal(size=(37, 3)), rng.normal(size=(53, 3))),
            "one-row": lambda: (rng.normal(size=(1, 3)), rng.normal(size=(64, 3))),
            "colour-range": lambda: (rng.uniform(0, 255, size=(40, 3)),
                                     rng.uniform(0, 255, size=(31, 3))),
            "outlier": lambda: (np.vstack([rng.random((20, 3)), [[100.0, 5.0, -10.0]]]),
                                rng.random((25, 3))),
        }[case]()
        d = a[:, None] - b[None]
        expect = np.einsum("ijk,ijk->ij", d, d)
        assert ad.pairwise_sqdist(a, b).data.tobytes() == expect.tobytes()

    def test_pairwise_sqdist_bits_ignore_memory_layout(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(48, 3)), rng.normal(size=(40, 3)) * 1e3
        expect = ad.pairwise_sqdist(a, b).data.tobytes()
        padded = np.zeros((40, 6))
        padded[:, ::2] = b
        sliced = padded[:, ::2]  # b's values in a strided, column-sliced view
        assert not sliced.flags.c_contiguous
        for va, vb in [(np.asfortranarray(a), b), (a, np.asfortranarray(b)), (a, sliced)]:
            assert ad.pairwise_sqdist(va, vb).data.tobytes() == expect

    @pytest.mark.parametrize("shapes", [((4, 2), (5, 2)), ((4, 4), (5, 4)),
                                        ((4, 3), (5, 2)), ((3,), (5, 3))])
    def test_pairwise_sqdist_needs_three_columns(self, shapes):
        with pytest.raises(ad.ShapeError):
            ad.pairwise_sqdist(np.zeros(shapes[0]), np.zeros(shapes[1]))


class TestConstantOperand:
    """A primitive's VJP returns None for a constant operand's gradient."""

    @pytest.mark.parametrize("op,shapes", [(ad.matmul, ((4, 3), (3, 5))),
                                           (ad.pairwise_sqdist, ((4, 3), (5, 3)))],
                             ids=["matmul", "pairwise-sqdist"])
    def test_untracked_side_gets_none(self, op, shapes):
        rng = np.random.default_rng(4)
        va, vb = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
        g_out = rng.normal(size=op(va, vb).shape)

        def grads(track_a, track_b):
            g = ad.Graph()
            ta = g.leaf(va) if track_a else ad.constant(va)
            tb = g.leaf(vb) if track_b else ad.constant(vb)
            op(ta, tb)
            return g._nodes[-1].vjp(g_out)

        both = grads(True, True)
        only_a, only_b = grads(True, False), grads(False, True)
        assert only_a[1] is None and only_b[0] is None
        # the tracked side's gradient keeps its bits
        assert only_a[0].tobytes() == both[0].tobytes()
        assert only_b[1].tobytes() == both[1].tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        grads = ad.backward(ad.tmean(ops.mul(x, x)))  # (1 + 4) / 2
        assert np.array_equal(grads[x.node_id], [1.0, 2.0])

    def test_mean_norm(self):
        g = ad.Graph()
        x = g.leaf([[3.0, 4.0]])
        grads = ad.backward(ad.tmean(ad.rownorm(x)))
        assert np.allclose(grads[x.node_id], [[0.6, 0.8]])

    def test_non_scalar_root(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        with pytest.raises(ad.GraphError):
            ad.backward(ops.mul(x, x))

    def test_graph_single_use(self):
        g = ad.Graph()
        x = g.leaf([1.0])
        root = ad.tmean(x)
        ad.backward(root)
        with pytest.raises(ad.GraphError):
            ad.backward(root)

    def test_unreached_leaf_gets_zeros(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        y = g.leaf([3.0])
        grads = ad.backward(ad.tmean(x))
        assert np.array_equal(grads[y.node_id], [0.0])


class TestTapeRelease:
    def test_backward_frees_the_tape_as_it_goes(self, monkeypatch, unrolled_sinkhorn):
        # keeping every node and every gradient until the sweep ends needs
        # about one more tape of memory; freeing as it goes needs a sliver.
        # The unrolled Sinkhorn gives a long tape of N x M nodes to free.
        monkeypatch.setattr(estimators, "sinkhorn", unrolled_sinkhorn)
        pair = make_pair(128, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0)),
                         with_color=False, seed=0)
        tracemalloc.start()
        try:
            g = ad.Graph()
            pos1 = g.leaf(pair.pc1.positions)
            loss = epe_loss(OTEstimator().flow_tensor(pos1, None, pair), pair.gt_flow)
            tape_bytes = sum(node.value.nbytes for node in g._nodes)
            at_entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = ad.backward(loss)
            extra = tracemalloc.get_traced_memory()[1] - at_entry
        finally:
            tracemalloc.stop()
        assert np.abs(grads[pos1.node_id]).max() > 0.0
        assert extra < 0.25 * tape_bytes

    @pytest.mark.parametrize("sweep", [True, False], ids=["backward", "forward-only"])
    def test_graph_needs_no_cycle_collector(self, sweep):
        # a VJP closure that captured a Tensor would tie the graph into a
        # cycle (graph -> node -> closure -> Tensor -> graph)
        pair = make_pair(16, MotionSpec(angle=0.2), with_color=False, seed=1)
        w = init_weights(3, seed=0)
        gc.disable()
        try:
            g = ad.Graph()
            pos1 = g.leaf(pair.pc1.positions)
            params = [g.leaf(a) for a in w.arrays()]
            loss = epe_loss(tiny_flow(pos1, None, pair, params, w.k_neighbors),
                            pair.gt_flow)
            if sweep:
                ad.backward(loss)
            ref = weakref.ref(g)
            del g, pos1, params, loss
            assert ref() is None
        finally:
            gc.enable()


def _recipes():
    """Composite graph builders: (fn over tensors, shapes)."""
    def r0(x, y):
        return ad.tmean(ops.mul(ops.exp(ad.smul(x, 0.3)), ad.add(y, x)))

    def r1(x, y):
        return ad.tmean(ad.rownorm(ad.sub(ad.matmul(x, y), ad.smul(x, 0.5))))

    def r2(x, y):
        d = ad.pairwise_sqdist(x, y)
        return ad.tmean(ops.mul(ops.log(ops.add(d, ad.constant(1.0))), ad.smul(d, 0.1)))

    def r3(x, y):
        c = ad.concat(x, y)
        return ad.tmean(ops.log(ops.add(ops.row_sum(ops.mul(c, c)), ad.constant(0.1))))

    def r4(x, y):
        gathered = ops.gather_rows(x, [0, 2, 1, 2])
        return ad.tmean(ops.relu(ops.sub(ad.matmul(gathered, y), ad.constant(0.2))))

    def r5(x, col, row):
        # mul and sub broadcasting tracked (N,1) and (1,M) operands
        a = ops.mul(col, ops.sub(x, row))
        b = ops.sub(col, ops.mul(x, row))
        return ad.tmean(ops.mul(a, b))

    return [
        (r0, [(3, 4), (3, 4)]),
        (r1, [(4, 4), (4, 4)]),
        (r2, [(3, 3), (5, 3)]),
        (r3, [(4, 2), (4, 3)]),
        (r4, [(3, 3), (3, 2)]),
        (r5, [(4, 3), (4, 1), (1, 3)]),
    ]


class TestGradientCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("recipe_idx", range(6))
    def test_random_composite_graphs(self, recipe_idx, seed):
        # 60 random graphs total: backward vs central differences (h=1e-5)
        fn, shapes = _recipes()[recipe_idx]
        rng = np.random.default_rng(1000 * recipe_idx + seed)
        values = [rng.normal(size=s) for s in shapes]

        g = ad.Graph()
        leaves = [g.leaf(v) for v in values]
        grads = ad.backward(fn(*leaves))
        analytic = [grads[t.node_id] for t in leaves]

        numeric = fd_grad(lambda *vs: float(fn(*[ad.constant(v) for v in vs]).data),
                          values)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
            assert (np.abs(a - n) / denom).max() < 1e-5

    def test_linearity(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(4, 3))

        def grad_of(fn):
            g = ad.Graph()
            x = g.leaf(v)
            return ad.backward(fn(x))[x.node_id]

        f = lambda x: ad.tmean(ops.mul(x, x))
        h = lambda x: ad.tmean(ad.rownorm(x))
        combo = lambda x: ad.add(ad.smul(f(x), 2.0), ad.smul(h(x), -3.0))
        assert np.allclose(grad_of(combo), 2.0 * grad_of(f) - 3.0 * grad_of(h),
                           rtol=1e-12, atol=1e-12)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            g = ad.Graph()
            x = g.leaf(rng.normal(size=(4, 3)))
            y = g.leaf(rng.normal(size=(4, 3)))
            root = ad.tmean(ad.rownorm(ad.add(ops.mul(x, y), ops.exp(ad.smul(x, 0.1)))))
            return root.data.copy(), ad.backward(root)[x.node_id]

        (v1, g1), (v2, g2) = run(), run()
        assert v1.tobytes() == v2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    def test_sign_safety_relu(self):
        g = ad.Graph()
        x = g.leaf([0.0, -1.0, 2.0])
        grads = ad.backward(ad.tmean(ops.relu(x)))
        assert np.array_equal(grads[x.node_id], [0.0, 0.0, 1.0 / 3.0])

    def test_sign_safety_rownorm(self):
        g = ad.Graph()
        x = g.leaf([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        grads = ad.backward(ad.tmean(ad.rownorm(x)))
        assert np.array_equal(grads[x.node_id][0], [0.0, 0.0, 0.0])
        assert np.allclose(grads[x.node_id][1], [0.3, 0.4, 0.0])


class TestGradcheck:
    def test_constant_recipe(self):
        rep = ad.gradcheck(
            lambda x: ad.smul(ad.tmean(ops.mul(x, ad.constant(np.zeros(3)))), 1.0),
            [np.ones(3)])
        assert rep.max_rel_err == 0.0 and rep.passed

    def test_repeatable(self):
        v = np.random.default_rng(7).normal(size=(3, 3))
        fn = lambda x: ad.tmean(ad.rownorm(ops.mul(x, x)))
        r1 = ad.gradcheck(fn, [v])
        r2 = ad.gradcheck(fn, [v])
        assert (r1.max_rel_err, r1.passed) == (r2.max_rel_err, r2.passed)

    def test_nonfinite_forward_rejected(self):
        with pytest.raises(ad.DomainError):
            ad.gradcheck(lambda x: ad.smul(ad.tmean(x), float("nan")), [np.ones(2)])
