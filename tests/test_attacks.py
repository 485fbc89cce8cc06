from dataclasses import replace

import numpy as np
import pytest

from sfattack.attacks import (
    MAX_ITERS,
    AttackConfig,
    TargetMask,
    check_feasibility,
    clean_pass,
    fgsm_sf,
    make_target_mask,
    pgd_sf,
    random_attack,
)
from sfattack.estimators import (Estimator, OTEstimator, TinyNetEstimator,
                                 epe, epe_loss, init_weights)
from sfattack.scene import FlowField, PointCloud, ScenePair, ValidationError
from sfattack.synth import MotionSpec, make_pair
from sfattack import autodiff as ad


class NegativeFlowEstimator(Estimator):
    """Predicts flow = -pos1: loss gradients are analytic in closed form."""

    tag = "negflow"

    def flow_tensor(self, pos1, col1, pair):
        return ad.smul(pos1, -1.0)


class ZeroFlowEstimator(Estimator):
    tag = "zeroflow"

    def flow_tensor(self, pos1, col1, pair):
        return ad.smul(pos1, 0.0)


def simple_pair(n=6, seed=0, color=True, flow_scale=0.1):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, size=(n, 3))
    col = rng.uniform(0.2, 0.8, size=(n, 3)) if color else None
    gt = FlowField(rng.normal(0, flow_scale, size=(n, 3)))
    return ScenePair(PointCloud(pos, col), PointCloud(pos + gt.vectors, col), gt, "t")


def score(est, pair, pc1=None):
    """EPE of the estimate on pair, with pc1 replaced when given."""
    if pc1 is not None:
        pair = replace(pair, pc1=pc1)
    return epe(est.estimate(pair), pair.gt_flow)


def fgsm_oracle(pair, est, cfg):
    """The FGSM step computed here: base + eps * sign(g) from the clean EPE
    gradient g on the masked axes, clipped to [0,1] for colors."""
    g = ad.Graph()
    pos1 = g.leaf(pair.pc1.positions)
    col1 = g.leaf(pair.pc1.colors) if pair.pc1.has_colors else None
    grads = ad.backward(epe_loss(est.flow_tensor(pos1, col1, pair), pair.gt_flow))
    if cfg.mask.domain == "positions":
        base, leaf = pair.pc1.positions, pos1
    else:
        base, leaf = pair.pc1.colors, col1
    adv = base + cfg.eps * np.sign(grads[leaf.node_id] * cfg.mask.axis_row())
    if cfg.mask.domain == "colors":
        adv = np.clip(adv, 0.0, 1.0)
    return base, adv


class TestTargetMask:
    @pytest.mark.parametrize("spec,domain,axes", [
        ("all-dims", "positions", {0, 1, 2}),
        ("dim=0", "positions", {0}),
        ("dim=1,2", "positions", {1, 2}),
        ("all-channels", "colors", {0, 1, 2}),
        ("channel=2", "colors", {2}),
    ])
    def test_parse(self, spec, domain, axes):
        mask = make_target_mask(spec)
        assert (mask.domain, set(mask.axes)) == (domain, axes)
        assert mask.spec_string() == spec

    @pytest.mark.parametrize("spec", ["", "dims", "dim=3", "dim=", "channel=x",
                                      "dim=0;1", "color=1"])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValidationError):
            make_target_mask(spec)

    def test_axis_row(self):
        assert np.array_equal(TargetMask("positions", frozenset({0, 2})).axis_row(),
                              [1.0, 0.0, 1.0])

    def test_color_mask_needs_colors(self):
        pair = simple_pair(color=False)
        cfg = AttackConfig(eps=0.1, mask=TargetMask("colors"))
        with pytest.raises(ValidationError):
            fgsm_sf(pair, ZeroFlowEstimator(), cfg)


class TestAttackConfig:
    def test_auto_alpha(self):
        assert AttackConfig(eps=0.1, iters=10).resolved_alpha() == pytest.approx(0.025)
        assert AttackConfig(eps=2.0, iters=10).resolved_alpha() == pytest.approx(0.5)

    def test_explicit_alpha(self):
        assert AttackConfig(eps=0.1, iters=4, alpha=0.01).resolved_alpha() == 0.01

    def test_validation(self):
        with pytest.raises(ValidationError):
            AttackConfig(eps=0.0)
        with pytest.raises(ValidationError):
            AttackConfig(eps=0.1, iters=0)
        with pytest.raises(ValidationError):
            AttackConfig(eps=0.1, alpha=-1.0)
        with pytest.raises(ValidationError):
            AttackConfig(eps=0.1, random_mode="gaussian")

    def test_iters_cap(self):
        assert AttackConfig(eps=0.1, iters=MAX_ITERS).iters == 10_000
        for iters in (MAX_ITERS + 1, 10**9, 10**400):
            with pytest.raises(ValidationError, match="iters must be <= 10000"):
                AttackConfig(eps=0.1, iters=iters)


class TestFgsm:
    def test_requires_gt(self):
        pair = simple_pair()
        stripped = ScenePair(pair.pc1, pair.pc2, None, "x")
        with pytest.raises(ValidationError, match="gt_flow"):
            fgsm_sf(stripped, ZeroFlowEstimator(), AttackConfig(eps=0.1))

    def test_analytic_direction(self):
        # est(-pos1) vs gt=0: loss = mean ||pos1||, grad = pos1/(N*||pos1||);
        # sign(grad) = sign(pos1), so delta = eps * sign(pos1)
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.2, 1.0, size=(5, 3)) * rng.choice([-1, 1], size=(5, 3))
        pair = ScenePair(PointCloud(pos), PointCloud(pos),
                         FlowField(np.zeros((5, 3))), "a")
        res = fgsm_sf(pair, NegativeFlowEstimator(), AttackConfig(eps=0.05))
        assert np.array_equal(res.adv_pc1.positions, pos + 0.05 * np.sign(pos))

    def test_sign_zero_is_zero(self):
        pos = np.array([[0.3, -0.4, 0.5]])
        pair = ScenePair(PointCloud(pos), PointCloud(pos),
                         FlowField(np.zeros((1, 3))), "z")
        # zero estimator: loss independent of pos1, grad = 0, delta = 0
        res = fgsm_sf(pair, ZeroFlowEstimator(), AttackConfig(eps=0.05))
        assert np.array_equal(res.delta, np.zeros((1, 3)))
        assert res.adv_pc1.positions.tobytes() == pos.tobytes()

    def test_mask_restricts_axes(self):
        pair = simple_pair(seed=2)
        cfg = AttackConfig(eps=0.05, mask=TargetMask("positions", frozenset({1})))
        res = fgsm_sf(pair, NegativeFlowEstimator(), cfg)
        assert np.all(res.delta[:, [0, 2]] == 0.0)
        assert np.abs(res.delta[:, 1]).max() > 0.0

    def test_increases_ot_loss(self):
        pair = make_pair(32, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0)),
                         with_color=False, seed=3)
        est = OTEstimator()
        res = fgsm_sf(pair, est, AttackConfig(eps=0.1))
        assert score(est, pair, res.adv_pc1) > score(est, pair)

    def test_gt_flow_untouched(self):
        pair = simple_pair(seed=4)
        before = pair.gt_flow.vectors.tobytes()
        fgsm_sf(pair, NegativeFlowEstimator(), AttackConfig(eps=0.1))
        assert pair.gt_flow.vectors.tobytes() == before

    def test_color_attack_clamps(self):
        pair = simple_pair(seed=5)
        cfg = AttackConfig(eps=0.5, mask=TargetMask("colors"))
        res = fgsm_sf(pair, OTEstimator(reg=0.1), cfg)
        assert res.adv_pc1.colors.min() >= 0.0
        assert res.adv_pc1.colors.max() <= 1.0
        assert np.array_equal(res.adv_pc1.positions, pair.pc1.positions)


class TestPgd:
    def test_reduces_to_fgsm(self):
        pair = make_pair(24, MotionSpec(angle=0.15, translation=(0.05, -0.1, 0.0)),
                         with_color=True, seed=6)
        est = OTEstimator()
        for mask in (TargetMask("positions"), TargetMask("colors", frozenset({0, 1}))):
            cfg = AttackConfig(eps=0.08, iters=1, alpha=0.08, mask=mask)
            base, adv = fgsm_oracle(pair, est, cfg)
            for res in (fgsm_sf(pair, est, cfg), pgd_sf(pair, est, cfg)):
                assert res.delta.tobytes() == (adv - base).tobytes()

    def test_at_least_fgsm_on_ot(self):
        pair = make_pair(32, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0)),
                         with_color=False, seed=7)
        est = OTEstimator()
        f = fgsm_sf(pair, est, AttackConfig(eps=0.1))
        p = pgd_sf(pair, est, AttackConfig(eps=0.1, iters=5))
        assert score(est, pair, p.adv_pc1) >= score(est, pair, f.adv_pc1) - 1e-9

    def test_feasible_with_random_start(self):
        pair = simple_pair(seed=8)
        cfg = AttackConfig(eps=0.07, iters=4, random_start=True)
        res = pgd_sf(pair, NegativeFlowEstimator(), cfg, seed=3)
        assert check_feasibility(pair, cfg, res) == []

    def test_random_start_seeded(self):
        pair = simple_pair(seed=9)
        # small alpha so the iterates keep the random start visible instead
        # of saturating every coordinate at the box corners
        cfg = AttackConfig(eps=0.05, iters=3, alpha=0.001, random_start=True)
        a = pgd_sf(pair, NegativeFlowEstimator(), cfg, seed=11)
        b = pgd_sf(pair, NegativeFlowEstimator(), cfg, seed=11)
        c = pgd_sf(pair, NegativeFlowEstimator(), cfg, seed=12)
        assert a.delta.tobytes() == b.delta.tobytes()
        assert a.delta.tobytes() != c.delta.tobytes()

    def test_color_iterates_stay_clamped(self):
        pair = simple_pair(seed=10)
        cfg = AttackConfig(eps=0.6, iters=5, mask=TargetMask("colors"))
        res = pgd_sf(pair, OTEstimator(reg=0.1), cfg)
        assert check_feasibility(pair, cfg, res) == []


def _estimators(in_dim):
    return [OTEstimator(sinkhorn_iters=10),
            TinyNetEstimator(init_weights(in_dim, seed=4))]


class TestCleanPass:
    @pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
    def test_loss_is_estimate_epe(self, color):
        pair = make_pair(20, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.05)),
                         with_color=color, seed=17)
        for est in _estimators(6 if color else 3):
            loss, gpos, gcol = clean_pass(pair, est)
            assert loss == epe(est.estimate(pair), pair.gt_flow)  # bitwise
            assert gpos.shape == (20, 3)
            assert (gcol is not None) == color

    @pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
    def test_attacks_match_without_it(self, color):
        # handing in the clean pass changes no bit of any attack's output;
        # a random start ignores it
        pair = make_pair(20, MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.05)),
                         with_color=color, seed=18)
        specs = ["all-dims", "dim=1", "dim=0,2"]
        if color:
            specs += ["all-channels", "channel=2"]
        for est in _estimators(6 if color else 3):
            clean = clean_pass(pair, est)
            for spec in specs:
                mask = make_target_mask(spec)
                for cfg in (AttackConfig(eps=0.1, mask=mask),
                            AttackConfig(eps=0.1, iters=3, mask=mask),
                            AttackConfig(eps=0.1, iters=2, mask=mask,
                                         random_start=True)):
                    runs = [(fgsm_sf(pair, est, cfg), fgsm_sf(pair, est, cfg, clean=clean)),
                            (pgd_sf(pair, est, cfg, seed=3),
                             pgd_sf(pair, est, cfg, seed=3, clean=clean))]
                    for plain_run, shared in runs:
                        assert shared.delta.tobytes() == plain_run.delta.tobytes()
                        assert (shared.adv_pc1.positions.tobytes()
                                == plain_run.adv_pc1.positions.tobytes())

    def test_step_zero_uses_it(self):
        # the estimator's own gradient is zero; the handed-in one is all +1
        pair = simple_pair(seed=19)
        ones = np.ones((pair.pc1.n_points, 3))
        res = fgsm_sf(pair, ZeroFlowEstimator(), AttackConfig(eps=0.1),
                      clean=(0.0, ones, ones))
        assert np.allclose(res.delta, 0.1, rtol=0, atol=1e-15)

    def test_requires_gt(self):
        pair = simple_pair()
        with pytest.raises(ValidationError, match="gt_flow"):
            clean_pass(ScenePair(pair.pc1, pair.pc2, None, "x"), ZeroFlowEstimator())


class TestRandomAttack:
    def test_deterministic(self):
        pair = simple_pair(seed=11)
        cfg = AttackConfig(eps=0.1)
        a = random_attack(pair, cfg, seed=5)
        b = random_attack(pair, cfg, seed=5)
        c = random_attack(pair, cfg, seed=6)
        assert a.delta.tobytes() == b.delta.tobytes()
        assert a.delta.tobytes() != c.delta.tobytes()

    def test_uniform_inside_box(self):
        pair = simple_pair(seed=12)
        cfg = AttackConfig(eps=0.1)
        res = random_attack(pair, cfg, seed=0)
        assert check_feasibility(pair, cfg, res) == []
        assert np.abs(res.delta).max() < 0.1

    def test_rademacher_hits_corners(self):
        pair = simple_pair(seed=13)
        cfg = AttackConfig(eps=0.1, random_mode="rademacher")
        res = random_attack(pair, cfg, seed=0)
        assert np.allclose(np.abs(res.delta), 0.1, rtol=0, atol=1e-15)


class TestFeasibility:
    @pytest.mark.parametrize("mask_spec", ["all-dims", "dim=0", "dim=1,2",
                                           "all-channels", "channel=1"])
    def test_all_attacks_feasible(self, mask_spec):
        pair = simple_pair(seed=15)
        mask = make_target_mask(mask_spec)
        cfg = AttackConfig(eps=0.05, iters=3, mask=mask)
        est = OTEstimator(reg=0.1)
        for res in (fgsm_sf(pair, est, AttackConfig(eps=0.05, mask=mask)),
                    pgd_sf(pair, est, cfg),
                    random_attack(pair, cfg, seed=0)):
            assert check_feasibility(pair, cfg, res) == []

    def test_detects_violation(self):
        pair = simple_pair(seed=16)
        cfg = AttackConfig(eps=0.05)
        res = fgsm_sf(pair, NegativeFlowEstimator(), cfg)
        bad = type(res)(adv_pc1=res.adv_pc1, delta=res.delta * 3.0)
        assert "delta exceeds eps" in check_feasibility(pair, cfg, bad)
