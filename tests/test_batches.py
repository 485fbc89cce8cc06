"""Batched attacks against the per-pair oracle, bit for bit.

run_experiment attacks a batch of pairs per step, and either estimator
records one tape for the whole batch.  Every record (EPEs and `rel` by
repr) and every input gradient (by tobytes) must be what the pair gets
alone: the oracle in oracle_ops runs one pair at a time, one tape per pair
through Estimator.flow_tensor.  The sets cover plain, coloured, dropped-second-cloud
(fewer second-cloud points than k) and ragged-first-cloud pairs, short
clouds in a tall stack among them, where BLAS rounds a row differently when
a batch is multiplied as one segment.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack import harness
from sfattack.attacks import AttackConfig, clean_pass, pgd_sf
from sfattack.estimators import OTEstimator, TinyNetEstimator, init_weights, train_tiny
from sfattack.harness import GridEntry, grid_entry_from_dict, run_experiment
from sfattack.scene import PointCloud
from sfattack.synth import DatasetSpec, MotionSpec, make_dataset, make_pair

import oracle_ops as ops

GRID = [grid_entry_from_dict(e) for e in [
    {"attack": "none"},
    {"attack": "fgsm", "eps": 0.1},
    {"attack": "fgsm", "eps": 0.1, "target": "dim=2"},
    {"attack": "fgsm", "eps": 0.1, "target": "all-channels"},
    {"attack": "pgd", "eps": 0.1, "iters": 3},
    {"attack": "pgd", "eps": 0.1, "iters": 2, "target": "channel=1"},
    {"attack": "pgd", "eps": 0.1, "iters": 2, "random_start": True},
    {"attack": "random", "eps": 0.1, "random_mode": "rademacher"},
]]
MOTION = MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.05), noise_sigma=0.01)


def _dataset(kind):
    if kind == "ragged":  # first clouds of 3 to 64 points
        return [replace(make_pair(n, MOTION, False, seed=s), id=f"r{s}")
                for s, n in enumerate((5, 17, 30, 9, 64, 3, 12))]
    spec = {
        "plain": DatasetSpec(n_points=20, angle_range=(0.0, 0.3)),
        "color": DatasetSpec(n_points=20, with_color=True, angle_range=(0.0, 0.3)),
        # 12 points, 6 of them dropped: fewer second-cloud points than k = 8
        "dropped": DatasetSpec(n_points=12, drop_fraction=0.5, angle_range=(0.0, 0.3)),
        # more first-cloud rows than one batch holds
        "wide": DatasetSpec(n_points=96, angle_range=(0.0, 0.3)),
    }[kind]
    return make_dataset(12 if kind == "wide" else 6, spec, seed=31)


def _estimator(kind, data):
    if kind == "ot":
        return OTEstimator(sinkhorn_iters=5)
    return TinyNetEstimator(init_weights(6 if data[0].pc1.has_colors else 3, seed=5))


SETS = ["plain", "color", "dropped", "ragged", "wide"]


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("kind", SETS)
def test_tiny_records_match_per_pair(kind, jobs):
    data = _dataset(kind)
    est = _estimator("tiny", data)
    report = run_experiment(data, est, GRID, seed=9, jobs=jobs)
    expect = ops.run_experiment_per_pair(data, est, GRID, 9)
    assert [repr(r) for r in report.records] == [repr(r) for r in expect]
    assert sum(r.error is None for r in report.records) >= 5 * len(data)


@pytest.mark.parametrize("kind", SETS)
def test_ot_records_match_per_pair(kind):
    data = _dataset(kind)
    est = _estimator("ot", data)
    report = run_experiment(data, est, GRID, seed=9, jobs=4)
    expect = ops.run_experiment_per_pair(data, est, GRID, 9)
    assert [repr(r) for r in report.records] == [repr(r) for r in expect]


@pytest.mark.parametrize("batch_rows", [1, 32])
@pytest.mark.parametrize("est_kind", ["tiny", "ot"])
def test_batch_boundaries(monkeypatch, est_kind, batch_rows):
    # batches of one pair each, and ragged batches with a pair of 64 rows
    # (more than a batch holds) on its own
    data = _dataset("ragged")
    monkeypatch.setattr(harness, "BATCH_ROWS", batch_rows)
    sizes = [[p.pc1.n_points for p in b] for b in harness.batches(data)]
    assert sizes == ([[n] for n in (5, 17, 30, 9, 64, 3, 12)] if batch_rows == 1
                     else [[5, 17], [30], [9], [64], [3, 12]])
    est = _estimator(est_kind, data)
    report = run_experiment(data, est, GRID, seed=9, jobs=2)
    expect = ops.run_experiment_per_pair(data, est, GRID, 9)
    assert [repr(r) for r in report.records] == [repr(r) for r in expect]


@pytest.mark.parametrize("kind", SETS)
@pytest.mark.parametrize("est_kind", ["tiny", "ot"])
def test_input_gradients_match_per_pair(kind, est_kind):
    data = _dataset(kind)
    est = _estimator(est_kind, data)
    rng = np.random.default_rng(3)
    clouds = [p.pc1 if i % 2 else PointCloud(
        p.pc1.positions + rng.uniform(-0.05, 0.05, p.pc1.positions.shape), p.pc1.colors)
        for i, p in enumerate(data)]
    items = list(zip(data, clouds))
    got = est.losses_and_grads(items)
    want = [ops.loss_and_grads(est, pair, cloud) for pair, cloud in items]
    for (loss, gpos, gcol), (loss_w, gpos_w, gcol_w) in zip(got, want):
        assert repr(loss) == repr(loss_w)
        assert gpos.tobytes() == gpos_w.tobytes()
        assert (gcol is None) == (gcol_w is None)
        if gcol is not None:
            assert gcol.tobytes() == gcol_w.tobytes()
    assert [repr(e) for e in est.epes(items)] == \
        [repr(ops.epe_per_pair(est, pair, cloud)) for pair, cloud in items]
    assert [loss for loss, _, _ in got] == est.epes(items)


def test_pgd_batch_matches_pairs_alone():
    data = _dataset("color")
    est = _estimator("tiny", data)
    for cfg in (AttackConfig(eps=0.1, iters=3),
                AttackConfig(eps=0.1, iters=2, random_start=True,
                             mask=harness.make_target_mask("channel=0,2"))):
        clean = clean_pass(data, est)
        got = pgd_sf(data, est, cfg, seeds=list(range(len(data))), clean=clean)
        for seed, (pair, res) in enumerate(zip(data, got)):
            want = ops.pgd_per_pair(pair, est, cfg, seed=seed)
            assert res.delta.tobytes() == want.delta.tobytes()
            assert res.adv_pc1.positions.tobytes() == want.adv_pc1.positions.tobytes()


def test_one_tape_per_step(monkeypatch):
    # the six-cell grid on one batch: a clean pass shared by the FGSM cells
    # and PGD's first step, then PGD's 9 more steps, each one tape for all
    # pairs, whichever the estimator
    data = make_dataset(8, DatasetSpec(n_points=32, angle_range=(0.0, 0.2)), seed=2)
    assert len(harness.batches(data)) == 1
    grid = [grid_entry_from_dict(e) for e in [
        {"attack": "fgsm", "eps": 0.1}, {"attack": "fgsm", "eps": 0.1, "target": "dim=0"},
        {"attack": "pgd", "eps": 0.1, "iters": 10}, {"attack": "random", "eps": 0.1}]]
    tapes = []
    real = ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: tapes.append(1) or real(root))
    run_experiment(data, TinyNetEstimator(init_weights(3, seed=1)), grid, seed=0)
    assert len(tapes) == 10
    tapes.clear()
    run_experiment(data, OTEstimator(sinkhorn_iters=3), grid, seed=0)
    assert len(tapes) == 10


def test_batch_pass_peaks_below_a_training_step():
    # BATCH_ROWS rows of 64-point clouds: one batched attack pass peaks no
    # higher than one 4-pair training step on clouds of that size
    spec = DatasetSpec(n_points=64, angle_range=(0.0, 0.2))
    train = make_dataset(4, spec, seed=3)
    weights, _ = train_tiny(train, 1, 0.1, 0)
    tracemalloc.start()
    train_tiny(train, 1, 0.1, 0)
    step = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    data = make_dataset(harness.BATCH_ROWS // 64, spec, seed=5)
    assert harness.batches(data) == [data]
    est = TinyNetEstimator(weights)
    items = [(p, p.pc1) for p in data]
    tracemalloc.start()
    est.losses_and_grads(items)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= step, (peak, step)


def test_run_cell_times_a_task_per_pair():
    data = _dataset("plain")
    est = _estimator("tiny", data)
    base = harness.pair_baselines(data, est, GRID)
    records = harness._run_cell(data, est, "tiny:t", GridEntry("pgd", AttackConfig(
        eps=0.1, iters=3)), base, 0, True)
    assert [r.pair_id for r in records] == [p.id for p in data]
    assert len({r.wall_time_ms for r in records}) == 1
