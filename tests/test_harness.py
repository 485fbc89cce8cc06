import csv
import io
import json
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack import estimators, harness
from sfattack.attacks import AttackConfig, clean_pass, make_target_mask
from sfattack.estimators import OTEstimator, TinyNetEstimator, epe, init_weights
from sfattack.harness import (
    CSV_HEADER,
    GridEntry,
    aggregate,
    gradcheck_battery,
    grid_entry_from_dict,
    load_grid,
    render_flow_svg,
    report_to_csv,
    report_to_json_dict,
    run_experiment,
    write_report,
    _rel,
    _run_cell,
    batches,
)
from sfattack.scene import FlowField, ValidationError
from sfattack.synth import DatasetSpec, make_dataset

import oracle_ops as ops


@pytest.fixture(scope="module")
def small_dataset():
    ds = DatasetSpec(n_points=24, kind="rigid", angle_range=(0.0, 0.3),
                     translation_scale=0.2)
    return make_dataset(4, ds, seed=21)


FGSM = {"attack": "fgsm", "eps": 0.1, "iters": 1, "alpha": 0.1}
# the directional grid of acceptance criterion 6
SIX_CELL_GRID = [
    FGSM,
    {**FGSM, "target": "dim=0"},
    {**FGSM, "target": "dim=1"},
    {**FGSM, "target": "dim=2"},
    {"attack": "pgd", "eps": 0.1, "iters": 10},
    {"attack": "random", "eps": 0.1},
]


@pytest.fixture(scope="module")
def small_grid():
    return [
        GridEntry("none"),
        GridEntry("fgsm", AttackConfig(eps=0.05, iters=1, alpha=0.05)),
        GridEntry("random", AttackConfig(eps=0.05)),
    ]


class CountingEstimator(OTEstimator):
    """OT estimator that counts its forward passes."""

    def __init__(self):
        super().__init__(sinkhorn_iters=5)
        self.flow_calls = 0
        self.digest_calls = 0

    def flow_tensor(self, pos1, col1, pair):
        self.flow_calls += 1
        return super().flow_tensor(pos1, col1, pair)

    def config_digest(self):
        self.digest_calls += 1
        return super().config_digest()


@pytest.fixture
def counting_est():
    return CountingEstimator()


@pytest.fixture(scope="module")
def small_report(small_dataset, small_grid):
    est = OTEstimator(sinkhorn_iters=15)
    return run_experiment(small_dataset, est, small_grid, seed=0)


class TestRel:
    def test_known_value(self):
        # 0.117 -> 0.196 is a +67.5% degradation
        assert _rel(0.117, 0.196) == pytest.approx(0.675, abs=5e-4)

    def test_zero_before(self):
        assert _rel(0.0, 0.5) is None


class TestGrid:
    def test_from_dict(self):
        e = grid_entry_from_dict({"attack": "pgd", "eps": 0.1, "iters": 10,
                                  "target": "dim=1"})
        assert e.attack == "pgd"
        assert e.config.resolved_alpha() == pytest.approx(0.025)
        assert e.mask_spec() == "dim=1"

    def test_from_dict_every_key(self):
        e = grid_entry_from_dict({"attack": "pgd", "eps": 1, "iters": 4, "alpha": 1,
                                  "target": "channel=0", "random_start": True,
                                  "clamp_colors": False, "random_mode": "rademacher"})
        assert e.config == AttackConfig(eps=1.0, iters=4, alpha=1.0,
                                        mask=make_target_mask("channel=0"),
                                        random_start=True, clamp_colors=False,
                                        random_mode="rademacher")
        # a key left out takes AttackConfig's default
        assert grid_entry_from_dict({"attack": "pgd", "eps": 0.1}).config \
            == AttackConfig(eps=0.1)

    def test_none_entry(self):
        assert GridEntry("none").digest() == "none"
        with pytest.raises(ValidationError):
            GridEntry("none", AttackConfig(eps=0.1))
        with pytest.raises(ValidationError):
            GridEntry("fgsm")
        with pytest.raises(ValidationError):
            GridEntry("cw", AttackConfig(eps=0.1))

    def test_digest_distinguishes_configs(self):
        a = GridEntry("fgsm", AttackConfig(eps=0.1))
        b = GridEntry("fgsm", AttackConfig(eps=0.2))
        c = GridEntry("pgd", AttackConfig(eps=0.1))
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_load_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.1},
        ]))
        grid = load_grid(path)
        assert [e.attack for e in grid] == ["none", "fgsm"]
        path.write_text("{}")
        with pytest.raises(ValidationError):
            load_grid(path)


class TestRunExperiment:
    def test_record_count_and_sorting(self, small_report, small_dataset, small_grid):
        recs = small_report.records
        assert len(recs) == len(small_dataset) * len(small_grid)
        keys = [(r.pair_id, r.attack, r.mask, r.seed) for r in recs]
        assert keys == sorted(keys)

    def test_none_rows_are_baseline(self, small_report):
        for r in small_report.records:
            if r.attack == "none":
                assert r.epe_after == r.epe_before
                assert r.rel == 0.0

    def test_aggregates_match_recomputation(self, small_report):
        for agg in small_report.aggregates:
            recs = [r for r in small_report.records
                    if (r.estimator, r.attack, r.mask)
                    == (agg["estimator"], agg["attack"], agg["mask"])]
            assert agg["aepe_before"] == pytest.approx(
                np.mean([r.epe_before for r in recs]), abs=1e-12)
            assert agg["aepe_after"] == pytest.approx(
                np.mean([r.epe_after for r in recs]), abs=1e-12)

    def test_aggregates_keep_budgets_apart(self, small_dataset):
        # cells that differ in eps, iters or alpha alone are rows of their
        # own, each the mean of its own records, in the order of that key
        grid = [GridEntry("fgsm", AttackConfig(eps=0.01)),
                GridEntry("fgsm", AttackConfig(eps=0.2)),
                GridEntry("pgd", AttackConfig(eps=0.05, iters=2)),
                GridEntry("pgd", AttackConfig(eps=0.05, iters=10)),
                GridEntry("pgd", AttackConfig(eps=0.05, iters=2, alpha=0.001))]
        report = run_experiment(small_dataset, OTEstimator(sinkhorn_iters=15), grid, seed=0)
        cells: dict[tuple, list] = {}
        for r in report.records:
            key = (r.estimator, r.attack, r.mask, r.eps, r.iters, r.alpha)
            cells.setdefault(key, []).append(r)
        assert len(cells) == len(grid)
        want = [(key[1], np.mean([r.epe_before for r in recs]),
                 np.mean([r.epe_after for r in recs])) for key, recs in sorted(cells.items())]
        got = [(a["attack"], a["aepe_before"], a["aepe_after"]) for a in report.aggregates]
        assert got == want

    def test_baseline_epe_is_estimator_epe(self, small_report, small_dataset):
        est = OTEstimator(sinkhorn_iters=15)
        pair = small_dataset[0]
        expect = epe(est.estimate(pair), pair.gt_flow)
        rec = next(r for r in small_report.records
                   if r.pair_id == pair.id and r.attack == "none")
        assert rec.epe_before == pytest.approx(expect, abs=1e-12)

    def test_permutation_invariance(self, small_dataset, small_grid):
        est = OTEstimator(sinkhorn_iters=15)
        fwd = run_experiment(small_dataset, est, small_grid, seed=0)
        rev = run_experiment(list(reversed(small_dataset)), est, small_grid, seed=0)
        assert report_to_json_dict(fwd) == report_to_json_dict(rev)

    def test_jobs_identical(self, small_dataset, small_grid, small_report):
        est = OTEstimator(sinkhorn_iters=15)
        par = run_experiment(small_dataset, est, small_grid, seed=0, jobs=4)
        assert report_to_json_dict(par) == report_to_json_dict(small_report)

    def test_attack_error_becomes_diagnostic_record(self, small_dataset):
        grid = [GridEntry("fgsm", AttackConfig(
            eps=0.05, mask=make_target_mask("all-channels")))]
        est = OTEstimator(sinkhorn_iters=15)
        # dataset has no colors: the cell fails but the run completes
        report = run_experiment(small_dataset, est, grid, seed=0)
        assert all(r.error is not None for r in report.records)
        assert report.aggregates == []

    def test_no_clean_pass_for_masks_that_cannot_run(self, small_dataset, counting_est,
                                                     monkeypatch):
        # colour masks on plain pairs fail before their first step, so no
        # pair pays for a clean forward+backward; the forward-only baseline
        # has the clean pass's bits
        backward_calls = []
        real_backward = ad.backward
        monkeypatch.setattr(ad, "backward",
                            lambda root: backward_calls.append(1) or real_backward(root))
        grid = [grid_entry_from_dict(e) for e in [
            {"attack": "fgsm", "eps": 0.1, "target": "channel=1"},
            {"attack": "pgd", "eps": 0.1, "iters": 3, "target": "channel=0,2"},
        ]]
        report = run_experiment(small_dataset, counting_est, grid, seed=0)
        assert backward_calls == []
        assert counting_est.flow_calls == len(small_dataset)
        assert {r.error for r in report.records} == {
            "ValidationError: color mask on a pair without colors"}
        for pair in small_dataset:
            clean_epe = clean_pass([pair], counting_est)[0][0]
            assert {r.epe_before for r in report.records if r.pair_id == pair.id} == {
                clean_epe}

    def test_fgsm_record_shows_the_step_that_ran(self, small_dataset):
        # FGSM runs one step of size eps whatever the cell's iters and alpha
        grid = [grid_entry_from_dict(e) for e in [
            {"attack": "fgsm", "eps": 0.1},
            {"attack": "fgsm", "eps": 0.1, "iters": 5, "alpha": 0.3},
        ]]
        est = OTEstimator(sinkhorn_iters=8)
        report = run_experiment(small_dataset[:2], est, grid, seed=0)
        assert len(report.records) == 4
        for rec in report.records:
            assert (rec.iters, rec.alpha, rec.error) == (1, 0.1, None)
        for pair in small_dataset[:2]:
            recs = [r for r in report.records if r.pair_id == pair.id]
            assert recs[0].seed != recs[1].seed  # digests hash the grid's own config
            assert recs[0].epe_after == recs[1].epe_after

    @pytest.mark.parametrize("entry,calls,calls_with_clean", [
        (GridEntry("none"), 0, 0),
        (GridEntry("random", AttackConfig(eps=0.05)), 1, 1),
        (GridEntry("fgsm", AttackConfig(eps=0.05)), 2, 1),
        (GridEntry("pgd", AttackConfig(eps=0.05, iters=3)), 4, 3),
        (GridEntry("pgd", AttackConfig(eps=0.05, iters=3, random_start=True)), 4, 4),
    ], ids=["none", "random", "fgsm", "pgd", "pgd-random-start"])
    def test_forward_passes_per_cell(self, small_dataset, counting_est, entry, calls,
                                     calls_with_clean):
        # one forward per gradient step plus one to score the attacked cloud;
        # the clean EPE comes in as base_epe, and a clean pass handed in
        # replaces the first step's forward unless the start is random
        pair = small_dataset[0]
        records = []
        for clean, expect in ((None, calls),
                              (clean_pass([pair], counting_est)[0], calls_with_clean)):
            counting_est.flow_calls = 0
            records += _run_cell([pair], counting_est, "ot:test", entry, [(0.1, clean)],
                                 seed=0, timing=False)
            assert records[-1].error is None
            assert records[-1].estimator == "ot:test"
            assert counting_est.flow_calls == expect
        assert repr(records[0]) == repr(records[1])

    @pytest.mark.parametrize("grid, flows, backwards", [
        (SIX_CELL_GRID, 16, 10),
        ([{"attack": "none"}, {"attack": "random", "eps": 0.1}], 2, 0),
        ([{"attack": "pgd", "eps": 0.1, "iters": 2, "random_start": True}], 4, 2),
    ], ids=["six-cell", "none-random", "pgd-random-start"])
    def test_passes_per_pair(self, monkeypatch, small_dataset, counting_est, grid,
                             flows, backwards):
        # six-cell grid: one clean fwd+bwd shared by the 4 FGSM cells and PGD's
        # first step, 9 more PGD steps, and 5 attacked clouds scored.  Without
        # a cell that steps from the clean cloud, the baseline is forward-only.
        # Each flow is one pair's; each backward is one step over a batch.
        backward_calls = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward",
                            lambda root: backward_calls.append(1) or backward(root))
        run_experiment(small_dataset, counting_est,
                       [grid_entry_from_dict(e) for e in grid], seed=0)
        assert counting_est.flow_calls == flows * len(small_dataset)
        assert len(backward_calls) == backwards * len(batches(small_dataset))

    @pytest.mark.parametrize("kind, errors", [
        # the tiny net's forward takes a NaN point, but no graph leaf does:
        # each FGSM/PGD cell of that pair records the failure, and the
        # random cell, which takes no gradient, completes
        ("tiny", {"DomainError: leaf values must be finite": 5, None: 1}),
        # OT's forward fails on the non-finite cost too, so the pair's
        # baseline fails and each of its records carries that
        ("ot", {"DomainError: cost must be finite": 6}),
    ], ids=["tiny", "ot"])
    def test_non_finite_cloud_keeps_cell_errors(self, small_dataset, kind, errors):
        # the run completes; the batch is rerun pair by pair, so the other
        # pairs' records are those of a run without the bad pair
        from sfattack.scene import PointCloud, ScenePair
        pair = small_dataset[0]
        pos = pair.pc1.positions.copy()
        pos[2, 1] = np.nan
        bad = ScenePair(PointCloud(pos), pair.pc2, pair.gt_flow, "nan")
        good = [small_dataset[1], small_dataset[2]]
        grid = [grid_entry_from_dict(e) for e in SIX_CELL_GRID]
        est = (TinyNetEstimator(init_weights(3, seed=5)) if kind == "tiny"
               else OTEstimator(sinkhorn_iters=8))
        report = run_experiment([good[0], bad, good[1]], est, grid, seed=0)
        assert len(batches([good[0], bad, good[1]])) == 1
        got = [r.error for r in report.records if r.pair_id == "nan"]
        assert Counter(got) == errors
        alone = run_experiment(good, est, grid, seed=0)
        assert [repr(r) for r in report.records if r.pair_id != "nan"] == \
            [repr(r) for r in alone.records]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_failed_baseline_keeps_other_records(self, monkeypatch, jobs):
        # one first-cloud point far off underflows the OT pair's Sinkhorn row:
        # its baseline fails, so each of its records carries the error, and
        # the other pairs' records are those of a run without it.  The far
        # pair sits in the middle of the middle one of three batches.
        from dataclasses import replace
        from sfattack.scene import PointCloud
        data = make_dataset(9, DatasetSpec(n_points=24, kind="rigid", angle_range=(0.0, 0.3),
                                           translation_scale=0.2), seed=21)
        pos = data[4].pc1.positions.copy()
        pos[0] = 5.0
        data[4] = replace(data[4], pc1=PointCloud(pos), id="far")
        monkeypatch.setattr(harness, "BATCH_ROWS", 72)
        cut = [[p.id for p in b] for b in batches(data)]
        assert len(cut) == 3 and cut[1][1] == "far"
        grid = [grid_entry_from_dict(e) for e in SIX_CELL_GRID]
        est = OTEstimator(sinkhorn_iters=8)
        report = run_experiment(data, est, grid, seed=0, jobs=jobs)
        far = [r for r in report.records if r.pair_id == "far"]
        assert [r.error for r in far] == [
            "NumericError: degenerate row marginal in sinkhorn (underflow)"] * 6
        assert all(np.isnan(r.epe_before) and r.rel is None for r in far)
        alone = run_experiment(data[:4] + data[5:], est, grid, seed=0)
        assert [repr(r) for r in report.records if r.pair_id != "far"] == \
            [repr(r) for r in alone.records]
        assert report.aggregates == alone.aggregates

    @pytest.mark.parametrize("grid", [SIX_CELL_GRID, [{"attack": "random", "eps": 0.1}]],
                             ids=["clean-pass", "forward-only"])
    def test_pair_baselines_raise_the_batch_error(self, small_dataset, grid):
        # a batch with the far pair raises its error; without it, each
        # pair's slot is that pair's own baseline, bit for bit
        from dataclasses import replace
        from sfattack.harness import pair_baselines
        from sfattack.scene import PointCloud
        pos = small_dataset[1].pc1.positions.copy()
        pos[0] = 5.0
        bad = replace(small_dataset[1], pc1=PointCloud(pos), id="far")
        good = [small_dataset[0], small_dataset[2]]
        grid = [grid_entry_from_dict(e) for e in grid]
        est = OTEstimator(sinkhorn_iters=8)
        with pytest.raises(estimators.NumericError,
                           match=r"^degenerate row marginal in sinkhorn \(underflow\)$"):
            pair_baselines([good[0], bad, good[1]], est, grid)
        for pair, base in zip(good, pair_baselines(good, est, grid)):
            [alone] = pair_baselines([pair], est, grid)
            assert repr(base[0]) == repr(alone[0])
            assert (base[1] is None) == (alone[1] is None) == (len(grid) == 1)
            if base[1] is not None:
                assert [None if g is None else g.tobytes() for g in base[1][1:]] == \
                    [None if g is None else g.tobytes() for g in alone[1][1:]]

    def test_batch_runs_on_one_thread(self, small_dataset, small_grid, monkeypatch):
        # a batch's baselines and tasks are one job: each task runs on the
        # thread that computed its batch's baselines
        import threading
        monkeypatch.setattr(harness, "BATCH_ROWS", 48)
        assert len(batches(small_dataset)) == 2
        calls = []
        for name in ("pair_baselines", "_run_cell"):
            def wrapped(batch, *args, real=getattr(harness, name), name=name):
                calls.append((name, tuple(p.id for p in batch), threading.get_ident()))
                return real(batch, *args)
            monkeypatch.setattr(harness, name, wrapped)
        run_experiment(small_dataset, OTEstimator(sinkhorn_iters=8), small_grid,
                       seed=0, jobs=2)
        threads = {ids: t for name, ids, t in calls if name == "pair_baselines"}
        cells = [(ids, t) for name, ids, t in calls if name == "_run_cell"]
        assert len(threads) == 2 and len(cells) == 2 * len(small_grid)
        assert all(threads[ids] == t for ids, t in cells)

    def test_failed_baseline_report_is_strict_json(self, small_dataset, tmp_path):
        # the far pair's records have no EPE: null, not NaN, which no strict
        # JSON parser reads; the aggregates are those of the other pairs
        from dataclasses import replace
        from sfattack.scene import PointCloud
        pos = small_dataset[1].pc1.positions.copy()
        pos[0] = 5.0
        bad = replace(small_dataset[1], pc1=PointCloud(pos), id="far")
        good = [small_dataset[0], small_dataset[2]]
        grid = [grid_entry_from_dict(e) for e in SIX_CELL_GRID[:2]]
        est = OTEstimator(sinkhorn_iters=8)
        report = run_experiment([good[0], bad, good[1]], est, grid, seed=0)
        write_report(report, json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        got = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        far = [r for r in got["records"] if r["pair_id"] == "far"]
        assert len(far) == 2 and all(r["error"] for r in far)
        assert all(r["epe_before"] is None and r["epe_after"] is None for r in far)
        alone = report_to_json_dict(run_experiment(good, est, grid, seed=0))
        assert got["aggregates"] == alone["aggregates"]
        assert got["records"] == sorted(
            far + alone["records"], key=lambda r: (r["pair_id"], r["attack"], r["mask"],
                                                   r["seed"]))
        # the CSV still writes the failed baseline as nan, the missing EPE as ""
        rows = list(csv.DictReader(io.StringIO((tmp_path / "r.csv").read_text())))
        assert [(r["epe_before"], r["epe_after"]) for r in rows if r["pair_id"] == "far"] \
            == [("nan", "")] * 2

    @pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
    @pytest.mark.parametrize("kind", ["ot", "tiny"])
    def test_records_match_cells_without_clean_pass(self, color, kind):
        # the oracle: every cell runs its own first step and the baseline is
        # a forward-only pass, as before the clean pass was shared
        ds = DatasetSpec(n_points=20, with_color=color, angle_range=(0.0, 0.3),
                         translation_scale=0.2, noise_sigma=0.01)
        data = make_dataset(3, ds, seed=23)
        est = (OTEstimator(sinkhorn_iters=8) if kind == "ot"
               else TinyNetEstimator(init_weights(6 if color else 3, seed=5)))
        grid = [grid_entry_from_dict(e) for e in [
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.1},
            {"attack": "fgsm", "eps": 0.1, "target": "dim=2"},
            {"attack": "fgsm", "eps": 0.2, "target": "all-channels"},
            {"attack": "pgd", "eps": 0.2, "iters": 3, "target": "channel=1"},
            {"attack": "pgd", "eps": 0.1, "iters": 3},
            {"attack": "pgd", "eps": 0.1, "iters": 2, "random_start": True},
            {"attack": "pgd", "eps": 0.2, "iters": 2, "random_start": True,
             "target": "channel=0,2"},
            {"attack": "random", "eps": 0.1, "random_mode": "rademacher"},
        ]]
        label = f"{est.tag}:{est.config_digest()}"
        expect = []
        for pair in data:
            base = [(epe(est.estimate(pair), pair.gt_flow), None)]
            for entry in grid:
                expect += _run_cell([pair], est, label, entry, base, 9, False)
        expect.sort(key=lambda r: (r.pair_id, r.attack, r.mask, r.seed))
        report = run_experiment(data, est, grid, seed=9, jobs=2)
        # repr compares floats exactly, NaN included
        assert [repr(r) for r in report.records] == [repr(r) for r in expect]
        errors = {r.error for r in report.records} - {None}
        assert errors == (set() if color else
                          {"ValidationError: color mask on a pair without colors"})

    def test_reports_match_unrolled_nodes(self, monkeypatch, tmp_path, unrolled_sinkhorn):
        # the fused median-scale, sinkhorn and dense nodes against the graphs
        # they replace: two code paths, one report, byte for byte
        grid = [grid_entry_from_dict(e) for e in [
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.1},
            {"attack": "fgsm", "eps": 0.1, "target": "all-channels"},
            {"attack": "pgd", "eps": 0.1, "iters": 3, "target": "channel=0,2"},
            {"attack": "pgd", "eps": 0.1, "iters": 2, "random_start": True},
        ]]
        runs = []
        for unrolled in (False, True):
            if unrolled:
                monkeypatch.setattr(estimators, "median_scale", ops.unrolled_median_scale)
                monkeypatch.setattr(estimators, "sinkhorn", unrolled_sinkhorn)
                monkeypatch.setattr(estimators, "dense", ops.unrolled_dense)
            blobs = []
            for color in (False, True):
                ds = DatasetSpec(n_points=20, with_color=color, angle_range=(0.0, 0.3),
                                 translation_scale=0.2, noise_sigma=0.01)
                data = make_dataset(2, ds, seed=24)
                for est in (OTEstimator(sinkhorn_iters=8),
                            TinyNetEstimator(init_weights(6 if color else 3, seed=6))):
                    path = tmp_path / "report.json"
                    write_report(run_experiment(data, est, grid, seed=4), json_path=path)
                    blobs.append(path.read_bytes())
            runs.append(blobs)
        assert runs[0] == runs[1]

    def test_digest_once_per_run(self, small_dataset, small_grid, counting_est):
        report = run_experiment(small_dataset, counting_est, small_grid, seed=0)
        assert counting_est.digest_calls == 1
        label = f"ot:{OTEstimator(sinkhorn_iters=5).config_digest()}"
        assert {r.estimator for r in report.records} == {label}

    def test_requires_gt(self, small_dataset, small_grid, counting_est):
        # every pair is checked before any pass, the last one included
        from sfattack.scene import ScenePair
        last = small_dataset[-1]
        data = small_dataset[:-1] + [ScenePair(last.pc1, last.pc2, None, "bare")]
        with pytest.raises(ValidationError, match="^pair bare lacks gt_flow$"):
            run_experiment(data, counting_est, small_grid, seed=0)
        assert counting_est.flow_calls == 0

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, small_dataset, small_grid, counting_est, jobs):
        with pytest.raises(ValidationError):
            run_experiment(small_dataset, counting_est, small_grid, seed=0, jobs=jobs)
        assert counting_est.flow_calls == 0


class TestSerialization:
    def test_csv_shape(self, small_report):
        text = report_to_csv(small_report)
        rows = list(csv.reader(io.StringIO(text)))
        assert ",".join(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + len(small_report.records)
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_csv_rel_full_precision(self, small_report):
        text = report_to_csv(small_report)
        rows = list(csv.reader(io.StringIO(text)))
        rel_col = rows[0].index("rel")
        by_key = {(r.pair_id, r.attack, r.mask): r for r in small_report.records}
        for row in rows[1:]:
            rec = by_key[(row[0], row[2], row[3])]
            assert float(row[rel_col]) == rec.rel

    def test_json_round_trip(self, small_report):
        doc = report_to_json_dict(small_report)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["provenance"]["tool"] == "sfattack"
        assert doc["provenance"]["seed"] == 0

    def test_writes_are_byte_identical(self, small_dataset, small_grid, tmp_path):
        est = OTEstimator(sinkhorn_iters=15)
        for run in ("a", "b"):
            rep = run_experiment(small_dataset, est, small_grid, seed=0)
            write_report(rep, json_path=tmp_path / f"{run}.json",
                         csv_path=tmp_path / f"{run}.csv")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_aggregate_skips_error_records(self, small_report):
        import copy
        recs = copy.deepcopy(small_report.records)
        for r in recs:
            r.error = "boom"
        assert aggregate(recs) == []


class TestGradcheckBattery:
    def test_small_battery_passes(self):
        results = list(gradcheck_battery(base_seed=0, n_pairs=2))
        assert len(results) == 8  # {ot, tiny} x {plain, color} x 2 seeds
        assert all(rep.passed for _, _, rep in results)

    def test_deterministic(self):
        a = [(n, s, r.max_rel_err) for n, s, r in gradcheck_battery(0, n_pairs=1)]
        b = [(n, s, r.max_rel_err) for n, s, r in gradcheck_battery(0, n_pairs=1)]
        assert a == b


class TestSvg:
    def test_well_formed_and_counted(self, small_dataset):
        pair = small_dataset[0]
        n = pair.pc1.n_points
        svg = render_flow_svg(pair, pair.gt_flow, pair.gt_flow)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(circles) == 3 * n
        assert len(lines) == 2 * n

    def test_single_flow(self, small_dataset):
        pair = small_dataset[0]
        root = ET.fromstring(render_flow_svg(pair, pair.gt_flow))
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 2 * pair.pc1.n_points

    def test_zero_flow_markers_coincide(self, small_dataset):
        pair = small_dataset[0]
        zero = FlowField(np.zeros_like(pair.gt_flow.vectors))
        root = ET.fromstring(render_flow_svg(pair, zero))
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        n = pair.pc1.n_points
        gray = [(c.get("cx"), c.get("cy")) for c in circles[:n]]
        red = [(c.get("cx"), c.get("cy")) for c in circles[n:]]
        assert gray == red

    def test_length_mismatch(self, small_dataset):
        pair = small_dataset[0]
        with pytest.raises(ValidationError):
            render_flow_svg(pair, FlowField(np.zeros((3, 3))))
