"""Acceptance suite: ten end-to-end criteria with pinned expected values.

Each test prints a single PASS line on success (run with -s to see them);
a failure reads as the criterion that broke.  Expected numbers marked
"frozen" were produced by pilot runs of this code base with the seeds
shown and are bitwise-reproducible.
"""

import json
import time

import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack.attacks import (
    AttackConfig,
    TargetMask,
    check_feasibility,
    fgsm_sf,
    make_target_mask,
    pgd_sf,
    random_attack,
)
from sfattack.cli import cli_main
from sfattack.estimators import (
    Estimator,
    OTEstimator,
    TinyNetEstimator,
    epe,
    epe_loss,
    init_weights,
    load_weights,
    save_weights,
    train_tiny,
    zero_flow_aepe,
)
from sfattack.harness import (
    GridEntry,
    gradcheck_battery,
    run_experiment,
    _rel,
)
from sfattack.scene import (
    FlowField,
    FormatError,
    PointCloud,
    ScenePair,
    ValidationError,
    load_ply,
    load_sfp,
    save_ply,
    save_sfp,
)
from sfattack.synth import DatasetSpec, MotionSpec, make_dataset, make_pair


def ok(msg: str) -> None:
    print(f"PASS  {msg}")


class NegatedCloudEstimator(Estimator):
    """Fixture: predicted flow = -pc1, so the EPE gradient is closed-form."""

    tag = "negcloud"

    def flow_tensor(self, pos1, col1, pair):
        return ad.smul(pos1, -1.0)


def test_01_gradient_correctness():
    """Finite-difference audit of epe_loss o estimator over positions and
    colors: max relative error < 1e-4 on >= 20 seeded 8-point pairs each."""
    start = time.perf_counter()
    results = list(gradcheck_battery(base_seed=0, n_pairs=20))
    elapsed = time.perf_counter() - start

    assert len(results) == 80  # {ot, tiny} x {plain, +color} x 20 pairs
    worst = {}
    for name, seed, rep in results:
        assert rep.passed, (name, seed, rep.max_rel_err)
        worst[name] = max(worst.get(name, 0.0), rep.max_rel_err)
    assert max(worst.values()) < 1e-4
    assert elapsed < 30.0
    ok(f"criterion 1: gradcheck, worst rel err "
       f"{max(worst.values()):.2e} over 80 checks in {elapsed:.1f}s")


def test_02_attack_feasibility_invariants():
    """1000 randomized attack invocations: every delta inside the eps box,
    zero off-mask, colors in [0,1], gt_flow bytes untouched."""
    base_rng = np.random.default_rng(1234)
    cheap = NegatedCloudEstimator()
    ot = OTEstimator(reg=0.1, sinkhorn_iters=8)
    violations = 0
    for i in range(1000):
        rng = np.random.default_rng(base_rng.integers(2**63))
        pair = make_pair(6, MotionSpec(translation=(0.05, -0.02, 0.01),
                                       angle=0.1, axis=(0.0, 0.0, 1.0)),
                         with_color=True, seed=int(rng.integers(2**31)))
        domain = "colors" if rng.integers(2) else "positions"
        axes = frozenset(rng.choice(3, size=int(rng.integers(1, 4)),
                                    replace=False).tolist())
        cfg = AttackConfig(
            eps=float(rng.uniform(0.01, 0.3)),
            iters=int(rng.integers(1, 4)),
            mask=TargetMask(domain, axes),
            random_start=bool(rng.integers(2)),
            random_mode="rademacher" if rng.integers(2) else "uniform",
        )
        est = ot if i % 4 == 0 else cheap
        attack = ("fgsm", "pgd", "random")[i % 3]
        gt_bytes = pair.gt_flow.vectors.tobytes()
        if attack == "fgsm":
            res = fgsm_sf(pair, est, cfg)
        elif attack == "pgd":
            res = pgd_sf(pair, est, cfg, seed=i)
        else:
            res = random_attack(pair, cfg, seed=i)
        violations += len(check_feasibility(pair, cfg, res))
        assert pair.gt_flow.vectors.tobytes() == gt_bytes
    assert violations == 0
    ok("criterion 2: 1000 attack invocations, 0 feasibility violations")


def test_03_analytic_fgsm_fixture():
    """flow = -pc1 and gt = 0 make the loss mean ||pc1||, so the signed
    gradient is sign(pc1): (1,2,-1) with eps 0.5 moves to (1.5,2.5,-1.5)."""
    pos = np.array([[1.0, 2.0, -1.0]])
    pair = ScenePair(PointCloud(pos), PointCloud(pos),
                     FlowField(np.zeros((1, 3))), "fixture")
    est = NegatedCloudEstimator()

    res = fgsm_sf(pair, est, AttackConfig(eps=0.5))
    assert np.abs(res.adv_pc1.positions - [[1.5, 2.5, -1.5]]).max() < 1e-12

    res0 = fgsm_sf(pair, est, AttackConfig(eps=0.5,
                                           mask=TargetMask("positions", frozenset({0}))))
    assert np.abs(res0.adv_pc1.positions - [[1.5, 2.0, -1.0]]).max() < 1e-12
    ok("criterion 3: analytic FGSM fixture to 1e-12")


def fgsm_oracle(pair, est, cfg):
    """base + eps * sign(g) from the clean EPE gradient g on the masked
    axes, clipped to [0,1] for colors: the FGSM step, computed here."""
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


def test_04_pgd_reduces_to_fgsm():
    """pgd_sf(iters=1, alpha=eps, no random start) and fgsm_sf both equal
    an inline FGSM oracle, bitwise, on 100 seeded pairs."""
    est = OTEstimator(sinkhorn_iters=10)
    motion = MotionSpec(kind="rigid", axis=(0.0, 0.0, 1.0), angle=0.2,
                        translation=(0.08, -0.03, 0.05), noise_sigma=0.02)
    for seed in range(100):
        pair = make_pair(12, motion, with_color=(seed % 2 == 0), seed=seed)
        mask = TargetMask("colors") if seed % 4 == 0 else TargetMask("positions")
        cfg = AttackConfig(eps=0.06, iters=1, alpha=0.06, mask=mask)
        base, adv = fgsm_oracle(pair, est, cfg)
        for res in (fgsm_sf(pair, est, cfg), pgd_sf(pair, est, cfg)):
            got = (res.adv_pc1.positions if mask.domain == "positions"
                   else res.adv_pc1.colors)
            assert got.tobytes() == adv.tobytes()
            assert res.delta.tobytes() == (adv - base).tobytes()
    ok("criterion 4: PGD(iters=1, alpha=eps) == FGSM bitwise on 100 pairs")


def test_05_auto_alpha_schedule():
    """AUTO alpha resolves to 2.5 * eps / iters: eps=2, iters=10 -> 0.5."""
    assert AttackConfig(eps=2.0, iters=10).resolved_alpha() == pytest.approx(0.5, abs=1e-15)
    assert AttackConfig(eps=0.1, iters=10).resolved_alpha() == pytest.approx(0.025, abs=1e-15)
    assert AttackConfig(eps=0.1, iters=1).resolved_alpha() == pytest.approx(0.25, abs=1e-15)
    ok("criterion 5: AUTO alpha = 2.5*eps/iters (2, 10 -> 0.5)")


# Frozen pilot (this code base, dataset seed 42, experiment seed 0):
# aepe_before 0.09360; mean rel by attack/mask below.
DIRECTIONAL_PILOT = {
    ("fgsm", "all-dims"): 1.1275,
    ("fgsm", "dim=0"): 0.5133,
    ("fgsm", "dim=1"): 0.5204,
    ("fgsm", "dim=2"): 0.5216,
    ("pgd", "all-dims"): 1.2419,
    ("random", "all-dims"): 0.2419,
}


def test_06_directional_suite():
    """OT estimator over 64 unit-cube pairs of 256 points at eps 0.1:
    all-dims FGSM beats every single-dim FGSM, PGD(10) >= FGSM, and FGSM
    beats the random baseline by at least 3x.  Values pinned from a pilot
    run of this configuration; single-threaded budget 10 minutes."""
    start = time.perf_counter()
    ds = DatasetSpec(n_points=256, kind="rigid", angle_range=(0.0, 0.3),
                     translation_scale=0.2)
    dataset = make_dataset(64, ds, seed=42)
    grid = [
        GridEntry("fgsm", AttackConfig(eps=0.1, iters=1, alpha=0.1)),
        GridEntry("fgsm", AttackConfig(eps=0.1, iters=1, alpha=0.1,
                                       mask=make_target_mask("dim=0"))),
        GridEntry("fgsm", AttackConfig(eps=0.1, iters=1, alpha=0.1,
                                       mask=make_target_mask("dim=1"))),
        GridEntry("fgsm", AttackConfig(eps=0.1, iters=1, alpha=0.1,
                                       mask=make_target_mask("dim=2"))),
        GridEntry("pgd", AttackConfig(eps=0.1, iters=10)),
        GridEntry("random", AttackConfig(eps=0.1)),
    ]
    report = run_experiment(dataset, OTEstimator(), grid, seed=0)
    elapsed = time.perf_counter() - start

    rel = {(a["attack"], a["mask"]): a["rel"] for a in report.aggregates}
    for key, pinned in DIRECTIONAL_PILOT.items():
        assert rel[key] == pytest.approx(pinned, rel=1e-2), (key, rel[key])

    fgsm_all = rel[("fgsm", "all-dims")]
    singles = [rel[("fgsm", f"dim={d}")] for d in range(3)]
    assert all(fgsm_all > s > 0.0 for s in singles)
    assert rel[("pgd", "all-dims")] >= fgsm_all
    assert fgsm_all >= 3.0 * rel[("random", "all-dims")]
    assert elapsed < 600.0
    ok(f"criterion 6: directional suite in {elapsed:.0f}s "
       f"(fgsm {fgsm_all:+.4f}, pgd {rel[('pgd', 'all-dims')]:+.4f}, "
       f"random {rel[('random', 'all-dims')]:+.4f})")


def test_07_training_sanity():
    """64 training / 16 held-out rigid pairs, 30 epochs: held-out AEPE
    beats the zero-flow baseline and the loss trace decreases."""
    start = time.perf_counter()
    ds = DatasetSpec(n_points=64, kind="rigid", angle_range=(0.0, 0.2),
                     translation_scale=0.2)
    pairs = make_dataset(80, ds, seed=7)
    train_set, held_out = pairs[:64], pairs[64:]

    weights, trace = train_tiny(train_set, epochs=30, lr=0.1, seed=0)
    est = TinyNetEstimator(weights)

    held_aepe = float(np.mean([epe(est.estimate(p), p.gt_flow) for p in held_out]))
    baseline = zero_flow_aepe(held_out)
    elapsed = time.perf_counter() - start

    assert trace[-1] < trace[0]
    assert held_aepe < baseline
    assert elapsed < 300.0
    ok(f"criterion 7: trained tiny net, held-out AEPE {held_aepe:.4f} < "
       f"zero-flow {baseline:.4f}, loss {trace[0]:.4f} -> {trace[-1]:.4f} "
       f"in {elapsed:.0f}s")


def test_08_harness_arithmetic():
    """rel = (after - before) / before reproduces +0.675 from (0.117, 0.196);
    report aggregates match an independent per-group mean to 1e-9."""
    assert _rel(0.117, 0.196) == pytest.approx(0.675, abs=1e-3)

    ds = DatasetSpec(n_points=24, kind="rigid", angle_range=(0.0, 0.3),
                     translation_scale=0.2)
    dataset = make_dataset(5, ds, seed=77)
    grid = [GridEntry("none"),
            GridEntry("fgsm", AttackConfig(eps=0.05, iters=1, alpha=0.05)),
            GridEntry("random", AttackConfig(eps=0.05))]
    report = run_experiment(dataset, OTEstimator(sinkhorn_iters=15),
                            grid, seed=0)

    for agg in report.aggregates:
        recs = [r for r in report.records
                if (r.estimator, r.attack, r.mask)
                == (agg["estimator"], agg["attack"], agg["mask"])]
        before = sum(r.epe_before for r in recs) / len(recs)
        after = sum(r.epe_after for r in recs) / len(recs)
        assert abs(agg["aepe_before"] - before) < 1e-9
        assert abs(agg["aepe_after"] - after) < 1e-9
        expect_rel = 0.0 if agg["attack"] == "none" else (after - before) / before
        assert abs(agg["rel"] - expect_rel) < 1e-9
    ok("criterion 8: rel(0.117, 0.196) = +0.675; aggregates match oracle to 1e-9")


def test_09_end_to_end_determinism(tmp_path):
    """generate -> train -> attack -> eval twice with fixed seeds: identical
    bytes at --jobs 1, identical report content at --jobs 4."""
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        data, model = d / "data", d / "model.sftn"
        adv, rep = d / "adv.sfp", d / "attack.json"
        ev_json, ev_csv = d / "eval.json", d / "eval.csv"
        grid = d / "grid.json"
        grid.write_text(json.dumps([
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.05},
            {"attack": "pgd", "eps": 0.05, "iters": 3},
        ]))
        assert cli_main(["generate", "--scenes", "6", "--points", "16",
                         "--seed", "5", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data), "--epochs", "2",
                         "--lr", "0.1", "--seed", "5", "--out", str(model)]) == 0
        assert cli_main(["attack", "--model", f"tiny:{model}", "--attack", "pgd",
                         "--eps", "0.05", "--iters", "3", "--seed", "5",
                         "--in", str(data / "pair_0000.sfp"),
                         "--out", str(adv), "--report", str(rep)]) == 0
        assert cli_main(["eval", "--model", f"tiny:{model}", "--data", str(data),
                         "--grid", str(grid), "--report", str(ev_json),
                         "--csv", str(ev_csv), "--seed", "5"]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in (model, adv, rep, ev_json, ev_csv)})

    assert outputs[0] == outputs[1]

    # a 4-worker eval of run "a" matches the single-threaded report
    d = tmp_path / "a"
    par = d / "eval_jobs4.json"
    assert cli_main(["eval", "--model", f"tiny:{d / 'model.sftn'}",
                     "--data", str(d / "data"), "--grid", str(d / "grid.json"),
                     "--report", str(par), "--seed", "5", "--jobs", "4"]) == 0
    assert par.read_bytes() == (d / "eval.json").read_bytes()
    ok("criterion 9: generate/train/attack/eval byte-identical across runs and --jobs 4")


def test_10_round_trips_and_fuzz():
    """SFP1 and SFTN round-trip bit-exactly, PLY to 32-bit precision; 10,000
    fuzzed corruptions raise structured errors, never anything else."""
    rng = np.random.default_rng(55)

    pair = make_pair(9, MotionSpec(angle=0.2, translation=(0.1, 0.0, -0.05),
                                   axis=(0.0, 0.0, 1.0)), with_color=True, seed=1)
    blob = save_sfp(pair)
    assert save_sfp(load_sfp(blob)) == blob

    weights = init_weights(6, seed=3, k_neighbors=4)
    wblob = save_weights(weights)
    assert save_weights(load_weights(wblob)) == wblob

    back = load_ply(save_ply(pair.pc1))
    assert np.abs(back.positions - pair.pc1.positions).max() < 1e-6
    assert save_ply(back) == save_ply(pair.pc1)

    structured = (FormatError, ValidationError)
    cases = 0
    for blob_src, loader in ((blob, load_sfp), (wblob, load_weights)):
        for _ in range(4500):
            cases += 1
            mutated = bytearray(blob_src)
            op = rng.integers(3)
            if op == 0:  # truncate
                mutated = mutated[: rng.integers(len(mutated))]
            elif op == 1:  # flip bytes
                for _ in range(int(rng.integers(1, 6))):
                    mutated[rng.integers(len(mutated))] = rng.integers(256)
            else:  # append garbage
                mutated += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9))))
            try:
                loader(bytes(mutated))
            except structured:
                pass
            except ad.DomainError:
                pass  # corrupted payloads may decode to non-finite floats
    text = save_ply(pair.pc1)
    for _ in range(1000):
        cases += 1
        lines = text.splitlines()
        op = rng.integers(3)
        if op == 0:
            lines = lines[: rng.integers(len(lines))]
        elif op == 1:
            k = int(rng.integers(len(lines)))
            lines[k] = "".join(rng.permutation(list(lines[k]))) if lines[k] else "?"
        else:
            lines.insert(int(rng.integers(len(lines))), "junk 1 2 3")
        try:
            load_ply("\n".join(lines))
        except structured:
            pass
    assert cases == 10_000
    ok("criterion 10: round-trips exact; 10,000 fuzz cases, structured errors only")
