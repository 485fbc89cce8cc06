import json

import numpy as np
import pytest

from sfattack.cli import cli_main
from sfattack.scene import ScenePair, load_sfp, save_sfp
from sfattack.estimators import load_weights
from sfattack.harness import load_grid, _rel


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = cli_main(["generate", "--scenes", "4", "--points", "24",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_files(self, dataset_dir):
        files = sorted(p.name for p in dataset_dir.glob("*.sfp"))
        assert files == [f"pair_{k:04d}.sfp" for k in range(4)]
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert len(manifest["pairs"]) == 4

    def test_deterministic(self, dataset_dir, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "--scenes", "4", "--points", "24",
                             "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        for name in ("pair_0000.sfp", "pair_0003.sfp"):
            assert (tmp_path / name).read_bytes() == (dataset_dir / name).read_bytes()

    def test_color_flag(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "--scenes", "1", "--points", "8",
                             "--color", "--out", str(tmp_path))
        assert code == 0
        pair = load_sfp((tmp_path / "pair_0000.sfp").read_bytes())
        assert pair.pc1.has_colors


    def test_non_finite_noise_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--scenes", "1", "--points", "8",
                               "--noise", "nan", "--out", str(tmp_path / "d"))
        assert code == 1
        assert "noise_sigma" in err
        assert not (tmp_path / "d").exists()


class TestAttack:
    def test_fgsm_roundtrip(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "adv.sfp"
        report = tmp_path / "rep.json"
        code, stdout, _ = run_cli(
            capsys, "attack", "--attack", "fgsm", "--eps", "0.05",
            "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(out), "--report", str(report))
        assert code == 0
        assert "epe" in stdout
        doc = json.loads(report.read_text())
        assert doc["attack"] == "fgsm"
        assert doc["iters"] == 1
        assert doc["alpha"] == 0.05  # fgsm pins alpha = eps
        assert doc["rel"] == _rel(doc["epe_before"], doc["epe_after"])
        adv = load_sfp(out.read_bytes())
        base = load_sfp((dataset_dir / "pair_0000.sfp").read_bytes())
        assert abs(adv.pc1.positions - base.pc1.positions).max() <= 0.05 + 1e-6

    def test_pgd_auto_alpha(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code, _, _ = run_cli(
            capsys, "attack", "--attack", "pgd", "--eps", "2", "--iters", "10",
            "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(tmp_path / "adv.sfp"), "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["alpha"] == pytest.approx(0.5)  # 2.5 * eps / iters
        assert doc["iters"] == 10

    def test_random_reports_one_iter(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code, _, _ = run_cli(
            capsys, "attack", "--attack", "random", "--eps", "0.05", "--iters", "10",
            "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(tmp_path / "adv.sfp"), "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["iters"] == 1
        assert doc["epe_after"] != doc["epe_before"]

    @pytest.mark.parametrize("attack", ["fgsm", "pgd", "random"])
    def test_pair_without_gt_flow_exits_1(self, dataset_dir, tmp_path, capsys, attack):
        pair = load_sfp((dataset_dir / "pair_0000.sfp").read_bytes())
        bare = tmp_path / "bare.sfp"
        bare.write_bytes(save_sfp(ScenePair(pair.pc1, pair.pc2, None, "bare")))
        out = tmp_path / "adv.sfp"
        code, _, err = run_cli(
            capsys, "attack", "--attack", attack, "--eps", "0.05",
            "--in", str(bare), "--out", str(out))
        assert code == 1
        assert "attack requires a pair with gt_flow" in err
        assert not out.exists()

    def test_bad_target_exits_1(self, dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "attack", "--attack", "fgsm", "--eps", "0.05",
            "--target", "dim=9",
            "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(tmp_path / "adv.sfp"))
        assert code == 1
        assert "error" in err

    def test_missing_required_arg_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "attack", "--attack", "fgsm")
        assert code == 1

    @pytest.mark.parametrize("attack", ["pgd", "random"])
    def test_iters_above_cap_exits_1(self, dataset_dir, tmp_path, capsys, attack):
        out = tmp_path / "adv.sfp"
        code, _, err = run_cli(
            capsys, "attack", "--attack", attack, "--eps", "0.05",
            "--iters", "1000000000", "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(out))
        assert code == 1
        assert err.startswith("error: iters must be <= 10000")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--model", "--in"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_exits_1(self, dataset_dir, tmp_path, capsys, flag, kind):
        bad = tmp_path / "missing.bin" if kind == "missing" else tmp_path
        model = f"tiny:{bad}" if flag == "--model" else "ot"
        infile = bad if flag == "--in" else dataset_dir / "pair_0000.sfp"
        out = tmp_path / "adv.sfp"
        code, _, err = run_cli(capsys, "attack", "--attack", "fgsm", "--eps", "0.05",
                               "--model", model, "--in", str(infile), "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and str(bad) in err
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_model(dataset_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "tiny.sftn"
    code = cli_main(["train", "--data", str(dataset_dir), "--epochs", "1",
                     "--out", str(model)])
    assert code == 0
    return model


class TestAttackMatchesEval:
    @pytest.mark.parametrize("kind", ["ot", "tiny"])
    @pytest.mark.parametrize("cell, argv", [
        ({"attack": "fgsm", "eps": 0.05, "target": "dim=1"},
         ["--attack", "fgsm", "--eps", "0.05", "--target", "dim=1"]),
        ({"attack": "pgd", "eps": 0.05, "iters": 3},
         ["--attack", "pgd", "--eps", "0.05", "--iters", "3"]),
        ({"attack": "random", "eps": 0.05},
         ["--attack", "random", "--eps", "0.05", "--iters", "10"]),
    ], ids=["fgsm-dim1", "pgd", "random"])
    def test_same_scores(self, dataset_dir, tiny_model, tmp_path, capsys, kind,
                         cell, argv):
        model = "ot" if kind == "ot" else f"tiny:{tiny_model}"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([cell]))
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "eval", "--model", model, "--data", str(dataset_dir),
                             "--grid", str(grid), "--report", str(report))
        assert code == 0
        rec = next(r for r in json.loads(report.read_text())["records"]
                   if r["pair_id"] == "pair_0001")
        summary = tmp_path / "summary.json"
        code, _, _ = run_cli(capsys, "attack", "--model", model, *argv,
                             "--in", str(dataset_dir / "pair_0001.sfp"),
                             "--out", str(tmp_path / "adv.sfp"), "--report", str(summary))
        assert code == 0
        doc = json.loads(summary.read_text())
        # eval writes floats at 6 significant digits, except rel.  A random
        # cell draws from the hashed cell seed and attack from --seed, so
        # only what does not depend on the draw matches
        drawn = cell["attack"] == "random"
        for key in ("epe_before", "alpha") + (() if drawn else ("epe_after",)):
            assert rec[key] == float(f"{doc[key]:.6g}")
        for key in ("iters",) + (() if drawn else ("rel",)):
            assert rec[key] == doc[key]


class TestEval:
    def test_pair_without_gt_flow_exits_1(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        pair = load_sfp((dataset_dir / "pair_0000.sfp").read_bytes())
        (data / "a.sfp").write_bytes((dataset_dir / "pair_0001.sfp").read_bytes())
        (data / "b.sfp").write_bytes(save_sfp(ScenePair(pair.pc1, pair.pc2, None)))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"attack": "fgsm", "eps": 0.05}]))
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, "eval", "--data", str(data), "--grid", str(grid),
                                 "--report", str(report))
        assert (code, out, err) == (1, "", "error: pair b lacks gt_flow\n")
        assert not report.exists()

    def test_grid_run(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.05},
            {"attack": "random", "eps": 0.05},
        ]))
        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            capsys, "eval", "--data", str(dataset_dir), "--grid", str(grid),
            "--report", str(report), "--csv", str(csv_path))
        assert code == 0
        assert "fgsm" in stdout
        doc = json.loads(report.read_text())
        assert len(doc["records"]) == 4 * 3
        lines = csv_path.read_text().rstrip("\n").split("\n")
        assert len(lines) == 1 + 12
        assert lines[0].startswith("pair_id,estimator,attack")

    def test_repeat_is_byte_identical(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"attack": "fgsm", "eps": 0.05}]))
        blobs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "eval", "--data", str(dataset_dir),
                                 "--grid", str(grid), "--report", str(path))
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_grid_exits_1(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text("[]")
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                               "--grid", str(grid),
                               "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("entry", [
        {"attack": "fgsm"},
        [5],
        {"attack": "fgsm", "eps": 0.05, "target": 3},
        {"attack": "pgd", "eps": 0.05, "alpha": None},
        {"attack": "pgd", "eps": 0.05, "alpha": "0.01"},
        {"attack": "pgd", "eps": 0.05, "iter": 10},
        {"attack": "pgd", "eps": 0.05, "random_start": "no"},
        {"attack": "pgd", "eps": 0.05, "iters": 1.5},
        {"attack": "pgd", "eps": 0.05, "iters": True},
        {"attack": "fgsm", "eps": "0.05"},
        {"attack": "fgsm", "eps": 10**400},
        {"attack": "none", "eps": 0.05},
        {"eps": 0.05},
    ], ids=["missing-eps", "non-object", "int-target", "null-alpha", "string-alpha",
            "unknown-key", "string-flag", "float-iters", "bool-iters", "string-eps",
            "huge-eps", "none-with-eps", "missing-attack"])
    def test_malformed_grid_entry_exits_1(self, dataset_dir, tmp_path, capsys, entry):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"attack": "none"}, entry]))
        report = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                               "--grid", str(grid), "--report", str(report))
        assert code == 1
        assert err.startswith("error:")
        assert not report.exists()

    def test_grid_fuzz_exits_1(self, dataset_dir, tmp_path, capsys):
        # load_grid rejects a corrupted grid file only with a ValueError (a
        # ValidationError, or a JSON or UTF-8 decode error), which eval
        # exits 1 on, never 2
        valid = json.dumps([
            {"attack": "none"},
            {"attack": "fgsm", "eps": 0.05, "target": "dim=0,2"},
            {"attack": "pgd", "eps": 0.1, "iters": 10, "alpha": "auto",
             "random_start": True, "target": "channel=1"},
            {"attack": "pgd", "eps": 1, "iters": 3, "alpha": 0.02, "clamp_colors": False},
            {"attack": "random", "eps": 0.05, "random_mode": "rademacher",
             "target": "all-channels"},
        ]).encode()
        tokens = [b"e999", b"1e999", b"NaN", b"Infinity", b"-Infinity", b"null",
                  b"[", b"]", b"{", b"}", b",", b'"']
        rng = np.random.default_rng(31)
        grid = tmp_path / "grid.json"
        loaded = rejected = 0
        for _ in range(2000):
            blob = bytearray(valid)
            op = rng.integers(4)
            if op == 0:  # flip bytes
                for _ in range(int(rng.integers(1, 4))):
                    blob[rng.integers(len(blob))] = rng.integers(256)
            elif op == 1:  # delete a run of bytes
                at = int(rng.integers(len(blob)))
                del blob[at:at + int(rng.integers(1, 9))]
            elif op == 2:  # truncate
                blob = blob[:rng.integers(len(blob))]
            else:  # insert a number, literal or bracket
                at = int(rng.integers(len(blob) + 1))
                blob[at:at] = tokens[rng.integers(len(tokens))]
            grid.write_bytes(bytes(blob))
            try:
                load_grid(grid)
            except ValueError:
                rejected += 1
                if rejected % 20 == 0:  # a sample goes through the CLI too
                    code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                                           "--grid", str(grid),
                                           "--report", str(tmp_path / "r.json"))
                    assert code == 1 and err.startswith("error: "), err
            else:
                loaded += 1
        assert loaded and rejected

    def test_iters_above_cap_exits_1(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"attack": "pgd", "eps": 0.05,
                                     "iters": 1000000000}]))
        report = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                               "--grid", str(grid), "--report", str(report))
        assert code == 1
        assert err.startswith("error: iters must be <= 10000")
        assert not report.exists()

    def test_missing_grid_exits_1(self, dataset_dir, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                               "--grid", str(missing),
                               "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, dataset_dir, tmp_path, capsys, jobs):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"attack": "none"}]))
        report = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset_dir),
                               "--grid", str(grid), "--report", str(report),
                               "--jobs", jobs)
        assert code == 1
        assert "jobs" in err
        assert not report.exists()


class TestTrain:
    def test_train_and_use(self, tmp_path, capsys):
        data = tmp_path / "train"
        code, _, _ = run_cli(capsys, "generate", "--scenes", "4", "--points", "12",
                             "--seed", "9", "--out", str(data))
        assert code == 0
        model = tmp_path / "model.sftn"
        code, stdout, _ = run_cli(capsys, "train", "--data", str(data),
                                  "--epochs", "2", "--lr", "0.1",
                                  "--out", str(model))
        assert code == 0
        assert "trained 2 epochs" in stdout
        weights = load_weights(model.read_bytes())
        assert weights.in_dim == 3

        # the trained model is accepted by the attack command
        code, _, _ = run_cli(
            capsys, "attack", "--model", f"tiny:{model}",
            "--attack", "fgsm", "--eps", "0.05",
            "--in", str(data / "pair_0000.sfp"),
            "--out", str(tmp_path / "adv.sfp"))
        assert code == 0


    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--epochs", "-3"),
        ("--lr", "0"), ("--lr", "-0.1"), ("--lr", "nan"), ("--lr", "inf"),
    ], ids=["epochs-0", "epochs-neg", "lr-0", "lr-neg", "lr-nan", "lr-inf"])
    def test_bad_epochs_or_lr_exits_1(self, dataset_dir, tmp_path, capsys, flag, value):
        model = tmp_path / "model.sftn"
        code, _, err = run_cli(capsys, "train", "--data", str(dataset_dir),
                               flag, value, "--out", str(model))
        assert code == 1
        assert err.startswith(f"error: {flag[2:]} must be")
        assert not model.exists()


    @pytest.mark.parametrize("plain_first", [True, False],
                             ids=["plain-first", "colored-first"])
    def test_mixed_colors_exits_1(self, dataset_dir, tmp_path, capsys, plain_first):
        colored = tmp_path / "colored"
        code, _, _ = run_cli(capsys, "generate", "--scenes", "1", "--points", "24",
                             "--color", "--out", str(colored))
        assert code == 0
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        plain_name, colored_name = ("a", "b") if plain_first else ("b", "a")
        (mixed / f"{plain_name}.sfp").write_bytes(
            (dataset_dir / "pair_0000.sfp").read_bytes())
        (mixed / f"{colored_name}.sfp").write_bytes(
            (colored / "pair_0000.sfp").read_bytes())
        model = tmp_path / "model.sftn"
        code, _, err = run_cli(capsys, "train", "--data", str(mixed),
                               "--epochs", "1", "--out", str(model))
        assert code == 1
        word = "has" if plain_first else "lacks"
        assert err.startswith(f"error: pair b {word} colors, unlike a")
        assert not model.exists()


class TestGradcheckCmd:
    def test_passes_and_repeats(self, capsys):
        code1, out1, _ = run_cli(capsys, "gradcheck", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "gradcheck", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1

    def test_verdict_follows_gradcheck_tolerance(self, capsys, monkeypatch):
        # at rel_tol 0 every report fails, so every summary line must say FAIL
        from functools import partial
        from sfattack import autodiff as ad
        monkeypatch.setattr(ad, "gradcheck", partial(ad.gradcheck, rel_tol=0.0))
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "7")
        assert code == 2
        summary = [line for line in out.splitlines() if " seed " not in line]
        assert len(summary) == 4
        assert all(line.endswith(" FAIL") for line in summary)


class TestPlot:
    def test_renders_svg(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "flow.svg"
        src = str(dataset_dir / "pair_0000.sfp")
        code, _, _ = run_cli(capsys, "plot", "--in", src, "--flow-a", src,
                             "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize("flag", ["--in", "--flow-a", "--flow-b"])
    def test_missing_file_exits_1(self, dataset_dir, tmp_path, capsys, flag):
        src = str(dataset_dir / "pair_0000.sfp")
        missing = tmp_path / "missing.sfp"
        files = {"--in": src, "--flow-a": src, "--flow-b": src, flag: str(missing)}
        out = tmp_path / "flow.svg"
        code, _, err = run_cli(capsys, "plot", *[x for kv in files.items() for x in kv],
                               "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and str(missing) in err
        assert not out.exists()

    def test_unknown_model_exits_1(self, dataset_dir, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "attack", "--model", "resnet", "--attack", "fgsm",
            "--eps", "0.1", "--in", str(dataset_dir / "pair_0000.sfp"),
            "--out", str(tmp_path / "x.sfp"))
        assert code == 1
