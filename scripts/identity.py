"""Output-identity battery: write every output a change must keep, byte for byte.

    python3 scripts/identity.py --out DIR                  # this checkout's outputs
    python3 scripts/identity.py --compare PARENT [--out DIR]

`--out DIR` runs a fixed battery through the `sfattack` command and the
library and writes what it produces under DIR:

- `data/`: the generated SFP datasets and their manifests;
- `reports/`: JSON and CSV reports of `eval` at `--jobs` 1 and 2, for the
  directional grid of acceptance criterion 6 (64 rigid pairs of 256 points,
  OT) and for coloured rigid and deform pairs (OT and the tiny net) with
  colour-channel, single-dimension and random-start cells; and of the
  plain tiny net on 40 pairs whose second clouds lost a fifth of their
  points, 2,560 first-cloud rows, more than one batch of pairs holds, so
  that the batch boundaries are compared too; and of OT on 3 pairs, one of
  which has a first-cloud point at (5, 5, 5), so that its baseline fails
  and the error records it gets are compared too; and (`far_batches_*`) of
  OT at `--jobs` 1 and 2 on 12 pairs of 128 points, 3 batches, whose pair 5
  has such a point, so that a batch is rerun pair by pair between two that
  are not; and (`draws_*`) of OT
  and the coloured tiny net on the coloured rigid pairs, for a grid whose
  every attack starts from a seeded draw (random baselines, uniform and
  +-eps, unclamped on one channel; PGD with a random start on the colour
  channels and on one dimension), so that its baselines are forward-only;
- `models/`: the SFTN weights `train` writes: a coloured model trained on
  12 pairs (3 full minibatches), and a plain one on 10 pairs whose second
  clouds lost a fifth of their points (so a minibatch of 2 ends each
  epoch);
- `attack/`: adversarial SFP files and attack summaries of `attack` runs:
  FGSM on colour channels and on one dimension of the tiny net, PGD with
  and without a random start, and the random baseline;
- `plots/`: the SVG `plot` draws of one pair's true flow and another
  pair's;
- `stdout/`: what each command printed, after its exit code, `gradcheck
  --seed 0`'s report among them;
- `stderr/`: what each command wrote to stderr, such as the error of an
  `attack` with a colour mask on a pair without colours;
- `grads/`: the `tobytes()` of the loss and of every input gradient of one
  forward+backward, for OT and the tiny net, with and without colours;
  and (`*_batch.bin`) the same of each pair of one batched
  `losses_and_grads` over three pairs of different sizes, the path the
  attacks take.

`--compare PARENT` writes the same tree for this checkout's `src/` and for
`PARENT/src/` (a checkout of the parent commit), side by side in two child
processes.  It puts every file in one of three classes and prints each file
that is not byte-identical with its class:

- `identical`: byte for byte;
- `sig6`: equal once every float is cut to the 6 significant digits the
  benchmark compares (`format(x, ".6g")`, `rel` included): in the text
  files every decimal number, in `grads/*.bin` every float64;
- `digits`: different in printed digits, or a binary file (SFP, SFTN) that
  differs at all.

For a differing `grads/*.bin` it also prints max |a - b| / max |a| and
whether every sign agrees.  It exits 0 when every file is identical and 1
otherwise.

Bitwise outputs depend on the numpy and BLAS build, so compare two trees
made on one machine; the battery pins BLAS to one thread.  It takes well
under a minute per tree on a 2-CPU VM.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

DIRECTIONAL_GRID = [
    {"attack": "fgsm", "eps": 0.1, "alpha": 0.1},
    {"attack": "fgsm", "eps": 0.1, "alpha": 0.1, "target": "dim=0"},
    {"attack": "fgsm", "eps": 0.1, "alpha": 0.1, "target": "dim=1"},
    {"attack": "fgsm", "eps": 0.1, "alpha": 0.1, "target": "dim=2"},
    {"attack": "pgd", "eps": 0.1, "iters": 10},
    {"attack": "random", "eps": 0.1},
]
COLOR_GRID = [
    {"attack": "none"},
    {"attack": "fgsm", "eps": 0.1, "target": "all-channels"},
    {"attack": "fgsm", "eps": 0.1, "target": "dim=2"},
    {"attack": "pgd", "eps": 0.1, "iters": 5, "target": "channel=1"},
    {"attack": "pgd", "eps": 0.1, "iters": 5, "random_start": True},
    {"attack": "random", "eps": 0.1, "random_mode": "rademacher"},
]
# no entry steps from the clean cloud, so baselines are forward-only, and
# every attack starts from a seeded draw, on positions and on colours
DRAW_GRID = [
    {"attack": "none"},
    {"attack": "random", "eps": 0.1},
    {"attack": "random", "eps": 0.1, "random_mode": "rademacher", "target": "channel=1",
     "clamp_colors": False},
    {"attack": "random", "eps": 0.1, "target": "all-channels"},
    {"attack": "pgd", "eps": 0.1, "iters": 3, "random_start": True, "target": "all-channels"},
    {"attack": "pgd", "eps": 0.1, "iters": 3, "random_start": True, "target": "dim=2"},
]


def _import_sfattack(src: Path):
    sys.path.insert(0, str(src))
    import sfattack
    if Path(sfattack.__file__).resolve().parent != (src / "sfattack").resolve():
        sys.exit(f"identity: imported sfattack from {sfattack.__file__}, not {src}")


def _run(name: str, argv: list) -> None:
    """One `sfattack` command; its stdout goes to stdout/<name>.txt and its
    stderr to stderr/<name>.txt."""
    from sfattack.cli import cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    Path("stdout", f"{name}.txt").write_text(f"exit {code}\n{out.getvalue()}")
    Path("stderr", f"{name}.txt").write_text(err.getvalue())


def _write_grads() -> None:
    from sfattack import autodiff as ad
    from sfattack.estimators import (OTEstimator, TinyNetEstimator, epe_loss,
                                     init_weights)
    from sfattack.synth import MotionSpec, make_pair

    motion = MotionSpec(angle=0.2, translation=(0.1, 0.0, 0.0), noise_sigma=0.01)
    for color in (False, True):
        tiny = TinyNetEstimator(init_weights(6 if color else 3, seed=6))
        for tag, est, sizes in (("ot", OTEstimator(), (128, 512)), ("tiny", tiny, (128,))):
            blobs = []
            for n in sizes:
                for seed in range(3):
                    pair = make_pair(n, motion, color, seed=seed)
                    g = ad.Graph()
                    pos1 = g.leaf(pair.pc1.positions)
                    col1 = g.leaf(pair.pc1.colors) if color else None
                    loss = epe_loss(est.flow_tensor(pos1, col1, pair), pair.gt_flow)
                    grads = ad.backward(loss)
                    blobs.append(loss.data.tobytes())
                    blobs += [grads[t.node_id].tobytes() for t in (pos1, col1) if t is not None]
            name = f"{tag}_{'color' if color else 'plain'}"
            Path("grads", f"{name}.bin").write_bytes(b"".join(blobs))
            batch = [make_pair(n, motion, color, seed=seed)
                     for seed, n in ((3, 96), (4, 128), (5, 64))]
            blobs = []
            for loss, gpos, gcol in est.losses_and_grads([(p, p.pc1) for p in batch]):
                blobs.append(np.float64(loss).tobytes())
                blobs += [g.tobytes() for g in (gpos, gcol) if g is not None]
            Path("grads", f"{name}_batch.bin").write_bytes(b"".join(blobs))


def _move_far_off(path: str) -> None:
    """Move the first point of a pair's first cloud to (5, 5, 5): OT's
    Sinkhorn row of that point underflows, so the pair's baseline fails."""
    from dataclasses import replace

    from sfattack.scene import PointCloud, load_sfp, save_sfp

    pair = load_sfp(Path(path).read_bytes())
    pos = pair.pc1.positions.copy()
    pos[0] = 5.0
    Path(path).write_bytes(save_sfp(replace(pair, pc1=PointCloud(pos, pair.pc1.colors))))


def write_tree(out: Path) -> None:
    """Run the battery with `out` as the working directory, so that what the
    commands print holds relative paths only."""
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for sub in ("data", "reports", "models", "attack", "plots", "stdout", "stderr",
                "grads"):
        Path(sub).mkdir()
    for name, grid in (("directional", DIRECTIONAL_GRID), ("color", COLOR_GRID),
                       ("draw", DRAW_GRID)):
        Path(f"{name}_grid.json").write_text(json.dumps(grid))

    _run("generate_directional", ["generate", "--scenes", 64, "--points", 256,
                                  "--seed", 42, "--out", "data/directional"])
    for motion in ("rigid", "deform"):
        _run(f"generate_{motion}", [
            "generate", "--scenes", 12, "--points", 128, "--motion", motion,
            "--color", "--noise", 0.01, "--seed", 5, "--out", f"data/{motion}"])
    _run("train", ["train", "--data", "data/rigid", "--epochs", 3, "--lr", 0.1,
                   "--out", "models/tiny_color.sftn"])
    _run("generate_ragged", ["generate", "--scenes", 10, "--points", 64, "--drop", 0.2,
                             "--seed", 8, "--out", "data/ragged"])
    _run("train_ragged", ["train", "--data", "data/ragged", "--epochs", 3,
                          "--out", "models/tiny_plain_ragged.sftn"])
    _run("generate_batches", ["generate", "--scenes", 40, "--points", 64, "--drop", 0.2,
                              "--seed", 11, "--out", "data/batches"])
    _run("generate_far", ["generate", "--scenes", 3, "--points", 64, "--seed", 13,
                          "--out", "data/far"])
    _move_far_off("data/far/pair_0001.sfp")
    _run("generate_far_batches", ["generate", "--scenes", 12, "--points", 128,
                                  "--seed", 17, "--out", "data/far_batches"])
    _move_far_off("data/far_batches/pair_0005.sfp")

    runs = [("directional_ot", "ot", "directional", "directional")]
    for motion in ("rigid", "deform"):
        runs.append((f"{motion}_ot", "ot", motion, "color"))
        runs.append((f"{motion}_tiny", "tiny:models/tiny_color.sftn", motion, "color"))
    runs.append(("batches_tiny", "tiny:models/tiny_plain_ragged.sftn", "batches",
                 "directional"))
    runs.append(("far_batches_ot", "ot", "far_batches", "directional"))
    for name, model, dataset, grid in runs:
        for jobs in (1, 2):
            stem = f"reports/{name}_jobs{jobs}"
            _run(f"eval_{name}_jobs{jobs}", [
                "eval", "--model", model, "--data", f"data/{dataset}",
                "--grid", f"{grid}_grid.json", "--jobs", jobs, "--seed", 3,
                "--report", f"{stem}.json", "--csv", f"{stem}.csv"])
    for name, model in (("ot", "ot"), ("tiny", "tiny:models/tiny_color.sftn")):
        stem = f"reports/draws_{name}"
        _run(f"eval_draws_{name}", ["eval", "--model", model, "--data", "data/rigid",
                                    "--grid", "draw_grid.json", "--seed", 3,
                                    "--report", f"{stem}.json", "--csv", f"{stem}.csv"])
    _run("eval_far_ot", ["eval", "--data", "data/far", "--grid", "directional_grid.json",
                         "--seed", 3, "--report", "reports/far_ot.json",
                         "--csv", "reports/far_ot.csv"])

    deform, plain = "data/deform/pair_0003.sfp", "data/directional/pair_0000.sfp"
    for name, infile, argv in (
            ("fgsm_channel", deform,
             ["--attack", "fgsm", "--eps", 0.1, "--target", "channel=0,2"]),
            ("pgd_random_start", deform, ["--attack", "pgd", "--eps", 0.1, "--iters", 4,
                                          "--random-start", "--seed", 9]),
            ("pgd_plain", deform, ["--attack", "pgd", "--eps", 0.1, "--iters", 4]),
            ("random_iters", deform, ["--attack", "random", "--eps", 0.1, "--iters", 10,
                                      "--seed", 9]),
            ("fgsm_tiny_dim1", deform, ["--model", "tiny:models/tiny_color.sftn",
                                        "--attack", "fgsm", "--eps", 0.1,
                                        "--target", "dim=1"]),
            ("color_mask_plain", plain,  # exits 1: the pair has no colours
             ["--attack", "fgsm", "--eps", 0.1, "--target", "channel=1"])):
        _run(f"attack_{name}", ["attack", *argv, "--in", infile,
                                "--out", f"attack/{name}.sfp",
                                "--report", f"attack/{name}.json"])
    _run("plot", ["plot", "--in", plain, "--flow-a", plain,
                  "--flow-b", "data/directional/pair_0001.sfp", "--out", "plots/flow.svg"])
    _run("gradcheck", ["gradcheck", "--seed", 0])
    _write_grads()


def differences(a: Path, b: Path) -> list:
    """Relative paths of the files that differ between two trees, in order."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return [rel for rel in sorted(files_a | files_b)
            if rel not in files_a or rel not in files_b
            or (a / rel).read_bytes() != (b / rel).read_bytes()]


TEXT_SUFFIXES = {".json", ".csv", ".txt", ".svg"}
# a decimal number with a point or an exponent; integers such as seeds and
# counts are compared as they are
_FLOAT = re.compile(rb"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?!\w)")


def _sig6_text(data: bytes) -> bytes:
    return _FLOAT.sub(lambda m: format(float(m[0]), ".6g").encode(), data)


def classify(rel: Path, a: bytes, b: bytes) -> tuple:
    """(class, note) of one file present in both trees; see the module doc."""
    if a == b:
        return "identical", ""
    if rel.parts[0] == "grads" and len(a) == len(b) and len(a) % 8 == 0:
        va, vb = np.frombuffer(a, dtype="<f8"), np.frombuffer(b, dtype="<f8")
        scale = np.abs(va).max()
        rel_diff = np.abs(va - vb).max() / scale if scale > 0 else float("inf")
        signs = "all signs agree" if np.array_equal(np.sign(va), np.sign(vb)) \
            else f"{np.count_nonzero(np.sign(va) != np.sign(vb))} signs differ"
        same = [format(x, ".6g") for x in va] == [format(x, ".6g") for x in vb]
        return ("sig6" if same else "digits"), f"max rel diff {rel_diff:.3g}, {signs}"
    if rel.suffix in TEXT_SUFFIXES and _sig6_text(a) == _sig6_text(b):
        return "sig6", ""
    return "digits", ""


def compare(parent: Path, out: Path) -> int:
    parent_src = parent / "src"
    if not (parent_src / "sfattack" / "__init__.py").is_file():
        sys.exit(f"identity: no sfattack sources under {parent_src}")
    sides = {"parent": parent_src, "change": SRC}
    procs = {side: subprocess.Popen([sys.executable, __file__, "--src", str(src),
                                     "--out", str(out / side)])
             for side, src in sides.items()}
    codes = {side: proc.wait() for side, proc in procs.items()}
    for side, code in codes.items():
        if code != 0:
            sys.exit(f"identity: the {side} tree failed (exit {code})")
    a, b = out / "parent", out / "change"
    diffs = differences(a, b)
    n_files = len({p.relative_to(side) for side in (a, b) for p in side.rglob("*")
                   if p.is_file()})
    if not diffs:
        print(f"identical: {n_files} files under {out}")
        return 0
    counts = {"identical": n_files - len(diffs), "sig6": 0, "digits": 0}
    for rel in diffs:
        if not (a / rel).is_file() or not (b / rel).is_file():
            kind, note = "digits", f"only in {'change' if (b / rel).is_file() else 'parent'}"
        else:
            kind, note = classify(rel, (a / rel).read_bytes(), (b / rel).read_bytes())
        counts[kind] += 1
        print(f"{kind:7} {rel}" + (f"  ({note})" if note else ""))
    print(f"{n_files} files under {out}: " + ", ".join(
        f"{n} {kind}" for kind, n in counts.items()))
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="directory to write the tree(s) to")
    ap.add_argument("--compare", type=Path, metavar="PARENT",
                    help="checkout of the parent commit to compare against")
    ap.add_argument("--src", type=Path, default=SRC, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compare is not None:
        if args.out is not None and args.out.exists() and any(args.out.iterdir()):
            ap.error(f"{args.out} is not empty")
        out = args.out or Path(tempfile.mkdtemp(prefix="sfattack-identity-"))
        return compare(args.compare.resolve(), out.resolve())
    if args.out is None:
        ap.error("--out or --compare is required")
    if args.out.exists() and any(args.out.iterdir()):
        ap.error(f"{args.out} is not empty")
    _import_sfattack(args.src.resolve())
    write_tree(args.out.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
