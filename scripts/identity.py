"""Output-identity battery: write every output a change must keep, byte for byte.

    python3 scripts/identity.py --out DIR                  # this checkout's outputs
    python3 scripts/identity.py --compare PARENT [--out DIR]

`--out DIR` runs a fixed battery through the `sfattack` command and the
library and writes what it produces under DIR:

- `data/`: the generated SFP datasets and their manifests;
- `reports/`: JSON and CSV reports of `eval` at `--jobs` 1 and 2, for the
  directional grid of acceptance criterion 6 (64 rigid pairs of 256 points,
  OT) and for coloured rigid and deform pairs (OT and the tiny net) with
  colour-channel, single-dimension and random-start cells;
- `models/`: the SFTN weights `train` writes;
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
  forward+backward, for OT and the tiny net, with and without colours.

`--compare PARENT` writes the same tree for this checkout's `src/` and for
`PARENT/src/` (a checkout of the parent commit), side by side in two child
processes, and prints the first file that differs, then any other.  It
exits 0 when every file is identical and 1 otherwise.

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
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

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
    import numpy as np

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
            name = f"{tag}_{'color' if color else 'plain'}.bin"
            Path("grads", name).write_bytes(b"".join(blobs))


def write_tree(out: Path) -> None:
    """Run the battery with `out` as the working directory, so that what the
    commands print holds relative paths only."""
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for sub in ("data", "reports", "models", "attack", "plots", "stdout", "stderr",
                "grads"):
        Path(sub).mkdir()
    for name, grid in (("directional", DIRECTIONAL_GRID), ("color", COLOR_GRID)):
        Path(f"{name}_grid.json").write_text(json.dumps(grid))

    _run("generate_directional", ["generate", "--scenes", 64, "--points", 256,
                                  "--seed", 42, "--out", "data/directional"])
    for motion in ("rigid", "deform"):
        _run(f"generate_{motion}", [
            "generate", "--scenes", 12, "--points", 128, "--motion", motion,
            "--color", "--noise", 0.01, "--seed", 5, "--out", f"data/{motion}"])
    _run("train", ["train", "--data", "data/rigid", "--epochs", 3, "--lr", 0.1,
                   "--out", "models/tiny_color.sftn"])

    runs = [("directional_ot", "ot", "directional", "directional")]
    for motion in ("rigid", "deform"):
        runs.append((f"{motion}_ot", "ot", motion, "color"))
        runs.append((f"{motion}_tiny", "tiny:models/tiny_color.sftn", motion, "color"))
    for name, model, dataset, grid in runs:
        for jobs in (1, 2):
            stem = f"reports/{name}_jobs{jobs}"
            _run(f"eval_{name}_jobs{jobs}", [
                "eval", "--model", model, "--data", f"data/{dataset}",
                "--grid", f"{grid}_grid.json", "--jobs", jobs, "--seed", 3,
                "--report", f"{stem}.json", "--csv", f"{stem}.csv"])

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
    diffs = differences(out / "parent", out / "change")
    if not diffs:
        n_files = sum(1 for p in (out / "change").rglob("*") if p.is_file())
        print(f"identical: {n_files} files under {out}")
        return 0
    print(f"first difference: {diffs[0]} (trees under {out})")
    for rel in diffs[1:]:
        print(f"also differs: {rel}")
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
