"""The benchmark workloads, their set-up, one job, and output checks.

A job is what a user of the ``sfattack`` command runs for the workload:
``eval`` of an attack grid (after ``train`` for the tiny net), called through
``cli.cli_main`` in this process.  Inputs come only from the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from sfattack import cli, synth

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

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
EPOCHS = 30
TRAIN_SEED = 0  # weight init and batch order, as in criterion 7
EVAL_SEED = 0   # per-record attack seeds, as in criterion 6
TRAIN_ARGS = ["--epochs", str(EPOCHS), "--lr", "0.1", "--seed", str(TRAIN_SEED)]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    spec: synth.DatasetSpec
    eval_pairs: int
    grid: list
    train_pairs: int = 0   # > 0: train the tiny net first and attack it

    @property
    def cells(self) -> int:
        return self.eval_pairs * len(self.grid)

    @property
    def operations(self) -> int:
        """Grid cells plus the training run, per job."""
        return self.cells + (1 if self.train_pairs else 0)


WORKLOADS = {w.name: w for w in (
    Workload("ot-grid", 42, synth.DatasetSpec(n_points=256), 1, SIX_CELL_GRID),
    Workload("tiny-train-eval", 7,
             synth.DatasetSpec(n_points=64, angle_range=(0.0, 0.2)), 16,
             SIX_CELL_GRID, train_pairs=16),
)}


def setup(w: Workload, seed: int, out: Path) -> Path:
    """Generate the inputs with synth, write them, and load them back."""
    pairs = synth.make_dataset(w.train_pairs + w.eval_pairs, w.spec, seed)
    synth.write_dataset(pairs[w.train_pairs:], out / "eval", seed, w.spec)
    loaded = len(synth.load_dataset(out / "eval"))
    if w.train_pairs:
        synth.write_dataset(pairs[:w.train_pairs], out / "train", seed, w.spec)
        loaded += len(synth.load_dataset(out / "train"))
    if loaded != len(pairs):
        raise RuntimeError(f"loaded {loaded} of {len(pairs)} pairs")
    (out / "grid.json").write_text(json.dumps(w.grid))
    return out


@dataclass
class JobResult:
    wall_s: float
    train_s: float
    eval_s: float
    exit_codes: list
    report: bytes        # the default JSON report; b"" if eval did not run


def _cli(argv, tracer) -> int:
    with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.cli_main"):
        return cli.cli_main(argv)


def run_job(w: Workload, data: Path, out: Path, tracer) -> JobResult:
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    start = time.perf_counter()
    model = "ot"
    if w.train_pairs:
        weights = out / "model.sftn"
        codes.append(_cli(["train", "--data", str(data / "train"), *TRAIN_ARGS,
                           "--out", str(weights)], tracer))
        model = f"tiny:{weights}"
    trained = time.perf_counter()
    report = out / "report.json"
    if all(c == 0 for c in codes):
        codes.append(_cli(["eval", "--model", model, "--data", str(data / "eval"),
                           "--grid", str(data / "grid.json"), "--report", str(report),
                           "--seed", str(EVAL_SEED), "--jobs", "1"], tracer))
    end = time.perf_counter()
    ok = codes and codes[-1] == 0 and len(codes) == (2 if w.train_pairs else 1)
    return JobResult(wall_s=end - start, train_s=trained - start,
                     eval_s=end - trained, exit_codes=codes,
                     report=report.read_bytes() if ok else b"")


# -- output checks ---------------------------------------------------------

def _sig6(x):
    return None if x is None else format(x, ".6g")


def _canon(row: dict) -> dict:
    """A record or aggregate with the timing column dropped and every float
    cut to the 6 significant digits the report prints."""
    return {k: _sig6(v) if isinstance(v, float) else v
            for k, v in row.items() if k != "ms"}


def failed_records(w: Workload, job: JobResult, expected: bytes | None) -> tuple[int, bool]:
    """(failed operations, aggregates agree) for one job.

    A cell fails if its record carries an ``error`` or disagrees with
    ``expected`` (a reference report) beyond 6 significant digits; every
    operation fails if the job's commands did not all exit 0.
    """
    if not job.report:
        return w.operations, False
    got = json.loads(job.report)
    records = got["records"]
    if len(records) != w.cells:
        return w.operations, False
    failed = sum(1 for r in records if "error" in r)
    if expected is None:
        return failed, True
    want = json.loads(expected)
    for r, e in zip(records, want["records"]):
        if "error" not in r and _canon(r) != _canon(e):
            failed += 1
    same_aggregates = ([_canon(a) for a in got["aggregates"]]
                       == [_canon(a) for a in want["aggregates"]]
                       and got["provenance"] == want["provenance"])
    return failed, same_aggregates


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"
