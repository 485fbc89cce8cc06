"""Experiment orchestration: attack grids over datasets, AEPE and relative
degradation aggregation, deterministic JSON/CSV reports, and SVG plots.

run_experiment cuts a dataset, in order, into batches of at most
BATCH_ROWS first-cloud rows.  A batch is one job: its baselines
(pair_baselines), then one task per grid entry, each attack step scoring
the batch's pairs together, on one tape; `jobs` threads share out the
batches.  pair_baselines raises when the batch fails, and a batch whose
baselines fail numerically, or a task that fails, is rerun pair by pair:
every record is the one its pair would get alone, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from . import autodiff as ad
from .attacks import (AUTO, AttackConfig, clean_pass, fgsm_config, fgsm_sf,
                      make_target_mask, pgd_sf, random_attack)
from .estimators import Estimator, OTEstimator, TinyNetEstimator, epe_loss, init_weights
from .scene import FlowField, ScenePair, ValidationError
from .synth import MotionSpec, make_pair

ATTACK_KINDS = ("none", "fgsm", "pgd", "random")
# First-cloud rows per batch of pairs: the largest power of two at which a
# batched tiny-net attack pass peaks (tracemalloc) no higher than a 4-pair
# training step on clouds of the same size, so eval raises no high-water mark.
# It also bounds a batched OT pass, whose tape holds every pair's N x M
# arrays at once: a batch holds at most BATCH_ROWS first-cloud rows, so its
# tape never exceeds that of one pair with that many rows against the
# batch's largest second cloud.
BATCH_ROWS = 512


@dataclass(frozen=True)
class GridEntry:
    """One attack column of the experiment grid."""

    attack: str
    config: Optional[AttackConfig] = None

    def __post_init__(self):
        if self.attack not in ATTACK_KINDS:
            raise ValidationError(f"unknown attack {self.attack!r}")
        if (self.config is None) != (self.attack == "none"):
            raise ValidationError("config is required except for attack 'none'")

    def digest(self) -> str:
        if self.config is None:
            return "none"
        cfg = self.config
        key = (self.attack, cfg.eps, cfg.iters, cfg.resolved_alpha(),
               cfg.mask.spec_string(), cfg.random_start, cfg.clamp_colors,
               cfg.random_mode)
        return hashlib.sha256(repr(key).encode()).hexdigest()[:12]

    def ran_config(self) -> Optional[AttackConfig]:
        """The config of the attack that runs, which records report: FGSM's
        one step of size eps, and the random baseline's single draw."""
        if self.attack == "fgsm":
            return fgsm_config(self.config)
        if self.attack == "random":
            return replace(self.config, iters=1)
        return self.config

    def mask_spec(self) -> str:
        return self.config.mask.spec_string() if self.config else "-"

    def steps_from_clean(self, pair: ScenePair) -> bool:
        """Whether the attack's first gradient on `pair` is the clean cloud's.
        An entry whose mask does not fit the pair fails before any step."""
        steps = self.attack == "fgsm" or (
            self.attack == "pgd" and not self.config.random_start)
        return steps and self.config.mask.fits(pair)


_NUMBER = (int, float)  # exact JSON types: a bool is not a number here
_GRID_FIELDS = {
    "attack": (str,), "eps": _NUMBER, "iters": (int,), "alpha": _NUMBER + (str,),
    "target": (str,), "random_start": (bool,), "clamp_colors": (bool,),
    "random_mode": (str,),
}


def grid_entry_from_dict(obj: dict) -> GridEntry:
    """Parse one grid-file object into a GridEntry.

    Keys and JSON types are checked exactly, so a misspelled key or a
    quoted number is an error, not a silent default.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"grid entry must be an object, got {obj!r}")
    for key, value in obj.items():
        if key not in _GRID_FIELDS:
            raise ValidationError(f"unknown grid key {key!r}")
        if type(value) not in _GRID_FIELDS[key]:
            raise ValidationError(f"grid key {key!r} has the wrong type: {value!r}")
    attack = obj.get("attack")
    if attack is None:
        raise ValidationError("grid entry needs 'attack'")
    if attack == "none":
        if len(obj) > 1:
            raise ValidationError("attack 'none' takes no other keys")
        return GridEntry("none")
    if "eps" not in obj:
        raise ValidationError("grid entry needs 'eps'")
    alpha = obj.get("alpha", AUTO)
    if isinstance(alpha, str) and alpha != AUTO:
        raise ValidationError(f"alpha must be a number or {AUTO!r}, got {alpha!r}")
    try:  # a JSON integer can be too large for a float
        cfg = AttackConfig(
            eps=float(obj["eps"]),
            iters=obj.get("iters", 1),
            alpha=alpha,
            mask=make_target_mask(obj.get("target", "all-dims")),
            random_start=obj.get("random_start", False),
            clamp_colors=obj.get("clamp_colors", True),
            random_mode=obj.get("random_mode", "uniform"),
        )
        cfg.resolved_alpha()
    except OverflowError as exc:
        raise ValidationError(f"grid entry number out of range: {exc}") from exc
    return GridEntry(attack, cfg)


def load_grid(path) -> list[GridEntry]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValidationError("grid file must be a nonempty JSON list")
    return [grid_entry_from_dict(obj) for obj in data]


@dataclass
class ExperimentRecord:
    pair_id: str
    estimator: str
    attack: str
    mask: str
    eps: float
    iters: int
    alpha: float
    seed: int
    epe_before: float
    epe_after: float
    rel: Optional[float]
    wall_time_ms: int
    error: Optional[str] = None


@dataclass
class Report:
    records: list[ExperimentRecord]
    aggregates: list[dict]
    provenance: dict


def _record_seed(seed: int, pair_id: str, digest: str) -> int:
    h = hashlib.sha256(f"{seed}:{pair_id}:{digest}".encode()).digest()
    return int.from_bytes(h[:8], "little") % (2**63)


def _rel(before: float, after: float) -> Optional[float]:
    if before <= 0.0:
        return None
    return (after - before) / before


def pair_baselines(pairs: list[ScenePair], est: Estimator, grid: list[GridEntry]) -> list:
    """Each pair's (baseline EPE, clean_pass result or None) for the entries
    of `grid`.  When an entry steps from the clean cloud of some pair, the
    pairs share one batched clean pass, and its losses are the baselines;
    otherwise, or for a single pair's non-finite cloud (no graph leaf), the
    EPE is forward-only.  Raises what the batch's passes raise."""
    if any(entry.steps_from_clean(pair) for pair in pairs for entry in grid):
        try:
            return [(clean[0], clean) for clean in clean_pass(pairs, est)]
        except ad.DomainError:
            if len(pairs) > 1:
                raise
    return [(after, None) for after in est.epes([(pair, pair.pc1) for pair in pairs])]


def attack_pairs(pairs: list[ScenePair], est: Estimator, entry: GridEntry,
                 seeds: list[int], clean=None) -> list[tuple[ScenePair, float]]:
    """(attacked pair, its EPE) of one grid entry's attack on each pair, pair p
    seeded by seeds[p].  `clean` is the pairs' clean_pass, or None to let
    FGSM or PGD run their own."""
    cfg = entry.config
    if entry.attack == "fgsm":
        results = fgsm_sf(pairs, est, cfg, clean=clean)
    elif entry.attack == "pgd":
        results = pgd_sf(pairs, est, cfg, seeds=seeds, clean=clean)
    else:
        results = random_attack(pairs, cfg, seeds=seeds)
    adv = [replace(pair, pc1=res.adv_pc1) for pair, res in zip(pairs, results)]
    return list(zip(adv, est.epes([(a, a.pc1) for a in adv])))


def batches(dataset: list[ScenePair]) -> list[list[ScenePair]]:
    """The dataset in order, cut into batches of at most BATCH_ROWS
    first-cloud rows; a pair with more rows is a batch of its own."""
    out, rows = [], 0
    for pair in dataset:
        n = pair.pc1.n_points
        if not out or rows + n > BATCH_ROWS:
            out.append([])
            rows = 0
        out[-1].append(pair)
        rows += n
    return out


def _run_cell(batch: list[ScenePair], est: Estimator, label: str, entry: GridEntry,
              base: list, seed: int, timing: bool) -> list[ExperimentRecord]:
    """The records of one grid entry over a batch of pairs: one task.

    base is the batch's pair_baselines, or [exc] for a single pair whose
    baseline raised exc, which each of its records then carries.  When the
    task raises, it is rerun pair by pair, so that only the pairs that fail
    get an error record and every other record keeps its bits.  With
    `timing`, a record's `ms` is the task's wall time divided by its pair
    count.
    """
    start = time.perf_counter()
    seeds = [_record_seed(seed, pair.id, entry.digest()) for pair in batch]
    try:
        afters, errors = _afters(batch, est, entry, base, seeds), [None] * len(batch)
    except Exception as exc:  # diagnostic record, the run continues
        if len(batch) > 1:
            return [rec for p, pair in enumerate(batch)
                    for rec in _run_cell([pair], est, label, entry, [base[p]], seed, timing)]
        afters, errors = [float("nan")], [f"{type(exc).__name__}: {exc}"]
    ms = int((time.perf_counter() - start) * 1000 / len(batch)) if timing else 0
    cfg = entry.ran_config()  # rec_seed hashes the cell as written
    records = []
    for pair, b, rec_seed, after, error in zip(batch, base, seeds, afters, errors):
        before = float("nan") if isinstance(b, Exception) else b[0]
        rel = None if error else 0.0 if entry.attack == "none" else _rel(before, after)
        records.append(ExperimentRecord(
            pair_id=pair.id, estimator=label,
            attack=entry.attack, mask=entry.mask_spec(),
            eps=cfg.eps if cfg else 0.0, iters=cfg.iters if cfg else 0,
            alpha=cfg.resolved_alpha() if cfg else 0.0, seed=rec_seed,
            epe_before=before, epe_after=after, rel=rel,
            wall_time_ms=ms, error=error,
        ))
    return records


def _run_batch(batch: list[ScenePair], est: Estimator, label: str, grid: list[GridEntry],
               seed: int, timing: bool) -> list[ExperimentRecord]:
    """The records of a batch of pairs: one job, on one thread.  Its
    baselines, then one task per grid entry (_run_cell).  A batch whose
    baselines fail numerically is run pair by pair, and a single pair's
    exception goes to its tasks as its baselines, [exc]."""
    try:
        base = pair_baselines(batch, est, grid)
    except (ArithmeticError, ad.DomainError) as exc:
        if len(batch) > 1:
            return [rec for pair in batch
                    for rec in _run_batch([pair], est, label, grid, seed, timing)]
        base = [exc]
    return [rec for entry in grid
            for rec in _run_cell(batch, est, label, entry, base, seed, timing)]


def _afters(batch, est, entry, base, seeds) -> list[float]:
    """The attacked EPE of each pair of a task; raises what a pair's
    baseline raised."""
    if isinstance(base[0], Exception):
        raise base[0]
    if entry.attack == "none":
        return [before for before, _ in base]
    cleans = [clean for _, clean in base]
    if any(clean is None for clean in cleans):
        cleans = None
    return [after for _, after in attack_pairs(batch, est, entry, seeds, cleans)]


def run_experiment(dataset: list[ScenePair], est: Estimator,
                   grid: list[GridEntry], seed: int,
                   jobs: int = 1, timing: bool = False) -> Report:
    """Every pair x grid cell; aggregates are order-independent.

    The pairs run in batches (see batches).  Each batch is one job on one
    thread: its baselines, with the clean pass its tasks share, then one
    task per grid entry.  `jobs` threads run the batches, and every record
    is its pair's own, so records do not depend on `jobs`.
    """
    if not grid:
        raise ValidationError("grid must be nonempty")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    for pair in dataset:
        if pair.gt_flow is None:
            raise ValidationError(f"pair {pair.id} lacks gt_flow")

    label = f"{est.tag}:{est.config_digest()}"  # hashes the tiny net's weights
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        parts = (pool.map if pool else map)(
            lambda batch: _run_batch(batch, est, label, grid, seed, timing), batches(dataset))
        records = [rec for part in parts for rec in part]

    records.sort(key=lambda r: (r.pair_id, r.attack, r.mask, r.seed))
    return Report(records=records, aggregates=aggregate(records),
                  provenance={
                      "tool": "sfattack",
                      "version": __version__,
                      "seed": seed,
                      "aggregation": "per-scene-then-mean",
                      "timing": timing,
                  })


def aggregate(records: list[ExperimentRecord]) -> list[dict]:
    """Mean of per-pair EPEs per (estimator, attack, mask) group."""
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in records:
        if r.error is not None:
            continue
        groups.setdefault((r.estimator, r.attack, r.mask), []).append(r)
    out = []
    for key in sorted(groups):
        recs = groups[key]
        before = float(np.mean([r.epe_before for r in recs]))
        after = float(np.mean([r.epe_after for r in recs]))
        out.append({
            "estimator": key[0], "attack": key[1], "mask": key[2],
            "aepe_before": before, "aepe_after": after,
            "rel": 0.0 if key[1] == "none" else _rel(before, after),
        })
    return out


# -- serialization --------------------------------------------------------

def _sig6(x: Optional[float]):
    # None, NaN (a failed record's EPE) and ±inf become null: strict JSON
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.6g}")


def report_to_json_dict(report: Report) -> dict:
    return {
        "provenance": report.provenance,
        "records": [
            {
                "pair_id": r.pair_id, "estimator": r.estimator,
                "attack": r.attack, "mask": r.mask,
                "eps": _sig6(r.eps), "iters": r.iters,
                "alpha": _sig6(r.alpha), "seed": r.seed,
                "epe_before": _sig6(r.epe_before),
                "epe_after": _sig6(r.epe_after),
                "rel": r.rel, "ms": r.wall_time_ms,
                **({"error": r.error} if r.error else {}),
            }
            for r in report.records
        ],
        "aggregates": [
            {
                "estimator": a["estimator"], "attack": a["attack"], "mask": a["mask"],
                "aepe_before": _sig6(a["aepe_before"]),
                "aepe_after": _sig6(a["aepe_after"]),
                "rel": a["rel"],
            }
            for a in report.aggregates
        ],
    }


CSV_HEADER = "pair_id,estimator,attack,mask,eps,iters,alpha,seed,epe_before,epe_after,rel,ms"


def report_to_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for r in report.records:
        after = "" if r.error is not None else f"{r.epe_after:.6g}"
        rel = "" if r.rel is None else repr(r.rel)
        lines.append(",".join([
            r.pair_id, r.estimator, r.attack, r.mask,
            f"{r.eps:.6g}", str(r.iters), f"{r.alpha:.6g}", str(r.seed),
            f"{r.epe_before:.6g}", after, rel, str(r.wall_time_ms),
        ]))
    return "\n".join(lines) + "\n"


def write_report(report: Report, json_path=None, csv_path=None) -> None:
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(report_to_json_dict(report), fh, indent=2)
            fh.write("\n")
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(report_to_csv(report))


# -- gradient audit battery -------------------------------------------------

GRADCHECK_WEIGHT_SEED = 202  # calibrated: no relu/knn kink within the FD stencil


def gradcheck_battery(base_seed: int = 0, n_pairs: int = 20):
    """Finite-difference audit of both estimators on small scene pairs.

    Yields (name, pair_seed, GradcheckReport) for every combination of
    estimator and color usage over n_pairs seeded 8-point pairs.
    """
    motion = MotionSpec(kind="rigid", axis=(0.0, 0.0, 1.0), angle=0.25,
                        translation=(0.12, 0.05, -0.04), noise_sigma=0.03)
    for kind in ("ot", "tiny"):
        for with_color in (False, True):
            name = kind + ("+color" if with_color else "")
            for s in range(base_seed, base_seed + n_pairs):
                pair = make_pair(8, motion, with_color, seed=s)
                if kind == "ot":
                    est = OTEstimator(sinkhorn_iters=15)
                else:
                    est = TinyNetEstimator(init_weights(
                        6 if with_color else 3, seed=GRADCHECK_WEIGHT_SEED))
                leaves = [pair.pc1.positions]
                if with_color:
                    leaves.append(pair.pc1.colors)

                def fn(pos1, col1=None):
                    return epe_loss(est.flow_tensor(pos1, col1, pair), pair.gt_flow)

                yield name, s, ad.gradcheck(fn, leaves)


# -- SVG rendering --------------------------------------------------------

def render_flow_svg(pair: ScenePair, flow_a: FlowField,
                    flow_b: Optional[FlowField] = None) -> str:
    """Orthographic projection onto the x-y plane, 640 px square: pc1 gray,
    pc1+flow_a red, pc1+flow_b green, with segments from each point to its
    displaced position."""
    if flow_a.n_points != pair.pc1.n_points:
        raise ValidationError("flow_a length mismatch")
    if flow_b is not None and flow_b.n_points != pair.pc1.n_points:
        raise ValidationError("flow_b length mismatch")
    keep = [0, 1]
    size = 640

    p0 = pair.pc1.positions[:, keep]
    layers = [("#888888", p0)]
    layers.append(("#cc2222", (pair.pc1.positions + flow_a.vectors)[:, keep]))
    if flow_b is not None:
        layers.append(("#22aa22", (pair.pc1.positions + flow_b.vectors)[:, keep]))

    allpts = np.vstack([pts for _, pts in layers])
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span
    lo, hi = lo - margin, hi + margin
    scale = (size - 1) / np.maximum(hi - lo, 1e-9)

    def xy(p):
        x = (p[0] - lo[0]) * scale[0]
        y = size - 1 - (p[1] - lo[1]) * scale[1]
        return f"{x:.3f}", f"{y:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for color, pts in layers[1:]:
        for a, b in zip(p0, pts):
            x1, y1 = xy(a)
            x2, y2 = xy(b)
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke="{color}" stroke-width="0.6" opacity="0.5"/>')
    for color, pts in layers:
        for p in pts:
            x, y = xy(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="2.0" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
