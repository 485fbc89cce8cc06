"""Experiment orchestration: attack grids over datasets, AEPE and relative
degradation aggregation, deterministic JSON/CSV reports, and SVG plots.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from . import autodiff as ad
from .attacks import (AUTO, AttackConfig, clean_pass, fgsm_config, fgsm_sf,
                      make_target_mask, pgd_sf, random_attack)
from .estimators import (Estimator, OTEstimator, TinyNetEstimator, epe, epe_loss,
                         init_weights)
from .scene import FlowField, ScenePair, ValidationError
from .synth import MotionSpec, make_pair

ATTACK_KINDS = ("none", "fgsm", "pgd", "random")


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


def pair_baseline(pair: ScenePair, est: Estimator, grid: list[GridEntry]):
    """(baseline EPE, clean_pass or None) of `pair` for the entries of `grid`.
    Entries that step from the clean cloud share one clean pass; without one,
    or for a non-finite cloud (no graph leaf), the EPE is forward-only."""
    if pair.gt_flow is None:
        raise ValidationError("attack requires a pair with gt_flow")
    if any(entry.steps_from_clean(pair) for entry in grid):
        try:
            clean = clean_pass(pair, est)
            return clean[0], clean
        except ad.DomainError:
            pass
    return epe(est.estimate(pair), pair.gt_flow), None


def attack_pair(pair: ScenePair, est: Estimator, entry: GridEntry, seed: int,
                clean=None) -> tuple[ScenePair, float]:
    """(attacked pair, its EPE) of one grid entry's attack on `pair`.  `clean`
    is pair_baseline's clean pass, or None to let FGSM or PGD run their own."""
    cfg = entry.config
    if entry.attack == "fgsm":
        result = fgsm_sf(pair, est, cfg, clean=clean)
    elif entry.attack == "pgd":
        result = pgd_sf(pair, est, cfg, seed=seed, clean=clean)
    else:
        result = random_attack(pair, cfg, seed=seed)
    adv_pair = replace(pair, pc1=result.adv_pc1)
    return adv_pair, epe(est.estimate(adv_pair), pair.gt_flow)


def _run_cell(pair: ScenePair, est: Estimator, label: str, entry: GridEntry,
              base_epe: float, seed: int, timing: bool,
              clean=None) -> ExperimentRecord:
    """One grid cell of one pair.  `clean` is the pair's clean_pass, or None
    to let an FGSM or PGD cell run it itself."""
    rec_seed = _record_seed(seed, pair.id, entry.digest())
    start = time.perf_counter()
    error = None
    after = base_epe
    try:
        if entry.attack != "none":
            _, after = attack_pair(pair, est, entry, rec_seed, clean)
    except Exception as exc:  # diagnostic record, the run continues
        error = f"{type(exc).__name__}: {exc}"
        after = float("nan")
    ms = int((time.perf_counter() - start) * 1000) if timing else 0
    rel = 0.0 if entry.attack == "none" else (
        None if error else _rel(base_epe, after))
    cfg = entry.ran_config()  # rec_seed hashes the cell as written
    return ExperimentRecord(
        pair_id=pair.id, estimator=label,
        attack=entry.attack, mask=entry.mask_spec(),
        eps=cfg.eps if cfg else 0.0, iters=cfg.iters if cfg else 0,
        alpha=cfg.resolved_alpha() if cfg else 0.0, seed=rec_seed,
        epe_before=base_epe, epe_after=after, rel=rel,
        wall_time_ms=ms, error=error,
    )


def run_experiment(dataset: list[ScenePair], est: Estimator,
                   grid: list[GridEntry], seed: int,
                   jobs: int = 1, timing: bool = False) -> Report:
    """Every pair x grid cell; aggregates are order-independent."""
    if not grid:
        raise ValidationError("grid must be nonempty")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    for pair in dataset:
        if pair.gt_flow is None:
            raise ValidationError(f"pair {pair.id} lacks gt_flow")

    # Each pair's baseline, and the clean pass its cells share, computed here,
    # before any thread starts, so records do not depend on `jobs`.
    base = {pair.id: pair_baseline(pair, est, grid) for pair in dataset}
    cells = [(pair, entry) for pair in dataset for entry in grid]
    label = f"{est.tag}:{est.config_digest()}"  # hashes the tiny net's weights

    def run(cell):
        pair, entry = cell
        before, clean = base[pair.id]
        return _run_cell(pair, est, label, entry, before, seed, timing, clean)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, cells))
    else:
        records = [run(c) for c in cells]

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
    if x is None:
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
                "epe_after": _sig6(r.epe_after) if r.error is None else None,
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
