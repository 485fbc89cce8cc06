"""Deterministic synthetic scene pairs with exact ground-truth flow.

Points are sampled in the unit cube [-1,1]^3; motion is either rigid
(axis-angle rotation plus translation) or a smooth sinusoidal deformation.
Occlusion is mimicked by dropping a fraction of second-frame points; the
ground-truth flow always covers every first-frame point and is computed
noise-free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .scene import FlowField, PointCloud, ScenePair, ValidationError, save_sfp, load_sfp


def _require_finite(spec, names) -> None:
    # math.isfinite on each number: numpy calls here would slow make_dataset
    for name in names:
        value = getattr(spec, name)
        values = value if isinstance(value, (tuple, list, np.ndarray)) else (value,)
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class MotionSpec:
    kind: str = "rigid"  # "rigid" or "deform"
    axis: tuple = (0.0, 0.0, 1.0)
    angle: float = 0.0
    translation: tuple = (0.0, 0.0, 0.0)
    deform_amplitude: float = 0.0
    noise_sigma: float = 0.0
    drop_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("rigid", "deform"):
            raise ValidationError(f"unknown motion kind {self.kind!r}")
        _require_finite(self, ("axis", "angle", "translation", "deform_amplitude",
                               "noise_sigma", "drop_fraction"))
        if self.angle != 0.0:
            norm = float(np.linalg.norm(self.axis))
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError("rotation axis must have unit norm")
        if not (0.0 <= self.drop_fraction < 1.0):
            raise ValidationError("drop_fraction must be in [0,1)")
        if self.deform_amplitude < 0.0 or self.noise_sigma < 0.0:
            raise ValidationError("amplitudes must be non-negative")


def _rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and angle in radians."""
    if angle == 0.0:
        return np.eye(3)
    k = np.asarray(axis, dtype=np.float64)
    kx, ky, kz = k
    cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * (cross @ cross)


def apply_motion(points: np.ndarray, spec: MotionSpec) -> np.ndarray:
    t = np.asarray(spec.translation, dtype=np.float64)
    if spec.kind == "rigid":
        rot = _rotation_matrix(spec.axis, spec.angle)
        return points @ rot.T + t
    bend = np.stack([np.sin(np.pi * points[:, 1]),
                     np.sin(np.pi * points[:, 2]),
                     np.sin(np.pi * points[:, 0])], axis=1)
    return points + spec.deform_amplitude * bend + t


def make_pair(n_points: int, spec: MotionSpec, with_color: bool, seed: int,
              pair_id: Optional[str] = None) -> ScenePair:
    """Sample one scene pair; fully determined by (arguments, seed)."""
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    pos1 = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    colors = rng.uniform(0.0, 1.0, size=(n_points, 3)) if with_color else None

    moved = apply_motion(pos1, spec)
    gt = FlowField(moved - pos1)
    pos2 = moved
    col2 = colors
    if spec.noise_sigma > 0.0:
        pos2 = pos2 + rng.normal(0.0, spec.noise_sigma, size=pos2.shape)
    n_drop = int(np.floor(spec.drop_fraction * n_points))
    if n_drop >= n_points:
        n_drop = n_points - 1
    if n_drop > 0:
        keep = np.sort(rng.permutation(n_points)[: n_points - n_drop])
        pos2 = pos2[keep]
        col2 = colors[keep] if with_color else None
    return ScenePair(PointCloud(pos1, colors), PointCloud(pos2, col2), gt,
                     pair_id or f"synth_{seed}")


@dataclass(frozen=True)
class DatasetSpec:
    """Ranges from which per-pair motion parameters are sampled."""

    n_points: int = 256
    with_color: bool = False
    kind: str = "rigid"
    angle_range: tuple = (0.0, 0.3)
    translation_scale: float = 0.2
    deform_range: tuple = (0.0, 0.0)
    noise_sigma: float = 0.0
    drop_fraction: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("angle_range", "translation_scale", "deform_range",
                               "noise_sigma", "drop_fraction"))
        if self.angle_range[1] < self.angle_range[0]:
            raise ValidationError("empty angle range")
        if self.deform_range[1] < self.deform_range[0]:
            raise ValidationError("empty deform range")
        if self.translation_scale < 0.0:
            raise ValidationError("translation_scale must be >= 0")


def _sample_spec(ds: DatasetSpec, rng: np.random.Generator) -> MotionSpec:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = float(rng.uniform(*ds.angle_range))
    translation = tuple(rng.uniform(-ds.translation_scale, ds.translation_scale, size=3))
    deform = float(rng.uniform(*ds.deform_range))
    return MotionSpec(kind=ds.kind, axis=tuple(axis), angle=angle,
                      translation=translation, deform_amplitude=deform,
                      noise_sigma=ds.noise_sigma, drop_fraction=ds.drop_fraction)


def _pair_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def make_dataset(count: int, ds: DatasetSpec, seed: int) -> list[ScenePair]:
    """count pairs; pair k depends only on (seed, k), not on the others."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    return [make_pair_at(ds, seed, k) for k in range(count)]


def make_pair_at(ds: DatasetSpec, seed: int, index: int) -> ScenePair:
    child = _pair_seed(seed, index)
    rng = np.random.default_rng(child)
    spec = _sample_spec(ds, rng)
    point_seed = int(rng.integers(0, 2**63))
    return make_pair(ds.n_points, spec, ds.with_color, point_seed,
                     pair_id=f"pair_{index:04d}")


def write_dataset(pairs: list[ScenePair], out_dir, seed: int, ds: DatasetSpec) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed, "spec": asdict(ds), "pairs": []}
    for k, pair in enumerate(pairs):
        name = f"pair_{k:04d}.sfp"
        (out / name).write_bytes(save_sfp(pair))
        manifest["pairs"].append({"id": pair.id, "file": name})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_dataset(in_dir) -> list[ScenePair]:
    src = Path(in_dir)
    files = sorted(src.glob("*.sfp"))
    if not files:
        raise ValidationError(f"no .sfp files in {src}")
    return [load_sfp(f.read_bytes(), pair_id=f.stem) for f in files]
