"""Scene data types (point clouds, flow fields, scene pairs) and their
file formats: the binary SFP1 scene-pair container and ASCII PLY export.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class FormatError(ValueError):
    """Malformed file contents (bad magic, bad header, bad structure)."""


class LengthError(FormatError):
    """Payload shorter or longer than the header promises."""


class ValidationError(ValueError):
    """Data violates a scene-type invariant."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """N points with positions and optional colors in [0,1]."""

    positions: np.ndarray
    colors: Optional[np.ndarray] = None

    def __post_init__(self):
        pos = _freeze(self.positions)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValidationError(f"positions must be (N,3) with N>=1, got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        if self.colors is not None:
            col = _freeze(self.colors)
            if col.shape != pos.shape:
                raise ValidationError(f"colors shape {col.shape} != positions {pos.shape}")
            object.__setattr__(self, "colors", col)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def has_colors(self) -> bool:
        return self.colors is not None


@dataclass(frozen=True)
class FlowField:
    """Per-point displacement vectors (u, v, w) for a first cloud."""

    vectors: np.ndarray

    def __post_init__(self):
        vec = _freeze(self.vectors)
        if vec.ndim != 2 or vec.shape[1] != 3:
            raise ValidationError(f"flow vectors must be (N,3), got {vec.shape}")
        object.__setattr__(self, "vectors", vec)

    @property
    def n_points(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ScenePair:
    """Two consecutive point clouds, optionally with ground-truth flow."""

    pc1: PointCloud
    pc2: PointCloud
    gt_flow: Optional[FlowField] = None
    id: str = field(default="pair")


def validate(pair: ScenePair) -> list[str]:
    """Return the list of invariant violations (empty means valid)."""
    out = []
    for name, cloud in (("pc1", pair.pc1), ("pc2", pair.pc2)):
        if not np.all(np.isfinite(cloud.positions)):
            out.append(f"{name}: non-finite position")
        if cloud.colors is not None:
            if not np.all(np.isfinite(cloud.colors)):
                out.append(f"{name}: non-finite color")
            elif cloud.colors.min() < 0.0 or cloud.colors.max() > 1.0:
                out.append(f"{name}: color outside [0,1]")
    if pair.pc1.has_colors != pair.pc2.has_colors:
        out.append("color presence mismatch")
    if pair.gt_flow is not None:
        if pair.gt_flow.n_points != pair.pc1.n_points:
            out.append("flow length mismatch")
        if not np.all(np.isfinite(pair.gt_flow.vectors)):
            out.append("gt_flow: non-finite value")
    return out


# -- SFP1 binary format ---------------------------------------------------
#
# magic "SFP1" | flags u32 (bit0=has_color, bit1=has_flow) | n1 u32 | n2 u32
# | pos1 f32[n1*3] | pos2 f32[n2*3] | col1/col2 f32 if bit0 | flow f32 if bit1
# All little-endian.

_MAGIC = b"SFP1"


def save_sfp(pair: ScenePair) -> bytes:
    """Serialize a scene pair to canonical SFP1 bytes."""
    violations = validate(pair)
    if violations:
        raise ValidationError("; ".join(violations))
    has_color = pair.pc1.has_colors
    has_flow = pair.gt_flow is not None
    flags = (1 if has_color else 0) | (2 if has_flow else 0)
    chunks = [_MAGIC, struct.pack("<III", flags, pair.pc1.n_points, pair.pc2.n_points)]

    def f32(a: np.ndarray) -> bytes:
        return np.ascontiguousarray(a, dtype="<f4").tobytes()

    chunks.append(f32(pair.pc1.positions))
    chunks.append(f32(pair.pc2.positions))
    if has_color:
        chunks.append(f32(pair.pc1.colors))
        chunks.append(f32(pair.pc2.colors))
    if has_flow:
        chunks.append(f32(pair.gt_flow.vectors))
    return b"".join(chunks)


def load_sfp(data: bytes, pair_id: str = "pair") -> ScenePair:
    """Parse SFP1 bytes; stored 32-bit values are widened to 64-bit."""
    if len(data) < 16:
        raise LengthError(f"SFP1 header needs 16 bytes, got {len(data)}")
    if data[:4] != _MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    flags, n1, n2 = struct.unpack_from("<III", data, 4)
    if flags & ~0b11:
        raise FormatError(f"unknown flag bits 0x{flags:x}")
    if n1 < 1 or n2 < 1:
        raise FormatError("point counts must be >= 1")
    has_color = bool(flags & 1)
    has_flow = bool(flags & 2)
    n_floats = 3 * (n1 + n2) * (2 if has_color else 1) + (3 * n1 if has_flow else 0)
    expect = 16 + 4 * n_floats
    if len(data) != expect:
        raise LengthError(f"expected {expect} bytes, got {len(data)}")

    offset = 16

    def take(n_rows: int) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(data, dtype="<f4", count=n_rows * 3, offset=offset)
        offset += n_rows * 12
        with np.errstate(invalid="ignore"):  # corrupt payloads may hold signaling NaNs
            return out.astype(np.float64).reshape(n_rows, 3)

    pos1, pos2 = take(n1), take(n2)
    col1 = col2 = None
    if has_color:
        col1, col2 = take(n1), take(n2)
    flow = FlowField(take(n1)) if has_flow else None
    pair = ScenePair(PointCloud(pos1, col1), PointCloud(pos2, col2), flow, pair_id)
    violations = validate(pair)
    if violations:
        raise ValidationError("; ".join(violations))
    return pair


# -- ASCII PLY ------------------------------------------------------------

def save_ply(cloud: PointCloud) -> str:
    """Write a point cloud as ASCII PLY, float properties x y z [r g b]."""
    props = ["property float x", "property float y", "property float z"]
    if cloud.has_colors:
        props += ["property float r", "property float g", "property float b"]
    header = "\n".join(
        ["ply", "format ascii 1.0", f"element vertex {cloud.n_points}"]
        + props + ["end_header"]
    )

    def fmt(v: float) -> str:
        return np.format_float_positional(np.float32(v), unique=True, trim="0")

    rows = []
    for i in range(cloud.n_points):
        vals = list(cloud.positions[i])
        if cloud.has_colors:
            vals += list(cloud.colors[i])
        rows.append(" ".join(fmt(v) for v in vals))
    return header + "\n" + "\n".join(rows) + "\n"


def load_ply(text: str) -> PointCloud:
    """Parse an ASCII PLY vertex cloud with float x,y,z and optional r,g,b."""
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or lines[0] != "ply":
        raise FormatError("not a PLY file")
    n_vertices = None
    props: list[str] = []
    body_start = None
    in_vertex = False
    for i, ln in enumerate(lines[1:], start=1):
        if ln.startswith("comment") or ln == "format ascii 1.0":
            continue
        if ln.startswith("element vertex "):
            try:
                n_vertices = int(ln.split()[-1])
            except ValueError as exc:
                raise FormatError(f"bad vertex count in {ln!r}") from exc
            in_vertex = True
            continue
        if ln.startswith("element "):
            in_vertex = False
            continue
        if ln.startswith("property") and in_vertex:
            parts = ln.split()
            if len(parts) != 3 or parts[1] != "float":
                raise FormatError(f"unsupported property line {ln!r}")
            props.append(parts[2])
            continue
        if ln == "end_header":
            body_start = i + 1
            break
    if body_start is None or n_vertices is None:
        raise FormatError("missing end_header or vertex element")
    for need in ("x", "y", "z"):
        if need not in props:
            raise FormatError(f"missing vertex property {need!r}")
    has_colors = all(c in props for c in ("r", "g", "b"))

    body = [ln for ln in lines[body_start:] if ln]
    if len(body) != n_vertices:
        raise LengthError(f"header declares {n_vertices} vertices, found {len(body)}")
    data = np.zeros((n_vertices, len(props)), dtype=np.float64)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != len(props):
            raise FormatError(f"vertex row {i} has {len(parts)} fields, expected {len(props)}")
        try:
            data[i] = [np.float64(np.float32(p)) for p in parts]
        except ValueError as exc:
            raise FormatError(f"vertex row {i} has a non-numeric field") from exc
    col = {name: j for j, name in enumerate(props)}
    positions = data[:, [col["x"], col["y"], col["z"]]]
    colors = data[:, [col["r"], col["g"], col["b"]]] if has_colors else None
    return PointCloud(positions, colors)
