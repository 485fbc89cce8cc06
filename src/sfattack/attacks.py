"""White-box L-infinity attacks on the first point cloud of a scene pair.

PGD-SF iterates signed-gradient steps and projects back onto the eps box
around the clean cloud after every step.  FGSM-SF is PGD's single step,
of size eps from the clean cloud.  A random-perturbation baseline
completes the set.  Perturbations can target either position axes or
color channels, restricted to any subset via a target mask; the
ground-truth flow is never adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .estimators import Estimator, epe_loss
from .scene import PointCloud, ScenePair, ValidationError

AUTO = "auto"
# Upper bound on AttackConfig.iters: one PGD step is a forward and a backward
# pass, so a mistyped count (1000000000) would otherwise run for hours.
MAX_ITERS = 10_000


@dataclass(frozen=True)
class TargetMask:
    """Which part of pc1 the attack may touch: position axes or color channels."""

    domain: str  # "positions" or "colors"
    axes: frozenset = frozenset({0, 1, 2})

    def __post_init__(self):
        if self.domain not in ("positions", "colors"):
            raise ValidationError(f"bad mask domain {self.domain!r}")
        axes = frozenset(int(a) for a in self.axes)
        if not axes or not axes <= {0, 1, 2}:
            raise ValidationError(f"mask axes must be a nonempty subset of {{0,1,2}}")
        object.__setattr__(self, "axes", axes)

    def fits(self, pair: ScenePair) -> bool:
        return self.domain == "positions" or pair.pc1.has_colors

    def check(self, pair: ScenePair) -> None:
        if not self.fits(pair):
            raise ValidationError("color mask on a pair without colors")

    def axis_row(self) -> np.ndarray:
        row = np.zeros(3)
        row[sorted(self.axes)] = 1.0
        return row

    def spec_string(self) -> str:
        word = "dim" if self.domain == "positions" else "channel"
        if self.axes == {0, 1, 2}:
            return "all-dims" if self.domain == "positions" else "all-channels"
        return f"{word}=" + ",".join(str(a) for a in sorted(self.axes))


def make_target_mask(spec: str) -> TargetMask:
    """Parse "all-dims", "dim=i[,j]", "all-channels", or "channel=i[,j]"."""
    spec = spec.strip()
    if spec == "all-dims":
        return TargetMask("positions")
    if spec == "all-channels":
        return TargetMask("colors")
    for prefix, domain in (("dim=", "positions"), ("channel=", "colors")):
        if spec.startswith(prefix):
            body = spec[len(prefix):]
            try:
                axes = frozenset(int(p) for p in body.split(","))
            except ValueError as exc:
                raise ValidationError(f"bad mask spec {spec!r}") from exc
            if not axes or not axes <= {0, 1, 2}:
                raise ValidationError(f"mask index out of range in {spec!r}")
            return TargetMask(domain, axes)
    raise ValidationError(f"unrecognized mask spec {spec!r}")


@dataclass(frozen=True)
class AttackConfig:
    eps: float
    iters: int = 1
    alpha: object = AUTO  # float or AUTO -> 2.5 * eps / iters
    mask: TargetMask = field(default_factory=lambda: TargetMask("positions"))
    random_start: bool = False
    clamp_colors: bool = True
    random_mode: str = "uniform"  # random baseline: "uniform" or "rademacher"

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValidationError("eps must be finite and > 0")
        if self.iters < 1:
            raise ValidationError("iters must be >= 1")
        if self.iters > MAX_ITERS:
            raise ValidationError(f"iters must be <= {MAX_ITERS}, got {self.iters}")
        if self.alpha != AUTO:
            a = float(self.alpha)
            if not (np.isfinite(a) and a > 0.0):
                raise ValidationError("alpha must be finite and > 0")
            object.__setattr__(self, "alpha", a)
        if self.random_mode not in ("uniform", "rademacher"):
            raise ValidationError(f"bad random_mode {self.random_mode!r}")

    def resolved_alpha(self) -> float:
        if self.alpha == AUTO:
            return 2.5 * self.eps / self.iters
        return float(self.alpha)


@dataclass(frozen=True)
class AttackResult:
    adv_pc1: PointCloud
    delta: np.ndarray


def _loss_and_grads(pair: ScenePair, est: Estimator, pos1_val, col1_val):
    """(EPE, position gradient, colour gradient) at (pos1_val, col1_val).

    One forward and one backward pass with positions and colours (when
    present) as leaves; the colour gradient is None without colours.  The
    EPE is against the fixed ground truth and bitwise what
    epe(est.estimate(...), gt_flow) gives for the same cloud.
    """
    if pair.gt_flow is None:
        raise ValidationError("attack requires a pair with gt_flow")
    g = Graph()
    pos1 = g.leaf(pos1_val)
    col1 = g.leaf(col1_val) if col1_val is not None else None
    loss = epe_loss(est.flow_tensor(pos1, col1, pair), pair.gt_flow)
    grads = ad.backward(loss)
    return (float(loss.data), grads[pos1.node_id],
            grads[col1.node_id] if col1 is not None else None)


def clean_pass(pair: ScenePair, est: Estimator):
    """(EPE, position gradient, colour gradient) at the unperturbed first
    cloud, from one forward and one backward pass (see _loss_and_grads).

    FGSM under every mask, and PGD's first step without a random start,
    differentiate this same point, so a caller that runs several of them on
    one pair can run it once and hand it to each (fgsm_sf/pgd_sf `clean`).
    """
    pc1 = pair.pc1
    return _loss_and_grads(pair, est, pc1.positions,
                          pc1.colors if pc1.has_colors else None)


def _masked(cfg: AttackConfig, grads) -> np.ndarray:
    """The masked domain's gradient of a _loss_and_grads result, zeroed off
    the masked axes."""
    _, gpos, gcol = grads
    return (gpos if cfg.mask.domain == "positions" else gcol) * cfg.mask.axis_row()


def _domain_values(pair: ScenePair, cfg: AttackConfig):
    pos = pair.pc1.positions
    col = pair.pc1.colors if pair.pc1.has_colors else None
    base = pos if cfg.mask.domain == "positions" else col
    return pos, col, base


def _result(pair: ScenePair, cfg: AttackConfig, adv_domain: np.ndarray) -> AttackResult:
    pos, col, base = _domain_values(pair, cfg)
    if cfg.mask.domain == "positions":
        adv_pc1 = PointCloud(adv_domain, col)
    else:
        adv_pc1 = PointCloud(pos, adv_domain)
    return AttackResult(adv_pc1=adv_pc1, delta=adv_domain - base)


def fgsm_config(cfg: AttackConfig) -> AttackConfig:
    """The config FGSM runs: one step of size eps from the clean cloud, whatever
    cfg's iters, alpha and random_start."""
    return replace(cfg, iters=1, alpha=cfg.eps, random_start=False)


def fgsm_sf(pair: ScenePair, est: Estimator, cfg: AttackConfig,
            clean=None) -> AttackResult:
    """One-step signed-gradient attack: delta = eps * sign(grad), sign(0)=0.

    This is pgd_sf's single step under fgsm_config(cfg).
    """
    return pgd_sf(pair, est, fgsm_config(cfg), clean=clean)


def pgd_sf(pair: ScenePair, est: Estimator, cfg: AttackConfig,
           seed: int = 0, clean=None) -> AttackResult:
    """Iterated signed-gradient ascent projected onto the eps box around pc1.

    At iters=1, alpha=eps and no random start this is FGSM; fgsm_sf calls
    it with those settings.  The gradient (and any hard neighbor selection
    inside the estimator) is recomputed from the current iterate at every
    step, one forward and one backward pass each.  Without a random start,
    step 0 differentiates the clean cloud; `clean`, the clean_pass result
    for this pair and estimator, replaces that pass when given.  Only the
    perturbed cloud is returned; callers score it with
    epe(est.estimate(...), gt_flow).
    """
    cfg.mask.check(pair)
    pos, col, base = _domain_values(pair, cfg)
    alpha = cfg.resolved_alpha()
    is_color = cfg.mask.domain == "colors"
    clamp = is_color and cfg.clamp_colors

    # Positions track delta (projection is exact in delta space); colors
    # track the iterate itself so the [0,1] clamp composes with the box.
    x = base.copy()
    if cfg.random_start:
        rng = np.random.default_rng(seed)
        x = x + rng.uniform(-cfg.eps, cfg.eps, size=x.shape) * cfg.mask.axis_row()
        if clamp:
            x = np.clip(x, 0.0, 1.0)

    for step in range(cfg.iters):
        if step == 0 and clean is not None and not cfg.random_start:
            grad = _masked(cfg, clean)
        elif is_color:
            grad = _masked(cfg, _loss_and_grads(pair, est, pos, x))
        else:
            grad = _masked(cfg, _loss_and_grads(pair, est, x, col))
        # grad is already zero off the masked axes, so those entries never move
        if is_color:
            x = np.clip(x + alpha * np.sign(grad), base - cfg.eps, base + cfg.eps)
            if clamp:
                x = np.clip(x, 0.0, 1.0)
        else:
            x = base + np.clip((x - base) + alpha * np.sign(grad), -cfg.eps, cfg.eps)
    return _result(pair, cfg, x)


def random_attack(pair: ScenePair, cfg: AttackConfig, seed: int) -> AttackResult:
    """Seeded random perturbation inside the eps box (uniform or +-eps).

    Runs no estimator: the pair needs no gt_flow, and callers score the
    perturbed cloud themselves.
    """
    cfg.mask.check(pair)
    _, _, base = _domain_values(pair, cfg)
    rng = np.random.default_rng(seed)
    if cfg.random_mode == "rademacher":
        noise = cfg.eps * rng.choice([-1.0, 1.0], size=base.shape)
    else:
        noise = rng.uniform(-cfg.eps, cfg.eps, size=base.shape)
    adv = base + noise * cfg.mask.axis_row()
    if cfg.mask.domain == "colors" and cfg.clamp_colors:
        adv = np.clip(adv, 0.0, 1.0)
    return _result(pair, cfg, adv)


def check_feasibility(pair: ScenePair, cfg: AttackConfig, result: AttackResult,
                      tol: float = 1e-12) -> list[str]:
    """Assertable attack invariants; empty list means all hold."""
    out = []
    if np.abs(result.delta).max() > cfg.eps + tol:
        out.append("delta exceeds eps")
    off = sorted({0, 1, 2} - cfg.mask.axes)
    if off and np.any(result.delta[:, off] != 0.0):
        out.append("delta nonzero off the masked axes")
    pos, col, base = _domain_values(pair, cfg)
    if cfg.mask.domain == "positions":
        if col is not None and not np.array_equal(result.adv_pc1.colors, col):
            out.append("colors changed by a position attack")
        if not np.array_equal(result.adv_pc1.positions, base + result.delta):
            out.append("adv positions != pc1 + delta")
    else:
        if not np.array_equal(result.adv_pc1.positions, pos):
            out.append("positions changed by a color attack")
        if not np.array_equal(result.adv_pc1.colors, base + result.delta):
            out.append("adv colors != colors + delta")
        if result.adv_pc1.colors.min() < 0.0 or result.adv_pc1.colors.max() > 1.0:
            out.append("adv colors outside [0,1]")
    return out
