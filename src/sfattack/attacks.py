"""White-box L-infinity attacks on the first point cloud of scene pairs.

PGD-SF iterates signed-gradient steps and projects back onto the eps box
around the clean cloud after every step.  FGSM-SF is PGD's single step,
of size eps from the clean cloud.  The random-perturbation baseline
that completes the set is PGD's seeded random start on its own: both draw
in one place (_start).  Perturbations can target either position axes or
color channels, restricted to any subset via a target mask; the
ground-truth flow is never adjusted.

Every attack takes a batch of pairs, with one seed per pair, and returns
one result per pair; a single pair is a batch of one.  Each step scores
the whole batch with one Estimator.losses_and_grads call, one tape per
step.  The pairs never mix: each pair's result has the bits of an attack
on that pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import Estimator, _offsets
from .scene import PointCloud, ScenePair, ValidationError

AUTO = "auto"
# Upper bound on AttackConfig.iters: one PGD step is a forward and a backward
# pass, so a mistyped count (1000000000) would otherwise run for hours.
MAX_ITERS = 10_000


@dataclass(frozen=True)
class TargetMask:
    """Which part of pc1 the attack may touch: position axes or color channels."""

    domain: str  # the PointCloud field it perturbs: "positions" or "colors"
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


def clean_pass(pairs: list[ScenePair], est: Estimator) -> list[tuple]:
    """(EPE, position gradient, colour gradient) of each pair at its
    unperturbed first cloud, from one forward and one backward pass
    (Estimator.losses_and_grads; the colour gradient is None without
    colours).  The EPE is against the fixed ground truth and bitwise what
    est.epes gives for the same cloud.

    FGSM under every mask, and PGD's first step without a random start,
    differentiate this same point, so a caller that runs several of them on
    the pairs can run it once and hand it to each (fgsm_sf/pgd_sf `clean`).
    """
    return est.losses_and_grads([(pair, pair.pc1) for pair in pairs])


def _cloud(pair: ScenePair, cfg: AttackConfig, x: np.ndarray) -> PointCloud:
    """pair's first cloud with the masked domain's values replaced by x."""
    return replace(pair.pc1, **{cfg.mask.domain: x})


def _result(pair: ScenePair, cfg: AttackConfig, adv_domain: np.ndarray) -> AttackResult:
    return AttackResult(adv_pc1=_cloud(pair, cfg, adv_domain),
                        delta=adv_domain - getattr(pair.pc1, cfg.mask.domain))


def _clamp(x: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """x clipped to [0, 1] when it holds colours, unless cfg.clamp_colors is off."""
    if cfg.mask.domain == "colors" and cfg.clamp_colors:
        return np.clip(x, 0.0, 1.0)
    return x


def _start(pairs: list[ScenePair], cfg: AttackConfig, seeds, mode: str):
    """(row cuts, clean values, first iterate) of the masked domain of the
    pairs' first clouds, stacked by rows.  Given seeds, one per pair, pair p's
    rows add a draw seeded by seeds[p] on the masked axes, uniform in the eps
    box or +-eps for mode "rademacher", then colours are clamped to [0, 1]
    unless cfg.clamp_colors is off.  Later steps are elementwise: pair p's
    rows take the values of an attack on pair p alone."""
    for pair in pairs:
        cfg.mask.check(pair)
    parts = [getattr(pair.pc1, cfg.mask.domain) for pair in pairs]
    cuts = _offsets(parts)[1:-1]
    base = np.concatenate(parts)
    if seeds is None:
        return cuts, base, base
    if len(seeds) != len(pairs):
        raise ValidationError(f"{len(seeds)} seeds for {len(pairs)} pairs: one per pair")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    noise = [cfg.eps * rng.choice([-1.0, 1.0], size=part.shape) if mode == "rademacher"
             else rng.uniform(-cfg.eps, cfg.eps, part.shape) for rng, part in zip(rngs, parts)]
    return cuts, base, _clamp(base + np.concatenate(noise) * cfg.mask.axis_row(), cfg)


def fgsm_config(cfg: AttackConfig) -> AttackConfig:
    """The config FGSM runs: one step of size eps from the clean cloud, whatever
    cfg's iters, alpha and random_start."""
    return replace(cfg, iters=1, alpha=cfg.eps, random_start=False)


def fgsm_sf(pairs: list[ScenePair], est: Estimator, cfg: AttackConfig,
            clean=None) -> list[AttackResult]:
    """One-step signed-gradient attack: delta = eps * sign(grad), sign(0)=0.

    This is pgd_sf's single step under fgsm_config(cfg).
    """
    return pgd_sf(pairs, est, fgsm_config(cfg), clean=clean)


def pgd_sf(pairs: list[ScenePair], est: Estimator, cfg: AttackConfig,
           seeds=None, clean=None) -> list[AttackResult]:
    """Iterated signed-gradient ascent projected onto the eps box around pc1.

    At iters=1, alpha=eps and no random start this is FGSM; fgsm_sf calls
    it with those settings.  The gradient (and any hard neighbor selection
    inside the estimator) is recomputed from the current iterates at every
    step, one forward and one backward pass over the batch each.  seeds[p]
    (default 0) seeds pair p's random start, a uniform draw whatever
    cfg.random_mode says.  Without a random start, step 0 differentiates
    the clean clouds; `clean`, the clean_pass result for these pairs and
    this estimator, replaces that pass when given.  Only the perturbed
    clouds are returned; callers score them with est.epes.
    """
    seeds = [0] * len(pairs) if seeds is None else seeds
    alpha = cfg.resolved_alpha()
    is_color = cfg.mask.domain == "colors"
    axes = cfg.mask.axis_row()
    # Positions track delta (projection is exact in delta space); colors
    # track the iterate itself so the [0,1] clamp composes with the box.
    cuts, base, x = _start(pairs, cfg, seeds if cfg.random_start else None, "uniform")

    for step in range(cfg.iters):
        if step == 0 and clean is not None and not cfg.random_start:
            grads = clean
        else:
            grads = est.losses_and_grads([(pair, _cloud(pair, cfg, xp))
                                          for pair, xp in zip(pairs, np.split(x, cuts))])
        # zero off the masked axes, so those entries never move
        grad = np.concatenate([g[2] if is_color else g[1] for g in grads]) * axes
        if is_color:
            x = _clamp(np.clip(x + alpha * np.sign(grad), base - cfg.eps, base + cfg.eps), cfg)
        else:
            x = base + np.clip((x - base) + alpha * np.sign(grad), -cfg.eps, cfg.eps)
    return [_result(pair, cfg, adv) for pair, adv in zip(pairs, np.split(x, cuts))]


def random_attack(pairs: list[ScenePair], cfg: AttackConfig, seeds) -> list[AttackResult]:
    """Seeded random perturbation inside the eps box, pair p drawn from
    seeds[p]: PGD's random start (_start), uniform or +-eps as
    cfg.random_mode says, where PGD's own start is always uniform.

    Runs no estimator: the pairs need no gt_flow, and callers score the
    perturbed clouds themselves.
    """
    cuts, _, x = _start(pairs, cfg, seeds, cfg.random_mode)
    return [_result(pair, cfg, adv) for pair, adv in zip(pairs, np.split(x, cuts))]


def check_feasibility(pair: ScenePair, cfg: AttackConfig, result: AttackResult,
                      tol: float = 1e-12) -> list[str]:
    """Assertable attack invariants; empty list means all hold."""
    out = []
    if np.abs(result.delta).max() > cfg.eps + tol:
        out.append("delta exceeds eps")
    off = sorted({0, 1, 2} - cfg.mask.axes)
    if off and np.any(result.delta[:, off] != 0.0):
        out.append("delta nonzero off the masked axes")
    domain = cfg.mask.domain
    other = "colors" if domain == "positions" else "positions"
    if not np.array_equal(getattr(result.adv_pc1, other), getattr(pair.pc1, other)):
        out.append(f"{other} changed by an attack on {domain}")
    adv = getattr(result.adv_pc1, domain)
    if not np.array_equal(adv, getattr(pair.pc1, domain) + result.delta):
        out.append(f"adv {domain} != clean {domain} + delta")
    if domain == "colors" and (adv.min() < 0.0 or adv.max() > 1.0):
        out.append("adv colors outside [0,1]")
    return out
