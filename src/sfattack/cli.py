"""Command-line interface: generate / train / attack / eval / gradcheck / plot."""

from __future__ import annotations

import argparse
import ctypes
import errno
import json
import os
import sys
from pathlib import Path

from .attacks import AUTO, AttackConfig, make_target_mask
from .estimators import (OTEstimator, TinyNetEstimator, load_weights, save_weights,
                         train_tiny)
from .harness import (GridEntry, attack_pairs, gradcheck_battery, load_grid,
                      pair_baselines, render_flow_svg, run_experiment, write_report,
                      _rel)
from .scene import FlowField, FormatError, ValidationError, load_sfp, save_sfp
from .synth import DatasetSpec, load_dataset, make_dataset, write_dataset


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="sfattack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a synthetic SFP1 dataset")
    g.add_argument("--scenes", type=int, required=True)
    g.add_argument("--points", type=int, default=256)
    g.add_argument("--motion", choices=["rigid", "deform"], default="rigid")
    color = g.add_mutually_exclusive_group()
    color.add_argument("--color", dest="color", action="store_true", default=False)
    color.add_argument("--no-color", dest="color", action="store_false")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--drop", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train the tiny flow net on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--lr", type=float, default=0.05)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)

    a = sub.add_parser("attack", help="attack one scene pair")
    a.add_argument("--model", default="ot")
    a.add_argument("--attack", choices=["fgsm", "pgd", "random"], required=True)
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--iters", type=int, default=10)
    a.add_argument("--alpha", default="auto")
    a.add_argument("--random-start", action="store_true")
    a.add_argument("--target", default="all-dims")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--report")
    a.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("eval", help="run an attack grid over a dataset")
    e.add_argument("--model", default="ot")
    e.add_argument("--data", required=True)
    e.add_argument("--grid", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--csv")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--timing", action="store_true")

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--seed", type=int, default=0)

    f = sub.add_parser("plot", help="render flows to SVG")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--flow-a", required=True)
    f.add_argument("--flow-b")
    f.add_argument("--out", required=True)
    return p


def _make_estimator(spec: str):
    if spec == "ot":
        return OTEstimator()
    if spec == "tiny" or spec.startswith("tiny:"):
        if ":" not in spec:
            raise ValidationError("tiny estimator needs a weight file: tiny:model.sftn")
        path = spec.split(":", 1)[1]
        return TinyNetEstimator(load_weights(Path(path).read_bytes()))
    raise ValidationError(f"unknown model {spec!r}")


def _check_outputs(*paths) -> None:
    """Raise, before any work, the error open(path, "w") would for each path."""
    for path in filter(None, paths):
        try:  # with a trailing separator, stat fails as open would
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _cmd_generate(args) -> int:
    ds = DatasetSpec(
        n_points=args.points, with_color=args.color, kind=args.motion,
        deform_range=(0.1, 0.3) if args.motion == "deform" else (0.0, 0.0),
        noise_sigma=args.noise, drop_fraction=args.drop,
    )
    pairs = make_dataset(args.scenes, ds, args.seed)
    write_dataset(pairs, args.out, args.seed, ds)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_outputs(args.out)
    dataset = load_dataset(args.data)
    weights, trace = train_tiny(dataset, args.epochs, args.lr, args.seed)
    Path(args.out).write_bytes(save_weights(weights))
    print(f"trained {args.epochs} epochs, loss {trace[0]:.6g} -> {trace[-1]:.6g}")
    return 0


def _cmd_attack(args) -> int:
    _check_outputs(args.out, args.report)
    est = _make_estimator(args.model)
    pair = load_sfp(Path(args.infile).read_bytes(), pair_id=Path(args.infile).stem)
    fgsm = args.attack == "fgsm"  # --iters and --alpha do not apply to FGSM
    cfg = AttackConfig(eps=args.eps, iters=1 if fgsm else args.iters,
                       alpha=AUTO if fgsm or args.alpha == AUTO else float(args.alpha),
                       mask=make_target_mask(args.target),
                       random_start=args.random_start)
    entry = GridEntry(args.attack, cfg)
    [(before, clean)] = pair_baselines([pair], est, [entry])
    [(adv_pair, after)] = attack_pairs([pair], est, entry, [args.seed],
                                       None if clean is None else [clean])
    Path(args.out).write_bytes(save_sfp(adv_pair))
    ran = entry.ran_config()
    summary = {
        "pair_id": pair.id, "attack": args.attack, "target": args.target,
        "eps": args.eps, "iters": ran.iters,
        "alpha": ran.resolved_alpha(), "seed": args.seed,
        "epe_before": before, "epe_after": after,
        "rel": _rel(before, after),
    }
    if args.report:
        Path(args.report).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"epe {before:.6g} -> {after:.6g}")
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args.report, args.csv)
    est = _make_estimator(args.model)
    dataset = load_dataset(args.data)
    grid = load_grid(args.grid)
    report = run_experiment(dataset, est, grid, args.seed,
                            jobs=args.jobs, timing=args.timing)
    write_report(report, json_path=args.report, csv_path=args.csv)
    for agg in report.aggregates:
        rel = "n/a" if agg["rel"] is None else f"{agg['rel']:+.4f}"
        print(f"{agg['attack']:>6} {agg['mask']:<14} aepe "
              f"{agg['aepe_before']:.5f} -> {agg['aepe_after']:.5f}  rel {rel}")
    return 0


def _cmd_gradcheck(args) -> int:
    summary: dict[str, tuple[float, bool]] = {}  # name -> (worst error, all passed)
    for name, pair_seed, rep in gradcheck_battery(args.seed, n_pairs=5):
        worst, passed = summary.get(name, (0.0, True))
        summary[name] = (max(worst, rep.max_rel_err), passed and rep.passed)
        if not rep.passed:
            print(f"gradcheck {name} seed {pair_seed} FAIL "
                  f"max_rel_err {rep.max_rel_err:.3e}")
    for name, (worst, passed) in summary.items():
        print(f"gradcheck {name:<10} max_rel_err {worst:.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed in summary.values()) else 2


def _cmd_plot(args) -> int:
    pair = load_sfp(Path(args.infile).read_bytes())

    def flow_of(path) -> FlowField:
        p = load_sfp(Path(path).read_bytes())
        if p.gt_flow is None:
            raise ValidationError(f"{path} carries no flow block")
        return p.gt_flow

    flow_a = flow_of(args.flow_a)
    flow_b = flow_of(args.flow_b) if args.flow_b else None
    Path(args.out).write_text(render_flow_svg(pair, flow_a, flow_b))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "plot": _cmd_plot,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, FormatError, ValueError, FileNotFoundError,
            FileExistsError, IsADirectoryError, NotADirectoryError) as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


# glibc mallopt parameters (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) and values,
# by the name GLIBC_TUNABLES gives each after "glibc.malloc."
_MALLOPT = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 1 << 30)}


def _tune_malloc() -> None:
    """Fix glibc malloc's mmap threshold at 32 MiB and its trim threshold
    at 1 GiB; on any other C library, do nothing.

    glibc's default moves the mmap threshold with the history of frees, so
    the N x M arrays of a pass are served from the heap or mmapped and
    faulted in afresh on every allocation, depending on what ran before.
    A threshold set through GLIBC_TUNABLES is left as it is.  Outputs do not
    depend on the allocator.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # not glibc
        return
    tunables = {item.split("=", 1)[0]
                for item in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    libc = ctypes.CDLL(None)
    for name, (param, value) in _MALLOPT.items():
        if f"glibc.malloc.{name}" not in tunables:
            libc.mallopt(param, value)


def main() -> None:
    _tune_malloc()
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
