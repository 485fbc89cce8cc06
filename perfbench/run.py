"""sfattack benchmark: attack-grid and training throughput, set-up time and
peak memory over two workloads, plus a traced per-layer run.

    python3 perfbench/run.py --workload ot-grid --seed 42 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process
    python3 perfbench/run.py --workload ot-grid --write-reference

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``).  perfbench/README.md defines every metric.
"""

import os

# One BLAS thread, set before numpy is first imported, so that no run uses
# more threads than the machine's cores and timings do not depend on them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# glibc malloc with fixed thresholds.  Its default moves the mmap threshold
# with the history of frees, which puts a process in one of two modes for the
# N x M arrays: served from the heap, or mmapped and page-faulted afresh on
# every allocation (measured: 2x the wall time, mostly system time).  Which
# mode a run gets depends on what ran before, so runs would be bimodal.
_LIBC = ctypes.CDLL(None)
MALLOC = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 1 << 30)}
for _param, _value in MALLOC.values():
    if _LIBC.mallopt(_param, _value) != 1:
        raise SystemExit(f"perfbench: mallopt({_param}, {_value}) failed")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
CHILD_TIMEOUT_S = 175  # --workload all: a child that runs longer has failed


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import sfattack from this checkout's src/, never from elsewhere."""
    if not (SRC / "sfattack" / "__init__.py").is_file():
        _die(f"no sfattack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfattack
    if Path(sfattack.__file__).resolve().parent != (SRC / "sfattack").resolve():
        _die(f"imported sfattack from {sfattack.__file__}, not {SRC}")


def _declared():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die(f"{path} is missing")
    return json.loads(path.read_text())


def environment() -> dict:
    import numpy as np
    _LIBC.sysconf.argtypes, _LIBC.sysconf.restype = [ctypes.c_int], ctypes.c_long
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        # glibc sysconf names _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        "l2_cache_bytes": _LIBC.sysconf(191),
        "l3_cache_bytes": _LIBC.sysconf(194),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc": {name: value for name, (_, value) in MALLOC.items()},
    }


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"correct {record['correct']}  failed {record['failed']}"
          f"/{record['attempted']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for key, val in record["extra"].items():
        print(f"  {key:<34} {json.dumps(val)}")
    for key, m in record["metrics"].items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")


# -- every workload, each in its own process ----------------------------------

def run_all(names, args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        reason = None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            reason = f"timed out after {CHILD_TIMEOUT_S} s"
        else:
            lines = proc.stdout.splitlines()
            if proc.returncode < 0:
                sig = signal.Signals(-proc.returncode).name
                reason = f"killed by {sig}" + (
                    " (as the out-of-memory killer does)" if sig == "SIGKILL" else "")
            elif proc.returncode != 0 or not lines:
                err = proc.stderr.strip().splitlines()
                reason = f"exit {proc.returncode}: {err[-1] if err else 'no output'}"
        if reason:
            print(f"workload {name} FAILED: {reason}")
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    declared = _declared()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="default: the workload's own")
    p.add_argument("--seconds", type=int, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the default-seed report the checks compare against")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    _import_program()
    import measure
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}, all")
    if args.write_reference:
        for name in names:
            print(f"wrote {measure.write_reference(name, RUN_DIR)}")
        return 0
    if args.workload == "all":
        return run_all(names, args)
    kind = "per_layer" if args.trace else "end_to_end"
    record = measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        {m["name"]: m["unit"] for m in declared[kind]}, environment(), RUN_DIR)
    print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
