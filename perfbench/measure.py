"""One workload, measured in this process: warm-up, set-up, jobs, checks."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import workloads as W
from sfattack import synth
from spans import (ALL_SITES, CELL_SITE, EXACT_COUNTS, Tracer, job_layers,
                   median_of, setup_layers)

SETUP_BURST = 5  # set-ups before the first job and after every job


def tail_percentile(values: list[float]):
    """(value, percentile, samples beyond) for the highest whole percentile
    with at least 10 samples beyond it; None with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return sorted(values)[rank - 1], p, n - rank


def _warm_up(w: W.Workload, seed: int, tracer: Tracer, out: Path) -> None:
    """Run the CLI paths on toy inputs, and the workload's own set-up once,
    so imports, numpy and the file system are warm before anything is timed."""
    spec = synth.DatasetSpec(n_points=16)
    with tracer.installed(ALL_SITES):
        for toy in (W.Workload("warm-ot", 0, spec, 1, [W.FGSM]),
                    W.Workload("warm-tiny", 0, spec, 1, [W.FGSM], train_pairs=4)):
            data = W.setup(toy, 0, out / toy.name / "data")
            W.run_job(toy, data, out / toy.name / "job", tracer)
        W.setup(w, seed, out / "setup")
    tracer.spans.clear()


def _setup_burst(w, seed, trace, tracer, out: Path, times: list[float]) -> None:
    """Set up SETUP_BURST more times.  Bursts between the jobs spread the
    set-ups over the run, so their median sees the same machine as the jobs."""
    for _ in range(SETUP_BURST):
        k = len(times)
        data = out / f"setup{k}"
        tracer.run_id = f"setup{k}"
        with tracer.installed(ALL_SITES if trace else ()):
            start = time.perf_counter()
            W.setup(w, seed, data)
            times.append(time.perf_counter() - start)
        if k:  # the jobs run on the first set-up's files
            shutil.rmtree(data)


def _jobs(w, seed, seconds, trace, tracer, out: Path):
    """Repeat the job until the next one would end past ``seconds``; at
    least two untraced jobs, and with tracing two traced ones in between.
    Returns (jobs, traced flags, set-up times)."""
    jobs, traced, setup_s = [], [], []
    _setup_burst(w, seed, trace, tracer, out, setup_s)
    start = time.perf_counter()
    while True:
        is_traced = trace and len(jobs) % 2 == 1
        tracer.run_id = len(jobs)
        with tracer.installed(ALL_SITES if is_traced else (CELL_SITE,)):
            job = W.run_job(w, out / "setup0", out / f"job{len(jobs)}", tracer)
        jobs.append(job)
        traced.append(is_traced)
        _setup_burst(w, seed, trace, tracer, out, setup_s)
        enough = traced.count(False) >= 2 and (not trace or traced.count(True) >= 2)
        if enough and time.perf_counter() - start + job.wall_s > seconds:
            return jobs, traced, setup_s


def _check(w, seed, jobs, tracer, out: Path) -> tuple[int, int, bool]:
    """(attempted, failed, correct): every job against the reference report
    at the default seed, or against the first job's bytes at any other seed,
    plus one job at the default seed when the run's seed is another."""
    reference = W.reference_path(w).read_bytes()
    attempted = failed = 0
    correct = True
    for job in jobs:
        bad, agg_ok = W.failed_records(
            w, job, reference if seed == w.default_seed else None)
        if job.report != jobs[0].report:
            bad = max(bad, W.failed_records(w, job, jobs[0].report)[0], 1)
            correct = False
        attempted += w.operations
        failed += bad
        correct = correct and agg_ok
    if seed != w.default_seed:
        tracer.run_id = "reference"
        data = W.setup(w, w.default_seed, out / "reference")
        bad, agg_ok = W.failed_records(
            w, W.run_job(w, data, out / "reference-job", tracer), reference)
        attempted += w.operations
        failed += bad
        correct = correct and agg_ok
    return attempted, failed, correct


def run_workload(name: str, seed, seconds: int, trace: bool, units: dict,
                 environment: dict, run_dir: Path) -> dict:
    """Measure one workload; returns the record printed and stored."""
    w = W.WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    work = run_dir / f"{name}-{os.getpid()}"
    tracer = Tracer()
    try:
        _warm_up(w, seed, tracer, work / "warm")
        jobs, traced, setup_s = _jobs(w, seed, seconds, trace, tracer, work)
        attempted, failed, correct = _check(w, seed, jobs, tracer, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [i for i, t in enumerate(traced) if not t]
    cell_s = tracer.durations("harness.cell", set(plain))
    extra = {
        "seed": seed, "eval_seed": W.EVAL_SEED,
        "train_seed": W.TRAIN_SEED if w.train_pairs else None,
        "jobs": len(jobs), "traced_jobs": traced.count(True),
        "setup_runs": len(setup_s), "cells": len(cell_s),
        "fail_share": failed / attempted,
        "cell_ms_p50": statistics.median(cell_s) * 1e3,
    }
    tail = tail_percentile(cell_s)
    if tail:
        extra["cell_ms_tail"] = {"value": tail[0] * 1e3, "percentile": tail[1],
                                 "cells_beyond": tail[2]}
    if w.train_pairs:
        extra["train_pairs_per_s"] = (w.train_pairs * W.EPOCHS * len(plain)
                                      / sum(jobs[i].train_s for i in plain))
    job_s = statistics.median(jobs[i].wall_s for i in plain)
    values = {
        "setup_s": statistics.median(setup_s),
        "job_s": job_s,
        "cells_per_s": w.cells / statistics.median(jobs[i].eval_s for i in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        runs = [i for i, t in enumerate(traced) if t]
        per_job = [job_layers(tracer, i) for i in runs]
        unsteady = [k for k in EXACT_COUNTS if len({row[k] for row in per_job}) != 1]
        if unsteady:
            extra["unsteady_counts"] = unsteady
            correct = False
        values = {
            **median_of(per_job),
            **median_of([setup_layers(tracer, f"setup{k}")
                         for k in range(len(setup_s))]),
            "harness.failed_cells": failed * w.operations / attempted,
            "trace.overhead_s":
                statistics.median(jobs[i].wall_s for i in runs) - job_s,
            "trace.spans": sum(1 for s in tracer.spans if s[4] == runs[0]),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "differ from BENCHMARK.json")
    record = {
        "workload": name, "trace": int(trace), "environment": environment,
        "extra": extra,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    run_dir.mkdir(exist_ok=True)
    out = run_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    samples = {"job_s": [jobs[i].wall_s for i in plain],
               "eval_s": [jobs[i].eval_s for i in plain], "setup_s": setup_s}
    out.write_text(json.dumps({**record, "samples": samples,
                               "spans": tracer.spans if trace else []}) + "\n")
    return record


def write_reference(name: str, run_dir: Path) -> Path:
    """Store the default-seed report that every run is checked against."""
    w = W.WORKLOADS[name]
    work = run_dir / f"{name}-reference-{os.getpid()}"
    try:
        data = W.setup(w, w.default_seed, work / "data")
        job = W.run_job(w, data, work / "job", Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not job.report:
        raise RuntimeError(f"{name}: job failed with exit codes {job.exit_codes}")
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    W.reference_path(w).write_bytes(job.report)
    return W.reference_path(w)
