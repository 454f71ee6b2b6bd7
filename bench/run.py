"""graycyl benchmark: CLI workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload verify-all-5 --seed 1 --seconds 40 --trace 0

Run from any directory of a source checkout; the library is imported from its
``src/``.  Every pass runs in a fresh interpreter (``worker.py``), one item
after another, so nothing cached in one pass helps the next.

``--trace 0`` spawns set-up-only interpreters, then repeats whole timed passes
while they fit in ``--seconds``, and reports medians of ``wall_s`` (first item
to last verdict), ``setup_s`` (interpreter start, ``import graycyl``, building
the corpus) and ``peak_rss_mb``.  ``--trace 1`` runs one untraced pass, one
pass with a span per public library function and one pass that only counts
calls, and reports the per-layer metrics.

Standard output ends with a line holding the run record (source revision,
Python, processor count, seed, corpus and every sample), then a line with the
result: ``{"correct", "attempted", "failed", "metrics"}``.  Items whose exit
code, stdout digest, verdict or product-rule counts are wrong count as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5        # set-up-only interpreters per untimed run, besides the passes
RUN_LIMIT_S = 170        # a run that takes longer is stopped and fails
HASH_SEED = "0"          # fixed, so set iteration order is the same in every pass


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, kind: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker pass; return its set-up seconds and its result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", kind]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"{kind} pass of {workload} exited with code {rc}")
    return setup_s, (json.loads(rest.splitlines()[-1]) if kind != "setup" else None)


def source_revision() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/graycyl."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "graycyl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Set-up samples and whole passes, repeated while they fit in ``seconds``."""
    t0 = perf_counter()
    deadline = t0 + RUN_LIMIT_S
    spawn(workload, seed, "setup", deadline)  # warm the file and bytecode caches
    setups = [spawn(workload, seed, "setup", deadline)[0] for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        p0 = perf_counter()
        setup_s, res = spawn(workload, seed, "plain", deadline)
        setups.append(setup_s)
        passes.append(res)
        if perf_counter() + (perf_counter() - p0) > t0 + seconds:
            break
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    samples = {"setup_s": setups,
               "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "failed")} for p in passes]}
    return metrics, passes, samples


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: str, seed: int) -> tuple[dict, list, dict]:
    """One untraced, one timed and one counted pass, reduced to per-layer metrics."""
    deadline = perf_counter() + RUN_LIMIT_S
    plain = spawn(workload, seed, "plain", deadline)[1]
    timed = spawn(workload, seed, "timed", deadline)[1]
    counted = spawn(workload, seed, "counted", deadline)[1]
    self_s, incl = timed["layer_self_s"], timed["outermost_s"]
    calls, entries, distinct = counted["calls"], counted["entries"], counted["distinct"]
    remainder = timed["wall_s"] - timed["root_s"]
    pr_spans = [sp for sp in timed["spans"] + timed["oracle_spans"] if sp["name"].startswith("pr.")]
    m = {
        "trace.wall_s": (timed["wall_s"], "s"),
        "trace.overhead_s": (timed["wall_s"] - plain["wall_s"], "s"),
        "trace.remainder_s": (remainder, "s"),
        "nu.calls": (entries.get("nu", 0), "count"),
        "nu.self_s": (self_s["nu"], "s"),
        "nu.enumerate_cells.s": (incl.get("nu.enumerate_cells", 0.0), "s"),
        "nu.enumerate_cells.calls": (calls.get("nu.enumerate_cells", 0), "count"),
        "nu.cells": (counted["nu_cells"], "count"),
        "nu.composable_calls": (counted["probed"], "count"),
        "nu.compose_calls": (counted["composed"], "count"),
        "nu.compose_yield": (ratio(counted["nu_cells"] - counted["nu_seeds"], counted["composed"]), "ratio"),
        "nu.check_functor.s": (incl.get("nu.check_functor", 0.0), "s"),
        "nu.check_functor.calls": (calls.get("nu.check_functor", 0), "count"),
        "dac.self_s": (self_s["dac"], "s"),
        "dac.lambda_cell.calls": (calls.get("dac.lambda_cell", 0), "count"),
        "dac.lambda_cell.distinct_ratio": (ratio(distinct["dac.lambda_cell"], calls.get("dac.lambda_cell", 0)), "ratio"),
        "dac.tensor.calls": (calls.get("dac.tensor", 0), "count"),
        "dac.check_basis.s": (incl.get("dac.check_basis", 0.0), "s"),
        "gray.self_s": (self_s["gray"], "s"),
        "gray.lax_shuffle_diagram.calls": (calls.get("gray.lax_shuffle_diagram", 0), "count"),
        "gray.lax_shuffle_diagram.distinct_ratio": (ratio(distinct["gray.lax_shuffle_diagram"], calls.get("gray.lax_shuffle_diagram", 0)), "ratio"),
        "gray.hyperface_cylinder.s": (incl.get("gray.hyperface_cylinder", 0.0), "s"),
        "gray.verify_gluing.s": (incl.get("gray.verify_gluing", 0.0), "s"),
        "gray.verify_globular_preservation.s": (incl.get("gray.verify_globular_preservation", 0.0), "s"),
        "intlin.self_s": (self_s["intlin"], "s"),
        "intlin.calls": (entries.get("intlin", 0), "count"),
        "intlin.rows": (counted["intlin_rows"], "count"),
        "span.self_s": (self_s["span"], "s"),
        "span.build_span.s": (incl.get("span.build_span", 0.0), "s"),
        "theta.self_s": (self_s["theta"], "s"),
        "theta.calls": (entries.get("theta", 0), "count"),
        "pr.self_s": (sum(sp["self_s"] for sp in pr_spans), "s"),
        "pr.pr_count.calls": (sum(sp["calls"] for sp in pr_spans if sp["name"] == "pr.pr_count"), "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.bytes_out": (timed["bytes_out"], "bytes"),
    }
    accounted = sum(self_s.values()) + remainder
    samples = {"spans": timed["spans"], "calls": calls, "layer_entries": entries,
               "accounted_s": accounted}
    if abs(accounted - timed["wall_s"]) > 1e-6 * max(timed["wall_s"], 1.0):
        raise BenchError(f"layer self times + remainder = {accounted} s, traced wall {timed['wall_s']} s")
    return m, [plain, timed, counted], samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graycyl" / "__init__.py").is_file():
        print(f"error: no graycyl sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, passes, samples = trace(args.workload, args.seed)
        else:
            metrics, passes, samples = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in dict.fromkeys(f for p in passes for f in p["failures"]):
        print(f"failed: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_revision(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)), "hash_seed": HASH_SEED,
        "corpus": passes[0]["corpus"],
        "error_rate": ratio(failed, attempted), **samples,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
