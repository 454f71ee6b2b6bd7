"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --pass setup|plain|timed|counted

The worker imports graycyl from ``src/`` of the checkout, builds the ordered
corpus of CLI items from the seed, and writes ``ready`` to stdout: the time up
to that line is the set-up time.  It then runs every item through
``graycyl.cli.main`` in process, one after another, and times the loop.  After
the loop it checks every item against the golden exit codes and stdout digests
in ``golden.json`` and against an independent oracle, and writes one JSON line
with the result.  ``timed`` and ``counted`` wrap the library with the tracers
of ``tracer.py`` during the loop; ``setup`` stops after ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

CLOSURE_ITEMS = (
    ("gray", "[2]([2],[2])", "--max-dim", "4"),
    ("gray", "[3]([0],[1]([1]),[0])", "--max-dim", "4"),
    ("gray", "[5]", "--max-dim", "3"),
    ("gray", "G4", "--max-dim", "5"),
)
WORKLOADS = ("verify-all-5", "faces-6", "closure-wide")
PASSES = ("setup", "plain", "timed", "counted")


def item_key(argv) -> str:
    return " ".join(argv)


def corpus(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI items, in an order fixed by the seed."""
    from graycyl.theta import cells_up_to
    if workload == "verify-all-5":
        items = [["verify", "all", str(t)] for t in cells_up_to(5)]
    elif workload == "faces-6":
        items = [["verify", suite, str(t)] for t in cells_up_to(6) for suite in ("gray", "hyperface")]
    elif workload == "closure-wide":
        items = [list(item) for item in CLOSURE_ITEMS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    items.sort()
    random.Random(seed).shuffle(items)
    return items


def run_items(items) -> tuple[float, list]:
    """Run each item through the CLI; return the loop's wall time and
    (argv, exit code, stdout, exception) per item."""
    from graycyl import cli
    results = []
    t0 = perf_counter()
    for argv in items:
        buf = io.StringIO()
        rc, raised = None, None
        try:
            with redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits on bad input
            raised = repr(exc)
        results.append((argv, rc, buf.getvalue(), raised))
    return perf_counter() - t0, results


def expected_counts(argv) -> list[int]:
    """Product-rule cell counts of the cylinder of a ``gray CELL --max-dim D`` item."""
    from graycyl.pr import pr_count
    from graycyl.theta import parse_cell
    t = parse_cell(argv[1])
    return [pr_count([t], d) for d in range(int(argv[argv.index("--max-dim") + 1]) + 1)]


def item_errors(argv, rc, out: str, raised, golden: dict, counts=None) -> list[str]:
    """Everything wrong with one item's result; empty when it is correct.

    ``counts`` are the expected per-dimension counts of a closure item; without
    them the item must be a verification whose JSON says ``"ok": true``."""
    if raised is not None:
        return [f"raised {raised}"]
    errors = []
    want = golden.get(item_key(argv))
    if want is None:
        errors.append("no golden entry")
    else:
        if rc != want["exit"]:
            errors.append(f"exit code {rc}, golden {want['exit']}")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if digest != want["sha256"]:
            errors.append(f"stdout sha256 {digest[:12]}, golden {want['sha256'][:12]}")
    try:
        data = json.loads(out)
    except ValueError:
        return errors + ["stdout is not JSON"]
    if counts is not None:
        if data.get("counts") != counts:
            errors.append(f"counts {data.get('counts')}, product rule {counts}")
    elif rc != 0 or data.get("ok") is not True:
        errors.append(f"verdict ok={data.get('ok')!r} with exit code {rc}")
    return errors


def check(workload: str, results, golden: dict) -> list[str]:
    """One message per failed item."""
    failures = []
    for argv, rc, out, raised in results:
        counts = expected_counts(argv) if workload == "closure-wide" else None
        errs = item_errors(argv, rc, out, raised, golden, counts)
        if errs:
            failures.append(f"{item_key(argv)}: {'; '.join(errs)}")
    return failures


def load_golden(workload: str, path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))[workload]


def run_pass(workload: str, items, kind: str, golden: dict) -> dict:
    """Run the items once under the given pass kind and check them."""
    from tracer import CallCounter, SpanTimer
    tracer_class = {"timed": SpanTimer, "counted": CallCounter}.get(kind)
    if tracer_class is None:
        wall, results = run_items(items)
    else:
        with tracer_class() as tracer:
            wall, results = run_items(items)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The product-rule oracle is the only caller of pr: trace it apart from the loop.
    with SpanTimer() as oracle:
        failures = check(workload, results, golden)
    missing = sorted(set(golden) - {item_key(a) for a in items})
    failures += [f"{key}: in golden.json but not in the corpus" for key in missing]
    out = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "attempted": len(results) + len(missing),
        "failed": len(failures),
        "failures": failures[:5],
        "bytes_out": sum(len(r[2].encode("utf-8")) for r in results),
    }
    if kind == "timed":
        out.update(layer_self_s=tracer.layer_self(), outermost_s=dict(tracer.outermost),
                   root_s=tracer.root_seconds(), spans=tracer.table(),
                   oracle_spans=oracle.table())
    elif kind == "counted":
        out.update(calls=dict(tracer.calls), entries=dict(tracer.entries),
                   distinct={k: len(v) for k, v in tracer.distinct.items()},
                   intlin_rows=tracer.intlin_rows, nu_cells=tracer.nu_cells,
                   nu_seeds=tracer.nu_seeds, probed=tracer.probed, composed=tracer.composed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="kind", choices=PASSES, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import graycyl
    if Path(graycyl.__file__).resolve().parent != SRC / "graycyl":
        raise SystemExit(f"graycyl imported from {graycyl.__file__}, not from {SRC}")
    items = corpus(args.workload, args.seed)
    print("ready", flush=True)
    if args.kind == "setup":
        return 0
    result = run_pass(args.workload, items, args.kind, load_golden(args.workload))
    result["corpus"] = [item_key(a) for a in items]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
