"""Tests of the benchmark itself: its checks can fail, its traces add up.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from worker import (SRC, WORKLOADS, check, corpus, expected_counts, item_errors,
                    item_key, load_golden, run_items)

sys.path.insert(0, str(SRC))

from graycyl import cli  # noqa: E402
from tracer import LAYERS, CallCounter, SpanTimer  # noqa: E402

HERE = Path(__file__).resolve().parent
CLOSURE_ITEM = ["gray", "G4", "--max-dim", "5"]


def cheapest(workload: str, n: int = 2):
    """The n items of a workload with the smallest cells."""
    return sorted(corpus(workload, 0), key=lambda argv: len(item_key(argv)))[:n]


def test_golden_covers_every_item():
    for workload in WORKLOADS:
        assert set(load_golden(workload)) == {item_key(a) for a in corpus(workload, 0)}


def test_seed_fixes_the_order():
    assert corpus("faces-6", 3) == corpus("faces-6", 3)
    assert corpus("faces-6", 3) != corpus("faces-6", 4)
    assert sorted(corpus("faces-6", 3)) == sorted(corpus("faces-6", 4))


def test_corrupted_digest_is_a_failure():
    _, results = run_items(cheapest("verify-all-5"))
    golden = load_golden("verify-all-5")
    assert check("verify-all-5", results, golden) == []
    key = item_key(results[0][0])
    corrupted = dict(golden, **{key: dict(golden[key], sha256="0" * 64)})
    failures = check("verify-all-5", results, corrupted)
    assert len(failures) == 1 and "sha256" in failures[0]
    wrong_exit = dict(golden, **{key: dict(golden[key], exit=1)})
    assert "exit code" in check("verify-all-5", results, wrong_exit)[0]


def test_wrong_expected_count_is_a_failure():
    _, [(argv, rc, out, raised)] = run_items([CLOSURE_ITEM])
    golden = load_golden("closure-wide")
    counts = expected_counts(argv)
    assert item_errors(argv, rc, out, raised, golden, counts) == []
    wrong = counts[:-1] + [counts[-1] + 1]
    errors = item_errors(argv, rc, out, raised, golden, wrong)
    assert len(errors) == 1 and "product rule" in errors[0]


def test_wrong_counts_in_output_are_a_failure():
    _, [(argv, rc, out, raised)] = run_items([CLOSURE_ITEM])
    data = json.loads(out)
    data["counts"][1] += 1
    bad = json.dumps(data, sort_keys=True, ensure_ascii=False) + "\n"
    golden = {item_key(argv): {"exit": rc, "sha256": hashlib.sha256(bad.encode()).hexdigest()}}
    errors = item_errors(argv, rc, bad, raised, golden, expected_counts(argv))
    assert len(errors) == 1 and "product rule" in errors[0]


def test_failed_verdict_is_a_failure():
    argv = ["verify", "gray", "[1]"]
    out = json.dumps({"cell": "[1]", "ok": False}) + "\n"
    golden = {item_key(argv): {"exit": 1, "sha256": hashlib.sha256(out.encode()).hexdigest()}}
    errors = item_errors(argv, 1, out, None, golden)
    assert len(errors) == 1 and "verdict" in errors[0]
    assert item_errors(argv, None, "", "ValueError('boom')", golden) == ["raised ValueError('boom')"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_traced_wall(workload):
    items = [CLOSURE_ITEM] if workload == "closure-wide" else cheapest(workload)
    original = cli.main
    with SpanTimer() as timer:
        wall, results = run_items(items)
    assert cli.main is original
    assert check(workload, results, load_golden(workload)) == []
    self_s = timer.layer_self()
    assert set(self_s) == set(LAYERS)
    remainder = wall - timer.root_seconds()
    assert 0 <= remainder < 0.1 * wall
    assert sum(self_s.values()) + remainder == pytest.approx(wall, rel=1e-9)
    # Recursive builders are timed once, from their outermost call.
    assert all(0 <= s <= wall for s in timer.outermost.values())


def test_counter_separates_layers():
    with CallCounter() as counter:
        _, results = run_items(cheapest("faces-6") + [CLOSURE_ITEM])
    assert counter.entries["cli"] == 3
    assert counter.calls["nu.enumerate_cells"] == 1 and counter.entries["nu"] == 1
    counts = json.loads(results[-1][2])["counts"]
    assert counter.nu_cells == sum(counts)
    assert 0 < counter.composed <= counter.probed
    assert counter.nu_seeds < counter.nu_cells


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "faces-6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
