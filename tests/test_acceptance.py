"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact integer equality; the only tolerances are the wall
clock budgets stated inline.
"""

import subprocess
import sys
import time

from graycyl.dac import (check_basis, lambda_cell, lambda_globe, tensor)
from graycyl.gray import (gray_cylinder, hyperface_cylinder,
                          verify_globular_preservation, verify_gluing)
from graycyl.nu import NuView
from graycyl.pr import pr_count
from graycyl.span import verify_span
from graycyl.theta import cell, cells_up_to, globe, hyperfaces, parse_cell

from oracles import boundary, nu_composable, nu_compose, search_tables

SIX_CELLS = ["[1]", "[2]", "[3]", "[1]([1])", "[1]([2])", "[2]([1],[0])"]


def report(num, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"PASS criterion {num:2d}: {label} ({elapsed:.2f}s)")


def test_criterion_01_globe_fidelity():
    started = time.time()
    for n in range(6):
        view = NuView(lambda_globe(n), n)
        assert view.nondegenerate_counts() == tuple([2] * n + [1])
    report(1, "globe cell tables have counts (2,..,2,1)", started, 1.0)


def test_criterion_02_strong_steiner_corpus():
    started = time.time()
    corpus = cells_up_to(7)
    assert len(corpus) == 197
    for t in corpus:
        unital, loop_free, strong = check_basis(lambda_cell(t))
        assert (unital, loop_free, strong) == (True, True, True), str(t)
        assert not strong or loop_free
    report(2, "all 197 cells with <= 7 nodes are strong Steiner", started, 10.0)


def test_criterion_03_gluing_globes():
    started = time.time()
    for n in range(5):
        ok, data = verify_gluing(globe(n))
        assert ok and data["overall"] is True, f"globe {n}"
        assert all(data["monos"].values())
        assert all(data["coverage"].values())
        assert all(s["pullback"] for s in data["spans"])
    report(3, "gluing diagram (monos, coverage, pullbacks) for globes 0..4", started, 10.0)


def test_criterion_04_cylinder_decomposition():
    started = time.time()
    for s in SIX_CELLS:
        t = parse_cell(s)
        assert verify_globular_preservation(t)[0], s
        assert verify_gluing(t)[0], s
    report(4, "globular preservation + gluing on the six-cell corpus", started, 60.0)


def test_criterion_05_product_rule_cross_oracle():
    started = time.time()
    for s in SIX_CELLS:
        t = parse_cell(s)
        view = gray_cylinder(t, 4)
        for d in range(5):
            nu_n = len(view.layers[d]) if d <= view.max_dim else None
            assert nu_n == pr_count([t], d), (s, d)
    assert pr_count([parse_cell("[1]")], 0) == 4
    assert pr_count([parse_cell("[1]")], 1) == 10
    report(5, "product-rule counts equal table counts, d <= 4, six cells", started, 60.0)


def test_criterion_06_hyperface_formulas():
    started = time.time()
    total = 0
    for s in ("[2]", "[3]", "[1]([1])", "[2]([1],[0])"):
        for face in hyperfaces(parse_cell(s)):
            assert hyperface_cylinder(face)[0], (s, face.kind, face.position)
            total += 1
    assert total == 19
    report(6, f"all {total} hyperface cylinders agree with the tensor map", started, 60.0)


def test_criterion_07_span_verification():
    started = time.time()
    for n in range(5):
        ok, data = verify_span(parse_cell(f"[{n}]"))
        assert ok and data["passed"] is True, f"[{n}]"
        assert data["diamonds"] == {"kappa_e0": True, "kappa_e1": True,
                                    "sigma_e0": True, "sigma_e1": True}
    for s in ("[1]([1])", "[2]([1],[0])", "[1]([2])"):
        assert verify_span(parse_cell(s))[0], s
    report(7, "span squares and folding diamonds on simplicial + general cells", started, 60.0)


def test_criterion_08_algebraic_invariants():
    started = time.time()
    complexes = [lambda_cell(t) for t in cells_up_to(6)]
    complexes += [lambda_globe(n) for n in range(6)]
    complexes += [tensor(lambda_globe(1), lambda_cell(parse_cell(s))) for s in SIX_CELLS]
    for K in complexes:
        K.validate()  # d.d = 0 and e.d1 = 0 generator-wise

    def reassoc(name):
        _, ab, c = name
        _, a, b = ab
        return ("t", a, ("t", b, c))

    globes = [lambda_globe(n) for n in range(3)]
    for x in globes:
        for y in globes:
            for z in globes:
                left = tensor(tensor(x, y), z)
                right = tensor(x, tensor(y, z))
                for g in left.names:
                    assert {reassoc(k): v for k, v in boundary(left, g).items()} \
                        == boundary(right, reassoc(g))

    K = tensor(lambda_globe(1), lambda_globe(2))
    view = NuView(K, 2)
    twos = view.cells(2)
    instances = 0
    for a in twos:
        for b in twos:
            if not nu_composable(0, a, b):
                continue
            for c in twos:
                if not nu_composable(1, a, c):
                    continue
                for d in twos:
                    if nu_composable(1, b, d) and nu_composable(0, c, d):
                        lhs = nu_compose(1, nu_compose(0, a, b), nu_compose(0, c, d))
                        rhs = nu_compose(0, nu_compose(1, a, c), nu_compose(1, b, d))
                        assert lhs == rhs
                        instances += 1
    assert instances > 0
    report(8, f"chain/augmentation identities, tensor associativity, {instances} exchange instances",
           started, 60.0)


def test_criterion_09_oracle_equivalence():
    started = time.time()
    for L in (lambda_globe(1), lambda_globe(2)):
        K = tensor(lambda_globe(1), L)
        max_dim = K.top_degree
        view = NuView(K, max_dim)
        found = search_tables(K, max_dim, 3)
        for d in range(max_dim + 1):
            assert set(found[d]) == view.layers[d], d
    report(9, "bounded table search equals closure enumeration", started, 60.0)


def test_criterion_10_cli_determinism():
    started = time.time()
    jobs = [["counts", "[1]([1])"], ["counts", "[2]"],
            ["verify", "gray", "[2]"], ["verify", "gray", "[1]([1])"],
            ["emit", "shuffle", "[2]([1],[0])"], ["emit", "skeleton", "[1]"],
            ["emit", "span", "[1]"]]
    for args in jobs:
        outputs = set()
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-m", "graycyl.cli"] + args,
                                  capture_output=True)
            assert proc.returncode == 0, (args, proc.stderr)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, args
    report(10, "byte-identical output across 3 runs of counts/verify/emit", started, 120.0)
