import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from graycyl import cli, dac, gray, nu
from graycyl.cli import main
from graycyl.dac import MorphismError, lambda_cell
from graycyl.gray import gray_cylinder
from graycyl.nu import NuView
from graycyl.theta import MAX_DEPTH, cells_up_to, cells_with_nodes, parse_cell

from oracles import named_complex


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "graycyl.cli"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def cell_tree(view: NuView, c: tuple) -> list:
    """A cell as the dump prints it: its rows as [neg, pos], each entry a
    {name: 1} dict."""
    entry = view.complex.rendering.entry
    return [[dict.fromkeys(entry(n).names, 1), dict.fromkeys(entry(p).names, 1)] for n, p in c]


def tree_dump(view: NuView, fmt: str) -> str:
    """The nu/gray dump built as one tree and printed by one json.dumps:
    the reference for the bytes of the streamed dump."""
    data = {
        "counts": list(view.counts()),
        "nondegenerate": list(view.nondegenerate_counts()),
        "cells": {str(d): [cell_tree(view, c) for c in view.cells(d)]
                  for d in range(view.max_dim + 1)},
    }
    return json.dumps(data, sort_keys=True, ensure_ascii=False,
                      indent=None if fmt == "json" else 1) + "\n"


class Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)

    def flush(self):
        pass


class TestSubcommands:
    def test_decompose(self, capsys):
        assert main(["decompose", "[2]([1],[0])"]) == 0
        assert capsys.readouterr().out.strip() == "2 ⊕₀ 1"

    def test_lambda_json(self, capsys):
        assert main(["lambda", "[1]"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degrees"] == [["o0", "o1"], ["1|o0"]]
        assert data["e"] == {"o0": 1, "o1": 1}

    def test_tensor_json(self, capsys):
        assert main(["tensor", "[0]"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [len(row) for row in data["degrees"]] == [2, 1]

    def test_counts_table(self, capsys):
        assert main(["counts", "[1]", "--max-dim", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0] == {"dim": 0, "nu": 4, "pr": 4}
        assert data["rows"][1] == {"dim": 1, "nu": 10, "pr": 10}
        assert data["agree"]

    def test_counts_can_fail(self, monkeypatch, capsys):
        real = cli.pr_count
        monkeypatch.setattr(cli, "pr_count", lambda cells, d: real(cells, d) + (d == 1))
        assert main(["counts", "[1]", "--max-dim", "2"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][1] == {"dim": 1, "nu": 10, "pr": 11}
        assert data["agree"] is False
        assert main(["counts", "[1]", "--max-dim", "2", "--format", "text"]) == 1
        assert capsys.readouterr().out.endswith("agree: False\n")

    @pytest.mark.parametrize("args, binding", [
        (["verify", "gluing"], "verify_gluing"),
        (["verify", "globular"], "verify_globular_preservation"),
        (["verify", "hyperface"], "hyperface_cylinder"),
        (["verify", "span"], "verify_span"),
        (["verify", "gray"], "verify_gluing"),
        (["verify", "gray"], "verify_globular_preservation"),
        (["verify", "all"], "verify_gluing"),
        (["verify", "all"], "verify_globular_preservation"),
        (["verify", "all"], "hyperface_cylinder"),
        (["verify", "all"], "verify_span"),
        (["span"], "verify_span"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
    def test_every_suite_can_fail(self, monkeypatch, capsys, args, binding):
        # a verifier that fails fails its command, read through cli's own
        # binding when the check runs (the benchmark's tracer wraps it there)
        real, returned = getattr(cli, binding), []

        def failing(x):
            _, data = real(x)
            returned.append(data)
            return False, data

        monkeypatch.setattr(cli, binding, failing)
        assert main(args + ["[2]([1],[0])"]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert returned
        if args == ["span"]:
            # the span subcommand prints the report as the check returned it
            assert [printed] == returned
        elif binding == "hyperface_cylinder":
            assert printed["ok"] is False
            assert [f["agree"] for f in printed["hyperfaces"]] == [False] * len(returned)
        else:
            assert printed["ok"] is False
            key = {"verify_gluing": "gluing", "verify_globular_preservation": "globular",
                   "verify_span": "span"}[binding]
            assert [printed[key]] == returned

    def test_verify_gray_exit_zero(self, capsys):
        assert main(["verify", "gray", "[3]"]) == 0

    def test_verify_all_point(self, capsys):
        assert main(["verify", "all", "[0]"]) == 0

    def test_nu_gray_emit_handle_point(self, capsys):
        for args in (["nu", "[0]"], ["gray", "[0]"], ["counts", "[0]"],
                     ["emit", "shuffle", "[0]"], ["emit", "skeleton", "[0]"],
                     ["emit", "span", "[0]"], ["span", "[0]"],
                     ["lambda", "[0]"], ["tensor", "[0]"], ["decompose", "[0]"]):
            assert main(args) == 0, args
            capsys.readouterr()

    def test_wide_cells_need_no_recursion(self, capsys):
        # the strong loop-free check of [600] and of its cylinder walks a
        # path through every generator
        assert main(["counts", "[600]", "--max-dim", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        for args in (["nu", "[500]", "--max-dim", "0"],
                     ["emit", "skeleton", "[600]", "--max-dim", "0"]):
            assert main(args) == 0, args
            capsys.readouterr()

    def test_deep_cell(self, capsys):
        assert main(["nu", "G100", "--max-dim", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == [2, 4]

    def test_parse_error_exit_two(self, capsys):
        assert main(["decompose", "[2]([1]"]) == 2

    def test_ceiling_exit_three(self):
        code, out, err = run_cli(["nu", "[3]([1],[1],[1])", "--ceiling", "50"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_ceiling_bounds_a_cylinder_exactly(self, capsys):
        # the largest layer of this cylinder, dimensions 3 and 4, holds 672 cells
        args = ["gray", "[2]([2],[2])", "--max-dim", "4", "--ceiling"]
        assert main(args + ["672"]) == 0
        out = capsys.readouterr().out
        assert max(json.loads(out)["counts"]) == 672
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "ea6ec2eb8e465d1df82130d045e0eef8bd391e3463375d5d79e3037fbfc2df35"
        assert main(args + ["671"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["verify", "span", "[2]"], ["verify", "all", "[2]"],
        ["span", "[2]"], ["emit", "span", "[2]"],
    ])
    def test_span_commands_honour_ceiling(self, capsys, monkeypatch, args):
        # the span is checked on complexes: these commands build no closure,
        # so no ceiling is ever reached
        def no_closure(*_):
            raise AssertionError("a nu closure was built")

        monkeypatch.setattr(nu, "enumerate_cells", no_closure)
        assert main(args + ["--ceiling", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("args", [
        ["nu", "[2]"], ["gray", "[2]"], ["counts", "[2]"], ["emit", "skeleton", "[2]"],
    ])
    def test_closure_commands_honour_ceiling(self, capsys, tmp_path, args):
        assert main(args + ["--ceiling", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # the closure is built before the file is opened
        target = tmp_path / "out.txt"
        assert main(args + ["--ceiling", "1", "--out", str(target)]) == 3
        assert capsys.readouterr().out == ""
        assert not target.exists()

    @pytest.mark.parametrize("command", ["lambda", "tensor", "decompose", "verify gray",
                                         "verify span"])
    def test_depth_cap(self, capsys, forget_memos, command):
        # the deepest call chain: nothing built for a shallower cell is cached
        forget_memos()
        assert main([*command.split(), f"G{MAX_DEPTH}"]) == 0
        capsys.readouterr()
        assert main([*command.split(), f"G{MAX_DEPTH + 1}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_emit_span_honours_max_dim(self, capsys):
        # the span builds no closure, so --ceiling 5 cannot stop it, though
        # dimension 1 of the cylinder of [1] has more than 5 cells
        args = ["[1]", "--max-dim", "0", "--ceiling", "5"]
        assert main(["span"] + args) == 0
        assert main(["emit", "span"] + args) == 0
        assert capsys.readouterr().out.count('color=green') == 6

    def test_emit_span_mirrors_no_cell(self, capsys, mirror_calls):
        # the shift node's label is the mirror that span_dot reads from the
        # one mirror_positions call its span report reads too
        assert main(["emit", "span", "[2]([1],[0])"]) == 0
        assert 'shift [label="[1];([2]([0],[1]))"]' in capsys.readouterr().out
        assert not mirror_calls

    def test_span_subcommand(self, capsys):
        assert main(["span", "[1]([1])"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"]

    def test_emit_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert main(["emit", "shuffle", "[2]", "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph shuffle")

    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_out_exit_two(self, tmp_path, where):
        for command in ("nu", "gray"):
            code, out, err = run_cli([command, "[1]", "--out", str(tmp_path / where)])
            assert code == 2, command
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


class TestRepeatedMain:
    SEQUENCE = [
        ["counts", "[1]", "--max-dim", "2"],
        ["verify", "nosuch", "[1]"],          # argparse rejects it: exit 2
        ["counts", "[1]", "--format", "text"],
        ["decompose", "[2]([1]"],              # cell syntax error: exit 2
        ["span", "[1]([1])"],
        ["counts", "[1]"],                     # no --max-dim or --format carried over
        # complexes, lambda maps and shuffle diagrams memoised by one item
        # are read again by the next
        ["verify", "all", "[2]([0],[1]([2]([0],[1])))"],
        ["verify", "hyperface", "[2]([1],[1]([2]([0],[1])))"],
        ["verify", "all", "[2]([0],[1]([2]([0],[1])))"],
    ]

    def test_one_process_matches_separate_runs(self, capsys):
        in_process = []
        for args in self.SEQUENCE:
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, capsys.readouterr().out))
        separate = [run_cli(args)[:2] for args in self.SEQUENCE]
        assert in_process == separate
        assert [code for code, _ in separate] == [0, 2, 0, 2, 0, 0, 0, 0, 0]


class TestOneSubparser:
    """main builds the parser of its command only, and the parser of every
    subcommand for any other first argument; both read an argv alike."""

    @pytest.mark.parametrize("argv", [
        ["verify", "nosuch", "[1]"], ["gray", "[1]", "extra"], ["gray"], ["verify"], ["emit"],
        ["verify", "-h"], ["-h"], ["nosuch"], ["--max-dim", "3", "gray", "[1]"], [],
    ])
    def test_same_exit_code_and_messages(self, capsys, argv):
        def outcome(call):
            try:
                code = call()
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        code, streams = outcome(lambda: cli._parser().parse_args(argv))
        if not isinstance(code, argparse.Namespace):
            assert outcome(lambda: main(argv)) == (code, streams)
        else:
            # the whole parser accepts it: main runs the command
            code, (out, err) = outcome(lambda: main(argv))
            assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("argv", [
        ["verify", "gray", "[1]"], ["emit", "span", "[2]", "--out", "x.dot"],
        ["counts", "[1]", "--format", "text", "--max-dim", "2"], ["nu", "--ceiling", "9", "G3"],
    ])
    def test_same_arguments(self, argv):
        assert cli._parser(argv[0]).parse_args(argv) == cli._parser().parse_args(argv)


class TestStartUp:
    def test_one_command_builds_three_parsers(self):
        # the common options, the top level and the command's subparser;
        # a parser per subcommand would make 11
        src = str(Path(cli.__file__).resolve().parents[1])
        code = textwrap.dedent("""\
            import argparse, sys
            sys.path.insert(0, sys.argv[1])
            built, init = [], argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counted
            from graycyl.cli import main
            code = main(["verify", "gray", "[1]"])
            print(code, len(built), file=sys.stderr)
            """)
        proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, built = map(int, proc.stderr.split())
        assert code == 0
        assert built <= 3

    def test_cli_import_loads_no_dataclasses_inspect_or_typing(self):
        # each CLI process pays for every module its import loads; these three
        # cost several milliseconds and the library needs none of them
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import graycyl.cli; "
                "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["counts", "[1]([1])"],
        ["verify", "gray", "[2]"],
        ["emit", "shuffle", "[2]([1],[0])"],
        ["emit", "skeleton", "[1]"],
        ["gray", "[1]"],
    ])
    def test_byte_identical_runs(self, args):
        outs = set()
        for _ in range(3):
            code, out, err = run_cli(args)
            assert code == 0, err
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize("args, digest", [
        (["gray", "[2]([1],[1])", "--max-dim", "3"],
         "b5fc8d67517f6821c7acc75076a9f81e7a54f574cac7bed7abfe72aa51204a74"),
        (["nu", "[3]", "--max-dim", "3"],
         "ce765789207511ad8e34aa6e62894f7ef97820330e5a1dbbb9a9566e860e0e02"),
        (["emit", "skeleton", "[2]([1],[1])"],      # cell text, rendered by the view
         "4f866ed04a7c1f25d407d7bafe706b368235e14cc8df16eadff9400ab75ac8e5"),
        (["gray", "[1]([1])", "--max-dim", "3", "--format", "text"],
         "07803b8ea868b5f607731b1c75521a721dcb754672e57605a6739dfcc916cd83"),
        (["tensor", "[2]([1],[0])"],                # DAComplex.to_json
         "49ca75c258d28ad024bf544c6edb1055f7834f70ff54605b56de9d54a3be21e3"),
        (["verify", "all", "[0]"],                  # width-0 shuffle diagram and span
         "80dcfc7f4152985522b8958dcec62b174740a4018e44b5e1969beb8b768f4e64"),
        (["verify", "hyperface", "[2]([1],[0])"],   # vertical, outer and inner faces
         "b826a744095d50f98ea3d4a0937a89971fde034253bfede9cbda55799345b8bb"),
        (["verify", "all", "[1]([1])"],             # outer faces with source [0]
         "967df442222ad1f708218f01bc68af7e111901fe9d9e40ee86c4e38e2ee6aa10"),
        (["emit", "shuffle", "[2]([1],[0])"],       # column labels and span edges
         "bebc6dec85083665dd4b9bf36610abdfcd75e28b6b13d194424407eee67f4681"),
        (["emit", "span", "[2]([1],[0])"],          # kappa and sigma column squares
         "58ae4c269b2d46a248c940846ed9d23b190a41b194d9a0638389cbb86e5b8889"),
        (["nu", "[2]([1],[0])", "--format", "dot"],  # skeleton of a lambda view
         "4407f2959cb06fedec9b7a194a5e1ba01c547fbbd9d63e762c71fddb71c84713"),
        (["gray", "G12", "--format", "text"],      # dimension keys "10" < "2"
         "1979b075c69c4cae9a1af195af96f8ea6dea7cd698109b8ae9691c7adf0ffa31"),
        (["lambda", "[2]([1],[1]([1]))"],          # DAComplex.to_json of a lambda complex
         "6cf2dbc93fe48b067f9957b409a2684a701bd74dd55737364fa6a76d36b527c4"),
        (["tensor", "G3"],                          # a cylinder three levels deep
         "88c46d45a62a77c81921153ecb47b616dff3d3a586fe154b0a71f5829cba9552"),
        (["verify", "gluing", "[2]([1],[0])"],      # monos, coverage per degree, spans
         "d184c61820d22f87921bd85a530fb4c77b02c5a66200f35a3520cdc7bd8a31d2"),
        (["verify", "globular", "[2]([1],[0])"],    # the bare verdict
         "f566644797381d9e4f8ef7a8ed11ab471d76777ed4f64da6516ab3f98a48ba1f"),
        (["verify", "span", "[2]([1],[0])"],        # the span report under "span"
         "6fd678f26b05e793e41132fa018110f9c0897c087b1f362a6494df2464141ee6"),
        (["span", "[2]([1],[0])"],                  # the same report on its own
         "65b8c8579c1867f696b97b5f36c45b827728567555bf00f99ccf0f0980f7e470"),
    ])
    def test_pinned_output_bytes(self, capsys, args, digest):
        # cell order and rendering of the table dumps are part of the output
        assert main(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_pinned_suite_choices(self, capsys):
        # the choices argparse lists for a bad suite, in the order of the
        # verify table
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch", "[1]"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert hashlib.sha256(err.encode("utf-8")).hexdigest() == \
            "dba2ae83db95f82e0e0e2b1a43125ece3fa4f20b9918d868113893252b4a89e6"

    def test_verify_all_up_to_seven_nodes_is_pinned(self, capsys):
        # every verdict of the 197 cells: gluing coverage per degree, the
        # pullbacks, globular sums, both hyperface modes and the span, at
        # deeper lattices than the benchmark corpora reach
        out = []
        for t in cells_up_to(7):
            assert main(["verify", "all", str(t)]) == 0
            out.append(capsys.readouterr().out)
        assert len(out) == 197
        assert hashlib.sha256("".join(out).encode("utf-8")).hexdigest() == \
            "19b37d1dbc864eb2eede234d4d3bdb858ba06fa5a3e2ed947811fc47a444be46"


class TestNineNodeCorpus:
    def test_verify_all_passes_on_every_cell(self, capsys, forget_memos):
        # one process, as the corpus is timed; the memos of 1,430 cells are
        # dropped afterwards, so later tests start from what they build
        try:
            cells = cells_with_nodes(9)
            assert len(cells) == 1430
            for t in cells:
                assert main(["verify", "all", str(t)]) == 0, str(t)
                assert json.loads(capsys.readouterr().out)["ok"] is True, str(t)
        finally:
            forget_memos()


class TestForgetMemos:
    """A sweep may drop every per-cell memo between its items (the
    forget_memos fixture).  A kept identity holds its lambda map, which
    runs between the complexes it was built from, so the identities and
    bangs go with the complexes, cylinders and diagrams."""

    @pytest.mark.parametrize("cell", ["[2]([1],[0])", "[3]([0],[1]([1]),[0])",
                                      "[2]([1]([2]),[1])"])
    def test_check_forget_check(self, capsys, forget_memos, cell):
        outs = []
        for _ in range(2):
            assert main(["verify", "all", cell]) == 0
            outs.append(capsys.readouterr().out)
            forget_memos()
        assert outs[0] == outs[1] and json.loads(outs[0])["ok"] is True

    def test_a_kept_identity_meets_a_rebuilt_complex(self, capsys, forget_memos):
        # the complexes dropped, the identities kept: the span's diamond
        # compares a map out of the new lambda(T) with the identity's
        # lambda map out of the old one, and refuses
        cell = "[2]([1],[0])"
        assert main(["verify", "all", cell]) == 0
        capsys.readouterr()
        dac.lambda_cell.cache_clear()
        gray.cylinder_complex.cache_clear()
        gray.lax_shuffle_diagram.cache_clear()
        try:
            with pytest.raises(MorphismError, match="different complexes"):
                main(["verify", "span", cell])
        finally:
            forget_memos()
        assert main(["verify", "all", cell]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


# the closure-wide items of the benchmark: closures of up to 672 cells per dimension
CLOSURE_ITEMS = [("[2]([2],[2])", 4), ("[3]([0],[1]([1]),[0])", 4), ("[5]", 3), ("G4", 5)]


class TestStreamedDump:
    @pytest.mark.parametrize("command", ["nu", "gray"])
    @pytest.mark.parametrize("cell, max_dim",
                             [(str(t), None) for t in cells_up_to(5)] + CLOSURE_ITEMS
                             + [("G12", None)])
    def test_bytes_match_tree_dump(self, capsys, tmp_path, command, cell, max_dim):
        t = parse_cell(cell)
        args = [command, cell] + ([] if max_dim is None else ["--max-dim", str(max_dim)])
        if max_dim is None:
            max_dim = t.dimension() + 1
        view = NuView(lambda_cell(t), max_dim) if command == "nu" else gray_cylinder(t, max_dim)
        for fmt in ("json", "text"):
            want = tree_dump(view, fmt)
            assert main(args + ["--format", fmt]) == 0
            assert capsys.readouterr().out == want
            target = tmp_path / f"dump.{fmt}"
            assert main(args + ["--format", fmt, "--out", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == want.encode("utf-8")

    def test_names_that_need_escapes(self):
        # each name is quoted once per dump: a quote, a backslash, a tab and
        # names beyond ASCII, which the dump keeps as they are
        K = named_complex([['a"', "b\\"], ["f→", "g\t"], ["α"]],
                          {"f→": {'a"': -1, "b\\": 1}, "g\t": {'a"': -1, "b\\": 1},
                           "α": {"f→": -1, "g\t": 1}},
                          {'a"': 1, "b\\": 1})
        view = NuView(K, 3)
        assert view.counts()[2] > 2
        for fmt, indent in (("json", None), ("text", 1)):
            out = "".join(cli._dump_pieces(view, indent)) + "\n"
            assert out == tree_dump(view, fmt)
            for quoted in ('"a\\"": 1', '"b\\\\": 1', '"f→": 1', '"g\\t": 1', '"α": 1'):
                assert quoted in out

    def test_written_cell_by_cell(self, monkeypatch):
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["gray", "[2]([2],[2])", "--max-dim", "4"]) == 0
        monkeypatch.undo()
        view = gray_cylinder(parse_cell("[2]([2],[2])"), 4)
        assert "".join(stdout.writes) == tree_dump(view, "json")
        longest_cell = max(len(json.dumps(cell_tree(view, c), sort_keys=True, ensure_ascii=False))
                           for d in range(5) for c in view.cells(d))
        header = '{"cells": {"0": ['
        footer = (']}, "counts": ' + json.dumps(list(view.counts()))
                  + ', "nondegenerate": ' + json.dumps(list(view.nondegenerate_counts())) + "}\n")
        assert max(map(len, stdout.writes)) <= longest_cell + len(header) + len(footer)

    def test_memory_is_bounded_by_the_view(self, monkeypatch):
        # nu G40 prints 1.96 MB.  Built as one tree and printed by one
        # json.dumps, the dump peaked 23.0 MB above the view; streamed, it
        # peaks 0.68 MB above it (tracemalloc, CPython 3.11)
        view = NuView(lambda_cell(parse_cell("G40")), 41)
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli._dump_view(view, "json", None)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
        assert peak < 2_000_000
