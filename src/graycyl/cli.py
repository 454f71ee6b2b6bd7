"""Command-line front end: computations, verifications, JSON/DOT output."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .dac import lambda_cell
from .gray import (cylinder_complex, gray_cylinder, hyperface_cylinder,
                   shuffle_dot, verify_gluing, verify_globular_preservation)
from .nu import DEFAULT_CEILING, EnumerationError, NuView, skeleton_dot
from .pr import pr_count
from .span import span_dot, verify_span
from .theta import CellSyntaxError, hyperfaces, globular_sum, parse_cell

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _decompose_text(t) -> str:
    leaves, meets = globular_sum(t)
    parts = [str(leaves[0][0])]
    for (m, _), (n, _) in zip(meets, leaves[1:]):
        parts.append(f"⊕{str(m).translate(_SUBSCRIPTS)} {n}")
    return " ".join(parts)


class _OutputError(Exception):
    """The --out file could not be written: bad input, like other flags."""


def _emit(pieces, out: str | None):
    """Write the pieces of one output, a string being a single piece, to
    the file `out` or to stdout, and end it with a newline."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                _write(fh, pieces)
        except OSError as exc:
            raise _OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        _write(sys.stdout, pieces)


def _write(fh, pieces):
    last = ""
    for last in pieces:
        fh.write(last)
    if not last.endswith("\n"):
        fh.write("\n")


def _dump_pieces(view: NuView, indent: int | None):
    """The JSON dump of a view, one piece per cell.

    The pieces join to json.dumps(data, sort_keys=True, ensure_ascii=False,
    indent=indent) of data = {"counts": [...], "nondegenerate": [...],
    "cells": {str(d): [cell, ...]}}, where a cell is the list of its rows
    and a row is [neg, pos], each entry a {name: 1} dict, but no such tree
    is built: each generator name is quoted once per dump, each entry mask's
    text is rendered once from them, and each row's text from those."""
    # brk[level] opens a line at the indent of `level`: 0 the whole dump,
    # 1 its values, 2 a dimension's list, 3 a cell, 4 a row, 5 an entry
    if indent is None:
        sep, brk = ", ", [""] * 7
    else:
        sep, brk = ",", ["\n" + " " * (indent * level) for level in range(7)]

    def block(items, level: int, brackets: str = "[]") -> str:
        if not items:
            return brackets
        inner = brk[level + 1]
        return brackets[0] + inner + (sep + inner).join(items) + brk[level] + brackets[1]

    rendering = view.complex.rendering
    entry = rendering.entry
    quoted = {name: json.dumps(name, ensure_ascii=False) + ": 1" for name in rendering.text}

    @cache
    def mask_text(m: int) -> str:
        return block([quoted[k] for k in entry(m).names], 5, "{}")

    @cache
    def row_text(row: tuple) -> str:
        return block([mask_text(row[0]), mask_text(row[1])], 4)

    # a d-cell has d + 1 rows, so none is empty: each is its rows' texts
    # joined between these strings
    first, later = brk[3] + "[" + brk[4], sep + brk[3] + "[" + brk[4]
    rows_sep, close = sep + brk[4], brk[3] + "]"
    yield "{" + brk[1] + '"cells": {'
    # every layer holds the identities of the 0-cells, so no list is empty
    for i, key in enumerate(sorted(str(d) for d in range(view.max_dim + 1))):
        yield (sep if i else "") + brk[2] + f'"{key}": ['
        opening = first
        for c in view.cells(int(key)):
            yield opening + rows_sep.join(map(row_text, c)) + close
            opening = later
        yield brk[2] + "]"
    yield (brk[1] + "}" + sep + brk[1] + '"counts": ' + block([str(n) for n in view.counts()], 1)
           + sep + brk[1] + '"nondegenerate": '
           + block([str(n) for n in view.nondegenerate_counts()], 1) + brk[0] + "}")


def _dump_view(view: NuView, fmt: str, out):
    if fmt == "dot":
        _emit(skeleton_dot(view), out)
    else:
        _emit(_dump_pieces(view, None if fmt == "json" else 1), out)


def _hyperface_cylinders(t) -> tuple[bool, list]:
    """(ok, data): the verdict of the cylinder over each hyperface of t."""
    faces = [{"kind": f.kind, "position": list(f.position), "agree": hyperface_cylinder(f)[0]}
             for f in hyperfaces(t)]
    return all(f["agree"] for f in faces), faces


# each verify suite, in the order of the CLI's choices, with the key of its
# data in the output and its check, t -> (ok, data).  A check calls the
# verifier through this module's binding when it runs, not through the
# function stored here at import, so a wrapper set in its place (the
# benchmark's tracer, a test) is the one called
_SUITES = {
    "gluing": ("gluing", lambda t: verify_gluing(t)),
    "globular": ("globular", lambda t: verify_globular_preservation(t)),
    "hyperface": ("hyperfaces", _hyperface_cylinders),
    "span": ("span", lambda t: verify_span(t)),
}
_GROUPS = {"gray": ("gluing", "globular"), "all": ("gluing", "globular", "hyperface", "span")}


def _run_verify(suite: str, t) -> tuple[bool, dict]:
    results: dict = {"cell": str(t)}
    ok = True
    for name in _GROUPS.get(suite, (suite,)):
        key, check = _SUITES[name]
        passed, results[key] = check(t)
        ok = ok and passed
    results["ok"] = ok
    return ok, results


# the subcommands in help order, each with the (name, choices) of its
# positionals before the cell
_COMMANDS = {
    **dict.fromkeys(("decompose", "lambda", "tensor", "nu", "gray", "counts", "span"), ()),
    "verify": (("suite", (*_SUITES, *_GROUPS)),),
    "emit": (("kind", ("shuffle", "skeleton", "span")),),
}


@cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with the subparser of `command` only, or of every
    subcommand when `command` is None, built on the first call for it and
    shared by every later one.  Either usage line names every subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-dim", type=int, default=None)
    common.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    common.add_argument("--format", choices=("json", "dot", "text"), default="json")
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(
        prog="graycyl",
        description="Exact computations and verification for Gray cylinders over Theta-cells")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        p = sub.add_parser(name, parents=[common])
        for arg, choices in _COMMANDS[name]:
            p.add_argument(arg, choices=choices)
        p.add_argument("cell")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command needs its own subparser only; anything else (help, no
    # argument, an unknown command, an option first) reads the whole parser
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        t = parse_cell(args.cell)
    except CellSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    max_dim = args.max_dim if args.max_dim is not None else t.dimension() + 1
    if max_dim < 0 or args.ceiling < 1:
        print("error: max-dim must be >= 0 and ceiling >= 1", file=sys.stderr)
        return 2

    try:
        return _run(args, t, max_dim)
    except EnumerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args, t, max_dim) -> int:
    if args.command == "decompose":
        _emit(_decompose_text(t), args.out)
        return 0
    if args.command == "lambda":
        _emit(json.dumps(lambda_cell(t).to_json(), sort_keys=True, ensure_ascii=False), args.out)
        return 0
    if args.command == "tensor":
        _emit(json.dumps(cylinder_complex(t).to_json(), sort_keys=True, ensure_ascii=False), args.out)
        return 0
    if args.command == "nu":
        _dump_view(NuView(lambda_cell(t), max_dim, args.ceiling), args.format, args.out)
        return 0
    if args.command == "gray":
        _dump_view(gray_cylinder(t, max_dim, args.ceiling), args.format, args.out)
        return 0
    if args.command == "counts":
        view = gray_cylinder(t, max_dim, args.ceiling)
        rows = []
        agree = True
        for d in range(max_dim + 1):
            nu_n = len(view.layers[d])
            pr_n = pr_count([t], d)
            agree = agree and nu_n == pr_n
            rows.append({"dim": d, "nu": nu_n, "pr": pr_n})
        if args.format == "text":
            lines = [f"dim {r['dim']}: nu={r['nu']} pr={r['pr']}" for r in rows]
            _emit("\n".join(lines + [f"agree: {agree}"]), args.out)
        else:
            _emit(json.dumps({"cell": str(t), "rows": rows, "agree": agree},
                             sort_keys=True, ensure_ascii=False), args.out)
        return 0 if agree else 1
    if args.command == "span":
        ok, data = _SUITES["span"][1](t)
        _emit(json.dumps(data, sort_keys=True, ensure_ascii=False), args.out)
        return 0 if ok else 1
    if args.command == "verify":
        ok, results = _run_verify(args.suite, t)
        _emit(json.dumps(results, sort_keys=True, ensure_ascii=False), args.out)
        return 0 if ok else 1
    # emit, the last of the commands
    if args.kind == "shuffle":
        _emit(shuffle_dot(t), args.out)
    elif args.kind == "skeleton":
        _emit(skeleton_dot(gray_cylinder(t, min(max_dim, 2), args.ceiling)), args.out)
    else:
        _emit(span_dot(t), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
