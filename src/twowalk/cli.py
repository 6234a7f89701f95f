"""Command-line front end.

Exit codes are a stable contract:
  0  success / affirmative answer
  1  proven negative (infeasible, not isomorphic, failed conditions, ...)
  2  input error (unparseable, wrong sizes)
  3  search budget exhausted before an answer
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .analysis import count_c4, necessary_conditions, row_sum_report, support_components
from .construct import bipartite_double_cover, disjoint_union, duplication_family
from .core import Graph, IntMatrix, adjacency_matrix, square
from .formats import (
    GRAPH_FORMATS,
    MATRIX_FORMATS,
    FormatError,
    graph_json_dict,
    read_graph,
    read_matrix,
    write_graph,
    write_matrix,
)
from .iso import BudgetExhausted, IsoBudget, are_isomorphic, permutation_similar
from .realize import RealizationVerdict, SearchBudget, realize, realize_all

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_input(path)
    if fmt in MATRIX_FORMATS:
        raise FormatError(f"{fmt} is a matrix format; this command expects a graph")
    return read_graph(text, fmt)


def _load_matrix(path: str, fmt: str) -> IntMatrix:
    text = _read_input(path)
    if fmt in GRAPH_FORMATS:
        raise FormatError(f"{fmt} is a graph format; this command expects a matrix")
    return read_matrix(text, fmt, filename=None if path == "-" else path)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(cls, args):
    """A ``cls`` budget from the options the user set; an option left out
    or given as 0 keeps the dataclass default."""
    given = {"max_nodes": args.max_nodes, "max_seconds": args.max_seconds}
    return cls(**{name: value for name, value in given.items() if value})


def cmd_square(args) -> int:
    G = _load_graph(args.input, args.format)
    S = square(adjacency_matrix(G))
    if args.json:
        _emit(write_matrix(S, "matrix-json"), args.out)
    else:
        _emit(write_matrix(S, "matrix-text"), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    M = _load_matrix(args.input, args.format)
    if not M.is_symmetric():
        raise FormatError("matrix is not symmetric")
    report = necessary_conditions(M)
    rows = row_sum_report(M)
    parts = support_components(M)
    c4 = count_c4(M)
    if args.json:
        doc = {
            "conditions": report.to_json_dict(),
            "row_sums": rows.to_json_dict(),
            "support_components": {
                "count": parts.component_count,
                "component_of": list(parts.component_of),
            },
            "c4": c4.to_json_dict(),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [report.render_text(), rows.render_text()]
        split = ("splits: the underlying graph would be bipartite or disconnected"
                 if parts.component_count >= 2 else "does not split")
        lines.append(f"support components: {parts.component_count} ({split})")
        c4_s = str(c4.cycles) if c4.divisible_by_four else f"{c4.count} (not an integer!)"
        lines.append(f"four-cycle count: {c4_s}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.overall else EXIT_NEGATIVE


def cmd_count_c4(args) -> int:
    M = _load_matrix(args.input, args.format)
    c4 = count_c4(M)
    if args.json:
        _emit(json.dumps(c4.to_json_dict()) + "\n", args.out)
    elif c4.divisible_by_four:
        _emit(f"{c4.cycles}\n", args.out)
    else:
        _emit(f"{c4.count} (pair sum {c4.pair_sum} not divisible by 4: "
              f"not the square of any adjacency matrix)\n", args.out)
    return EXIT_OK if c4.divisible_by_four else EXIT_NEGATIVE


def cmd_realize(args) -> int:
    M = _load_matrix(args.input, args.format)
    budget = _budget(SearchBudget, args)
    if args.all or args.limit is not None:
        enum = realize_all(M, limit=args.limit, budget=budget)
        if args.json:
            _emit(json.dumps(enum.to_json_dict(), indent=2) + "\n", args.out)
        else:
            text = "".join(write_graph(w, "graph6") for w in enum.witnesses)
            if not enum.complete:
                text += "# enumeration aborted on budget\n"
            elif not enum.witnesses:
                text = "# no witnesses: matrix is not the square of any adjacency matrix\n"
            _emit(text, args.out)
        if not enum.complete:
            return EXIT_BUDGET
        return EXIT_OK if enum.witnesses else EXIT_NEGATIVE
    outcome = realize(M, budget=budget)
    if args.json:
        _emit(json.dumps(outcome.to_json_dict(), indent=2) + "\n", args.out)
    elif outcome.verdict is RealizationVerdict.REALIZED:
        assert outcome.witness is not None
        _emit(write_graph(outcome.witness, "graph6"), args.out)
    else:
        _emit(f"{outcome.verdict.value}: {outcome.reason}\n", args.out)
    if outcome.verdict is RealizationVerdict.REALIZED:
        return EXIT_OK
    if outcome.verdict is RealizationVerdict.INFEASIBLE:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_family(args) -> int:
    G = _load_graph(args.input, args.format)
    try:
        family = duplication_family(G, args.k, budget=_budget(IsoBudget, args))
    except ValueError as exc:
        if "bipartite" in str(exc):
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_NEGATIVE
        raise
    doc = family.to_json_dict()
    if args.out and (args.out.endswith(os.sep) or os.path.isdir(args.out)):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "shared_square.json"), "w", encoding="utf-8") as fh:
            fh.write(write_matrix(family.shared_square, "matrix-json"))
        with open(os.path.join(args.out, "members.g6"), "w", encoding="utf-8") as fh:
            for m in family.members:
                fh.write(write_graph(m, "graph6"))
        with open(os.path.join(args.out, "certification.json"), "w", encoding="utf-8") as fh:
            json.dump({k: doc[k] for k in ("base", "k", "size", "certification")}, fh, indent=2)
            fh.write("\n")
    else:
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _emit_graph(G: Graph, args) -> int:
    if args.json:
        _emit(json.dumps(graph_json_dict(G)) + "\n", args.out)
    else:
        _emit(write_graph(G, "graph6"), args.out)
    return EXIT_OK


def cmd_double_cover(args) -> int:
    return _emit_graph(bipartite_double_cover(_load_graph(args.input, args.format)), args)


def cmd_union(args) -> int:
    G = _load_graph(args.input, args.format)
    H = _load_graph(args.input2, args.format)
    return _emit_graph(disjoint_union(G, H), args)


def _emit_permutation(p, args, answer: str, negative: str) -> int:
    """The permutation ``p`` that answers yes (``answer``: the JSON key
    and the text prefix), or the ``negative`` line when ``p`` is None."""
    if args.json:
        doc = {
            answer: p is not None,
            "permutation": None if p is None else list(p.mapping),
            "cycles": None if p is None else p.cycle_string(),
        }
        _emit(json.dumps(doc) + "\n", args.out)
    elif p is None:
        _emit(f"{negative}\n", args.out)
    else:
        _emit(f"{answer}: {p.cycle_string()} {list(p.mapping)}\n", args.out)
    return EXIT_OK if p is not None else EXIT_NEGATIVE


def cmd_iso(args) -> int:
    G = _load_graph(args.input, args.format)
    H = _load_graph(args.input2, args.format)
    p = are_isomorphic(G, H, budget=_budget(IsoBudget, args))
    return _emit_permutation(p, args, "isomorphic", "not isomorphic")


def cmd_similar(args) -> int:
    S1 = _load_matrix(args.input, args.format)
    S2 = _load_matrix(args.input2, args.format)
    p = permutation_similar(S1, S2, budget=_budget(IsoBudget, args))
    return _emit_permutation(p, args, "similar", "not permutation-similar")


def _add_common(sub, *, second_input=False, budget=False):
    sub.add_argument("input", help="input file, or - for stdin")
    if second_input:
        sub.add_argument("input2", help="second input file, or - for stdin")
    choices = ["auto", *GRAPH_FORMATS, *MATRIX_FORMATS]
    sub.add_argument("--format", default="auto", choices=choices,
                     help="input format (default: auto-detect)")
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if budget:
        sub.add_argument("--max-nodes", type=int, default=None, metavar="N",
                         help="search node budget")
        sub.add_argument("--max-seconds", type=float, default=None, metavar="T",
                         help="search time budget in seconds")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: no action in it changes its state."""
    parser = argparse.ArgumentParser(
        prog="twowalk",
        description="analyze and realize squares of graph adjacency matrices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("square", help="square the adjacency matrix of a graph")
    _add_common(sp)
    sp.set_defaults(func=cmd_square)

    sp = subs.add_parser("analyze", help="run all necessary-condition diagnostics on a matrix")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = subs.add_parser("count-c4", help="four-cycle count implied by a candidate square")
    _add_common(sp)
    sp.set_defaults(func=cmd_count_c4)

    sp = subs.add_parser("realize", help="find a graph whose adjacency square equals the matrix")
    _add_common(sp, budget=True)
    sp.add_argument("--all", action="store_true", help="enumerate all labeled witnesses")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="stop after N witnesses (implies --all)")
    sp.set_defaults(func=cmd_realize)

    sp = subs.add_parser("family", help="build k+1 non-isomorphic graphs sharing one square")
    _add_common(sp, budget=True)
    sp.add_argument("-k", type=int, required=True, help="number of double-cover swaps")
    sp.set_defaults(func=cmd_family)

    sp = subs.add_parser("double-cover", help="bipartite double cover of a graph")
    _add_common(sp)
    sp.set_defaults(func=cmd_double_cover)

    sp = subs.add_parser("union", help="disjoint union of two graphs")
    _add_common(sp, second_input=True)
    sp.set_defaults(func=cmd_union)

    sp = subs.add_parser("iso", help="decide graph isomorphism, printing a witness permutation")
    _add_common(sp, second_input=True, budget=True)
    sp.set_defaults(func=cmd_iso)

    sp = subs.add_parser("similar", help="decide permutation similarity of two matrices")
    _add_common(sp, second_input=True, budget=True)
    sp.set_defaults(func=cmd_similar)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except BudgetExhausted as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        code = EXIT_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        code = EXIT_INPUT
    except BrokenPipeError:
        code = EXIT_INPUT
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
