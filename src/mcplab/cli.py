"""Command-line harness: gen, match, walk, mcp, audit, sweep.

Exit codes: 0 success, 1 check failed (no perfect matching, walk failure),
2 usage or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import fields

from .audit import (
    dense_cut_witness,
    empty_cut_witness,
    high_degree_witness,
    isolated_color_vertices,
    low_degree_witness,
)
from .errors import LabError, NoPerfectMatchingError, ValidationError
from .experiment import (
    _CONFIG_KEYS,
    CheckFlags,
    config_from_mapping,
    emit,
    format_summary,
    parse_config_text,
    parse_omega,
    summarize,
    sweep,
)
from .graphs import ColorSpec, parse_graph, serialize_graph
from .matching import max_matching, monochromatic_perfect_matching, verify_matching
from .oracle import enumerate_mcp
from .recolor import achieve_profile
from .sampling import SampleParams, sample_graph, threshold_p

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _comma_list(kind):
    """argparse type for a comma list of ``kind`` values, e.g. 0.5,0.25,0.25."""

    def convert(text: str) -> tuple:
        return tuple(kind(t) for t in text.split(","))

    convert.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return convert


def _convert(flag: str, values: list[str], kinds: tuple) -> list:
    """Convert a multi-value flag's values by position."""
    try:
        return [kind(v) for kind, v in zip(kinds, values)]
    except ValueError:
        raise ValidationError(f"{flag}: malformed value in {' '.join(values)!r}") from None


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    colors = ColorSpec(len(args.alpha), args.alpha)
    if args.p is not None:
        p = args.p
    else:
        omega = parse_omega(args.omega, args.n)
        p = threshold_p(args.n, omega, colors.alpha_min)
    g = sample_graph(SampleParams(args.n, p, colors, args.seed))
    _write_output(serialize_graph(g), args.out)
    return EXIT_OK


def _cmd_match(args) -> int:
    g = _read_graph(args.graph)
    if args.color is not None:
        try:
            m = monochromatic_perfect_matching(g, args.color)
        except NoPerfectMatchingError as exc:
            print(f"no perfect matching in color {args.color}", file=sys.stderr)
            print(f"deficient A-set: {list(exc.witness)}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    else:
        m = max_matching(g, args.colors or range(1, g.q + 1))
    clause = verify_matching(g, m)
    if clause is not None:
        raise LabError(f"matching failed verification: {clause}")
    print(f"size {m.size}")
    for a, b in m.pairs():
        print(f"{a} {b}")
    return EXIT_OK


def _cmd_walk(args) -> int:
    g = _read_graph(args.graph)
    outcome = achieve_profile(g, args.target, args.seed)
    print(json.dumps(outcome.report.to_json()))
    if not outcome.ok:
        f = outcome.failure
        reached = "" if f.profile_reached is None else f" at profile {list(f.profile_reached)}"
        print(f"walk failed: {f.stage} (color {f.color}){reached}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.out:
        lines = [f"{a} {b}" for a, b in outcome.matching.pairs()]
        _write_output("\n".join(lines) + "\n", args.out)
    print("profile " + ",".join(str(c) for c in args.target))
    return EXIT_OK


def _cmd_mcp(args) -> int:
    g = _read_graph(args.graph)
    for prof in sorted(enumerate_mcp(g)):
        print(",".join(str(c) for c in prof))
    return EXIT_OK


def _cmd_audit(args) -> int:
    g = _read_graph(args.graph)
    results: dict = {}
    if args.isolated:
        results["isolated"] = {
            str(i): {"a": list(a_side), "b": list(b_side)}
            for i in range(1, g.q + 1)
            for a_side, b_side in [isolated_color_vertices(g, i)]
        }
    color = args.color
    if args.low_degree:
        s, t, x, cut = _convert("--low-degree", args.low_degree, (int, int, int, float))
        w = low_degree_witness(g, color, s, t, x, cut)
        results["low_degree"] = (
            None if w is None else {"x": list(w[0]), "s": list(w[1]), "t": list(w[2])}
        )
    if args.high_degree:
        x, y, k = _convert("--high-degree", args.high_degree, (int, int, float))
        w = high_degree_witness(g, color, x, y, k)
        results["high_degree"] = (
            None if w is None else {"x": list(w[0]), "y": list(w[1])}
        )
    if args.dense_cut:
        s, t, e = _convert("--dense-cut", args.dense_cut, (int, int, float))
        w = dense_cut_witness(g, color, s, t, e)
        results["dense_cut"] = (
            None if w is None else {"s": list(w[0]), "t": list(w[1])}
        )
    if args.empty_cut:
        s, t = _convert("--empty-cut", args.empty_cut, (int, int))
        w = empty_cut_witness(g, color, s, t, exhaustive=not args.greedy)
        results["empty_cut"] = (
            None if w is None else {"s": list(w[0]), "t": list(w[1])}
        )
        if args.greedy:
            results["empty_cut_mode"] = "greedy-incomplete"
    if not results:
        raise ValidationError("no audit selected (use --isolated / --low-degree / ...)")
    print(json.dumps(results, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    raw: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    # each config key is the dest of the sweep flag that overrides it
    flags = ((key, getattr(args, key)) for key in _CONFIG_KEYS)
    raw.update((key, str(value)) for key, value in flags if value is not None)
    config = config_from_mapping(raw)
    records = sweep(config)
    buf = io.StringIO()
    emit(records, args.format, buf, config, include_timings=args.timings)
    _write_output(buf.getvalue(), args.out)
    summary = summarize(records, config)
    print(format_summary(summary), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcplab",
        description="Colored bipartite matching profiles: sample, solve, audit, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a graph to a file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=_comma_list(float), required=True, help="e.g. 0.5,0.25,0.25")
    p_gen_edge = p_gen.add_mutually_exclusive_group(required=True)
    p_gen_edge.add_argument("--p", type=float, help="edge probability")
    p_gen_edge.add_argument("--omega", help="number or k*llog (needs --n)")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_match = sub.add_parser("match", help="matching on a color-restricted subgraph")
    p_match.add_argument("graph")
    p_match.add_argument("--color", type=int, default=None, help="require a perfect matching in this color")
    p_match.add_argument("--colors", type=_comma_list(int), default=None, help="allowed colors, e.g. 1,2")
    p_match.set_defaults(func=_cmd_match)

    p_walk = sub.add_parser("walk", help="walk to a target color profile")
    p_walk.add_argument("graph")
    p_walk.add_argument("--target", type=_comma_list(int), required=True, help="e.g. 334,333,333")
    p_walk.add_argument("--seed", type=int, default=1)
    p_walk.add_argument("--out", default=None, help="write the matching as 'a b' lines")
    p_walk.set_defaults(func=_cmd_walk)

    p_mcp = sub.add_parser("mcp", help="exact profile set (small n)")
    p_mcp.add_argument("graph")
    p_mcp.set_defaults(func=_cmd_mcp)

    p_audit = sub.add_parser("audit", help="isolated vertices and witness searches")
    p_audit.add_argument("graph")
    p_audit.add_argument("--color", type=int, default=1)
    p_audit.add_argument("--isolated", action="store_true")
    p_audit.add_argument("--low-degree", nargs=4, metavar=("S", "T", "X", "CUT"))
    p_audit.add_argument("--high-degree", nargs=3, metavar=("X", "Y", "K"))
    p_audit.add_argument("--dense-cut", nargs=3, metavar=("S", "T", "MIN_EDGES"))
    p_audit.add_argument("--empty-cut", nargs=2, metavar=("S", "T"))
    p_audit.add_argument("--greedy", action="store_true", help="incomplete peel for --empty-cut")
    p_audit.set_defaults(func=_cmd_audit)

    p_sweep = sub.add_parser("sweep", help="seeded Monte Carlo sweep over an omega grid")
    p_sweep.add_argument("--config", default=None, help="key = value config file")
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--alpha", default=None)
    p_sweep.add_argument("--omega-grid", default=None, help="e.g. -6*llog,-3*llog,0,3*llog,6*llog")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None, dest="base_seed", metavar="SEED")
    p_sweep.add_argument(
        "--suite", default=None, dest="profile_suite", metavar="SUITE",
        help="corners | random:K | explicit:a,b;c,d",
    )
    p_sweep.add_argument(
        "--checks", default=None,
        help="comma list: " + ",".join(f.name for f in fields(CheckFlags)),
    )
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sweep.add_argument("--timings", action="store_true", help="include wall-clock ms (non-reproducible)")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
