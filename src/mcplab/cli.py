"""Command-line harness: gen, match, walk, mcp, audit, sweep.

Exit codes: 0 success, 1 check failed (no perfect matching, walk failure),
2 usage or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import (
    dense_cut_witness,
    empty_cut_witness,
    high_degree_witness,
    isolated_color_vertices,
    low_degree_witness,
)
from .errors import (
    LabError,
    NoPerfectMatchingError,
    OutOfUnitIntervalError,
    ValidationError,
)
from .experiment import (
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


def _alphas(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


def _profile(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


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
    alphas = _alphas(args.alpha)
    colors = ColorSpec(len(alphas), alphas)
    if args.q is not None and args.q != colors.q:
        raise ValidationError("--q does not match the number of alphas")
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
        colors = (
            tuple(int(t) for t in args.colors.split(","))
            if args.colors
            else tuple(range(1, g.q + 1))
        )
        m = max_matching(g, colors)
    clause = verify_matching(g, m)
    if clause is not None:
        raise LabError(f"matching failed verification: {clause}")
    print(f"size {m.size}")
    for a, b in m.pairs():
        print(f"{a} {b}")
    return EXIT_OK


def _cmd_walk(args) -> int:
    g = _read_graph(args.graph)
    target = _profile(args.target)
    outcome = achieve_profile(g, target, args.seed)
    print(json.dumps(outcome.report.to_json()))
    if not outcome.ok:
        f = outcome.failure
        reached = "" if f.profile_reached is None else f" at profile {list(f.profile_reached)}"
        print(f"walk failed: {f.stage} (color {f.color}){reached}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.out:
        lines = [f"{a} {b}" for a, b in outcome.matching.pairs()]
        _write_output("\n".join(lines) + "\n", args.out)
    print("profile " + ",".join(str(c) for c in target))
    return EXIT_OK


def _cmd_mcp(args) -> int:
    g = _read_graph(args.graph)
    profiles = sorted(tuple(p.counts) for p in enumerate_mcp(g))
    for prof in profiles:
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
        s, t, x, cut = args.low_degree
        w = low_degree_witness(g, color, int(s), int(t), int(x), float(cut))
        results["low_degree"] = (
            None if w is None else {"x": list(w[0]), "s": list(w[1]), "t": list(w[2])}
        )
    if args.high_degree:
        x, y, k = args.high_degree
        w = high_degree_witness(g, color, int(x), int(y), float(k))
        results["high_degree"] = (
            None if w is None else {"x": list(w[0]), "y": list(w[1])}
        )
    if args.dense_cut:
        s, t, e = args.dense_cut
        w = dense_cut_witness(g, color, int(s), int(t), float(e))
        results["dense_cut"] = (
            None if w is None else {"s": list(w[0]), "t": list(w[1])}
        )
    if args.empty_cut:
        s, t = args.empty_cut
        w = empty_cut_witness(g, color, int(s), int(t), exhaustive=not args.greedy)
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
    if args.n is not None:
        raw["n"] = str(args.n)
    if args.q is not None:
        raw["q"] = str(args.q)
    if args.alpha is not None:
        raw["alpha"] = args.alpha
    if args.omega_grid is not None:
        raw["omega_grid"] = args.omega_grid
    if args.trials is not None:
        raw["trials"] = str(args.trials)
    if args.seed is not None:
        raw["base_seed"] = str(args.seed)
    if args.suite is not None:
        raw["profile_suite"] = args.suite
    if args.checks is not None:
        raw["checks"] = args.checks
    if args.workers is not None:
        raw["workers"] = str(args.workers)
    config = config_from_mapping(raw)
    records = sweep(config)
    if args.out:
        emit(records, args.format, args.out, config, include_timings=args.timings)
    else:
        emit(records, args.format, sys.stdout, config, include_timings=args.timings)
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
    p_gen.add_argument("--q", type=int, default=None)
    p_gen.add_argument("--alpha", required=True, help="e.g. 0.5,0.25,0.25")
    p_gen.add_argument("--p", type=float, default=None, help="edge probability")
    p_gen.add_argument("--omega", default=None, help="number or k*llog (needs --n)")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_match = sub.add_parser("match", help="matching on a color-restricted subgraph")
    p_match.add_argument("graph")
    p_match.add_argument("--color", type=int, default=None, help="require a perfect matching in this color")
    p_match.add_argument("--colors", default=None, help="allowed colors, e.g. 1,2")
    p_match.set_defaults(func=_cmd_match)

    p_walk = sub.add_parser("walk", help="walk to a target color profile")
    p_walk.add_argument("graph")
    p_walk.add_argument("--target", required=True, help="e.g. 334,333,333")
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
    p_sweep.add_argument("--q", type=int, default=None)
    p_sweep.add_argument("--alpha", default=None)
    p_sweep.add_argument("--omega-grid", default=None, help="e.g. -6*llog,-3*llog,0,3*llog,6*llog")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--suite", default=None, help="corners | random:K | explicit:a,b;c,d")
    p_sweep.add_argument("--checks", default=None, help="comma list: per_color_pm,walk,isolated,mcp_exact")
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
    except (ValidationError, OutOfUnitIntervalError) as exc:
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
