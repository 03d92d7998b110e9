"""Command line front end: run scenarios, census sizes, dump traces."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .distsim import run_bfs_flood
from .harness import InvariantViolation, ScenarioError, build_world, \
    csv_text, emit_csv, load_scenario, run_scenario, sample_queries, \
    size_census

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario", help="scenario file (flat key-value text)")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skeleton-nav",
        description="Sparse skeleton-graph navigation experiments on "
                    "random sensor fields.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit metrics CSV")
    _add_common(run)
    run.add_argument("--out", help="CSV output path (default: stdout)")

    census = sub.add_parser("census", help="skeleton sizes over seeds")
    _add_common(census)
    census.add_argument("--seeds", type=int, default=20,
                        help="number of consecutive seeds (default 20)")

    trace = sub.add_parser(
        "trace", help="dump packet trace of the first query's flood")
    _add_common(trace)
    trace.add_argument("--out", help="trace output path (default: stdout)")

    for sub_p in (run, census, trace):
        sub_p.add_argument("--epsilon", type=float, default=None,
                           help="override street separation exponent")
        sub_p.add_argument("--width", type=float, default=None,
                           help="override street width")
        sub_p.add_argument("--shift", type=float, default=None,
                           help="override diagonal street shift")
        sub_p.add_argument("--prune", action="store_true", default=None,
                           help="prune grid streets to simple paths")
    return p


def _load(args):
    s = load_scenario(args.scenario)
    overrides = {name: getattr(args, name)
                 for name in ("epsilon", "width", "shift", "prune")
                 if getattr(args, name) is not None}
    if overrides:
        s = replace(s, **overrides)
        s.validate()
    return s


def cmd_run(args) -> int:
    rows = run_scenario(_load(args))
    if args.out:
        emit_csv(rows, args.out)
    else:
        sys.stdout.write(csv_text(rows))
    return EXIT_OK


def cmd_census(args) -> int:
    s = _load(args)
    table = size_census(s, args.seeds)
    print(f"scenario {s.digest} skeleton {s.skeleton} n {s.n}")
    for seed, size, frac in zip(table["seeds"], table["sizes"],
                                table["fractions"]):
        print(f"seed {seed} size {size} fraction {frac:.6f}")
    print(f"mean {table['mean']:.2f} std {table['std']:.2f}")
    return EXIT_OK


def cmd_trace(args) -> int:
    from .skeleton import attach_offstreet_endpoints

    s = _load(args)
    if s.queries < 1:
        raise ScenarioError("trace needs a scenario with queries")
    world = build_world(s)
    src, dst = sample_queries(world)[0]
    attach = attach_offstreet_endpoints(world.graph, world.skeleton, src, dst)
    lines: list[str] = []
    run_bfs_flood(world.graph, attach.skeleton.awake, src, trace=lines.append)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {"run": cmd_run, "census": cmd_census, "trace": cmd_trace}
    try:
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
