"""Command line interface.

Four subcommands cover the pipeline end to end: ``compile`` turns a
temporal goal into an augmented FOND task, ``plan`` synthesizes a
strong-cyclic policy, ``recognize`` ranks candidate goals against an
observation sequence, and ``bench`` runs the benchmark harness.

Machine-readable results go to stdout; progress and diagnostics go to
stderr. Exit codes: 0 success, 1 usage or input errors, 2 unsolvable
task or missed deadline, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback

from . import (__version__, automata, bench, compilation, executions, fond,
               logic, planner, recognizer)
from .budget import Budget
from .errors import DeadlineExceeded, TgrError, UnsolvableError


def _read_task(args: argparse.Namespace
               ) -> tuple[fond.Domain, fond.ProblemInstance]:
    return (fond.parse_domain(recognizer.read_text(args.domain, "domain")),
            fond.parse_problem(recognizer.read_text(args.problem, "problem")))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Options that must be positive integers, and options in seconds that
# must be finite and positive, by their argparse destination.
_POSITIVE_INTS = ("execution_cap", "state_cap", "jobs")
_POSITIVE_SECONDS = ("deadline", "timeout")


def _check_options(args: argparse.Namespace) -> None:
    for dest in _POSITIVE_INTS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise TgrError(f"--{dest.replace('_', '-')} must be a positive "
                           "integer")
    for dest in _POSITIVE_SECONDS:
        value = getattr(args, dest, None)
        if value is not None and not recognizer._finite_positive(value):
            raise TgrError(f"--{dest} must be positive and finite")


def _deadline(seconds: float | None) -> float | None:
    return None if seconds is None else time.monotonic() + seconds


def _add_planner_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--planner", default="builtin", metavar="SPEC",
                     help="'builtin' or 'exec:<command>' for an external "
                          "planner invoked as: command domain problem")
    sub.add_argument("--state-cap", type=int,
                     default=planner.DEFAULT_STATE_CAP, metavar="N",
                     help="abort search beyond this many states")
    sub.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="give up after this many seconds")


def _cmd_compile(args: argparse.Namespace) -> int:
    domain, problem = _read_task(args)
    formula = logic.parse_formula(args.goal)
    aug = compilation.compile_goal(domain, problem, formula,
                                   goal_id=args.goal_id)
    if args.dot is not None:
        _write(args.dot, automata.to_dot(aug.dfa))
    if args.out is not None:
        for path in compilation.write_pddl(aug, args.out, mode=args.mode):
            print(path)
    else:
        domain_text, problem_text = compilation.emit_pddl(aug, args.mode)
        sys.stdout.write(domain_text)
        sys.stdout.write("\n")
        sys.stdout.write(problem_text)
    print(f"automaton: {aug.dfa.n_states} states, "
          f"{len(aug.grounded.actions)} ground actions", file=sys.stderr)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    domain, problem = _read_task(args)
    if args.goal is not None:
        goal = logic.parse_formula(args.goal)
    elif problem.goal is None:
        raise TgrError("the problem has no goal; pass one with --goal")
    else:
        goal = problem.goal
    if logic.is_propositional(goal):
        grounded = fond.goal_free_grounding(domain, problem).with_goal(goal)
    else:
        grounded = compilation.compile_goal(domain, problem, goal).grounded

    solve = recognizer._resolve_planner(args.planner, Budget(
        state_cap=args.state_cap, deadline=_deadline(args.deadline)))
    policy = solve(grounded)
    _write(args.out, planner.policy_to_text(policy))
    print(f"policy: {len(policy.mapping)} states", file=sys.stderr)
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    problem = recognizer.load_bundle(args.bundle)
    result = recognizer.recognize(
        problem, planner_spec=args.planner, state_cap=args.state_cap,
        execution_cap=args.execution_cap, deadline=_deadline(args.deadline))
    _write(args.out,
           json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n")
    top = ", ".join(str(result.goals[i]) for i in result.gstar)
    print(f"most likely goal(s): {top}", file=sys.stderr)
    if problem.real_goal_index is not None:
        verdict = "hit" if problem.real_goal_index in result.gstar else "miss"
        print(f"true goal {problem.goals[problem.real_goal_index]}: {verdict}",
              file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench.load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.timeout is not None:
        cfg = dataclasses.replace(cfg, timeout_s=args.timeout)

    total = len(cfg.datasets) * cfg.problems_per_dataset
    done = [0]

    def progress(name: str, index: int) -> None:
        done[0] += 1
        print(f"[{done[0]}/{total}] {name} #{index}", file=sys.stderr)

    records, rows = bench.run_benchmark(
        cfg, jobs=args.jobs, canonical=args.canonical,
        progress=None if args.quiet else progress)
    if args.out is not None:
        paths = bench.write_outputs(args.out, cfg, records, rows,
                                    canonical=args.canonical)
        print(f"wrote {paths[0]} and {paths[1]}", file=sys.stderr)
    sys.stdout.write(bench.summary_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgr",
        description="Temporal goal recognition in FOND planning domains.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile a temporal goal into an augmented FOND task")
    p_compile.add_argument("--domain", required=True, metavar="PDDL")
    p_compile.add_argument("--problem", required=True, metavar="PDDL")
    p_compile.add_argument("--goal", required=True, metavar="FORMULA")
    p_compile.add_argument("--mode", choices=("grounded", "parametric"),
                           default="grounded",
                           help="emit the synchronization action with ground "
                                "automaton fluents or lifted ones")
    p_compile.add_argument("--goal-id", default="g0", metavar="ID",
                           help="tag used in emitted file names")
    p_compile.add_argument("--out", default=None, metavar="DIR",
                           help="write PDDL files here instead of stdout")
    p_compile.add_argument("--dot", default=None, metavar="FILE",
                           help="also write the goal automaton as Graphviz")
    p_compile.set_defaults(func=_cmd_compile)

    p_plan = sub.add_parser(
        "plan", help="synthesize a strong-cyclic policy")
    p_plan.add_argument("--domain", required=True, metavar="PDDL")
    p_plan.add_argument("--problem", required=True, metavar="PDDL")
    p_plan.add_argument("--goal", default=None, metavar="FORMULA",
                        help="temporal goal; defaults to the problem's goal")
    p_plan.add_argument("--out", default=None, metavar="FILE",
                        help="write the policy here instead of stdout")
    _add_planner_args(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_rec = sub.add_parser(
        "recognize", help="rank candidate goals against observations")
    p_rec.add_argument("--bundle", required=True, metavar="PATH",
                       help="bundle JSON file, or a directory containing "
                            "bundle.json")
    p_rec.add_argument("--execution-cap", type=int,
                       default=executions.DEFAULT_EXECUTION_CAP,
                       metavar="N",
                       help="abort enumeration beyond this many paths")
    p_rec.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON result here instead of stdout")
    _add_planner_args(p_rec)
    p_rec.set_defaults(func=_cmd_recognize)

    p_bench = sub.add_parser(
        "bench", help="run the recognition benchmark")
    p_bench.add_argument("--config", default=None, metavar="FILE",
                         help="bench config JSON; defaults to the bundled one")
    p_bench.add_argument("--out", default=None, metavar="DIR",
                         help="write records.json and summary.csv here")
    p_bench.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_bench.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="override the per-problem timeout")
    p_bench.add_argument("--canonical", action="store_true",
                         help="zero timing fields so outputs are "
                              "byte-reproducible")
    p_bench.add_argument("--quiet", action="store_true",
                         help="suppress progress lines")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_options(args)
        return args.func(args)
    except (UnsolvableError, DeadlineExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TgrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
