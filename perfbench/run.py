"""Recognizer benchmark: one closed-loop client calling `recognize`.

    python3 perfbench/run.py --workload bench-default --seed 1 \\
        --seconds 10 --trace 0

With --trace 0 the run builds the workload's inputs from the seed
(several times, to time set-up), then issues the recognitions one at a
time, in whole passes over them, until --seconds seconds have passed,
checks every answer against the stored reference answers, and prints
the end-to-end metrics. With --trace 1 it builds the
inputs and issues every recognition once, each time both untraced and
with spans around every layer's public functions, then runs the
blocks-world scaling probe, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON
object; the full results, machine and commit included, go to
perfbench/out/.

Run from the repository root; the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Set-up is repeated at least SETUP_REPS times and for at least
# SETUP_MIN_S seconds, and setup_s is the median build time, so that a
# short set-up is not one noisy sample.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
P90_MIN_SAMPLES = 100
PROBE_BLOCKS = (4, 5, 6, 7)
PROBE_GOAL = "F(on_b1_b2 & X(F(on_b3_b1)))"

WORKLOADS = ("bench-default", "blocks-scale", "logistics-stream")
END_TO_END = {
    "recognize_p50_s": "s",
    "recognitions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Metrics taken over the recognitions of a run; printed with their count.
SAMPLED = ("recognize_p50_s", "recognize_p90_s", "recognitions_per_s")
PER_LAYER = {
    "planner.solve_strong_cyclic.calls": "count",
    "planner.solve_strong_cyclic.self_s": "s",
    "planner.solved_ratio": "ratio",
    "planner.policy_states": "count",
    "planner.solve_calls_per_recognition": "count",
    "planner.verify_policy.calls": "count",
    "planner.verify_policy.self_s": "s",
    "fond.ground.calls": "count",
    "fond.ground.self_s": "s",
    "fond.ground_actions": "count",
    "fond.fluents": "count",
    "automata.formula_to_dfa.calls": "count",
    "automata.formula_to_dfa.self_s": "s",
    "automata.dfa_states": "count",
    "compilation.compile_goal.calls": "count",
    "compilation.compile_goal.self_s": "s",
    "executions.enumerate_executions.calls": "count",
    "executions.enumerate_executions.self_s": "s",
    "executions.executions": "count",
    "executions.average_distances.self_s": "s",
    "executions.order_relations.calls": "count",
    "executions.order_relations.self_s": "s",
    "recognizer.penalty.calls": "count",
    "recognizer.penalty.self_s": "s",
    "recognizer.recognize.self_s": "s",
    "bench.generate_problem.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in (
        "logic", "automata", "fond", "compilation", "planner",
        "executions", "recognizer", "bench")},
    **{f"planner.solve_n{n}_s": "s" for n in PROBE_BLOCKS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _import_tgr():
    """Import the package from this checkout's source tree, and nothing
    else: an installed copy would measure another version."""
    src = ROOT / "src"
    if not (src / "tgr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tgr package under {src}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import tgr
    if Path(tgr.__file__).resolve().parent != (src / "tgr").resolve():
        raise SystemExit(f"perfbench: imported tgr from {tgr.__file__}, "
                         f"not from {src}")


@dataclass
class Pass:
    """What the closed loop saw."""

    latencies: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    hits: int = 0
    fpr_sum: float = 0.0
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


def issue(inputs, item, reference: dict, p: Pass) -> float:
    """One recognition: time the `recognize` call, then check its answer
    against the reference. Returns the time."""
    from tgr.errors import TgrError
    import workloads

    p.attempted += 1
    t0 = time.perf_counter()
    try:
        res = workloads.recognize(inputs, item)
    except TgrError as exc:
        p.failed += 1
        p.note(f"{item.key}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if dt > inputs.timeout_s:
        p.failed += 1
        p.note(f"{item.key}: over the {inputs.timeout_s} s deadline")
        return dt
    p.latencies.append(dt)
    got = [item.inputs_digest(), *workloads.answer(res)]
    want = reference.get(item.key)
    if got != want:
        p.mismatched += 1
        p.note(f"{item.key}: answer {got} != reference {want}")
    p.hits += item.true_index in res.gstar
    n = len(item.problem.goals)
    p.fpr_sum += (sum(1 for g in res.gstar if g != item.true_index)
                  / max(1, n - 1))
    return dt


def closed_loop(inputs, reference: dict, seconds: float) -> Pass:
    """Issue every recognition in order, one after the other, in whole
    passes over the items, until `seconds` have passed (at least one
    pass). Only whole passes are timed, so every run weighs each item
    alike, however fast the machine or the code is."""
    p = Pass()
    start = time.perf_counter()
    while True:
        for item in inputs.items:
            issue(inputs, item, reference, p)
        p.passes += 1
        if time.perf_counter() - start >= seconds:
            return p


def check_goldens() -> list[str]:
    """The worked example's known answers; any difference is listed."""
    from tgr import recognizer
    problem = recognizer.load_bundle(str(ROOT / "src/tgr/data/example1"))
    res = recognizer.recognize(problem)
    got = (tuple(res.gstar), [a.n_executions for a in res.analyses],
           [list(a.penalties) for a in res.analyses])
    want = ((1,), [8, 8, 16], [[0, 1], [0, 0], [0, 0]])
    return [] if got == want else [f"example1: got {got}, want {want}"]


def scaling_probe() -> dict[str, float]:
    """One untraced solve of PROBE_GOAL per block count."""
    from tgr import bench, compilation, fond, logic, planner
    import workloads
    domain = fond.parse_domain(bench.bundled_text("blocks-world",
                                                  "domain.pddl"))
    goal = logic.parse_formula(PROBE_GOAL)
    out = {}
    for n in PROBE_BLOCKS:
        problem = fond.parse_problem(workloads.blocks_problem_text(n))
        aug = compilation.compile_goal(domain, problem, goal)
        t0 = time.perf_counter()
        planner.solve_strong_cyclic(aug.grounded)
        out[f"planner.solve_n{n}_s"] = time.perf_counter() - t0
    return out


def load_reference(workload: str) -> tuple[dict, str]:
    path = BENCH_DIR / "references" / f"{workload}.json"
    raw = path.read_bytes()
    return json.loads(raw)["answers"], hashlib.sha256(raw).hexdigest()[:16]


def quality(p: Pass) -> dict[str, tuple[float, str]]:
    done = p.attempted - p.failed
    return {
        "tpr": (p.hits / max(1, done), "share"),
        "fpr": (p.fpr_sum / max(1, done), "share"),
        "failed_share": (p.failed / p.attempted, "share"),
        "mismatch_share": (p.mismatched / p.attempted, "share"),
    }


def untraced_run(args, inputs, setup_times: list[float],
                 reference: dict) -> tuple[dict, Pass]:
    gc.collect()
    p = closed_loop(inputs, reference, seconds=args.seconds)
    lat = p.latencies
    metrics: dict[str, tuple[float, str]] = {}
    if lat:
        metrics["recognize_p50_s"] = (statistics.median(lat), "s")
        if len(lat) >= P90_MIN_SAMPLES:
            metrics["recognize_p90_s"] = (
                statistics.quantiles(lat, n=10)[8], "s")
        metrics["recognitions_per_s"] = (len(lat) / sum(lat), "1/s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics.update(quality(p))
    return metrics, p


def traced_run(args, reference: dict) -> tuple[dict, Pass, object, dict]:
    """Set-up, then every recognition once, each both untraced and
    traced. Untraced and traced calls alternate, in both orders, so that
    drift in machine speed and the warming of the heap fall on both
    alike; the difference of their sums is the tracing overhead."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}

    def timed(traced: bool, fn, *fn_args):
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = fn(*fn_args)
            spent[traced] += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        return out

    gc.collect()
    build = (args.workload, args.seed, args.smoke)
    inputs = timed(False, workloads.build, *build)
    timed(True, workloads.build, *build)
    p = Pass(passes=1)
    for i, item in enumerate(inputs.items):
        for traced in ((False, True) if i % 2 else (True, False)):
            timed(traced, issue, inputs, item, reference, p)
    untraced_s, traced_s = spent[False], spent[True]

    summary = tracer.summary()
    # The probe runs last, so that its large heap precedes no timing.
    metrics: dict[str, tuple[float, str]] = {
        name: (value, "s") for name, value in scaling_probe().items()}

    def fn(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    for name, unit in PER_LAYER.items():
        head, _, key = name.rpartition(".")
        if name in metrics:
            continue
        if head in tracing.LAYERS and key == "self_s":
            metrics[name] = (sum(row["self_s"] for f, row in summary.items()
                                 if f.startswith(head + ".")), unit)
        elif key in ("calls", "self_s"):
            metrics[name] = (fn(head, key), unit)
        else:
            metrics[name] = (tracer.counters.get(name, 0), unit)
    solves = fn("planner.solve_strong_cyclic", "calls")
    metrics["planner.solved_ratio"] = (
        fn("planner.solve_strong_cyclic", "returned") / max(1, solves), "ratio")
    metrics["planner.solve_calls_per_recognition"] = (
        tracer.calls_under("planner.solve_strong_cyclic",
                           "recognizer.recognize")
        / max(1, fn("recognizer.recognize", "calls")), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.span_name), "count")
    metrics.update(quality(p))

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(str(spans))
    extra = {"untraced_s": untraced_s, "traced_s": traced_s,
             "peak_rss_mb": resource.getrusage(
                 resource.RUSAGE_SELF).ru_maxrss / 1024,
             "spans_file": spans.name,
             "functions": summary}
    return metrics, p, inputs, extra


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the package sources and data, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "tgr"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pddl", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_tgr()
    import workloads

    reference, reference_digest = load_reference(args.workload)
    problems = check_goldens()
    extra: dict = {}
    if args.trace:
        metrics, p, inputs, extra = traced_run(args, reference)
        wanted = PER_LAYER
    else:
        inputs, setup_times = workloads.timed_build(
            args.workload, args.seed, args.smoke, SETUP_REPS, SETUP_MIN_S)
        metrics, p = untraced_run(args, inputs, setup_times, reference)
        extra = {"setup_times_s": setup_times}
        wanted = END_TO_END
    problems += p.notes
    correct = (not problems and p.failed == 0 and p.mismatched == 0
               and all(name in metrics for name in wanted))

    samples = len(p.latencies)
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "reference_seed": inputs.reference_seed, "params": inputs.params,
        "inputs_digest": inputs.digest(),
        "reference_digest": reference_digest,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "tgr": {"commit": git_commit(), "source_digest": source_digest()},
        "correct": correct, "attempted": p.attempted, "failed": p.failed,
        "samples": samples, "items": len(inputs.items), "passes": p.passes,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(results, indent=2) + "\n")

    for text in problems:
        print(f"problem: {text}")
    for key, (value, unit) in metrics.items():
        tail = (f"  (n={samples}, {p.passes} x {len(inputs.items)} items)"
                if key in SAMPLED else "")
        print(f"{args.workload} {key} {value:.6g} {unit}{tail}")
    print(json.dumps({
        "correct": correct, "attempted": p.attempted, "failed": p.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted if k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
