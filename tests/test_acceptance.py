"""End-to-end acceptance suite.

Each test checks one delivery criterion and prints a single PASS/FAIL
line even under pytest's capture, so a full run reads as a checklist.
"""

import hashlib
import os
import random
import time

import pytest

import tgr
from helpers import ltlf_corpus, pltlf_corpus, trace_corpus
from tgr import (automata, bench, compilation, executions, fond, logic,
                 planner, recognizer)
from tgr.errors import TgrError, UnsolvableError

EXAMPLE1 = os.path.join(os.path.dirname(tgr.__file__), "data", "example1")

# Hand-checked average distances for the bundled worked example: the
# number of remaining actions to the goal, averaged over all executions
# that contain the action (7 + 7 + 9 values across the three goals).
EXAMPLE1_DISTANCES = (
    {"(move 11 21)": 4.5, "(changetire 21)": 4.0, "(move 21 31)": 3.0,
     "(changetire 31)": 2.5, "(move 31 41)": 1.5, "(changetire 41)": 1.0,
     "(move 41 51)": 0.0},
    {"(move 11 21)": 4.5, "(changetire 21)": 4.0, "(move 21 22)": 3.0,
     "(changetire 22)": 2.5, "(move 22 23)": 1.5, "(changetire 23)": 1.0,
     "(move 23 33)": 0.0},
    {"(move 11 21)": 6.0, "(changetire 21)": 5.5, "(move 21 22)": 4.5,
     "(changetire 22)": 4.0, "(move 22 23)": 3.0, "(changetire 23)": 2.5,
     "(move 23 24)": 1.5, "(changetire 24)": 1.0, "(move 24 15)": 0.0},
)

# sha256 of the records.json that `tgr bench --canonical` writes with the
# bundled config, under CPython 3.11. Speed work must leave it unchanged;
# a change of behaviour that changes it says why and updates it.
DEFAULT_BENCH_RECORDS_SHA256 = (
    "4f650597fb0f71dd38b97c4f4794cd2f19c9773e9539588adb75c534892effbc")

FIG1_EXECUTIONS = sorted([
    ("(move 11 21)", "(move 21 22)"),
    ("(move 11 21)", "(changetire 21)", "(move 21 22)"),
])


def _verdict(capsys, label, ok, detail=""):
    with capsys.disabled():
        suffix = f"  [{detail}]" if detail else ""
        print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


def _bundled(name):
    spec = bench.bundled_dataset(name)
    return fond.parse_domain(spec.domain_text), fond.parse_problem(
        spec.problem_text)


@pytest.fixture(scope="module")
def full_bench():
    cfg = bench.load_config()
    start = time.perf_counter()
    records, rows = bench.run_benchmark(cfg, canonical=True)
    elapsed = time.perf_counter() - start
    return cfg, records, rows, elapsed


def test_criterion_1_worked_example_golden_values(capsys):
    start = time.perf_counter()
    result = recognizer.recognize(recognizer.load_bundle(EXAMPLE1))
    elapsed = time.perf_counter() - start

    problems = []
    sizes = [a.n_executions for a in result.analyses]
    if sizes != [8, 8, 16]:
        problems.append(f"execution sizes {sizes}")
    for i, expected in enumerate(EXAMPLE1_DISTANCES):
        if result.analyses[i].distances != expected:
            problems.append(f"distance table {i}")
    if [list(a.penalties) for a in result.analyses] != [[0, 1], [0, 0],
                                                        [0, 0]]:
        problems.append("penalty pattern")
    if result.gstar != (1,):
        problems.append(f"gstar {result.gstar}")
    post = [a.posterior for a in result.analyses]
    if not (post[1] > post[2] > post[0]):
        problems.append(f"posterior ranking {post}")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(capsys, "1 worked-example golden values", not problems,
             "; ".join(problems) or f"{elapsed:.2f}s, 23 distances exact")


def test_criterion_2_policy_fixture_executions(capsys):
    domain, problem = _bundled("triangle-tireworld")
    aug = compilation.compile_goal(domain, problem,
                                   logic.parse_formula("F(vAt_22)"))
    policy = planner.solve_strong_cyclic(aug.grounded)
    report = planner.verify_policy(policy)
    execs = executions.enumerate_executions(policy, aug)
    stripped = sorted(e.actions for e in execs)
    ok = report.ok and stripped == FIG1_EXECUTIONS
    _verdict(capsys, "2 fixture policy execution set", ok,
             f"verified strong-cyclic, executions {stripped}")


def test_criterion_3_automata_match_trace_semantics(capsys):
    start = time.perf_counter()
    traces = trace_corpus(4)
    future, past = ltlf_corpus(), pltlf_corpus()
    mismatches = 0
    for f in future:
        dfa = automata.ltlf_to_dfa(f)
        for t in traces:
            if dfa.accepts(t) != logic.evaluate(f, t):
                mismatches += 1
    for f in past:
        dfa = automata.pltlf_to_dfa(f)
        for t in traces:
            want = logic.evaluate(f, t, as_dialect="PLTLf")
            if dfa.accepts(t) != want:
                mismatches += 1
    elapsed = time.perf_counter() - start
    total = len(future) + len(past)
    ok = mismatches == 0 and total >= 200 and elapsed < 60.0
    _verdict(capsys, "3 automata equal trace semantics", ok,
             f"{total} formulas x {len(traces)} traces, "
             f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_compilation_soundness(capsys):
    rng = random.Random(20260814)
    datasets = {}
    for name in ("triangle-tireworld", "blocks-world"):
        domain, problem = _bundled(name)
        datasets[name] = (domain, problem, bench.goal_pool(domain, problem))
    templates = ("eventually", "ordered", "until", "once", "since")

    solved = 0
    violations = 0
    attempts = 0
    while solved < 50 and attempts < 5000:
        attempts += 1
        domain, problem, pool = datasets[rng.choice(tuple(datasets))]
        goal = bench._template(rng.choice(templates), rng, pool)
        try:
            aug = compilation.compile_goal(domain, problem, goal)
            policy = planner.solve_strong_cyclic(aug.grounded)
            execs = executions.enumerate_executions(policy, aug)
        except TgrError:
            continue
        for e in execs:
            if not logic.evaluate(goal, e.trace):
                violations += 1
        solved += 1
    ok = solved == 50 and violations == 0
    _verdict(capsys, "4 compiled executions satisfy their goal", ok,
             f"{solved} solved samples, {violations} violations")


def test_criterion_5_planner_verification(capsys):
    verified = []
    for name in bench.BUNDLED_DATASETS:
        domain, problem = _bundled(name)
        policy = planner.solve_strong_cyclic(fond.ground(domain, problem))
        verified.append(planner.verify_policy(policy).ok)
    domain, _ = _bundled("triangle-tireworld")
    trap = fond.parse_problem(
        bench.bundled_text("triangle-tireworld", "trap.pddl"))
    try:
        planner.solve_strong_cyclic(fond.ground(domain, trap))
        trapped = False
    except UnsolvableError:
        trapped = True
    ok = all(verified) and trapped
    _verdict(capsys, "5 planner verification and trap", ok,
             f"{sum(verified)}/{len(verified)} verified, "
             f"trap unsolvable: {trapped}")


def test_criterion_6_true_goal_minimizes_score_when_fully_observed(
        capsys, full_bench):
    _, records, _, _ = full_bench
    # With uniform priors the posterior argmax set equals the argmin set
    # of the average score, so a hit at level 100 is exactly the argmin
    # statement for the true goal.
    full = [r for r in records if r["level"] == 100]
    violations = [r for r in full
                  if r["error"] is not None or not r["hit"]]
    ok = len(full) >= 90 and not violations
    _verdict(capsys, "6 true goal scores lowest at full observability", ok,
             f"{len(full) - len(violations)}/{len(full)} problems")


def test_criterion_7_benchmark_trend(capsys, full_bench):
    _, _, rows, elapsed = full_bench
    tpr = {(r["dataset"], r["level"]): r["tpr"] for r in rows}
    problems = []
    for name in bench.BUNDLED_DATASETS:
        if tpr[(name, 100)] < 0.8:
            problems.append(f"{name} TPR@100 {tpr[(name, 100)]:.2f}")
        if tpr[(name, 100)] < tpr[(name, 10)]:
            problems.append(f"{name} TPR@100 < TPR@10")
    if elapsed >= 1800.0:
        problems.append(f"took {elapsed:.0f}s")
    detail = ", ".join(
        f"{n} {tpr[(n, 10)]:.2f}->{tpr[(n, 100)]:.2f}"
        for n in bench.BUNDLED_DATASETS) + f", {elapsed:.0f}s"
    _verdict(capsys, "7 benchmark trend", not problems,
             "; ".join(problems) or detail)


def test_criterion_8_benchmark_determinism(capsys, full_bench):
    cfg, records, rows, _ = full_bench
    again_records, again_rows = bench.run_benchmark(cfg, canonical=True)
    same_json = (bench.records_json(cfg, records, canonical=True)
                 == bench.records_json(cfg, again_records, canonical=True))
    same_csv = bench.summary_csv(rows) == bench.summary_csv(again_rows)
    ok = same_json and same_csv
    _verdict(capsys, "8 same-seed byte-identical outputs", ok,
             f"records.json identical: {same_json}, "
             f"summary.csv identical: {same_csv}")


def test_default_bench_records_digest(capsys, full_bench):
    cfg, records, _, _ = full_bench
    text = bench.records_json(cfg, records, canonical=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _verdict(capsys, "canonical records.json unchanged",
             digest == DEFAULT_BENCH_RECORDS_SHA256, f"sha256 {digest}")


def test_criterion_9_planner_call_count(capsys, full_bench):
    _, records, _, _ = full_bench
    off = [r for r in records if r["planner_calls"] != len(r["goals"])]
    result = recognizer.recognize(recognizer.load_bundle(EXAMPLE1))
    ok = not off and result.planner_calls == 3
    _verdict(capsys, "9 one planner call per candidate goal", ok,
             f"{len(records)} benchmark records, example bundle "
             f"{result.planner_calls} calls for 3 goals")
