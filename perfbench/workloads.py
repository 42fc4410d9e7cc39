"""Seeded inputs for the recognizer benchmark.

Each workload builds, from the benchmark seed, an ordered list of
recognitions (`Item`s). The timed loop issues them one at a time, in
list order, to `recognizer.recognize`, in whole passes over the list.
Every item has a key under which the reference answers of the workload
are stored.

Only the public API of `tgr` is used. Building the inputs may solve
planning tasks (to draw observations from a policy execution); that work
belongs to set-up and is never timed as recognition.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import time
from dataclasses import dataclass

from tgr import bench, compilation, executions, fond, logic, planner, recognizer

# Seeds with stored reference answers for the workloads whose inputs
# depend on the seed; other seeds are folded onto these.
REFERENCE_SEEDS = 16

# Wall-clock budget of one recognition; a recognition over it fails.
RECOGNITION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Item:
    key: str
    problem: recognizer.RecognitionProblem
    true_index: int

    def inputs_digest(self) -> str:
        """Fingerprint of the goals, observations and true goal."""
        text = json.dumps([[str(g) for g in self.problem.goals],
                           list(self.problem.obs), self.true_index])
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Inputs:
    workload: str
    reference_seed: int | None
    params: dict
    items: tuple[Item, ...]
    state_cap: int = planner.DEFAULT_STATE_CAP
    execution_cap: int = executions.DEFAULT_EXECUTION_CAP
    timeout_s: float = RECOGNITION_TIMEOUT_S

    def digest(self) -> str:
        """Fingerprint of every recognition, in issue order."""
        text = json.dumps([[i.key, i.inputs_digest()] for i in self.items])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def recognize(inputs: Inputs, item: Item) -> recognizer.RecognitionResult:
    """One recognition, with the options `tgr bench` would pass."""
    return recognizer.recognize(
        item.problem, state_cap=inputs.state_cap,
        execution_cap=inputs.execution_cap,
        deadline=time.monotonic() + inputs.timeout_s)


def answer(result: recognizer.RecognitionResult) -> list:
    """The part of a result a speed change must never alter: gstar and
    the posteriors rounded to 1e-9."""
    return [list(result.gstar),
            [round(a.posterior, 9) for a in result.analyses]]


# ---------------------------------------------------------------------------
# bench-default

def build_bench_default(seed: int, smoke: bool) -> Inputs:
    """The recognitions of the bundled bench-default.json, exactly as
    `tgr bench` issues them; the seed only shuffles their order."""
    cfg = bench.load_config()
    problems = 1 if smoke else cfg.problems_per_dataset
    items: list[Item] = []
    for spec in cfg.datasets:
        domain = fond.parse_domain(spec.domain_text)
        problem = fond.parse_problem(spec.problem_text)
        pool = bench.goal_pool(domain, problem)
        for index in range(problems):
            gen = bench.generate_problem(domain, problem, cfg, spec.name,
                                         index, pool)
            goals = tuple(logic.parse_formula(g) for g in gen.goals)
            for level in cfg.levels:
                rp = recognizer.RecognitionProblem(
                    domain=domain, problem=problem, goals=goals,
                    obs=gen.obs_by_level[level],
                    real_goal_index=gen.true_index)
                items.append(Item(f"{spec.name}:{index}:{level}", rp,
                                  gen.true_index))
    random.Random(f"bench-default:{seed}").shuffle(items)
    params = {"config": cfg.describe(), "problems_per_dataset": problems,
              "recognitions": len(items), "order": "shuffled by the seed"}
    return Inputs("bench-default", None, params, tuple(items),
                  cfg.state_cap, cfg.execution_cap, cfg.timeout_s)


# ---------------------------------------------------------------------------
# blocks-scale

BLOCKS = 6
# One recognition per row, together covering the six bench templates
# (ordered, eventually, conj / since, until, once). The first goal of a
# row is the true one; the seed renames the blocks and shuffles the
# goals. So every seed poses planning tasks of the same size, and set-up,
# which solves the true goals, costs the same on every seed.
BLOCKS_GOALS = (
    ("F(on_b5_b6 & X(F(on_b4_b5)))", "F(on_b1_b4)",
     "F(on_b3_b1) & F(on_b5_b6)"),
    ("on_b1_b2 & (!(on_b3_b6) S holding_b2)", "!(on_b4_b5) U on_b5_b2",
     "on_b3_b2 & O(on_b2_b5)"),
)


def blocks_problem_text(n: int) -> str:
    """n blocks, all on the table, hand empty."""
    names = " ".join(f"b{i}" for i in range(1, n + 1))
    init = " ".join(f"(ontable b{i}) (clear b{i})" for i in range(1, n + 1))
    return (f"(define (problem bw-{n}) (:domain blocks-world) "
            f"(:objects {names} - block) (:init (emptyhand) {init}))")


def _rename(goal: str, names: dict[str, str]) -> logic.Formula:
    return logic.parse_formula(
        re.sub(r"b\d+", lambda m: names[m.group()], goal))


def _true_execution(domain: fond.Domain, problem: fond.ProblemInstance,
                    goal: logic.Formula,
                    rng: random.Random) -> executions.Execution:
    """One seeded execution, with at least one action, of the policy the
    recognizer itself would compute for the goal."""
    aug = compilation.compile_goal(domain, problem, goal)
    policy = planner.solve_strong_cyclic(aug.grounded)
    execs = [e for e in executions.enumerate_executions(policy, aug)
             if e.actions]
    return rng.choice(execs)


def build_blocks_scale(seed: int, smoke: bool) -> Inputs:
    """Two recognitions on six blocks; in each, the seed places the true
    goal among the others and observes half of one of its executions,
    in order."""
    ref_seed = seed % REFERENCE_SEEDS
    rng = random.Random(f"blocks-scale:{ref_seed}")
    domain = fond.parse_domain(bench.bundled_text("blocks-world",
                                                  "domain.pddl"))
    problem = fond.parse_problem(blocks_problem_text(BLOCKS))
    blocks = [f"b{i}" for i in range(1, BLOCKS + 1)]
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    names = dict(zip(blocks, shuffled))
    items: list[Item] = []
    rows = BLOCKS_GOALS[:1] if smoke else BLOCKS_GOALS
    for r, row in enumerate(rows):
        goals = [_rename(g, names) for g in row]
        true_goal = goals[0]
        rng.shuffle(goals)
        goals = tuple(goals)
        true_index = goals.index(true_goal)
        acts = _true_execution(domain, problem, true_goal, rng).actions
        count = math.ceil(len(acts) / 2)
        obs = tuple(acts[i] for i in sorted(rng.sample(range(len(acts)),
                                                       count)))
        rp = recognizer.RecognitionProblem(
            domain=domain, problem=problem, goals=goals, obs=obs,
            real_goal_index=true_index)
        items.append(Item(f"{ref_seed}:{r}", rp, true_index))
    params = {"blocks": BLOCKS, "recognitions": len(items),
              "goals_per_recognition": 3, "observed_share": 0.5,
              "renaming": names}
    return Inputs("blocks-scale", ref_seed, params, tuple(items))


# ---------------------------------------------------------------------------
# logistics-stream

LOCATIONS = 5
# Fixed candidate goals on the line map, each an ordered pair of visits.
# Every drive and unload can stall in place, which gives each goal
# 128-512 executions over a state space of a few hundred states.
LOGISTICS_GOALS = (
    "F(pkg-at_p1_l5 & X(F(at_t1_l1)))",
    "F(at_t1_l5 & X(F(pkg-at_p1_l1)))",
    "F(pkg-at_p1_l4 & X(F(at_t1_l1)))",
    "F(pkg-at_p1_l1 & X(F(at_t1_l5)))",
)
STREAMS = 8


def logistics_problem_text(n: int) -> str:
    """One truck at l1 on a line l1 - ... - ln; one package, at l2."""
    locs = [f"l{i}" for i in range(1, n + 1)]
    links = " ".join(f"(link {a} {b}) (link {b} {a})"
                     for a, b in zip(locs, locs[1:]))
    return (f"(define (problem line-{n}) (:domain logistics) "
            f"(:objects t1 - truck p1 - package {' '.join(locs)} "
            f"- location) (:init (at t1 l1) (pkg-at p1 l2) {links}))")


def build_logistics_stream(seed: int, smoke: bool) -> Inputs:
    """Online recognition: stream j observes, one action at a time, a
    seeded execution of goal j mod 4, and each prefix is one
    recognition. True goals rotate so that every run weighs the goals
    alike."""
    ref_seed = seed % REFERENCE_SEEDS
    rng = random.Random(f"logistics-stream:{ref_seed}")
    domain = fond.parse_domain(bench.bundled_text("logistics", "domain.pddl"))
    problem = fond.parse_problem(logistics_problem_text(LOCATIONS))
    goals = tuple(logic.parse_formula(g) for g in LOGISTICS_GOALS)
    streams = 1 if smoke else STREAMS
    items: list[Item] = []
    for j in range(streams):
        true_index = j % len(goals)
        acts = _true_execution(domain, problem, goals[true_index],
                               rng).actions
        if smoke:
            acts = acts[:3]
        for k in range(1, len(acts) + 1):
            rp = recognizer.RecognitionProblem(
                domain=domain, problem=problem, goals=goals, obs=acts[:k],
                real_goal_index=true_index)
            items.append(Item(f"{ref_seed}:{j}:{k}", rp, true_index))
    params = {"locations": LOCATIONS, "goals": list(LOGISTICS_GOALS),
              "streams": streams, "recognitions": len(items)}
    return Inputs("logistics-stream", ref_seed, params, tuple(items))


BUILDERS = {
    "bench-default": build_bench_default,
    "blocks-scale": build_blocks_scale,
    "logistics-stream": build_logistics_stream,
}


def build(workload: str, seed: int, smoke: bool = False) -> Inputs:
    return BUILDERS[workload](seed, smoke)


def timed_build(workload: str, seed: int, smoke: bool, reps: int,
                min_s: float) -> tuple[Inputs, list[float]]:
    """Build the inputs at least `reps` times and for at least `min_s`
    seconds; return the last build and every build time. The builds
    must agree."""
    times: list[float] = []
    inputs = None
    while len(times) < reps or sum(times) < min_s:
        start = time.perf_counter()
        built = build(workload, seed, smoke)
        times.append(time.perf_counter() - start)
        if inputs is not None and built.digest() != inputs.digest():
            raise RuntimeError(f"{workload}: two set-ups from seed {seed} "
                               "built different inputs")
        inputs = built
    return inputs, times
