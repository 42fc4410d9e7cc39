"""Benchmark harness for the goal recognizer.

Builds recognition datasets out of FOND domain/problem pairs, runs the
recognizer at several observability levels, and reports hit/miss
metrics as JSON records plus a summary CSV.

Protocol, per generated problem: draw ``goals_per_problem`` solvable
candidate goals from a fixed rotation of formula templates, mark one of
them as the true goal, pick one execution of the true goal's policy,
and reveal a percentage of that execution's actions (in order, chosen
uniformly) as the observation sequence for each level. Each goal is
analysed once, as it is drawn; every level is scored against those
models. A problem counts as a hit at a level when the true goal is in
the recognizer's top posterior set; runs that exceed the per-problem
timeout count as misses. Everything is derived from the configured
seed, so two runs with the same config produce identical records and
summaries.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Callable

from . import executions, fond, logic, planner, recognizer
from .budget import Budget
from .errors import BundleError, TgrError
from .fond import Domain, ProblemInstance
from .logic import Atom, Formula

BUNDLED_DATASETS = ("triangle-tireworld", "blocks-world", "logistics")
DEFAULT_LEVELS = (10, 30, 50, 70, 100)
TEMPLATES = ("eventually", "conj", "ordered", "until", "once", "since")
SUMMARY_HEADER = "dataset,level,|G|,|Obs|,time_s,tpr,fpr,fnr"

_GOAL_ATTEMPTS = 60


@dataclass(frozen=True)
class DatasetSpec:
    """A named FOND domain/problem pair recognition problems are drawn from."""

    name: str
    domain_text: str
    problem_text: str


@dataclass(frozen=True)
class BenchConfig:
    """The bench settings; a config file sets any of them by name."""

    datasets: tuple[DatasetSpec, ...] = field(default_factory=lambda: tuple(
        map(bundled_dataset, BUNDLED_DATASETS)))
    seed: int = 0
    levels: tuple[int, ...] = DEFAULT_LEVELS
    goals_per_problem: int = 4
    problems_per_dataset: int = 30
    timeout_s: float = 600.0
    state_cap: int = planner.DEFAULT_STATE_CAP
    execution_cap: int = executions.DEFAULT_EXECUTION_CAP

    def describe(self) -> dict:
        """JSON-able view of the config, embedded in the records file."""
        view = {f.name: getattr(self, f.name) for f in fields(self)}
        view.update(datasets=[d.name for d in self.datasets],
                    levels=list(self.levels))
        return view


def bundled_text(*parts: str) -> str:
    node = resources.files("tgr") / "data"
    for part in parts:
        node = node / part
    return node.read_text(encoding="utf-8")


def bundled_dataset(name: str) -> DatasetSpec:
    if name not in BUNDLED_DATASETS:
        raise BundleError(
            f"unknown bundled dataset {name!r}; "
            f"available: {', '.join(BUNDLED_DATASETS)}")
    return DatasetSpec(name, bundled_text(name, "domain.pddl"),
                       bundled_text(name, "p01.pddl"))


def _dataset_entry(entry, base_dir: str | None) -> DatasetSpec:
    if isinstance(entry, str):
        return bundled_dataset(entry)
    if isinstance(entry, dict):
        missing = {"name", "domain", "problem"} - set(entry)
        if missing:
            raise BundleError(
                f"dataset entry is missing {', '.join(sorted(missing))}")
        name = entry["name"]
        if not isinstance(name, str):
            raise BundleError("dataset name must be a string")
        return DatasetSpec(name, *(
            recognizer.read_text(entry[key], f"dataset {name} {key}",
                                 base_dir)
            for key in ("domain", "problem")))
    raise BundleError(
        "dataset entries must be bundled names or "
        "{name, domain, problem} objects")


def config_from_dict(raw: dict, *, base_dir: str | None = None) -> BenchConfig:
    """The config that `raw` describes. Only the settings it names are
    checked, always in this order; the rest keep `BenchConfig`'s
    defaults."""
    if not isinstance(raw, dict):
        raise BundleError("bench config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(BenchConfig)}
    if unknown:
        raise BundleError(
            f"unknown bench config keys: {', '.join(sorted(unknown))}")
    given = {}
    if "levels" in raw:
        levels = raw["levels"]
        if not isinstance(levels, list) or not levels:
            raise BundleError("levels must be a non-empty list of percentages")
        for lvl in levels:
            if not recognizer._json_kind(lvl, int) or not 1 <= lvl <= 100:
                raise BundleError(f"level {lvl!r} is not an integer in 1..100")
        given["levels"] = tuple(sorted(set(levels)))
    if "timeout_s" in raw:
        if not recognizer._finite_positive(raw["timeout_s"]):
            raise BundleError("timeout_s must be a finite positive number")
        given["timeout_s"] = float(raw["timeout_s"])
    if "datasets" in raw:
        entries = raw["datasets"]
        if not isinstance(entries, list) or not entries:
            raise BundleError("datasets must be a non-empty list")
        given["datasets"] = tuple(_dataset_entry(e, base_dir) for e in entries)
        names = [d.name for d in given["datasets"]]
        if len(set(names)) != len(names):
            raise BundleError("dataset names must be unique")
    if "seed" in raw:
        if not recognizer._json_kind(raw["seed"], int):
            raise BundleError("seed must be an integer")
        given["seed"] = raw["seed"]
    for key in ("goals_per_problem", "problems_per_dataset", "state_cap",
                "execution_cap"):
        if key in raw:
            if not recognizer._json_kind(raw[key], int) or raw[key] < 1:
                raise BundleError(f"{key} must be a positive integer")
            given[key] = raw[key]
    return BenchConfig(**given)


def load_config(path: str | None = None) -> BenchConfig:
    """Load a bench config file, or the bundled default when path is None."""
    if path is None:
        return config_from_dict(json.loads(bundled_text("bench-default.json")))
    return config_from_dict(recognizer.read_json(path, "bench config"),
                            base_dir=os.path.dirname(os.path.abspath(path)))


def goal_pool(domain: Domain, problem: ProblemInstance) -> list[Atom]:
    """Fluents of the problem's goal-free grounding that some action can
    add and the initial state lacks.

    Goal templates draw their targets from this pool. Atoms of
    never-added predicates (static facts) and atoms already true
    initially would mostly yield degenerate goals, so they are skipped
    up front; repeated-object bindings likewise.
    """
    addable: set[str] = set()

    def walk(eff: fond.Effect) -> None:
        if eff.kind == "lit" and eff.literal.positive:
            addable.add(eff.literal.atom.predicate)
        for child in eff.children:
            walk(child)

    for action in domain.actions:
        walk(action.effect)

    return sorted((a for a in fond.goal_free_grounding(domain, problem).fluents
                   if a.predicate in addable and len(set(a.args)) == len(a.args)
                   and a not in problem.init), key=str)


def _template(name: str, rng: random.Random, pool: list[Atom]) -> Formula:
    def draw(k: int) -> list[Formula]:
        return [logic.from_atom(a) for a in rng.sample(pool, k)]

    if name == "eventually":
        (a,) = draw(1)
        return logic.eventually(a)
    if name == "conj":
        a, b = draw(2)
        return logic.land(logic.eventually(a), logic.eventually(b))
    if name == "ordered":
        a, b = draw(2)
        return logic.eventually(logic.land(a, logic.next_(logic.eventually(b))))
    if name == "until":
        a, b = draw(2)
        return logic.until(logic.lnot(a), b)
    if name == "once":
        a, b = draw(2)
        return logic.land(a, logic.once(b))
    if name == "since":
        a, b, c = draw(3)
        return logic.land(a, logic.since(logic.lnot(b), c))
    raise ValueError(f"unknown goal template {name!r}")


def _draw_goal(base: fond.GroundedFond, cfg: BenchConfig,
               rng: random.Random, pool: list[Atom], seen: list[str],
               template: str, dataset_name: str, *, want_executions: bool,
               ) -> tuple[recognizer.GoalAnalysis, float,
                          tuple[executions.Execution, ...]]:
    """Sample a fresh goal the planner solves over `base`, preferring the
    given template. Returns its model, the seconds its analysis took,
    and on request its executions with at least one domain action: an
    empty execution leaves nothing to observe.

    Sparse maps can make a template unsolvable for most atom draws, so
    after the attempt budget the draw falls back to plain reachability
    goals over the shuffled pool, which keeps generation total.
    """
    def fallback():
        order = list(pool)
        rng.shuffle(order)
        for atom in order:
            yield logic.eventually(logic.from_atom(atom))

    budget = Budget(state_cap=cfg.state_cap, execution_cap=cfg.execution_cap)
    for candidate in itertools.chain(
            (_template(template, rng, pool) for _ in range(_GOAL_ATTEMPTS)),
            fallback()):
        if str(candidate) in seen:
            continue
        start = time.monotonic()
        try:
            model, policy, _ = recognizer.analyze_goal(base, candidate,
                                                       budget=budget)
            seconds = time.monotonic() - start
            if policy is None:
                continue
            if not want_executions:
                return model, seconds, ()
            execs = tuple(e for e in executions.enumerate_executions(
                policy, budget=budget) if e.actions)
        except TgrError:
            continue
        if execs:
            return model, seconds, execs
    raise BundleError(
        f"dataset {dataset_name}: could not generate a solvable goal "
        f"(template {template!r} and every fallback atom failed)")


@dataclass(frozen=True)
class GeneratedProblem:
    dataset: str
    index: int
    goals: tuple[str, ...]
    true_index: int
    obs_by_level: dict[int, tuple[str, ...]]
    analysis: recognizer.Analysis = field(compare=False)  # unscored


def generate_problem(domain: Domain, problem: ProblemInstance,
                     cfg: BenchConfig, dataset_name: str, index: int,
                     pool: list[Atom] | None = None) -> GeneratedProblem:
    """Draw candidate goals and observations for one recognition problem,
    and analyse the goals: the analysis times grounding (paid once per
    process by `fond.goal_free_grounding`) and the accepted goals, not
    the resampled candidates.

    All randomness comes from a generator seeded with
    ``{seed}:{dataset}:{index}``, so a problem can be regenerated in
    isolation (this is what keeps parallel runs deterministic).
    """
    if pool is None:
        pool = goal_pool(domain, problem)
    if len(pool) < 3:
        raise BundleError(
            f"dataset {dataset_name}: goal templates need at least 3 "
            f"candidate atoms, found {len(pool)}")

    start = time.monotonic()
    base = fond.goal_free_grounding(domain, problem)
    elapsed = time.monotonic() - start
    rng = random.Random(f"{cfg.seed}:{dataset_name}:{index}")
    true_index = rng.randrange(cfg.goals_per_problem)
    models: list[recognizer.GoalAnalysis] = []
    goals: list[str] = []
    true_execs: tuple[executions.Execution, ...] = ()
    for j in range(cfg.goals_per_problem):
        template = TEMPLATES[(index + j) % len(TEMPLATES)]
        model, seconds, execs = _draw_goal(
            base, cfg, rng, pool, goals, template, dataset_name,
            want_executions=j == true_index)
        model.prior = 1.0 / cfg.goals_per_problem  # uniform, as `analyze`
        models.append(model)
        goals.append(str(model.formula))
        elapsed += seconds
        if j == true_index:
            true_execs = execs

    chosen = rng.choice(true_execs)
    acts = list(chosen.actions)
    obs_by_level: dict[int, tuple[str, ...]] = {}
    for level in cfg.levels:
        count = min(len(acts), max(1, math.ceil(len(acts) * level / 100)))
        picked = sorted(rng.sample(range(len(acts)), count))
        obs_by_level[level] = tuple(acts[i] for i in picked)
    analysis = recognizer.Analysis(
        models=tuple(models), actions=frozenset(base.action_index),
        planner_calls=len(models), elapsed_s=elapsed)
    return GeneratedProblem(dataset_name, index, tuple(goals), true_index,
                            obs_by_level, analysis)


def evaluate_problem(gen: GeneratedProblem, cfg: BenchConfig, *,
                     canonical: bool = False) -> list[dict]:
    """Score every level of one generated problem against the analysis
    its generation built. A record's time_s is that analysis time plus
    the level's scoring time."""
    n = len(gen.goals)
    records: list[dict] = []
    for level in cfg.levels:
        obs = gen.obs_by_level[level]
        start = time.perf_counter()
        result = recognizer.score(gen.analysis, obs)
        elapsed = gen.analysis.elapsed_s + time.perf_counter() - start
        # Over budget counts as a miss even when an answer came back.
        if elapsed > cfg.timeout_s:
            error, gstar, posteriors, calls = "timeout", [], [0.0] * n, 0
        else:
            error, gstar = None, list(result.gstar)
            posteriors = [a.posterior for a in result.analyses]
            calls = result.planner_calls
        hit = gen.true_index in gstar
        false_pos = sum(1 for g in gstar if g != gen.true_index)
        records.append({
            "dataset": gen.dataset,
            "problem": gen.index,
            "level": level,
            "goals": list(gen.goals),
            "true_goal": gen.true_index,
            "observations": list(obs),
            "posteriors": posteriors,
            "gstar": gstar,
            "hit": hit,
            "fpr": false_pos / max(1, n - 1),
            "time_s": 0.0 if canonical else round(elapsed, 6),
            "planner_calls": calls,
            "error": error,
        })
    return records


def _run_problem(cfg: BenchConfig, canonical: bool,
                 task: tuple[int, int]) -> list[dict]:
    dataset_index, problem_index = task
    spec = cfg.datasets[dataset_index]
    domain = fond.parse_domain(spec.domain_text)
    problem = fond.parse_problem(spec.problem_text)
    gen = generate_problem(domain, problem, cfg, spec.name, problem_index)
    return evaluate_problem(gen, cfg, canonical=canonical)


def run_benchmark(cfg: BenchConfig, *, jobs: int = 1, canonical: bool = False,
                  progress: Callable[[str, int], None] | None = None,
                  ) -> tuple[list[dict], list[dict]]:
    """Generate and evaluate every problem; returns (records, summary rows).

    With `jobs` > 1 a process pool runs the problems, and an error in one
    cancels those not yet started. Either way `progress` is called in
    problem order, and records come back sorted by dataset, problem,
    level, so parallel runs are byte-identical to serial ones.
    """
    tasks = [(di, pi) for di in range(len(cfg.datasets))
             for pi in range(cfg.problems_per_dataset)]
    records: list[dict] = []
    with contextlib.ExitStack() as stack:
        each = map
        if jobs > 1:
            # Imported here: only a parallel run needs the process pool.
            from concurrent.futures import ProcessPoolExecutor
            each = stack.enter_context(ProcessPoolExecutor(jobs)).map
        results = each(functools.partial(_run_problem, cfg, canonical), tasks)
        for (di, pi), problem_records in zip(tasks, results):
            records.extend(problem_records)
            if progress is not None:
                progress(cfg.datasets[di].name, pi)
    records.sort(key=lambda r: (r["dataset"], r["problem"], r["level"]))
    return records, summarize(records)


def summarize(records: list[dict]) -> list[dict]:
    """Aggregate per-problem records into one row per dataset and level."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["dataset"], rec["level"]), []).append(rec)
    rows: list[dict] = []
    for dataset, level in sorted(groups):
        recs = groups[(dataset, level)]
        n = len(recs)
        tpr = sum(1 for r in recs if r["hit"]) / n
        rows.append({
            "dataset": dataset,
            "level": level,
            "goals": sum(len(r["goals"]) for r in recs) / n,
            "obs": sum(len(r["observations"]) for r in recs) / n,
            "time_s": recognizer._left_sum(r["time_s"] for r in recs) / n,
            "tpr": tpr,
            "fpr": recognizer._left_sum(r["fpr"] for r in recs) / n,
            "fnr": 1.0 - tpr,
        })
    return rows


def summary_csv(rows: list[dict]) -> str:
    lines = [SUMMARY_HEADER]
    for r in rows:
        lines.append(
            f"{r['dataset']},{r['level']},{r['goals']:.1f},{r['obs']:.1f},"
            f"{r['time_s']:.3f},{r['tpr']:.4f},{r['fpr']:.4f},{r['fnr']:.4f}")
    return "\n".join(lines) + "\n"


def records_json(cfg: BenchConfig, records: list[dict], *,
                 canonical: bool = False) -> str:
    payload = {"canonical": canonical, "config": cfg.describe(),
               "records": records}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_outputs(out_dir: str, cfg: BenchConfig, records: list[dict],
                  rows: list[dict], *,
                  canonical: bool = False) -> tuple[str, str]:
    """Write records.json and summary.csv under out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.json")
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_json(cfg, records, canonical=canonical))
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary_csv(rows))
    return records_path, summary_path
