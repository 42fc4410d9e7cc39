"""Goal recognition over candidate temporal goals, in two stages.

`analyze` builds each candidate goal's planning task, solves it for a
strong-cyclic policy, and reduces its executions to a goal model: how
many actions typically remain after each action, and which action pairs
some execution orders. `score` ranks the goals against observations
from those models alone: actions that never occur get a large constant
distance, and an observed pair that no execution orders incurs a
penalty factor. Lower average scores explain better; the posterior
combines them with the goal priors.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from . import compilation, executions as executions_mod, fond, logic, planner
from .budget import Budget
from .errors import (BundleError, CompileError, ExecutionCapError,
                     AutomatonCapError, GroundingCapError, TgrError,
                     UnsolvableError)
from .executions import ABSENT_DISTANCE
from .fond import Domain, ProblemInstance
from .logic import Formula
from .planner import Policy

log = logging.getLogger(__name__)


def _left_sum(xs: Iterable[float]) -> float:
    """The sum of `xs` added left to right in plain float arithmetic.
    `sum()` compensates float sums from CPython 3.12 on, which would
    change the pinned records."""
    return functools.reduce(operator.add, xs, 0)


@dataclass(frozen=True)
class RecognitionProblem:
    """A domain/problem pair, candidate goals, and an observation sequence.

    Observations are ground action names in the order they were seen;
    they may skip actions but never reorder them. Priors default to
    uniform and only need to be positive: they are normalized internally,
    so scaling them all by a constant changes nothing.
    """

    domain: Domain
    problem: ProblemInstance
    goals: tuple[Formula, ...]
    obs: tuple[str, ...]
    priors: tuple[float, ...] = ()
    real_goal_index: int | None = None

    def normalized_priors(self) -> tuple[float, ...]:
        n = len(self.goals)
        if not self.priors:
            return tuple(1.0 / n for _ in range(n))
        if len(self.priors) != n:
            raise BundleError(
                f"{len(self.priors)} priors for {n} goals")
        if not all(math.isfinite(p) for p in self.priors):
            raise BundleError("priors must be finite numbers")
        if any(p < 0 for p in self.priors):
            raise BundleError("priors must be non-negative")
        top = max(self.priors)
        if top <= 0:
            raise BundleError("priors must not all be zero")
        # Scaled by the largest first, the sum cannot overflow.
        scaled = [p / top for p in self.priors]
        total = _left_sum(scaled)
        return tuple(p / total for p in scaled)


@dataclass
class GoalAnalysis:
    """Everything the pipeline derived for one candidate goal: `analyze`
    fills in the goal model, `score` the rest on a copy."""

    formula: Formula
    solvable: bool
    error: str | None = None
    n_executions: int = 0
    distances: dict[str, float] | None = field(default=None, repr=False)
    pairs: frozenset[tuple[str, str]] | None = field(default=None, repr=False)
    penalties: tuple[int, ...] = ()
    scores: tuple[float, ...] = ()
    avg_score: float | None = None
    likelihood: float = 0.0
    prior: float = 0.0
    posterior: float = 0.0


@dataclass(frozen=True)
class Analysis:
    """One unscored GoalAnalysis per candidate goal, in goal order."""

    models: tuple[GoalAnalysis, ...]
    actions: frozenset[str]  # ground action names observations may use
    planner_calls: int
    elapsed_s: float


@dataclass
class RecognitionResult:
    goals: tuple[Formula, ...]
    analyses: tuple[GoalAnalysis, ...]
    gstar: tuple[int, ...]
    planner_calls: int
    elapsed_s: float

    def to_json(self) -> dict:
        return {
            "goals": [str(g) for g in self.goals],
            "gstar": list(self.gstar),
            "posteriors": [a.posterior for a in self.analyses],
            "likelihoods": [a.likelihood for a in self.analyses],
            "planner_calls": self.planner_calls,
            "elapsed_s": self.elapsed_s,
            "per_goal": [
                {
                    "goal": str(a.formula),
                    "solvable": a.solvable,
                    "error": a.error,
                    "executions": a.n_executions,
                    "penalties": list(a.penalties),
                    "scores": list(a.scores),
                    "avg_score": a.avg_score,
                    "likelihood": a.likelihood,
                    "prior": a.prior,
                    "posterior": a.posterior,
                }
                for a in self.analyses
            ],
        }


def penalty(o_prev: str | None, o_i: str,
            pairs: frozenset[tuple[str, str]]) -> int:
    """1 when no execution orders o_prev before o_i, that is when the
    pair is missing from the goal's order pairs; 0 for the first
    observation."""
    if o_prev is None:
        return 0
    return 0 if (o_prev, o_i) in pairs else 1


def pairwise_score(p: int, o_i: str, goal_index: int,
                   tables: Sequence[dict[str, float] | None]) -> float:
    """e^p * d(o_i, goal) / sum over goals of d(o_i, goal'), where p is
    the penalty of the observation for this goal.

    Goals without a distance table (unsolvable) are left out of the sum.
    Returns 0 when every distance in the denominator is zero.
    """
    table = tables[goal_index]
    if table is None:
        raise TgrError("pairwise_score called for an unsolvable goal")
    return _scaled(p, table.get(o_i, ABSENT_DISTANCE),
                   _denominator(o_i, tables))


def _denominator(o_i: str, tables: Sequence[dict[str, float] | None]
                 ) -> float:
    """The denominator of `pairwise_score` for `o_i`, the same for every
    goal."""
    return _left_sum(t.get(o_i, ABSENT_DISTANCE)
                     for t in tables if t is not None)


def _scaled(p: int, d: float, denominator: float) -> float:
    """e^p * d / denominator, or 0 when the denominator is zero."""
    if denominator == 0:
        return 0.0
    return math.exp(p) * d / denominator


def likelihood(avg: float) -> float:
    """Map an average score to (0, 1]: lower scores explain better."""
    return 1.0 / (1.0 + avg)


def posteriors(likelihoods: Sequence[float],
               priors: Sequence[float]) -> list[float]:
    """Normalized likelihood * prior; uniform fallback when all are zero."""
    weights = [l * p for l, p in zip(likelihoods, priors)]
    total = _left_sum(weights)
    if total <= 0:
        log.warning("all goal likelihoods are zero; falling back to a "
                    "uniform posterior")
        n = len(weights)
        return [1.0 / n] * n
    return [w / total for w in weights]


PlannerFn = Callable[[fond.GroundedFond], Policy]


def _resolve_planner(spec: "str | PlannerFn", budget: Budget) -> PlannerFn:
    if callable(spec):
        return spec
    if spec == "builtin":
        return functools.partial(planner.solve_strong_cyclic, budget=budget)
    if spec.startswith("exec:"):
        command = spec[len("exec:"):]
        if not command:
            raise TgrError("--planner exec: needs a command")

        def solve(grounded: fond.GroundedFond) -> Policy:
            domain_text = fond.domain_to_pddl(grounded.domain)
            problem_text = fond.problem_to_pddl(grounded.problem)
            return planner.solve_with_external(
                command, grounded, domain_text, problem_text, budget=budget)
        return solve
    raise TgrError(f"unknown planner {spec!r}; use builtin or exec:<command>")


def _check_observations(obs: Sequence[str], actions: frozenset[str]) -> None:
    for name in obs:
        if name not in actions:
            raise BundleError(
                f"observed action {name} is not a ground action of the domain")


def analyze_goal(base: fond.GroundedFond, goal: Formula, *,
                 planner_spec: "str | PlannerFn" = "builtin",
                 budget: Budget = Budget()
                 ) -> tuple[GoalAnalysis, Policy | None, bool]:
    """Build the model of one candidate goal over `base`, the goal-free
    grounding of its problem. Returns the model, prior unset; the policy
    it was read off, or None; and whether the goal reached the planner.
    A goal whose pipeline fails (uncompilable, unsolvable, or too many
    executions) comes back unsolvable with its error recorded.

    A propositional goal is the classical goal test on `base`; the
    builtin planner searches a temporal goal's product with it. External
    planners and planner callables get a temporal goal's compiled task,
    whose policy is translated onto the product.
    """
    model = GoalAnalysis(formula=goal, solvable=False)
    policy, planned = None, False
    try:
        aug = None
        if logic.is_propositional(goal):
            compilation.validate_goal_atoms(base.domain, base.problem, goal)
            grounded = base.with_goal(goal)
        elif planner_spec == "builtin":
            grounded = compilation.GoalProduct(base, goal)
        else:
            aug = compilation.compile_goal(base.domain, base.problem, goal)
            grounded = aug.grounded
        planned = True
        policy = _resolve_planner(planner_spec, budget)(grounded)
        if aug is not None:
            policy = aug.product_policy(policy, base, budget=budget)
        (model.n_executions, model.distances,
         model.pairs) = executions_mod.goal_model(policy, budget=budget)
        model.solvable = True
    except (UnsolvableError, CompileError, AutomatonCapError,
            GroundingCapError, ExecutionCapError) as exc:
        model.error = str(exc)
        log.info("goal %s dropped to likelihood 0: %s", goal, exc)
    return model, policy, planned


def analyze(problem: RecognitionProblem, *,
            planner_spec: "str | PlannerFn" = "builtin",
            budget: Budget = Budget()) -> Analysis:
    """`analyze_goal` for every candidate goal of `problem`, over its
    goal-free grounding, which `fond.goal_free_grounding` shares with
    every other analysis of the problem in this process. The priors and
    observations are checked before any goal is planned, but the
    observations do not enter the analysis.
    """
    start = time.monotonic()
    if not problem.goals:
        raise BundleError("recognition needs at least one candidate goal")
    priors = problem.normalized_priors()
    _resolve_planner(planner_spec, budget)  # reject a bad spec

    base = fond.goal_free_grounding(problem.domain, problem.problem)
    actions = frozenset(base.action_index)
    _check_observations(problem.obs, actions)

    models: list[GoalAnalysis] = []
    planner_calls = 0
    for goal, prior in zip(problem.goals, priors):
        model, _, planned = analyze_goal(
            base, goal, planner_spec=planner_spec, budget=budget)
        model.prior = prior
        models.append(model)
        planner_calls += planned

    return Analysis(models=tuple(models), actions=actions,
                    planner_calls=planner_calls,
                    elapsed_s=time.monotonic() - start)


def score(analysis: Analysis, obs: Sequence[str]) -> RecognitionResult:
    """Rank the analysed goals against one observation sequence. The
    result holds scored copies of the goal models; its elapsed time
    includes the analysis time."""
    start = time.monotonic()
    _check_observations(obs, analysis.actions)
    models = [replace(m) for m in analysis.models]
    tables = [m.distances for m in models]
    # `pairwise_score`'s denominators, one per observation for all goals.
    denominators = [_denominator(o, tables) for o in obs]
    for model in models:
        if not model.solvable:
            continue
        model.penalties = tuple(penalty(prev, o, model.pairs)
                                for prev, o in zip((None, *obs), obs))
        model.scores = tuple(
            _scaled(p, model.distances.get(o, ABSENT_DISTANCE), den)
            for p, o, den in zip(model.penalties, obs, denominators))
        # Nothing observed: every solvable goal explains equally well.
        model.avg_score = _left_sum(model.scores) / len(obs) if obs else 0.0
        model.likelihood = likelihood(model.avg_score)

    post = posteriors([m.likelihood for m in models],
                      [m.prior for m in models])
    for model, p in zip(models, post):
        model.posterior = p
    best = max(post)
    gstar = tuple(i for i, p in enumerate(post)
                  if math.isclose(p, best, rel_tol=1e-9, abs_tol=1e-12))

    return RecognitionResult(
        goals=tuple(m.formula for m in models),
        analyses=tuple(models),
        gstar=gstar,
        planner_calls=analysis.planner_calls,
        elapsed_s=analysis.elapsed_s + time.monotonic() - start,
    )


def recognize(problem: RecognitionProblem, *,
              planner_spec: "str | PlannerFn" = "builtin",
              state_cap: int = planner.DEFAULT_STATE_CAP,
              execution_cap: int = executions_mod.DEFAULT_EXECUTION_CAP,
              deadline: float | None = None) -> RecognitionResult:
    """Analyse the goals of `problem` and score its observations, under
    one `Budget` of these caps and deadline (a `time.monotonic()`
    reading)."""
    budget = Budget(state_cap=state_cap, execution_cap=execution_cap,
                    deadline=deadline)
    return score(analyze(problem, planner_spec=planner_spec, budget=budget),
                 problem.obs)


# ---------------------------------------------------------------------------
# Bundle I/O

def canonical_action(name: str) -> str:
    """Normalize an action string to `(name arg ...)`."""
    text = name.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = text.split()
    if not parts:
        raise BundleError(f"empty action name {name!r}")
    return "(" + " ".join(parts) + ")"


def read_text(path: object, role: str, base_dir: str | None = None) -> str:
    """The UTF-8 text of the `role` file at `path`, which is taken
    relative to `base_dir` unless absolute. Raises a BundleError naming
    the role when `path` is not a string or the file cannot be read."""
    if not isinstance(path, str):
        raise BundleError(f"{role} must be a path string")
    try:
        with open(os.path.join(base_dir or "", path), encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read the {role} file: {exc}") from exc


def _json_kind(value, *kinds: type) -> bool:
    """True when the JSON value is of one of `kinds`. A boolean never
    is, although Python counts it as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    """True for a finite positive number. The upper bound rejects
    infinity and NaN, and integers no float can hold."""
    return _json_kind(value, int, float) and 0 < value <= sys.float_info.max


def read_json(path: str, role: str):
    """The JSON value of the `role` file at `path`, read by `read_text`."""
    try:
        return json.loads(read_text(path, role))
    except (ValueError, RecursionError) as exc:  # RecursionError: too deep
        raise BundleError(f"{role} is not valid JSON: {exc}") from exc


def load_bundle(path: str) -> RecognitionProblem:
    """Load a recognition bundle: a JSON file (or a directory containing
    bundle.json) with domain/problem paths, goal formulas, observations,
    and optional priors and real goal index."""
    if os.path.isdir(path):
        path = os.path.join(path, "bundle.json")
    data = read_json(path, "bundle")
    if not isinstance(data, dict):
        raise BundleError("bundle must be a JSON object")
    for key in ("domain", "problem", "goals", "obs"):
        if key not in data:
            raise BundleError(f"bundle is missing the {key!r} field")

    base = os.path.dirname(os.path.abspath(path))

    def listed(key: str, kinds: tuple[type, ...], what: str) -> list:
        items = data.get(key, [])
        if not isinstance(items, list) or not all(
                _json_kind(x, *kinds) for x in items):
            raise BundleError(f"{key} must be a list of {what}")
        return items

    domain = fond.parse_domain(read_text(data["domain"], "domain", base))
    problem = fond.parse_problem(read_text(data["problem"], "problem", base))

    goals = tuple(logic.parse_formula(s)
                  for s in listed("goals", (str,), "formula strings"))
    if not goals:
        raise BundleError("bundle has an empty goal list")
    obs = tuple(canonical_action(s)
                for s in listed("obs", (str,), "action strings"))
    try:
        priors = tuple(float(p)
                       for p in listed("priors", (int, float), "numbers"))
    except OverflowError:
        raise BundleError("priors must be finite numbers") from None
    real = data.get("real_goal_index")
    if real is not None:
        if not _json_kind(real, int):
            raise BundleError("real_goal_index must be an integer")
        if not 0 <= real < len(goals):
            raise BundleError(f"real_goal_index {real} out of range")
    rp = RecognitionProblem(domain=domain, problem=problem, goals=goals,
                            obs=obs, priors=priors, real_goal_index=real)
    rp.normalized_priors()
    return rp
