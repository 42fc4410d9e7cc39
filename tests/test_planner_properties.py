"""Property tests over small random FOND tasks.

The tasks are propositional: up to eight nullary fluents and six
actions, with negative preconditions, `oneof` branches, `when` effects
and a random goal. The solver is checked against the reference solver
in `reference_planner`, the model against a direct reading of the
effects, and `verify_policy` against policies mutated to be wrong.
"""

from hypothesis import given, settings, strategies as st

import reference_planner
from tgr import fond, logic, planner
from tgr.errors import PlannerCapError, UnsolvableError


def _lit(lit):
    fluent, positive = lit
    return f"(p{fluent})" if positive else f"(not (p{fluent}))"


@st.composite
def fond_tasks(draw):
    """PDDL text of a random task: (domain, problem)."""
    n = draw(st.integers(2, 8))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())

    def literals(lo, hi):
        return st.lists(literal, min_size=lo, max_size=hi,
                        unique_by=lambda lit: lit[0])

    condition = st.one_of(
        literal.map(_lit),
        st.tuples(st.sampled_from(("and", "or")), literal, literal).map(
            lambda c: f"({c[0]} {_lit(c[1])} {_lit(c[2])})"))
    item = st.one_of(
        literal.map(_lit),
        st.tuples(condition, literal).map(
            lambda w: f"(when {w[0]} {_lit(w[1])})"))
    branch = st.lists(item, min_size=1, max_size=3).map(
        lambda items: f"(and {' '.join(items)})")

    actions = []
    for k in range(draw(st.integers(1, 6))):
        pre = " ".join(_lit(lit) for lit in draw(literals(0, 2)))
        branches = draw(st.lists(branch, min_size=1, max_size=3))
        effect = (branches[0] if len(branches) == 1
                  else f"(oneof {' '.join(branches)})")
        actions.append(f"(:action a{k} :parameters () "
                       f":precondition (and {pre}) :effect {effect})")
    init = sorted(draw(st.sets(st.integers(0, n - 1))))
    # The first goal literal is false initially, so most goals need a plan.
    goal_lits = draw(literals(1, 2))
    goal_lits[0] = (goal_lits[0][0], goal_lits[0][0] not in init)
    op = draw(st.sampled_from(("and", "or"))) if len(goal_lits) > 1 else "and"
    goal = f"({op} {' '.join(_lit(lit) for lit in goal_lits)})"

    predicates = " ".join(f"(p{i})" for i in range(n))
    domain = ("(define (domain rnd) (:requirements :strips "
              ":negative-preconditions :conditional-effects :non-deterministic) "
              f"(:predicates {predicates}) {' '.join(actions)})")
    problem = ("(define (problem r) (:domain rnd) "
               f"(:init {' '.join(f'(p{i})' for i in init)}) "
               f"(:goal {goal}))")
    return domain, problem


def ground(task):
    domain, problem = task
    return fond.ground(fond.parse_domain(domain), fond.parse_problem(problem))


def outcome(solve, g, state_cap):
    """The policy a solver returns, or the type of error it raises."""
    try:
        return solve(g, state_cap=state_cap)
    except (UnsolvableError, PlannerCapError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12))
def test_solver_agrees_with_reference(task, small_cap):
    g = ground(task)
    for cap in (planner.DEFAULT_STATE_CAP, small_cap):
        expected = outcome(reference_planner.solve_strong_cyclic, g, cap)
        got = outcome(planner.solve_strong_cyclic, g, cap)
        if isinstance(expected, type):
            assert got is expected
            continue
        assert isinstance(got, planner.Policy)
        assert got.mapping == expected.mapping
        assert planner.policy_to_text(got) == planner.policy_to_text(expected)
        assert planner.verify_policy(got).ok


def reference_successors(g, state, ai):
    """Outcomes of action `ai` in `state`, read off the schema's effect:
    adds win over deletes, duplicate outcomes merge."""
    schema = next(s for s in g.domain.actions
                  if f"({s.name})" == g.actions[ai].name)
    atoms = g.atoms_of(state)
    out = []
    for branch in fond.effect_branches(schema.effect):
        fired = [lit for cond, lit in branch
                 if logic.evaluate(cond, [atoms])]
        adds = {lit.atom for lit in fired if lit.positive}
        dels = {lit.atom for lit in fired if not lit.positive}
        succ = g.state_of((atoms - dels) | adds)
        if succ not in out:
            out.append(succ)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_model_matches_the_effects(task, data):
    g = ground(task)
    state = frozenset(data.draw(st.sets(st.integers(0, len(g.fluents) - 1))))
    applicable = [i for i in range(len(g.actions)) if g.applicable(state, i)]
    assert g.applicable_actions(state) == applicable
    for ai in applicable:
        assert g.successors(state, ai) == reference_successors(g, state, ai)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_verify_policy_rejects_mutated_policies(task, data):
    g = ground(task)
    try:
        policy = planner.solve_strong_cyclic(g)
    except UnsolvableError:
        return
    assert planner.verify_policy(policy).ok
    if not policy.mapping:
        return
    state = data.draw(st.sampled_from(sorted(policy.mapping, key=sorted)))

    # Dropping a reachable mapped state leaves the policy open.
    dropped = dict(policy.mapping)
    del dropped[state]
    report = planner.verify_policy(planner.Policy(g, dropped))
    assert not report.closed and not report.ok

    # So does mapping a state to an action it cannot apply.
    inapplicable = [i for i in range(len(g.actions))
                    if not g.applicable(state, i)]
    if inapplicable:
        wrong = dict(policy.mapping)
        wrong[state] = data.draw(st.sampled_from(inapplicable))
        report = planner.verify_policy(planner.Policy(g, wrong))
        assert not report.closed and not report.ok

    # An action whose every outcome is the state itself only cycles.
    looping = [i for i in g.applicable_actions(state)
               if g.successors(state, i) == (state,)]
    if looping:
        stuck = dict(policy.mapping)
        stuck[state] = looping[0]
        report = planner.verify_policy(planner.Policy(g, stuck))
        assert report.closed
        assert not report.strong_cyclic and not report.ok
