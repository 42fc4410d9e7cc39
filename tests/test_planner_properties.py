"""Property tests over small random FOND tasks.

The tasks are propositional: up to eight nullary fluents and six
actions, with negative preconditions, `oneof` branches, `when` effects
and a random goal. The solver is checked against the reference solver in
`reference_planner`, on the tasks' own goals and on the goal product and
the compiled task of every temporal goal template; the model against a
direct reading of the effects and against its own state conversions;
`verify_policy` against policies mutated to be wrong; and the execution
enumerator against the reference enumerator in `reference_executions`,
on the tasks' own goals and on temporal goals compiled into them. Also
checked: the goal model read off the walk against the one reduced from
the enumerated executions; the on-the-fly goal product against the
compiled task, whose grounding must extend the goal-free one for its
policies to translate onto the product; the product's state cap against
the nodes a breadth-first search numbers; goals solved one after another
on one shared goal-free grounding against each goal solved alone; and a
recognition of a temporal or classical goal on the process's memoized
grounding against the same recognition on a fresh one.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_executions
import reference_planner
from tgr import compilation, executions, fond, logic, planner, recognizer
from tgr.budget import Budget
from tgr.errors import (CompileError, ExecutionCapError, PlannerCapError,
                        TgrError, UnsolvableError)


def _lit(lit):
    fluent, positive = lit
    return f"(p{fluent})" if positive else f"(not (p{fluent}))"


@st.composite
def fond_tasks(draw, nested=False):
    """PDDL text of a random task: (domain, problem).

    With `nested`, every `when` condition is one that does not flatten
    into a disjunction of literal conjunctions, `(not (and l l))` or
    `(and (or l l) (or l l))`, and every action has two or three `oneof`
    branches that each also guard a literal by one shared condition.
    """
    n = draw(st.integers(2, 8))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())

    def literals(lo, hi):
        return st.lists(literal, min_size=lo, max_size=hi,
                        unique_by=lambda lit: lit[0])

    if nested:
        condition = st.one_of(
            st.tuples(literal, literal).map(
                lambda c: f"(not (and {_lit(c[0])} {_lit(c[1])}))"),
            st.lists(literal, min_size=4, max_size=4).map(
                lambda c: f"(and (or {_lit(c[0])} {_lit(c[1])}) "
                          f"(or {_lit(c[2])} {_lit(c[3])}))"))
    else:
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
        if nested:
            shared = f"(when {draw(condition)} {_lit(draw(literal))})"
            branches = [f"(and {shared} {b})" for b in draw(
                st.lists(branch, min_size=2, max_size=3))]
        else:
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


def capped_solve(g, *, state_cap):
    """`planner.solve_strong_cyclic` in the reference solver's call form."""
    return planner.solve_strong_cyclic(g, budget=Budget(state_cap=state_cap))


def capped_executions(policy, aug, *, cap):
    """`executions.enumerate_executions` in the reference enumerator's
    call form."""
    return executions.enumerate_executions(
        policy, aug, budget=Budget(execution_cap=cap))


def outcome(solve, g, state_cap):
    """The policy a solver returns, or the type of error it raises."""
    try:
        return solve(g, state_cap=state_cap)
    except (UnsolvableError, PlannerCapError) as exc:
        return type(exc)


def assert_agrees_with_reference(g, cap):
    # The solver runs first, so on a goal product it fills the table.
    got = outcome(capped_solve, g, cap)
    expected = outcome(reference_planner.solve_strong_cyclic, g, cap)
    if isinstance(expected, type):
        assert got is expected
        return
    assert isinstance(got, planner.Policy)
    assert got.mapping == expected.mapping
    assert planner.policy_to_text(got) == planner.policy_to_text(expected)
    assert planner.verify_policy(got).ok


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12))
def test_solver_agrees_with_reference(task, small_cap):
    g = ground(task)
    for cap in (planner.DEFAULT_STATE_CAP, small_cap):
        assert_agrees_with_reference(g, cap)


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


def assert_model_matches_the_effects(g, data):
    drawn = data.draw(st.sets(st.integers(0, len(g.fluents) - 1)))
    state = g.state_of({g.fluents[i] for i in drawn})
    applicable = [i for i in range(len(g.actions)) if g.applicable(state, i)]
    assert g.applicable_actions(state) == applicable
    for ai in applicable:
        assert g.successors(state, ai) == reference_successors(g, state, ai)
    assert g.transitions(state) == [(ai, g.successors(state, ai))
                                    for ai in applicable]


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_model_matches_the_effects(task, data):
    assert_model_matches_the_effects(ground(task), data)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(nested=True), st.data())
def test_model_matches_the_effects_under_nested_conditions(task, data):
    g = ground(task)
    for schema in g.domain.actions:
        for branch in fond.effect_branches(schema.effect):
            assert any(fond._compile_condition(cond, g.fluent_index, "test")[0]
                       != "any" for cond, _ in branch)
    assert_model_matches_the_effects(g, data)


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
    state = data.draw(st.sampled_from(sorted(policy.mapping)))

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


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_state_model_round_trips(task, data):
    g = ground(task)
    drawn = data.draw(st.sets(st.integers(0, len(g.fluents) - 1)))
    atoms = frozenset(g.fluents[i] for i in drawn)
    state = g.state_of(atoms)
    assert g.atoms_of(state) == atoms
    assert g.state_of(g.atoms_of(state)) == state
    parts = g.state_str(state).split()
    assert parts == sorted(parts)
    assert g.state_str(state) == " ".join(
        sorted(fond.pddl_atom_str(a) for a in atoms))
    try:
        policy = planner.solve_strong_cyclic(g)
    except UnsolvableError:
        return
    back = planner.policy_from_text(planner.policy_to_text(policy), g)
    assert back.mapping == policy.mapping


def enumeration(enumerate_executions, policy, aug, cap):
    """The executions an enumerator returns, or the type and message of
    the error it raises."""
    try:
        return enumerate_executions(policy, aug, cap=cap)
    except TgrError as exc:
        return type(exc), str(exc)


def assert_same_enumeration(policy, aug, small_cap):
    for cap in (executions.DEFAULT_EXECUTION_CAP, small_cap):
        expected = enumeration(reference_executions.enumerate_executions,
                               policy, aug, cap)
        got = enumeration(capped_executions, policy, aug, cap)
        # Execution equality compares actions and trace; list equality
        # compares their order.
        assert got == expected


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_enumerator_agrees_with_reference(task, small_cap, data):
    g = ground(task)
    try:
        policy = planner.solve_strong_cyclic(g)
    except UnsolvableError:
        return
    assert_same_enumeration(policy, None, small_cap)
    if policy.mapping:
        # An open policy fails at the same state of the walk.
        dropped = dict(policy.mapping)
        del dropped[data.draw(st.sampled_from(sorted(dropped)))]
        assert_same_enumeration(planner.Policy(g, dropped), None, small_cap)


# Temporal goals over two fluents a and b, future (LTLf) and past (PLTLf).
TEMPORAL_GOALS = (
    lambda a, b: logic.eventually(a),
    lambda a, b: logic.eventually(logic.land(a, logic.next_(
        logic.eventually(b)))),
    lambda a, b: logic.land(logic.eventually(a), logic.eventually(b)),
    lambda a, b: logic.until(logic.lnot(a), b),
    lambda a, b: logic.land(logic.always(logic.lnot(a)), logic.eventually(b)),
    lambda a, b: logic.land(b, logic.once(a)),
    lambda a, b: logic.land(b, logic.since(logic.lnot(a), a)),
)


def draw_goal_atoms(domain, data):
    names = [p.name for p in domain.predicates]
    return [logic.atom(data.draw(st.sampled_from(names))) for _ in range(2)]


def draw_temporal_goal(domain, data):
    return data.draw(st.sampled_from(TEMPORAL_GOALS))(
        *draw_goal_atoms(domain, data))


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_goal_product_solver_agrees_with_reference(task, data):
    # At the default cap only: the solver does not expand the product
    # states whose automaton can no longer accept, so a small cap can stop
    # the reference, which expands them, and not the solver.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    a, b = draw_goal_atoms(domain, data)
    for template in TEMPORAL_GOALS:
        base = fond.ground(domain, dataclasses.replace(problem, goal=None))
        try:
            product = compilation.GoalProduct(base, template(a, b))
        except CompileError:
            continue
        assert_agrees_with_reference(product, planner.DEFAULT_STATE_CAP)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_compiled_task_solver_agrees_with_reference(task, data):
    # At the default cap only: the reference numbers the compiled task's
    # states, which the solver need not count the same way.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    a, b = draw_goal_atoms(domain, data)
    for template in TEMPORAL_GOALS:
        try:
            aug = compilation.compile_goal(domain, problem, template(a, b))
        except CompileError:
            continue
        assert_agrees_with_reference(aug.grounded, planner.DEFAULT_STATE_CAP)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_compiled_task_expansion_matches_the_plain_scan(task, data):
    # On both turns: a sync state, where only the sync action can apply,
    # and a domain state.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    a, b = draw_goal_atoms(domain, data)
    for template in TEMPORAL_GOALS:
        try:
            aug = compilation.compile_goal(domain, problem, template(a, b))
        except CompileError:
            continue
        g = aug.grounded
        turn = 1 << g.fluent_index[aug.turn_atom]
        drawn = data.draw(st.sets(st.integers(0, len(g.fluents) - 1)))
        state = g.state_of({g.fluents[i] for i in drawn})
        for s in (state & ~turn, state | turn):
            applicable = [i for i in range(len(g.actions))
                          if g.applicable(s, i)]
            assert g.applicable_actions(s) == applicable
            for ai in applicable:
                assert g.successors(s, ai) == reference_successors(g, s, ai)


def failure(solve, g, state_cap):
    """The type and message of the error a solver raises, or None."""
    try:
        solve(g, state_cap=state_cap)
    except (UnsolvableError, PlannerCapError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_solver_errors_match_the_reference_word_for_word(task, small_cap,
                                                          data):
    # The goal products at the default cap only, as in
    # test_goal_product_solver_agrees_with_reference.
    g = ground(task)
    for cap in (planner.DEFAULT_STATE_CAP, small_cap):
        assert (failure(capped_solve, g, cap)
                == failure(reference_planner.solve_strong_cyclic, g, cap))
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    a, b = draw_goal_atoms(domain, data)
    for template in TEMPORAL_GOALS:
        base = fond.ground(domain, dataclasses.replace(problem, goal=None))
        try:
            product = compilation.GoalProduct(base, template(a, b))
        except CompileError:
            continue
        cap = planner.DEFAULT_STATE_CAP
        assert (failure(capped_solve, product, cap)
                == failure(reference_planner.solve_strong_cyclic, product,
                           cap))


def numbered_nodes(product):
    """The product states a breadth-first search from s0 numbers: goal
    states and dead-automaton states are numbered but not expanded."""
    shift = len(product.base.fluents)
    queue, seen = [product.s0], {product.s0}
    for state in queue:
        if product.is_goal(state) or state >> shift in product.dfa.dead:
            continue
        for ai in range(len(product.actions)):
            if product.applicable(state, ai):
                for succ in product.successors(state, ai):
                    if succ not in seen:
                        seen.add(succ)
                        queue.append(succ)
    return len(queue)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.data())
def test_goal_product_state_cap_is_the_numbered_node_count(task, data):
    # Whatever order the solver numbers nodes in, it stops at the same
    # cap: a search that numbers N nodes passes at cap N and fails at
    # N - 1 (a lone initial node numbers nothing new, and fails at no cap).
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    a, b = draw_goal_atoms(domain, data)
    for template in TEMPORAL_GOALS:
        base = fond.ground(domain, dataclasses.replace(problem, goal=None))
        try:
            product = compilation.GoalProduct(base, template(a, b))
        except CompileError:
            continue
        if product.is_goal(product.s0):
            continue
        n = numbered_nodes(product)
        if n > 1:
            with pytest.raises(PlannerCapError):
                capped_solve(product, state_cap=n - 1)
        assert outcome(capped_solve, product, n) \
            is not PlannerCapError


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_enumerator_agrees_with_reference_on_compiled_goals(
        task, small_cap, data):
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    goal = draw_temporal_goal(domain, data)
    try:
        aug = compilation.compile_goal(domain, problem, goal)
        policy = planner.solve_strong_cyclic(aug.grounded)
    except (CompileError, UnsolvableError):
        return
    assert_same_enumeration(policy, aug, small_cap)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.booleans(), st.data())
def test_compiled_grounding_extends_the_goal_free_grounding(task, clash, data):
    # The translation of compiled policies onto the goal product relies on
    # this layout.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    if clash:
        # a domain predicate named q0 moves the automaton names to sync-
        domain = dataclasses.replace(domain, predicates=domain.predicates
                                     + (fond.PredicateSchema("q0", ()),))
    goal = draw_temporal_goal(domain, data)
    base = fond.ground(domain, dataclasses.replace(problem, goal=None))
    try:
        aug = compilation.compile_goal(domain, problem, goal)
    except CompileError:
        return
    assert (aug.prefix == "sync-") == clash
    g = aug.grounded
    n, m = len(base.fluents), len(base.actions)
    assert g.fluents[:n] == base.fluents
    assert g.fluents[n:] == aug.q_atoms + (aug.turn_atom,)
    assert [a.name for a in g.actions] == \
        [a.name for a in base.actions] + [f"({aug.sync_schema})"]


def execution_views(policy, aug, cap):
    """(actions, trace) of each execution, or the cap error's message."""
    try:
        return [(e.actions, e.trace) for e in
                capped_executions(policy, aug, cap=cap)]
    except ExecutionCapError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_goal_product_matches_the_compiled_task(task, small_cap, data):
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    goal = draw_temporal_goal(domain, data)
    base = fond.ground(domain, dataclasses.replace(problem, goal=None))
    try:
        aug = compilation.compile_goal(domain, problem, goal)
        compiled = planner.solve_strong_cyclic(aug.grounded)
    except (CompileError, UnsolvableError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            planner.solve_strong_cyclic(compilation.GoalProduct(base, goal))
        return
    product = planner.solve_strong_cyclic(compilation.GoalProduct(base, goal))
    # The compiled policy on the states where the turn fluent holds, each
    # mapped to (base state, automaton state).
    g = aug.grounded
    turn = 1 << g.fluent_index[aug.turn_atom]
    expected = {}
    for state, ai in compiled.mapping.items():
        if state & turn:
            atoms = g.atoms_of(state)
            (q,) = [i for i, a in enumerate(aug.q_atoms) if a in atoms]
            domain_atoms = atoms - set(aug.q_atoms) - {aug.turn_atom}
            key = base.state_of(domain_atoms) | q << len(base.fluents)
            expected[key] = g.actions[ai].name
    assert {state: base.actions[ai].name
            for state, ai in product.mapping.items()} == expected
    assert planner.verify_policy(product).ok
    for cap in (executions.DEFAULT_EXECUTION_CAP, small_cap):
        assert (execution_views(product, None, cap)
                == execution_views(compiled, aug, cap))


def goal_model(policy, cap):
    """`goal_model`'s result, or the type and message of its error."""
    try:
        return executions.goal_model(policy,
                                     budget=Budget(execution_cap=cap))
    except TgrError as exc:
        return type(exc), str(exc)


def reduced_executions(policy, cap):
    """The goal model reduced from the enumerated executions, or the type
    and message of the enumerator's error."""
    try:
        execs = capped_executions(policy, None, cap=cap)
    except TgrError as exc:
        return type(exc), str(exc)
    return (len(execs), executions.average_distances(execs),
            frozenset().union(*map(executions.order_relations, execs)))


def assert_same_goal_model(policy, small_cap):
    for cap in (executions.DEFAULT_EXECUTION_CAP, small_cap):
        # The distances are compared exactly: both divide integer totals.
        assert goal_model(policy, cap) == reduced_executions(policy, cap)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_goal_model_is_the_reduced_enumeration(task, small_cap, data):
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    base = fond.ground(domain, dataclasses.replace(problem, goal=None))
    models = [ground(task)]
    try:
        models.append(compilation.GoalProduct(
            base, draw_temporal_goal(domain, data)))
    except CompileError:
        pass
    for model in models:
        try:
            policy = planner.solve_strong_cyclic(model)
        except UnsolvableError:
            continue
        assert_same_goal_model(policy, small_cap)
        if policy.mapping:
            # An open policy fails at the same state of the walk.
            dropped = dict(policy.mapping)
            del dropped[data.draw(st.sampled_from(sorted(dropped)))]
            assert_same_goal_model(planner.Policy(model, dropped), small_cap)


def solve_over(base, goal, cap):
    """The policy mapping and goal model of `goal` over `base`, or the
    type and message of the error that stopped it."""
    try:
        policy = capped_solve(compilation.GoalProduct(base, goal),
                              state_cap=cap)
    except (CompileError, UnsolvableError, PlannerCapError) as exc:
        return type(exc), str(exc)
    return policy.mapping, goal_model(policy, executions.DEFAULT_EXECUTION_CAP)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_goals_on_a_shared_grounding_solve_as_if_alone(task, small_cap, data):
    # Goals read the transitions the goals before them stored in the
    # grounding, including those of a search its state cap aborted.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    goal_free = dataclasses.replace(problem, goal=None)
    runs = [(draw_temporal_goal(domain, data),
             data.draw(st.sampled_from((planner.DEFAULT_STATE_CAP,
                                        small_cap))))
            for _ in range(data.draw(st.integers(2, 3)))]
    alone = [solve_over(fond.ground(domain, goal_free), goal, cap)
             for goal, cap in runs]
    for order in (runs, runs[::-1]):
        shared = fond.ground(domain, goal_free)
        expected = alone if order is runs else alone[::-1]
        assert [solve_over(shared, goal, cap)
                for goal, cap in order] == expected


# Classical goals over the same two fluents.
PROPOSITIONAL_GOALS = (
    lambda a, b: a,
    lambda a, b: logic.land(a, logic.lnot(b)),
    lambda a, b: logic.lor(a, b),
)


def draw_goal(domain, data):
    """A temporal or a classical goal over two drawn fluents."""
    return data.draw(st.sampled_from(TEMPORAL_GOALS + PROPOSITIONAL_GOALS))(
        *draw_goal_atoms(domain, data))


def recognition(domain, problem, goal, cap):
    """The goal model `analyze` builds for `goal` alone, or the message of
    the cap error that stopped it."""
    rp = recognizer.RecognitionProblem(domain=domain, problem=problem,
                                       goals=(goal,), obs=())
    try:
        return recognizer.analyze(rp, budget=Budget(state_cap=cap)).models
    except PlannerCapError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(fond_tasks(), st.integers(1, 12), st.data())
def test_recognitions_after_others_match_a_cold_memo(task, small_cap, data):
    # The earlier recognitions of other goals, temporal or classical and
    # some stopped by a small state cap, fill the memoized grounding's
    # transition table.
    domain, problem = (fond.parse_domain(task[0]),
                       fond.parse_problem(task[1]))
    *earlier, (goal, cap) = [
        (draw_goal(domain, data),
         data.draw(st.sampled_from((planner.DEFAULT_STATE_CAP, small_cap))))
        for _ in range(data.draw(st.integers(2, 4)))]
    fond._memo_ground.cache_clear()
    cold = recognition(domain, problem, goal, cap)
    fond._memo_ground.cache_clear()
    for other, other_cap in earlier:
        recognition(domain, problem, other, other_cap)
    assert recognition(domain, problem, goal, cap) == cold
