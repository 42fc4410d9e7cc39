"""Execution enumeration and the distance/order statistics built on it."""

import dataclasses
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import reference_executions
import reference_planner
from tgr import bench, budget, compilation, executions, fond, logic, planner
from tgr.budget import Budget
from tgr.errors import (DeadlineExceeded, ExecutionCapError, PlannerCapError,
                        TgrError)

TIREWORLD = bench.bundled_dataset("triangle-tireworld")

FIG1 = sorted([
    ("(move 11 21)", "(move 21 22)"),
    ("(move 11 21)", "(changetire 21)", "(move 21 22)"),
])


def solved_f22():
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    aug = compilation.compile_goal(dom, prob,
                                   logic.parse_formula("F((vAt 22))"))
    return aug, planner.solve_strong_cyclic(aug.grounded)


def test_compiled_executions_match_the_short_detour():
    aug, policy = solved_f22()
    execs = executions.enumerate_executions(policy, aug)
    assert sorted(tuple(e.actions) for e in execs) == FIG1


def test_classical_executions_match_too():
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    policy = planner.solve_strong_cyclic(fond.ground(dom, prob))
    execs = executions.enumerate_executions(policy)
    assert sorted(tuple(e.actions) for e in execs) == FIG1


def test_trace_shape_and_projection():
    aug, policy = solved_f22()
    bookkeeping = set(aug.q_atoms) | {aug.turn_atom}
    for ex in executions.enumerate_executions(policy, aug):
        assert len(ex.trace) == len(ex.actions) + 1
        for state in ex.trace:
            assert not state & bookkeeping
        # the goal held at the end: position the formula claims
        assert logic.evaluate(aug.formula, ex.trace)


@pytest.mark.parametrize("goal", [
    "F((vAt 22))",
    "((vAt 22) & O((vAt 21)))",
    "F((vAt 21) & X(F((vAt 22))))",
])
@pytest.mark.parametrize("clash", [False, True])
def test_actions_are_the_raw_sequence_without_sync(goal, clash):
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    if clash:
        # a domain predicate named q0 pushes the automaton names to the
        # sync- prefix, so the sync action is (sync-trans)
        dom = fond.Domain(dom.name, dom.requirements, dom.types,
                          dom.predicates + (fond.PredicateSchema("q0", ()),),
                          dom.actions)
    aug = compilation.compile_goal(dom, prob, logic.parse_formula(goal))
    assert (aug.sync_schema == "sync-trans") == clash
    policy = planner.solve_strong_cyclic(aug.grounded)
    execs = executions.enumerate_executions(policy, aug)
    assert execs
    # the reference walks the compiled task itself, skipping the sync action
    assert execs == reference_executions.enumerate_executions(policy, aug)


def test_satisfying_trace_content():
    aug, policy = solved_f22()
    execs = executions.enumerate_executions(policy, aug)
    short = min(execs, key=lambda e: len(e.actions))
    where = [sorted(str(a) for a in v if a.predicate == "vAt")
             for v in short.trace]
    assert where == [["(vAt 11)"], ["(vAt 21)"], ["(vAt 22)"]]


def test_mismatched_policy_and_task():
    aug, _ = solved_f22()
    other_aug, other_policy = solved_f22()
    assert other_aug.grounded is not aug.grounded
    with pytest.raises(TgrError):
        executions.enumerate_executions(other_policy, aug)


def test_product_policy_uses_the_given_grounding_and_the_automaton():
    aug, policy = solved_f22()
    base = fond.ground(aug.base_domain, aug.base_problem)
    product = aug.product_policy(policy, base)
    assert product.grounded.base is base
    assert product.grounded.dfa is aug.dfa
    assert executions.enumerate_executions(product) == \
        executions.enumerate_executions(policy, aug)
    blocks = bench.bundled_dataset("blocks-world")
    other = fond.ground(fond.parse_domain(blocks.domain_text),
                        fond.parse_problem(blocks.problem_text))
    with pytest.raises(TgrError, match="base grounding"):
        aug.product_policy(policy, other)


def test_cap():
    aug, policy = solved_f22()
    with pytest.raises(ExecutionCapError):
        executions.enumerate_executions(policy, aug,
                                        budget=Budget(execution_cap=1))


def test_deadline():
    aug, policy = solved_f22()
    with pytest.raises(DeadlineExceeded, match="enumeration"):
        executions.enumerate_executions(
            policy, aug, budget=Budget(deadline=time.monotonic() - 1))
    assert executions.enumerate_executions(
        policy, aug, budget=Budget(deadline=time.monotonic() + 60)) == \
        executions.enumerate_executions(policy, aug)


def test_cyclic_policy_terminates_with_no_executions():
    # a live-locked policy has no goal-reaching path; the visit bound
    # keeps the walk finite
    blocks = bench.bundled_dataset("blocks-world")
    g = fond.ground(fond.parse_domain(blocks.domain_text),
                    fond.parse_problem(blocks.problem_text))
    pick = g.action_index["(pick-up-from-table b3)"]
    put = g.action_index["(put-down b3)"]
    holding = [s for s in g.successors(g.s0, pick) if s != g.s0][0]
    policy = planner.Policy(g, {g.s0: pick, holding: put})
    assert executions.enumerate_executions(policy) == []


def test_open_policy_is_reported():
    aug, policy = solved_f22()
    broken = planner.Policy(aug.grounded, dict(policy.mapping))
    victim = next(s for s in broken.mapping if s != aug.grounded.s0)
    del broken.mapping[victim]
    with pytest.raises(TgrError):
        executions.enumerate_executions(broken, aug)


def test_average_distances():
    aug, policy = solved_f22()
    execs = executions.enumerate_executions(policy, aug)
    d = executions.average_distances(execs)
    assert d["(move 11 21)"] == pytest.approx(1.5)
    assert d["(changetire 21)"] == pytest.approx(1.0)
    assert d["(move 21 22)"] == pytest.approx(0.0)
    assert "(move 21 31)" not in d


def test_order_relations():
    ex = executions.Execution(("a", "b", "c"), (frozenset(),) * 4)
    assert executions.order_relations(ex) == frozenset(
        {("a", "b"), ("a", "c"), ("b", "c")})
    empty = executions.Execution((), (frozenset(),))
    assert executions.order_relations(empty) == frozenset()


class Model:
    """A hand-made state model: every action of a state leads to
    `outcomes(state)`; state 0 is initial and `goal` the goal state."""

    def __init__(self, names, outcomes, goal):
        self.actions = tuple(SimpleNamespace(name=n) for n in names)
        self.outcomes, self.goal_state = outcomes, goal
        self.s0, self.goal = 0, None

    def successors(self, state, action):
        return self.outcomes(state)

    def is_goal(self, state):
        return state == self.goal_state

    def atoms_of(self, state):
        return frozenset()

    def state_str(self, state):
        return str(state)


class GoalSetModel(Model):
    """`Model` whose goal is a set of states."""

    def is_goal(self, state):
        return state in self.goal_state


def reduced(execs):
    return (len(execs), executions.average_distances(execs),
            frozenset().union(*map(executions.order_relations, execs)))


def test_goal_model_of_an_execution_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    chain = Model(["(step0)", "(step1)", "(step2)"], lambda s: (s + 1,), n)
    policy = planner.Policy(chain, {i: i % 3 for i in range(n)})
    (ex,) = executions.enumerate_executions(policy)
    assert len(ex.actions) == n
    assert executions.goal_model(policy) == reduced([ex])


def test_goal_model_ignores_paths_cut_by_the_visit_bound():
    # (a) reaches the goal 2 or state 1, whose (b) returns to 0. The path
    # a b a b enters 0 a third time and is cut, so no execution orders
    # (b) before (b).
    loop = Model(["(a)", "(b)"], {0: (1, 2), 1: (0,)}.__getitem__, 2)
    policy = planner.Policy(loop, {0: 0, 1: 1})
    execs = executions.enumerate_executions(policy)
    assert [e.actions for e in execs] == [("(a)", "(b)", "(a)"), ("(a)",)]
    model = executions.goal_model(policy)
    assert model == reduced(execs)
    assert ("(b)", "(b)") not in model[2]


@st.composite
def explicit_policies(draw):
    """A closed policy of a random explicit model: up to nine states,
    state 0 initial, a random set of goal states, one to three action
    names shared across states, and per non-goal state an ordered list of
    distinct outcomes. The policy need not reach a goal."""
    n = draw(st.integers(1, 9))
    names = [f"(a{k})" for k in range(draw(st.integers(1, 3)))]
    goals = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=3)))
    outcomes = {s: tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=3, unique=True)))
                for s in range(n) if s not in goals}
    mapping = {s: draw(st.integers(0, len(names) - 1)) for s in outcomes}
    return planner.Policy(GoalSetModel(names, outcomes.__getitem__, goals),
                          mapping)


def model_or_error(build):
    try:
        return build()
    except TgrError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(explicit_policies(), st.integers(1, 12), st.integers(0, 8))
def test_goal_model_is_the_reduced_reference_enumeration(policy, small_cap,
                                                         drop):
    # The policy as drawn, and an open one: the same with one state's
    # action dropped.
    policies = [policy]
    if policy.mapping:
        mapping = dict(policy.mapping)
        del mapping[sorted(mapping)[drop % len(mapping)]]
        policies.append(planner.Policy(policy.grounded, mapping))
    for pol in policies:
        for cap in (executions.DEFAULT_EXECUTION_CAP, small_cap):
            listed = model_or_error(
                lambda: reference_executions.enumerate_executions(pol,
                                                                  cap=cap))
            capped = Budget(execution_cap=cap)
            assert model_or_error(lambda: executions.enumerate_executions(
                pol, budget=capped)) == listed
            expected = reduced(listed) if type(listed) is list else listed
            assert model_or_error(
                lambda: executions.goal_model(pol, budget=capped)) == expected


def test_an_open_state_met_late_fails_at_the_cap_or_where_it_is_met():
    # From 0 the policy's first outcome leads down the chain 1..6, where
    # every state may reach a goal, so six goal paths are walked before
    # the walk backs up to 0's second outcome, 7, which has no action.
    model = GoalSetModel(["(a)"], {0: (1, 7), 6: (15,), **{
        s: (s + 9, s + 1) for s in range(1, 6)}}.__getitem__,
        frozenset(range(10, 16)))
    policy = planner.Policy(model, dict.fromkeys(range(7), 0))
    for count in (executions.enumerate_executions, executions.goal_model):
        with pytest.raises(ExecutionCapError, match="more than 5 "):
            count(policy, budget=Budget(execution_cap=5))
        with pytest.raises(TgrError,
                           match="^policy is not closed: no action for 7$"):
            count(policy)


def test_goal_model_checks_its_deadline_during_the_count(monkeypatch):
    # A chain of 300 states is 300 states to number and 299
    # configurations after the initial one: 599 expansions. The clock
    # passes the deadline right after its reading at the start, so the
    # count must read it again, and raise, at expansion 512.
    chain = Model(["(step)"], lambda s: (s + 1,), 300)
    policy = planner.Policy(chain, dict.fromkeys(range(300), 0))
    readings = []

    def clock():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 2.0

    monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(DeadlineExceeded, match="enumeration deadline"):
        executions.goal_model(policy, budget=Budget(deadline=1.0))
    assert len(readings) == 2


def test_goal_model_stops_at_the_cap_no_later_than_the_walk(monkeypatch):
    # A 24-state ring: each state steps to the next or the one after, and
    # every third state may also reach the goal. Its raw paths exceed the
    # default cap, and the count must find that out with no more work
    # than the walk: the clock is read once per 512 steps of the walk and
    # once per 512 expansions of the count, and never passes the deadline.
    n = 24
    ring = Model(["(step)"], lambda s: ((s + 1) % n, (s + 2) % n)
                 + ((n,) if s % 3 == 2 else ()), n)
    policy = planner.Policy(ring, dict.fromkeys(range(n), 0))
    readings = []
    monkeypatch.setattr(budget, "time", SimpleNamespace(
        monotonic=lambda: readings.append(None) or 0.0))
    with pytest.raises(ExecutionCapError):
        executions.enumerate_executions(policy,
                                        budget=Budget(deadline=1.0))
    walked = len(readings)
    readings.clear()
    with pytest.raises(ExecutionCapError, match="more than 10000"):
        executions.goal_model(policy, budget=Budget(deadline=1.0))
    assert len(readings) <= walked


class ArbitraryModel(GoalSetModel):
    """`GoalSetModel` whose actions have their own outcomes, given by
    `outcomes((state, action))`, and apply only where `usable[state]`
    holds them."""

    def __init__(self, names, outcomes, goal, usable):
        super().__init__(names, outcomes, goal)
        self.usable = usable

    def applicable(self, state, action):
        return action in self.usable[state]

    def successors(self, state, action):
        assert self.applicable(state, action), "asked past applicability"
        return self.outcomes((state, action))


@st.composite
def arbitrary_policies(draw):
    """A policy of a random `ArbitraryModel` of up to nine states. Half
    the policies map every non-goal state to an action it can apply; the
    rest map any states, goals included, to any actions, so they may be
    open or map inapplicable actions."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 3))
    names = [f"(a{j})" for j in range(k)]
    goals = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=3)))
    state = st.integers(0, n - 1)
    outcomes = {(s, a): tuple(draw(st.lists(state, min_size=1, max_size=3,
                                            unique=True)))
                for s in range(n) for a in range(k)}
    usable = [draw(st.sets(st.integers(0, k - 1))) for _ in range(n)]
    if draw(st.booleans()):
        mapping = {}
        for s in range(n):
            if s not in goals:
                mapping[s] = draw(st.integers(0, k - 1))
                usable[s].add(mapping[s])
    else:
        mapping = draw(st.dictionaries(state, st.integers(0, k - 1)))
    return planner.Policy(ArbitraryModel(names, outcomes.__getitem__, goals,
                                         usable), mapping)


@settings(max_examples=200, deadline=None)
@given(arbitrary_policies())
def test_verify_policy_reports_as_the_breadth_first_reference(policy):
    expected = reference_planner.verify_policy(policy)
    assert planner.verify_policy(policy) == expected
    assert planner.verify_policy(policy) == expected  # with the kept graph
    if expected.ok:
        # The graph the check kept counts as one built afresh.
        fresh = planner.Policy(policy.grounded, dict(policy.mapping))
        assert model_or_error(lambda: executions.goal_model(policy)) == \
            model_or_error(lambda: executions.goal_model(fresh))


def test_a_verified_graph_is_not_read_once_the_mapping_changes():
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    product = compilation.GoalProduct(fond.goal_free_grounding(dom, prob),
                                      logic.parse_formula("F((vAt 22))"))
    policy = planner.solve_strong_cyclic(product)
    verified = executions.goal_model(policy)
    state = next(s for s in policy.mapping if s != product.s0)
    other = next(a for a in range(len(product.actions))
                 if a != policy.mapping[state] and product.applicable(state, a))

    def answers(pol):
        return (model_or_error(lambda: executions.goal_model(pol)),
                model_or_error(lambda: executions.enumerate_executions(pol)))

    policy.mapping[state] = other  # another action
    changed = answers(policy)
    assert changed == answers(planner.Policy(product, dict(policy.mapping)))
    assert planner.verify_policy(policy) == \
        reference_planner.verify_policy(policy)
    del policy.mapping[state]  # no action: the policy is open
    opened = answers(policy)
    assert opened == answers(planner.Policy(product, dict(policy.mapping)))
    assert planner.verify_policy(policy) == \
        reference_planner.verify_policy(policy)
    assert opened[0][0] is TgrError
    assert verified not in (changed[0], opened[0])


def _chain_policy(n, branch=False):
    """A policy that steps from state 0 through states 1 .. n - 1 to the
    goal n; with `branch`, state 0 may also step first to state n + 1,
    which the policy does not map."""
    model = ArbitraryModel(
        ["(step)"], lambda pair: ((n + 1, 1) if branch and pair[0] == 0
                                  else (pair[0] + 1,)),
        frozenset({n}), [{0}] * (n + 2))
    return planner.Policy(model, dict.fromkeys(range(n), 0))


def _initial_goal():
    """The empty policy of a model whose s0 is its goal."""
    return planner.Policy(GoalSetModel(["(a)"], None, frozenset({0})), {})


def _tireworld_base():
    return fond.ground(fond.parse_domain(TIREWORLD.domain_text),
                       fond.parse_problem(TIREWORLD.problem_text))


def _f22_product():
    base = _tireworld_base()
    return compilation.GoalProduct(
        fond.ground(base.domain, dataclasses.replace(base.problem, goal=None)),
        logic.parse_formula("F((vAt 22))"))


def _external(command, deadline):
    g = _tireworld_base()
    return planner.solve_with_external(
        command, g, fond.domain_to_pddl(g.domain),
        fond.problem_to_pddl(g.problem), budget=Budget(deadline=deadline))


def _expired():
    return Budget(deadline=time.monotonic() - 1)


# Each message a deadline or a cap raises, by the stage that raises it.
# The chain policy's verification reads the clock at its 512th state,
# also when the policy is open at its second.
@pytest.mark.parametrize("error, message, run", [
    (DeadlineExceeded, "planner deadline exceeded",
     lambda: planner.solve_strong_cyclic(_tireworld_base(),
                                         budget=_expired())),
    (DeadlineExceeded, "planner deadline exceeded",
     lambda: planner.solve_strong_cyclic(_f22_product(), budget=_expired())),
    (DeadlineExceeded, "planner deadline exceeded",
     lambda: planner.verify_policy(_chain_policy(600), budget=_expired())),
    (DeadlineExceeded, "planner deadline exceeded",
     lambda: planner.verify_policy(_chain_policy(600, branch=True),
                                   budget=_expired())),
    (DeadlineExceeded, "execution enumeration deadline exceeded",
     lambda: executions.enumerate_executions(
         planner.solve_strong_cyclic(_f22_product()), budget=_expired())),
    (DeadlineExceeded, "execution enumeration deadline exceeded",
     lambda: executions.goal_model(
         planner.solve_strong_cyclic(_f22_product()), budget=_expired())),
    (DeadlineExceeded, "external planner exceeded its deadline",
     lambda: _external(
         f"{sys.executable} -c \"__import__('time').sleep(30)\"",
         time.monotonic() + 0.2)),
    (PlannerCapError, "reachable state space exceeded 2 states",
     lambda: planner.solve_strong_cyclic(_tireworld_base(),
                                         budget=Budget(state_cap=2))),
    (PlannerCapError, "reachable state space exceeded 2 states",
     lambda: planner.solve_strong_cyclic(_f22_product(),
                                         budget=Budget(state_cap=2))),
    (ExecutionCapError, "policy has more than 1 goal-reaching paths",
     lambda: executions.enumerate_executions(
         planner.solve_strong_cyclic(_f22_product()),
         budget=Budget(execution_cap=1))),
    (ExecutionCapError, "policy has more than 1 goal-reaching paths",
     lambda: executions.goal_model(
         planner.solve_strong_cyclic(_f22_product()),
         budget=Budget(execution_cap=1))),
    (ExecutionCapError, "policy has more than 0 goal-reaching paths",
     lambda: executions.enumerate_executions(
         _initial_goal(), budget=Budget(execution_cap=0))),
    (ExecutionCapError, "policy has more than 0 goal-reaching paths",
     lambda: executions.goal_model(_initial_goal(),
                                   budget=Budget(execution_cap=0))),
], ids=["grounding-deadline", "product-deadline", "verify-deadline",
        "open-verify-deadline", "walk-deadline", "count-deadline",
        "external-deadline", "grounding-cap", "product-cap", "walk-cap",
        "count-cap", "initial-goal-walk-cap", "initial-goal-count-cap"])
def test_deadline_and_cap_messages_are_pinned(error, message, run):
    with pytest.raises(error) as raised:
        run()
    assert str(raised.value) == message


def _counted_chain(n, last):
    """A policy that steps from state 0 through states 1 .. n - 1, whose
    last state is unmapped or steps to itself, and a list that holds a
    state each time the model's successors are asked for there."""
    asked = []

    def outcomes(pair):
        asked.append(pair[0])
        return (pair[0] + 1 if pair[0] < n - 1 else n - 1,)

    model = ArbitraryModel(["(step)"], outcomes, frozenset({n}), [{0}] * n)
    mapping = dict.fromkeys(range(n - 1 if last == "open" else n), 0)
    return planner.Policy(model, mapping), asked


@pytest.mark.parametrize("last", ["open", "trapped"])
def test_a_failing_policy_reads_each_state_once(last):
    # The check fails at the deepest state, the last one numbered depth
    # first, and reports from the graph it numbered.
    policy, asked = _counted_chain(50, last)
    report = planner.verify_policy(policy)
    assert asked == sorted(policy.mapping)
    assert report == reference_planner.verify_policy(policy)
    assert report.counterexample == (49 if last == "open" else 0)
