"""Strong-cyclic policy synthesis, verification, and the external protocol."""

import dataclasses
import hashlib
import subprocess
import sys
import textwrap
import time
from array import array
from types import SimpleNamespace

import pytest

from tgr import (bench, budget, compilation, executions, fond, logic,
                 planner)
from tgr.budget import Budget
from tgr.errors import (DeadlineExceeded, ExternalPlannerError,
                        InapplicableActionError, PlannerCapError,
                        PolicyParseError, UnsolvableError)

TIREWORLD = bench.bundled_dataset("triangle-tireworld")
BLOCKS = bench.bundled_dataset("blocks-world")


def grounded_tireworld(problem_text=None):
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(problem_text or TIREWORLD.problem_text)
    return fond.ground(dom, prob)


def test_tireworld_policy_is_the_short_detour():
    g = grounded_tireworld()
    policy = planner.solve_strong_cyclic(g)
    actions = sorted(g.actions[i].name for i in policy.mapping.values())
    assert actions == ["(changetire 21)", "(move 11 21)",
                       "(move 21 22)", "(move 21 22)"]
    report = planner.verify_policy(policy)
    assert report.ok and report.closed and report.strong_cyclic


def test_unsolvable_raises():
    spec = bench.bundled_text("triangle-tireworld", "trap.pddl")
    g = grounded_tireworld(spec)
    with pytest.raises(UnsolvableError):
        planner.solve_strong_cyclic(g)
    with pytest.raises(UnsolvableError) as err:
        planner.solve_strong_cyclic(goal_free_tireworld())
    assert str(err.value) == "planning task has no goal"


def test_state_cap():
    g = grounded_tireworld()
    with pytest.raises(PlannerCapError):
        planner.solve_strong_cyclic(g, budget=Budget(state_cap=2))


def test_a_search_that_numbers_no_goal_is_capped_before_it_is_unsolvable():
    # Blocks-world p01 without its goal: no state has b1 on b2 and b2 on
    # b1, and both searches number all 125 reachable states.
    base = fond.ground(fond.parse_domain(BLOCKS.domain_text),
                       dataclasses.replace(
                           fond.parse_problem(BLOCKS.problem_text),
                           goal=None))
    goal = "on_b1_b2 & on_b2_b1"
    models = (lambda: compilation.GoalProduct(
                  base, logic.parse_formula(f"F({goal})")),
              lambda: base.with_goal(logic.parse_formula(goal)))
    for model in models:
        with pytest.raises(PlannerCapError,
                           match="^reachable state space exceeded 124 states$"):
            planner.solve_strong_cyclic(model(),
                                        budget=Budget(state_cap=124))
        with pytest.raises(UnsolvableError, match=(
                "^no strong-cyclic policy: the initial state was pruned$")):
            planner.solve_strong_cyclic(model(),
                                        budget=Budget(state_cap=125))


def test_deadline_checked_during_search():
    g = grounded_tireworld()
    with pytest.raises(DeadlineExceeded):
        planner.solve_strong_cyclic(
            g, budget=Budget(deadline=time.monotonic() - 1.0))


def goal_free_tireworld():
    g = grounded_tireworld()
    return fond.ground(g.domain, dataclasses.replace(g.problem, goal=None))


def test_deadline_checked_during_product_search():
    product = compilation.GoalProduct(goal_free_tireworld(),
                                      logic.parse_formula("F((vAt 22))"))
    with pytest.raises(DeadlineExceeded):
        planner.solve_strong_cyclic(
            product, budget=Budget(deadline=time.monotonic() - 1.0))


def counted_transitions(monkeypatch):
    """The states `GroundedFond.transitions` expands from now on."""
    calls = []

    def counting(self, state, transitions=fond.GroundedFond.transitions):
        calls.append(state)
        return transitions(self, state)

    monkeypatch.setattr(fond.GroundedFond, "transitions", counting)
    return calls


def deadline_after(calls, expansions, monkeypatch):
    """A budget whose deadline passes once more than `expansions` states
    are in `calls`, read through the budget's clock."""
    monkeypatch.setattr(budget, "time", SimpleNamespace(
        monotonic=lambda: 2.0 if len(calls) > expansions else 0.0))
    return Budget(deadline=1.0)


def six_blocks(goal=None):
    """Six blocks on the table, with `goal` as a classical goal, or
    goal-free."""
    base = fond.ground(fond.parse_domain(BLOCKS.domain_text),
                       fond.parse_problem(blocks_problem_text(6)))
    return base if goal is None else base.with_goal(
        logic.parse_formula(goal))


def test_deadline_checked_while_a_grounding_is_numbered(monkeypatch):
    # The classical goal expands 6 945 states, in breadth-first levels
    # that end after 3 783 and 5 547 of them. The deadline passes in the
    # middle of that level, and the search notices within 512 further
    # expansions, not only once per level or fixpoint round.
    calls = counted_transitions(monkeypatch)
    grounded = six_blocks("on_b1_b2 & on_b3_b1")
    with pytest.raises(DeadlineExceeded, match="^planner deadline exceeded$"):
        planner.solve_strong_cyclic(
            grounded, budget=deadline_after(calls, 3800, monkeypatch))
    assert 3800 < len(calls) <= 3800 + 512
    # The states expanded before the deadline stay in the table.
    stopped = len(calls)
    calls.clear()
    planner.solve_strong_cyclic(grounded)
    assert len(calls) == 6945 - stopped
    calls.clear()
    planner.solve_strong_cyclic(six_blocks("on_b1_b2 & on_b3_b1"))
    assert len(calls) == 6945


def test_deadline_checked_while_a_product_level_is_expanded(monkeypatch):
    # The goal product expands the same levels of the goal-free grounding.
    calls = counted_transitions(monkeypatch)
    product = compilation.GoalProduct(
        six_blocks(), logic.parse_formula("F(on_b1_b2 & X(F(on_b3_b1)))"))
    with pytest.raises(DeadlineExceeded, match="^planner deadline exceeded$"):
        planner.solve_strong_cyclic(
            product, budget=deadline_after(calls, 3800, monkeypatch))
    assert 3800 < len(calls) <= 3800 + 512


def test_compiled_goals_are_solved_on_the_shared_goal_free_grounding(
        monkeypatch):
    # A compiled temporal goal is solved as its goal product, whose search
    # checks the deadline before it expands a level, and expands each
    # state of the process's goal-free grounding once for every goal: the
    # compiled task itself has 3 084 non-goal states.
    domain = fond.parse_domain(BLOCKS.domain_text)
    problem = fond.parse_problem(blocks_problem_text(5))
    first, second = (compilation.compile_goal(domain, problem,
                                              logic.parse_formula(goal))
                     for goal in ("F(on_b1_b2 & X(F(on_b3_b1)))",
                                  "F(on_b2_b1 & X(F(on_b1_b3)))"))
    fond._memo_ground.cache_clear()
    calls = counted_transitions(monkeypatch)
    with pytest.raises(DeadlineExceeded, match="^planner deadline exceeded$"):
        planner.solve_strong_cyclic(
            first.grounded, budget=Budget(deadline=time.monotonic() - 1.0))
    assert calls == []
    planner.solve_strong_cyclic(first.grounded)
    assert len(calls) == 847
    calls.clear()
    planner.solve_strong_cyclic(second.grounded)
    assert len(calls) == 19
    # A classical goal on the compiled grounding has no automaton.
    assert first.grounded.with_goal(
        logic.parse_formula("on_b1_b2")).compiled_goal is None


def test_single_use_models_hold_no_transition_table():
    # A compiled temporal goal is solved as its goal product, whose
    # transitions the process's shared goal-free grounding keeps: the
    # compiled grounding keeps none of its own.
    g = grounded_tireworld()
    aug = compilation.compile_goal(g.domain, g.problem,
                                   logic.parse_formula("F((vAt 22))"))
    planner.solve_strong_cyclic(aug.grounded)
    assert "transition_table" not in vars(aug.grounded)
    assert len(fond.goal_free_grounding(
        g.domain, g.problem).transition_table.states) > 1


def test_classical_goals_are_solved_on_the_shared_goal_free_grounding(
        monkeypatch):
    # A classical goal's `with_goal` copy searches the table of the
    # goal-free grounding it was made from, so a second goal expands only
    # the states that the first did not.
    domain = fond.parse_domain(BLOCKS.domain_text)
    problem = fond.parse_problem(blocks_problem_text(5))
    first, second = map(logic.parse_formula, ("on_b1_b2 & on_b3_b1",
                                              "on_b2_b1 & on_b1_b3"))
    calls = counted_transitions(monkeypatch)
    planner.solve_strong_cyclic(
        fond.ground(domain, problem).with_goal(second))
    alone = set(calls)
    calls.clear()
    base = fond.goal_free_grounding(domain, problem)
    planner.solve_strong_cyclic(base.with_goal(first))
    before = set(calls)
    calls.clear()
    policy = planner.solve_strong_cyclic(base.with_goal(second))
    assert len(calls) == len(set(calls)) and set(calls) == alone - before
    assert 0 < len(calls) < len(alone)
    assert planner.policy_to_text(policy) == planner.policy_to_text(
        planner.solve_strong_cyclic(
            fond.ground(domain, problem).with_goal(second)))


def test_a_compiled_solve_checks_one_policy(monkeypatch):
    # The lift reads the body's choices at the product's nodes, so only
    # the compiled task's own policy is extracted and checked.
    checked = []

    def counting(policy, *, budget=Budget(), verify=planner.verify_policy):
        checked.append(policy.grounded)
        return verify(policy, budget=budget)

    monkeypatch.setattr(planner, "verify_policy", counting)
    g = grounded_tireworld()
    aug = compilation.compile_goal(g.domain, g.problem,
                                   logic.parse_formula("F((vAt 22))"))
    planner.solve_strong_cyclic(aug.grounded)
    assert checked == [aug.grounded]


def test_goal_products_fill_only_their_base_table():
    base, other = goal_free_tireworld(), goal_free_tireworld()
    goal = logic.parse_formula("F((vAt 22))")
    product = compilation.GoalProduct(base, goal)
    planner.solve_strong_cyclic(product)
    with pytest.raises(InapplicableActionError, match="not applicable"):
        product.successors(product.s0, base.action_index["(move 22 23)"])
    table = base.transition_table
    filled = len(table.states)
    assert filled and "transition_table" not in vars(other)
    # A second goal reads the same table, and so does a classical copy.
    planner.solve_strong_cyclic(compilation.GoalProduct(
        base, logic.parse_formula("F((vAt 21))")))
    assert base.transition_table is table and len(table.states) >= filled
    assert base.with_goal(
        logic.parse_formula("(vAt 22)")).transition_table is table



def test_goal_products_are_verified_without_the_transition_table():
    # The verifier and the executions step the product's own grounding,
    # so a policy is checked independently of the table the solver read.
    base = goal_free_tireworld()
    product = compilation.GoalProduct(base, logic.parse_formula("F(vAt_33)"))
    policy = planner.solve_strong_cyclic(product)
    want = executions.goal_model(policy)
    target = base.transition_table.target
    target[:] = array("i", bytes(target.itemsize * len(target)))
    fresh = planner.Policy(product, dict(policy.mapping))
    assert planner.verify_policy(fresh).ok
    assert executions.goal_model(fresh) == want


def test_a_classical_goal_keeps_its_letters_on_the_table(monkeypatch):
    # A second solve of the same classical goal on the warm table reads
    # the goal's letters off the table: its goal tests are the solver's
    # test of s0 and the verifier's own.
    base = goal_free_tireworld()
    goal = logic.parse_formula("(vAt 33)")
    planner.solve_strong_cyclic(base.with_goal(goal))
    tested = []

    def counting(self, state, is_goal=fond.GroundedFond.is_goal):
        tested.append(state)
        return is_goal(self, state)

    monkeypatch.setattr(fond.GroundedFond, "is_goal", counting)
    policy = planner.solve_strong_cyclic(base.with_goal(goal))
    graph = policy._verified[1]
    assert len(tested) == 1 + len(graph[4]) + len(graph[5]) == 39

SINK_DOMAIN = """(define (domain sink) (:requirements :negative-preconditions)
  (:predicates (a) (b) (c))
  (:action set-a :parameters () :precondition (and (not (a)) (not (b)))
   :effect (a))
  (:action set-c :parameters () :precondition (and (a)) :effect (c))
  (:action set-b :parameters () :precondition (and (not (a))) :effect (b)))
"""


def test_goal_products_expand_no_state_of_the_rejecting_sink(monkeypatch):
    # Under !a U b, setting a before b enters the automaton's rejecting
    # sink: {a} is numbered but never expanded, so {a, c}, which only {a}
    # leads to, is not even met.
    domain = fond.parse_domain(SINK_DOMAIN)
    problem = fond.parse_problem("(define (problem p) (:domain sink) (:init))")
    base = fond.ground(domain, problem)
    expanded = []
    transitions = base.transitions

    def recording(state):
        expanded.append(state)
        return transitions(state)

    monkeypatch.setattr(base, "transitions", recording)
    product = compilation.GoalProduct(base, logic.parse_formula("!(a) U (b)"))
    assert product.dfa.dead
    policy = planner.solve_strong_cyclic(product, budget=Budget(state_cap=3))
    assert expanded == [base.s0]
    a, c = (base.state_of({logic.Atom(name, ())}) for name in "ac")
    assert a in base.transition_table.states
    assert a | c not in base.transition_table.states
    assert {base.actions[ai].name for ai in policy.mapping.values()} == \
        {"(set-b)"}
    with pytest.raises(PlannerCapError):
        planner.solve_strong_cyclic(product, budget=Budget(state_cap=2))


def blocks_cycle_policy():
    """A policy that shuttles b3 between table and hand forever.

    Closed (both reachable states are mapped and every outcome stays
    inside them) but the goal (on b1 b2) is never reached.
    """
    dom = fond.parse_domain(BLOCKS.domain_text)
    prob = fond.parse_problem(BLOCKS.problem_text)
    g = fond.ground(dom, prob)
    pick = g.action_index["(pick-up-from-table b3)"]
    put = g.action_index["(put-down b3)"]
    holding = [s for s in g.successors(g.s0, pick) if s != g.s0]
    assert len(holding) == 1
    return g, planner.Policy(g, {g.s0: pick, holding[0]: put})


def test_verify_detects_a_live_lock():
    _, policy = blocks_cycle_policy()
    report = planner.verify_policy(policy)
    assert report.closed
    assert not report.strong_cyclic
    assert not report.ok
    assert report.counterexample is not None


def test_verify_detects_an_open_policy():
    g, policy = blocks_cycle_policy()
    del policy.mapping[next(s for s in policy.mapping if s != g.s0)]
    report = planner.verify_policy(policy)
    assert not report.closed
    assert not report.ok
    assert report.counterexample is not None


def test_policy_text_round_trip():
    g = grounded_tireworld()
    policy = planner.solve_strong_cyclic(g)
    text = planner.policy_to_text(policy)
    back = planner.policy_from_text(text, g)
    assert back.mapping == policy.mapping
    # comment and blank lines are skipped
    back = planner.policy_from_text("# a comment\n\n" + text, g)
    assert back.mapping == policy.mapping
    # unknown action names and unknown fluents are rejected
    with pytest.raises(PolicyParseError):
        planner.policy_from_text("(vAt 11)\t(teleport 11 51)\n", g)
    with pytest.raises(PolicyParseError):
        planner.policy_from_text("(warp 3)\t(move 11 21)\n", g)
    with pytest.raises(PolicyParseError):
        planner.policy_from_text("no tab here\n", g)
    with pytest.raises(PolicyParseError) as err:
        planner.policy_from_text("(vAt 11) ()\t(move 11 21)\n", g)
    assert str(err.value) == "empty atom in '(vAt 11) ()'"


def test_policy_text_round_trip_with_the_empty_state():
    # The empty state's line is "\t(action)": the leading tab must
    # survive parsing.
    g = fond.ground(
        fond.parse_domain("(define (domain d) (:predicates (p)) "
                          "(:action a :parameters () :precondition (and) "
                          ":effect (p)))"),
        fond.parse_problem("(define (problem q) (:domain d) (:init) "
                           "(:goal (p)))"))
    policy = planner.solve_strong_cyclic(g)
    text = planner.policy_to_text(policy)
    assert text == "\t(a)\n"
    assert planner.policy_from_text(text, g).mapping == policy.mapping


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return f"{sys.executable} {path}"


# An external planner that runs the builtin one.
BUILTIN_SCRIPT = """
    import sys
    from tgr import fond, planner
    dom = fond.parse_domain(open(sys.argv[1]).read())
    prob = fond.parse_problem(open(sys.argv[2]).read())
    policy = planner.solve_strong_cyclic(fond.ground(dom, prob))
    sys.stdout.write(planner.policy_to_text(policy))
    """


def test_external_planner_round_trip(tmp_path):
    g = grounded_tireworld()
    command = write_script(tmp_path, "ok.py", BUILTIN_SCRIPT)
    policy = planner.solve_with_external(
        command, g, fond.domain_to_pddl(g.domain),
        fond.problem_to_pddl(g.problem))
    assert planner.verify_policy(policy).ok


def test_external_planner_command_is_split_as_a_shell_line(tmp_path):
    g = grounded_tireworld()
    texts = (fond.domain_to_pddl(g.domain), fond.problem_to_pddl(g.problem))
    plain = write_script(tmp_path, "ok.py", BUILTIN_SCRIPT)
    spaced = tmp_path / "dir with space"
    spaced.mkdir()
    write_script(spaced, "ok.py", BUILTIN_SCRIPT)
    quoted = f'{sys.executable} "{spaced / "ok.py"}"'
    assert planner.solve_with_external(quoted, g, *texts) == \
        planner.solve_with_external(plain, g, *texts)
    with pytest.raises(ExternalPlannerError,
                       match="^cannot split planner command .*: No closing"):
        planner.solve_with_external(quoted[:-1], g, *texts)


def test_external_planner_exit_codes(tmp_path):
    g = grounded_tireworld()
    texts = (fond.domain_to_pddl(g.domain), fond.problem_to_pddl(g.problem))
    unsat = write_script(tmp_path, "unsat.py", "raise SystemExit(2)\n")
    with pytest.raises(UnsolvableError):
        planner.solve_with_external(unsat, g, *texts)
    crash = write_script(tmp_path, "crash.py", "raise SystemExit(7)\n")
    with pytest.raises(ExternalPlannerError):
        planner.solve_with_external(crash, g, *texts)
    garbled = write_script(tmp_path, "garbled.py",
                           "print('not a policy at all')\n")
    with pytest.raises(ExternalPlannerError):
        planner.solve_with_external(garbled, g, *texts)
    missing = "/no/such/binary"
    with pytest.raises(ExternalPlannerError):
        planner.solve_with_external(missing, g, *texts)


def test_external_planner_output_is_verified(tmp_path):
    # a syntactically fine policy that never reaches the goal must be
    # rejected, not trusted
    g = grounded_tireworld()
    dom = fond.parse_domain(BLOCKS.domain_text)
    prob = fond.parse_problem(BLOCKS.problem_text)
    bg = fond.ground(dom, prob)
    _, cycle = blocks_cycle_policy()
    command = write_script(tmp_path, "cycle.py", f"""
        import sys
        sys.stdout.write({planner.policy_to_text(cycle)!r})
        """)
    with pytest.raises(ExternalPlannerError):
        planner.solve_with_external(
            command, bg, fond.domain_to_pddl(bg.domain),
            fond.problem_to_pddl(bg.problem))


def test_external_planner_deadline(tmp_path):
    g = grounded_tireworld()
    slow = write_script(tmp_path, "slow.py",
                        "import time; time.sleep(30)\n")
    with pytest.raises(DeadlineExceeded):
        planner.solve_with_external(
            slow, g, fond.domain_to_pddl(g.domain),
            fond.problem_to_pddl(g.problem),
            budget=Budget(deadline=time.monotonic() + 0.2))


def chain_task(n):
    """A grounding whose only policy steps through n states to the goal."""
    preds = " ".join(f"(p{k})" for k in range(n + 1))
    steps = " ".join(f"(:action step{k} :precondition (p{k}) "
                     f":effect (and (not (p{k})) (p{k + 1})))"
                     for k in range(n))
    return fond.ground(
        fond.parse_domain(f"(define (domain chain) (:predicates {preds}) "
                          f"{steps})"),
        fond.parse_problem(f"(define (problem c) (:domain chain) "
                           f"(:init (p0)) (:goal (p{n})))"))


def test_external_planner_starts_no_process_past_its_deadline(monkeypatch):
    g = grounded_tireworld()
    started = []
    monkeypatch.setattr(subprocess, "run",
                        lambda *args, **kwargs: started.append(args))
    with pytest.raises(DeadlineExceeded,
                       match="^planner deadline exceeded$"):
        planner.solve_with_external(
            "planner", g, fond.domain_to_pddl(g.domain),
            fond.problem_to_pddl(g.problem),
            budget=Budget(deadline=time.monotonic() - 1.0))
    assert started == []


def test_external_planner_gets_no_more_than_the_time_left(monkeypatch):
    # Each clock reading is 1 ms later than the one before; the process
    # may not run past the deadline, however little time is left.
    g = grounded_tireworld()
    text = planner.policy_to_text(planner.solve_strong_cyclic(g))
    readings = [100.0]

    def clock():
        readings.append(readings[-1] + 0.001)
        return readings[-1]

    runs = []

    def run(argv, *, timeout, **kwargs):
        runs.append((timeout, readings[-1]))
        return subprocess.CompletedProcess(argv, 0, text, "")

    fake = SimpleNamespace(monotonic=clock)
    monkeypatch.setattr(budget, "time", fake)
    monkeypatch.setattr(planner, "time", fake)
    monkeypatch.setattr(subprocess, "run", run)
    for left in (0.01, 0.05, 0.099, 0.5):
        deadline = readings[-1] + left
        planner.solve_with_external(
            "planner", g, fond.domain_to_pddl(g.domain),
            fond.problem_to_pddl(g.problem), budget=Budget(deadline=deadline))
        timeout, now = runs[-1]
        assert 0 < timeout <= deadline - now
    assert len(runs) == 4


def test_external_policy_is_verified_under_the_deadline(monkeypatch):
    # The clock passes the deadline right after the reading before the
    # process starts, so verification must read it again, and raise, at
    # the 512th state of the 600-state policy.
    g = chain_task(600)
    text = planner.policy_to_text(planner.solve_strong_cyclic(g))
    monkeypatch.setattr(subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, 0, text, ""))
    readings = []

    def clock():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 2.0

    monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(DeadlineExceeded,
                       match="^planner deadline exceeded$"):
        planner.solve_with_external(
            "planner", g, fond.domain_to_pddl(g.domain),
            fond.problem_to_pddl(g.problem), budget=Budget(deadline=1.0))
    assert len(readings) == 2


def blocks_problem_text(n):
    """n blocks, all on the table, hand empty."""
    names = " ".join(f"b{i}" for i in range(1, n + 1))
    init = " ".join(f"(ontable b{i}) (clear b{i})" for i in range(1, n + 1))
    return (f"(define (problem bw-{n}) (:domain blocks-world) "
            f"(:objects {names} - block) (:init (emptyhand) {init}))")


# sha256 of `policy_to_text` of the compiled task's policy, and its
# number of entries, by block count and goal. perfbench's blocks-scale
# workload draws its observations from such policies.
COMPILED_POLICY_GOLDENS = {
    (6, "F(on_b5_b6 & X(F(on_b4_b5)))"): (
        10, "551f013be5aa930d103a3111afbcfea65b44a258dedd3c0e647eabe01abb7f9b"),
    (6, "on_b1_b2 & (!(on_b3_b6) S holding_b2)"): (
        12, "dc14fb5f34cdbf98e0c78cfcdb01fa60e0770f78f02519cfa430fc9918bd0905"),
    (5, "F(on_b1_b2 & X(F(on_b3_b1)))"): (
        10, "e57340220b359c3f0b5f90acd2b6c9499b9483377e7bfaa8b1a14ba3ab9fd2ab"),
}


@pytest.mark.parametrize("n, goal", sorted(COMPILED_POLICY_GOLDENS))
def test_compiled_blocks_policy_golden(n, goal):
    domain = fond.parse_domain(BLOCKS.domain_text)
    problem = fond.parse_problem(blocks_problem_text(n))
    aug = compilation.compile_goal(domain, problem, logic.parse_formula(goal))
    text = planner.policy_to_text(planner.solve_strong_cyclic(aug.grounded))
    assert (text.count("\n"), hashlib.sha256(text.encode()).hexdigest()) \
        == COMPILED_POLICY_GOLDENS[n, goal]
