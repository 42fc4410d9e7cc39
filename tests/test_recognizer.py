"""Posterior goal recognition over observation sequences."""

import collections
import dataclasses
import gc
import json
import math
import os
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference_planner
import tgr
from tgr import (automata, bench, compilation, executions, fond, logic,
                 planner, recognizer)
from tgr.budget import Budget
from tgr.errors import BundleError, DeadlineExceeded, TgrError

EX1 = "src/tgr/data/example1"
TIREWORLD = bench.bundled_dataset("triangle-tireworld")


def tireworld_problem(goals, obs, **kw):
    return recognizer.RecognitionProblem(
        domain=fond.parse_domain(TIREWORLD.domain_text),
        problem=fond.parse_problem(TIREWORLD.problem_text),
        goals=tuple(logic.parse_formula(g) for g in goals),
        obs=tuple(obs), **kw)


def never(*args, **kwargs):
    raise AssertionError("a goal was compiled or planned")


def test_worked_example_reproduces():
    rp = recognizer.load_bundle(EX1)
    res = recognizer.recognize(rp)
    assert [a.n_executions for a in res.analyses] == [8, 8, 16]
    assert [a.penalties for a in res.analyses] == [(0, 1), (0, 0), (0, 0)]
    # first observation: plain distance ratios
    assert [a.scores[0] for a in res.analyses] == \
        pytest.approx([0.3, 0.3, 0.4])
    # second observation: the penalty multiplies goal 0 by e
    assert [a.scores[1] for a in res.analyses] == \
        pytest.approx([2.604225, 0.016138, 0.025821], abs=1e-6)
    assert [a.posterior for a in res.analyses] == \
        pytest.approx([0.194587, 0.412021, 0.393392], abs=1e-6)
    assert res.gstar == (1,)
    assert res.planner_calls == len(rp.goals)
    assert rp.real_goal_index == 1


def test_distance_tables_for_the_worked_example():
    rp = recognizer.load_bundle(EX1)
    res = recognizer.recognize(rp)
    d0 = res.analyses[0].distances
    assert d0["(move 11 21)"] == pytest.approx(4.5)
    assert d0["(move 41 51)"] == pytest.approx(0.0)
    d2 = res.analyses[2].distances
    assert len(d2) == 9
    assert d2["(move 11 21)"] == pytest.approx(6.0)
    assert d2["(move 24 15)"] == pytest.approx(0.0)


def test_no_observations_rank_by_prior():
    rp = tireworld_problem(["F((vAt 22))", "F((vAt 51))"], [],
                           priors=(3.0, 1.0))
    res = recognizer.recognize(rp)
    assert [a.posterior for a in res.analyses] == pytest.approx([0.75, 0.25])
    assert res.gstar == (0,)


def test_priors_shift_the_posterior():
    goals = ["F((vAt 51))", "F((vAt 33))", "F((vAt 15))"]
    obs = ["(move 11 21)", "(changetire 22)"]
    flat = recognizer.recognize(tireworld_problem(goals, obs))
    tilted = recognizer.recognize(
        tireworld_problem(goals, obs, priors=(100.0, 1.0, 1.0)))
    assert tilted.gstar == (0,)
    ratio = [t.posterior / f.posterior
             for t, f in zip(tilted.analyses, flat.analyses)]
    assert ratio[0] > ratio[1] == pytest.approx(ratio[2])


def test_bad_priors(monkeypatch):
    with pytest.raises(BundleError):
        tireworld_problem(["F(p)"], [], priors=(1.0, 2.0)).normalized_priors()
    # recognize rejects them before any goal is compiled or planned
    monkeypatch.setattr(compilation, "compile_goal", never)
    with pytest.raises(BundleError, match="2 priors for 1 goals"):
        recognizer.recognize(
            tireworld_problem(["F((vAt 22))"], [], priors=(1.0, 2.0)),
            planner_spec=never)
    with pytest.raises(BundleError):
        tireworld_problem(["F(p)"], [], priors=(-1.0,)).normalized_priors()
    with pytest.raises(BundleError):
        tireworld_problem(["F(p)"], [], priors=(0.0,)).normalized_priors()


def test_priors_whose_sum_overflows_are_normalized():
    rp = tireworld_problem(["F((vAt 22))", "F((vAt 51))", "F((vAt 33))"],
                           ["(move 11 21)"], priors=(1e308, 1e308, 1.0))
    assert rp.normalized_priors() == pytest.approx((0.5, 0.5, 0.5e-308))
    res = recognizer.recognize(rp)
    assert all(math.isfinite(a.posterior) for a in res.analyses)
    assert sum(a.posterior for a in res.analyses) == pytest.approx(1.0)
    assert res.analyses[2].posterior < 1e-300
    for bad in (math.nan, math.inf):
        with pytest.raises(BundleError, match="priors must be finite"):
            dataclasses.replace(rp, priors=(bad, 1.0, 1.0)).normalized_priors()


def test_unsolvable_goal_gets_zero_posterior():
    goals = ["F((vAt 22))", "F((vAt 13))"]  # 13 sits past spare-less roads
    res = recognizer.recognize(tireworld_problem(goals, ["(move 11 21)"]))
    assert res.analyses[0].solvable
    assert not res.analyses[1].solvable
    assert res.analyses[1].error
    assert res.analyses[1].posterior == 0.0
    assert res.analyses[0].posterior == pytest.approx(1.0)
    assert res.gstar == (0,)
    # the failed pipeline still used its one planner call
    assert res.planner_calls == 2


def test_all_unsolvable_falls_back_to_uniform():
    goals = ["F((vAt 13))", "F((vAt 14))"]
    res = recognizer.recognize(tireworld_problem(goals, ["(move 11 21)"]))
    assert [a.posterior for a in res.analyses] == pytest.approx([0.5, 0.5])
    assert res.gstar == (0, 1)


def test_propositional_goal_routes_classically():
    calls = []

    def counting(grounded):
        calls.append(grounded)
        return planner.solve_strong_cyclic(grounded)

    goals = ["(vAt 22)", "F((vAt 22))"]
    res = recognizer.recognize(
        tireworld_problem(goals, ["(move 11 21)"]), planner_spec=counting)
    assert len(calls) == 2
    # no automaton fluents in the classical grounding
    assert all(a.predicate != "q0" for a in calls[0].fluents)
    assert any(a.predicate == "q0" for a in calls[1].fluents)
    # both goals describe the same behavior, so they tie
    assert res.gstar == (0, 1)
    assert res.analyses[0].n_executions == res.analyses[1].n_executions


def test_builtin_planner_grounds_once_and_compiles_nothing(monkeypatch):
    grounds = []
    real_ground = fond.ground

    def counting(*args, **kwargs):
        grounds.append(args)
        return real_ground(*args, **kwargs)

    monkeypatch.setattr(fond, "ground", counting)
    monkeypatch.setattr(compilation, "compile_goal", never)
    rp = recognizer.load_bundle(EX1)
    assert not any(map(logic.is_propositional, rp.goals))
    analysis = recognizer.analyze(rp)
    assert len(grounds) == 1
    assert [m.n_executions for m in analysis.models] == [8, 8, 16]
    # propositional goals share the one grounding too; example1 poses
    # this problem, so forget its memoized grounding first
    fond._memo_ground.cache_clear()
    grounds.clear()
    mixed = tireworld_problem(
        ["(vAt 22)", "F((vAt 21) & X(F((vAt 22))))", "(vAt 21) | (vAt 31)"],
        [])
    assert all(m.solvable for m in recognizer.analyze(mixed).models)
    assert len(grounds) == 1


TEMPORAL_TIREWORLD_GOALS = ["F((vAt 22))", "F((vAt 21) & X(F((vAt 22))))",
                            "(vAt 22) & O((vAt 21))"]


def test_goals_expand_each_base_state_once(monkeypatch):
    expanded = collections.Counter()
    real = fond.GroundedFond.applicable_actions

    def counting(self, state):
        expanded[state] += 1
        return real(self, state)

    monkeypatch.setattr(fond.GroundedFond, "applicable_actions", counting)
    analysis = recognizer.analyze(
        tireworld_problem(TEMPORAL_TIREWORLD_GOALS, []))
    assert all(m.solvable for m in analysis.models)
    assert expanded and max(expanded.values()) == 1


def test_each_policy_state_is_expanded_once_per_solved_goal(monkeypatch):
    # The check of a policy builds the graph its goal model is counted
    # from, so the model's successors are read once per policy state.
    calls = []
    real = compilation.GoalProduct.successors

    def counting(self, state, action):
        calls.append(state)
        return real(self, state, action)

    monkeypatch.setattr(compilation.GoalProduct, "successors", counting)
    rp = recognizer.load_bundle(EX1)
    base = fond.goal_free_grounding(rp.domain, rp.problem)
    for goal in rp.goals:
        calls.clear()
        model, policy, _ = recognizer.analyze_goal(base, goal)
        assert model.solvable
        assert sorted(calls) == sorted(policy.mapping)


def test_recognizing_a_problem_again_grounds_and_expands_nothing(
        monkeypatch):
    first = recognizer.analyze(tireworld_problem(TEMPORAL_TIREWORLD_GOALS, []))
    grounds, expanded = [], collections.Counter()
    real_ground = fond.ground
    real_applicable = fond.GroundedFond.applicable_actions

    def counting_ground(*args, **kwargs):
        grounds.append(args)
        return real_ground(*args, **kwargs)

    def counting_applicable(self, state):
        expanded[state] += 1
        return real_applicable(self, state)

    monkeypatch.setattr(fond, "ground", counting_ground)
    monkeypatch.setattr(fond.GroundedFond, "applicable_actions",
                        counting_applicable)
    # parsed again: the grounding is found by value
    again = recognizer.analyze(
        tireworld_problem(TEMPORAL_TIREWORLD_GOALS, ["(move 11 21)"]))
    assert not grounds and not expanded
    assert again.models == first.models


class Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt, which pytest itself acts on."""


@pytest.mark.parametrize("after", [False, True])
def test_an_interrupted_recognition_leaves_the_memo_intact(monkeypatch,
                                                           after):
    # Interrupted as a base state gets its id (before or after it is
    # stored), the expansion is undone, so the shared table stays sound.
    rp = tireworld_problem(TEMPORAL_TIREWORLD_GOALS, [])
    real = fond.TransitionTable._id
    calls = []

    def interrupting(self, state):
        calls.append(state)
        if len(calls) == cut and not after:
            raise Interrupt
        i = real(self, state)
        if len(calls) == cut:
            raise Interrupt
        return i

    monkeypatch.setattr(fond.TransitionTable, "_id", interrupting)
    cut = 0
    cold = recognizer.analyze(rp).models
    total = len(calls)
    for cut in (1, 2, total // 3, 2 * total // 3, total):
        fond._memo_ground.cache_clear()
        calls.clear()
        with pytest.raises(Interrupt):
            recognizer.analyze(rp)
        assert_links_match_the_pairs(fond.goal_free_grounding(
            rp.domain, rp.problem).transition_table)
        assert recognizer.analyze(rp).models == cold


def assert_links_match_the_pairs(table):
    """The links the planner's product search reads are the ones the
    table's pairs imply, as after an uninterrupted fill."""
    n, pairs = len(table.states), len(table.action)
    assert len(table._succ) == len(table._into) == len(table._pred) == n
    assert len(table._source) == pairs == len(table.out) - 1
    into = [[] for _ in range(n)]
    for i in range(n):
        if table._first[i] < 0:
            assert table._succ[i] is None
            continue
        targets = set()
        for p in table.pairs_at(i):
            assert table._source[p] == i
            for t in table.target[table.out[p]:table.out[p + 1]]:
                into[t].append(p)
                targets.add(t)
        assert sorted(table._succ[i]) == sorted(targets)
    assert table._into == [sorted(leading) for leading in into]
    assert table._pred == [list(dict.fromkeys(map(table._source.__getitem__,
                                                  leading)))
                           for leading in table._into]


def test_a_warm_recognition_leaves_no_reference_cycles():
    # Cyclic garbage waits for the cyclic collector; a recognition whose
    # automata and grounding are memoized should make none.
    rp = recognizer.load_bundle(EX1)
    recognizer.recognize(rp)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        recognizer.recognize(rp)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_analyses_build_each_automaton_once(monkeypatch):
    built = collections.Counter()
    for name in ("ltlf_to_dfa", "pltlf_to_dfa"):
        def counting(f, state_cap, build=getattr(automata, name)):
            built[str(f)] += 1
            return build(f, state_cap)
        monkeypatch.setattr(automata, name, counting)
    automata._memo_dfa.cache_clear()
    automata._memo_shape.cache_clear()
    rp = tireworld_problem(TEMPORAL_TIREWORLD_GOALS, [])
    first, second = recognizer.analyze(rp), recognizer.analyze(rp)
    # One construction per goal shape: its atoms renamed in sort order.
    assert built == {"F(p0)": 1, "F((p0 & X(F(p1))))": 1,
                     "(p1 & O(p0))": 1}
    assert first.models == second.models


@pytest.mark.parametrize("spec", ["builtin", planner.solve_strong_cyclic])
def test_bad_propositional_goal_is_dropped_per_goal(spec):
    res = recognizer.recognize(
        tireworld_problem(["(vAt 99)", "F((vAt 99))", "(vAt 22)"],
                          ["(move 11 21)"]),
        planner_spec=spec)
    message = "goal atom (vAt 99): '99' is not a declared object"
    assert [a.error for a in res.analyses] == [message, message, None]
    assert res.gstar == (2,)
    # only the valid goal reached the planner
    assert res.planner_calls == 1


@pytest.mark.parametrize("spec", ["builtin", planner.solve_strong_cyclic])
def test_unsatisfiable_propositional_goal_is_dropped(spec):
    res = recognizer.recognize(
        tireworld_problem(["(vAt 22) & !(vAt 22)", "(vAt 22)"], []),
        planner_spec=spec)
    assert res.analyses[0].error == (
        "no strong-cyclic policy: the initial state was pruned")
    assert res.gstar == (1,)


CHAIN_DOMAIN = """(define (domain chain) (:requirements :strips :typing)
  (:types step)
  (:predicates (done ?s - step) (next ?s ?t - step))
  (:action advance :parameters (?s ?t - step)
    :precondition (and (done ?s) (next ?s ?t)) :effect (done ?t)))"""


def test_propositional_goal_over_many_atoms_is_solved():
    # More atoms than a goal automaton may read: the classical goal test
    # needs no automaton, on every planner route.
    steps = [f"s{i}" for i in range(15)]
    links = " ".join(f"(next {s} {t})" for s, t in zip(steps, steps[1:]))
    goal = logic.parse_formula(" & ".join(f"(done {s})" for s in steps[1:]))
    assert len(logic.atoms(goal)) > automata._MAX_ATOMS
    rp = recognizer.RecognitionProblem(
        domain=fond.parse_domain(CHAIN_DOMAIN),
        problem=fond.parse_problem(
            f"(define (problem p) (:domain chain) (:objects {' '.join(steps)}"
            f" - step) (:init (done s0) {links}))"),
        goals=(goal,), obs=())
    (model,) = recognizer.analyze(rp).models
    assert model.solvable and model.n_executions == 1
    assert model.distances["(advance s0 s1)"] == 13
    got = recognizer.analyze(rp, planner_spec=planner.solve_strong_cyclic)
    assert got.models == (model,)


def test_observations_must_be_ground_actions(monkeypatch):
    # rejected before any goal is compiled or planned
    monkeypatch.setattr(compilation, "compile_goal", never)
    with pytest.raises(BundleError, match="not a ground action"):
        recognizer.recognize(
            tireworld_problem(["F((vAt 22))"], ["(move 11 99)"]),
            planner_spec=never)


def test_analyze_passes_its_deadline_to_enumeration():
    # This planner ignores the deadline, so enumeration is the first stage
    # to see that it has passed.
    rp = recognizer.load_bundle(EX1)
    with pytest.raises(DeadlineExceeded, match="enumeration"):
        recognizer.analyze(rp, planner_spec=planner.solve_strong_cyclic,
                           budget=Budget(deadline=time.monotonic() - 1))


def test_a_deadline_stays_out_of_every_memo_key():
    # The deadline is an absolute time: a second recognition under a
    # later one must still find the first one's grounding, goal atom
    # checks and automata.
    rp = recognizer.load_bundle(EX1)
    memos = (fond._memo_ground, compilation._memo_validate,
             automata._memo_dfa)
    recognizer.recognize(rp, deadline=time.monotonic() + 600)
    hits = [memo.cache_info().hits for memo in memos]
    recognizer.recognize(rp, deadline=time.monotonic() + 900)
    assert [memo.cache_info().hits > h for memo, h in zip(memos, hits)] \
        == [True] * 3


def test_unknown_planner_spec():
    with pytest.raises(TgrError):
        recognizer.recognize(tireworld_problem(["F((vAt 22))"], []),
                             planner_spec="exec:")
    with pytest.raises(TgrError):
        recognizer.recognize(tireworld_problem(["F((vAt 22))"], []),
                             planner_spec="quantum")


def test_result_json_shape():
    res = recognizer.recognize(recognizer.load_bundle(EX1))
    payload = res.to_json()
    blob = json.dumps(payload, sort_keys=True)
    assert json.loads(blob)["gstar"] == [1]
    assert len(payload["per_goal"]) == 3
    assert payload["planner_calls"] == 3
    assert payload["posteriors"] == pytest.approx([a.posterior
                                                   for a in res.analyses])


def test_scoring_functions_directly():
    e1 = executions.Execution(("a", "b"), (frozenset(),) * 3)
    e2 = executions.Execution(("a", "c", "b"), (frozenset(),) * 4)
    execs = [e1, e2]
    pairs = executions.order_relations(e1) | executions.order_relations(e2)
    assert recognizer.penalty(None, "a", pairs) == 0
    assert recognizer.penalty("a", "b", pairs) == 0
    assert recognizer.penalty("b", "a", pairs) == 1
    tables = [executions.average_distances(execs)]
    assert recognizer.pairwise_score(0, "a", 0, tables) == pytest.approx(1.0)
    # an observation absent from every execution scores the absence constant
    missing = recognizer.pairwise_score(0, "zz", 0, tables)
    assert missing == pytest.approx(1.0)  # sole goal: d/d
    # "b" only ever occurs last, so its distance is zero for every goal
    # and the zero-denominator rule scores it 0, penalty or not
    assert recognizer.pairwise_score(1, "b", 0, tables) == 0.0
    model = recognizer.GoalAnalysis(formula=logic.parse_formula("F(g)"),
                                    solvable=True, distances=tables[0],
                                    pairs=pairs, prior=1.0)
    analysis = recognizer.Analysis(models=(model,),
                                   actions=frozenset("abc"),
                                   planner_calls=1, elapsed_s=0.0)
    scored = recognizer.score(analysis, ["a", "b"]).analyses[0]
    assert scored.penalties == (0, 0)
    assert scored.scores == pytest.approx((1.0, 0.0))
    assert scored.avg_score == pytest.approx(0.5 * (1.0 + 0.0))
    assert recognizer.likelihood(0.0) == 1.0
    assert recognizer.likelihood(1.0) == 0.5
    assert recognizer.posteriors([0.5, 0.5], [0.5, 0.5]) == \
        pytest.approx([0.5, 0.5])


def test_scores_use_pairwise_score_for_every_goal():
    # `score` shares each observation's denominator among the goals; the
    # scores are still those of `pairwise_score`, bit for bit.
    rp = recognizer.load_bundle(EX1)
    obs = ("(move 11 21)", "(changetire 22)", "(move 21 22)",
           "(move 11 12)")
    res = recognizer.score(recognizer.analyze(rp), obs)
    tables = [a.distances for a in res.analyses]
    for i, a in enumerate(res.analyses):
        assert a.scores == tuple(
            recognizer.pairwise_score(p, o, i, tables)
            for p, o in zip(a.penalties, obs))


ACTIONS = st.sampled_from("abcd")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ACTIONS, max_size=6), max_size=5), ACTIONS, ACTIONS)
def test_pair_set_penalty_matches_some_execution_ordering_the_pair(
        seqs, o_prev, o_i):
    execs = [executions.Execution(tuple(s), (frozenset(),) * (len(s) + 1))
             for s in seqs]

    def reference(prev, cur):
        # The definition scoring used before the pair sets: 1 unless some
        # execution orders prev before cur.
        if prev is None:
            return 0
        for ex in execs:
            if (prev, cur) in executions.order_relations(ex):
                return 0
        return 1

    # the reduction analyze applies to a goal's executions
    pairs = frozenset().union(*map(executions.order_relations, execs))
    assert recognizer.penalty(o_prev, o_i, pairs) == reference(o_prev, o_i)


def analysis_case(case):
    if case == "example1":
        return recognizer.load_bundle(EX1)
    # a goal no policy reaches (13) and a propositional goal ride along
    return tireworld_problem(
        ["F((vAt 51))", "F((vAt 33))", "F((vAt 13))", "(vAt 22)"],
        ["(move 11 21)", "(changetire 21)", "(move 21 22)", "(move 22 23)"],
        priors=(1.0, 2.0, 1.0, 1.0))


@pytest.mark.parametrize("case", ["example1", "tireworld"])
def test_one_analysis_scores_every_prefix_like_recognize(case):
    rp = analysis_case(case)
    analysis = recognizer.analyze(rp)
    prefixes = [rp.obs[:k] for k in range(len(rp.obs) + 1)]
    # score the longest prefix first: reuse must not depend on order
    scored = {p: recognizer.score(analysis, p) for p in reversed(prefixes)}
    for prefix in prefixes:
        want = recognizer.recognize(dataclasses.replace(rp, obs=prefix))
        got = scored[prefix]
        assert got.goals == want.goals
        assert got.analyses == want.analyses  # every field, exactly
        assert got.gstar == want.gstar
        assert got.planner_calls == want.planner_calls == len(rp.goals)
    # scoring filled copies; the goal models stay unscored
    for model in analysis.models:
        assert model.scores == () and model.posterior == 0.0
    with pytest.raises(BundleError, match="not a ground action"):
        recognizer.score(analysis, ["(move 11 99)"])


def exec_planner(tmp_path):
    """An exec: planner spec that runs the builtin solver in a child
    process."""
    script = tmp_path / "solve.py"
    src = os.path.dirname(os.path.dirname(tgr.__file__))
    script.write_text(f"""import sys
sys.path.insert(0, {src!r})
from tgr import fond, planner
from tgr.errors import UnsolvableError
dom = fond.parse_domain(open(sys.argv[1]).read())
prob = fond.parse_problem(open(sys.argv[2]).read())
try:
    policy = planner.solve_strong_cyclic(fond.ground(dom, prob))
except UnsolvableError:
    raise SystemExit(2)
sys.stdout.write(planner.policy_to_text(policy))
""")
    return f"exec:{sys.executable} {script}"


@pytest.mark.parametrize("case", ["example1", "tireworld"])
def test_compiled_route_gives_the_builtin_goal_models(case, tmp_path):
    # Planner callables and exec: planners solve the compiled task (or the
    # classical grounding of a propositional goal); their policies are
    # translated onto the goal product the builtin planner searches.
    rp = analysis_case(case)
    want = recognizer.analyze(rp).models
    got = recognizer.analyze(rp, planner_spec=planner.solve_strong_cyclic)
    assert got.models == want  # every field, exactly
    external = recognizer.analyze(rp, planner_spec=exec_planner(tmp_path))
    # an external planner reports unsolvability in its own words
    assert [m.error is None for m in external.models] == \
        [m.error is None for m in want]
    assert [dataclasses.replace(m, error=w.error)
            for m, w in zip(external.models, want)] == list(want)



def test_an_external_planner_builds_no_transition_table(tmp_path):
    # Only the builtin solver reads a transition table: an external
    # policy is verified and walked on its goal product's own grounding.
    rp = analysis_case("example1")
    want = recognizer.analyze(rp).models
    fond._memo_ground.cache_clear()
    got = recognizer.analyze(rp, planner_spec=exec_planner(tmp_path)).models
    base = fond.goal_free_grounding(rp.domain, rp.problem)
    assert "transition_table" not in vars(base)
    assert got == want


def test_a_problem_without_goals_is_not_analysed():
    with pytest.raises(BundleError) as err:
        recognizer.analyze(tireworld_problem([], []))
    assert str(err.value) == "recognition needs at least one candidate goal"


def test_a_classical_goal_makes_no_table_until_the_solver_reads_one(
        monkeypatch):
    made = []
    make = fond.TransitionTable.__init__

    def counting(self, model):
        made.append(model)
        make(self, model)

    monkeypatch.setattr(fond.TransitionTable, "__init__", counting)
    rp = tireworld_problem(["(vAt 22)"], ["(move 11 21)"])
    fond._memo_ground.cache_clear()
    base = fond.goal_free_grounding(rp.domain, rp.problem)
    copy = base.with_goal(rp.goals[0])
    assert "transition_table" not in vars(base) and not made
    # the builtin solver makes one table, the goal-free grounding's
    planner.solve_strong_cyclic(copy)
    assert len(made) == 1 and made[0] is base
    assert copy.transition_table is base.transition_table
    # a planner callable steps the model itself, so no table is made
    fond._memo_ground.cache_clear()
    made.clear()
    result = recognizer.recognize(
        rp, planner_spec=reference_planner.solve_strong_cyclic)
    assert result.analyses[0].n_executions > 0 and not made

def built(*args, **kwargs):
    raise AssertionError("executions were built")


@pytest.mark.parametrize("case", ["example1", "tireworld"])
def test_analyze_builds_no_execution(case, tmp_path, monkeypatch):
    # Every planner route reads its goal models off the execution walk.
    rp = analysis_case(case)
    want = [(m.n_executions, m.distances, m.pairs)
            for m in recognizer.analyze(rp).models]
    monkeypatch.setattr(executions, "enumerate_executions", built)
    monkeypatch.setattr(executions, "Execution", built)
    for spec in ("builtin", planner.solve_strong_cyclic,
                 exec_planner(tmp_path)):
        analysis = recognizer.analyze(rp, planner_spec=spec)
        assert [(m.n_executions, m.distances, m.pairs)
                for m in analysis.models] == want


def test_gstar_ties_use_isclose():
    post = recognizer.posteriors([0.25, 0.25], [0.5, 0.5])
    assert math.isclose(post[0], post[1])


def test_load_bundle_errors(tmp_path):
    with pytest.raises(BundleError):
        recognizer.load_bundle(str(tmp_path / "missing.json"))
    bad = tmp_path / "bundle.json"
    bad.write_text("{not json")
    with pytest.raises(BundleError):
        recognizer.load_bundle(str(tmp_path))
    bad.write_text(json.dumps({"domain": "d.pddl", "problem": "p.pddl"}))
    with pytest.raises(BundleError):
        recognizer.load_bundle(str(bad))


def test_bundle_accepts_loose_action_syntax():
    assert recognizer.canonical_action(" move  11 21 ") == "(move 11 21)"
    assert recognizer.canonical_action("(move 11 21)") == "(move 11 21)"
    with pytest.raises(BundleError):
        recognizer.canonical_action("  ")


def test_real_goal_index_bounds(tmp_path):
    data = {
        "domain": "domain.pddl", "problem": "p01.pddl",
        "goals": ["F((vAt 22))"], "obs": [], "real_goal_index": 5,
    }
    (tmp_path / "domain.pddl").write_text(TIREWORLD.domain_text)
    (tmp_path / "p01.pddl").write_text(TIREWORLD.problem_text)
    (tmp_path / "bundle.json").write_text(json.dumps(data))
    with pytest.raises(BundleError):
        recognizer.load_bundle(str(tmp_path))
