"""PDDL parsing, grounding, and the nondeterministic transition model."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PDDL_ERRORS
from tgr import bench, fond, logic
from tgr.errors import (GroundingCapError, InapplicableActionError,
                        PddlParseError, UnsupportedFeatureError)

TIREWORLD = bench.bundled_dataset("triangle-tireworld")
BLOCKS = bench.bundled_dataset("blocks-world")


def tireworld():
    return (fond.parse_domain(TIREWORLD.domain_text),
            fond.parse_problem(TIREWORLD.problem_text))


def test_parse_tireworld_domain():
    dom, prob = tireworld()
    assert dom.name == "triangle-tireworld"
    assert [a.name for a in dom.actions] == ["move", "changetire"]
    assert {p.name for p in dom.predicates} == {"vAt", "road", "spare", "flat"}
    assert dom.types == (("location", "object"),)
    assert prob.domain_name == dom.name
    assert logic.Atom("vAt", ("11",)) in prob.init
    assert str(prob.goal) == "(vAt 22)"


def test_parse_errors_are_located():
    with pytest.raises(PddlParseError) as err:
        fond.parse_domain("(define (domain d)\n  (:predicates (p))\n  (:action a :precondition (p)))")
    assert "effect" in str(err.value) or "action" in str(err.value)
    with pytest.raises(PddlParseError):
        fond.parse_domain("(define (domain d) (:types a - ))")
    with pytest.raises(UnsupportedFeatureError):
        fond.parse_domain("(define (domain d) (:requirements :adl))")
    with pytest.raises(PddlParseError):
        fond.parse_domain("(define (domain d)) trailing")


@pytest.mark.parametrize("domain, problem, error, message", PDDL_ERRORS)
def test_bad_pddl_is_rejected_word_for_word(domain, problem, error,
                                            message):
    with pytest.raises(error) as err:
        fond.ground(fond.parse_domain(domain), fond.parse_problem(problem))
    assert type(err.value) is error and str(err.value) == message


def test_unsupported_constructs_rejected():
    text = """(define (domain d)
      (:predicates (p ?x) (q))
      (:action a :parameters (?x)
        :precondition (p ?x)
        :effect (forall (?y) (p ?y))))"""
    with pytest.raises(UnsupportedFeatureError):
        fond.parse_domain(text)
    text = """(define (domain d)
      (:predicates (p) (q))
      (:action a :precondition (exists (?y) (p)) :effect (q)))"""
    with pytest.raises(UnsupportedFeatureError):
        fond.parse_domain(text)


def test_effect_branches_distribute_oneof():
    dom, _ = tireworld()
    move = dom.actions[0]
    branches = fond.effect_branches(move.effect)
    # move: deterministic part times the {no flat, flat} alternatives
    assert len(branches) == 2
    flat = logic.Atom("flat")
    flat_lits = [{lit.atom for _, lit in br if lit.positive} for br in branches]
    assert any(flat in s for s in flat_lits)
    assert any(flat not in s for s in flat_lits)


def test_effect_branches_gate_conditions():
    when = fond.eff_when(logic.parse_formula("(p)"),
                         fond.eff_lit(fond.Literal(logic.Atom("q"), True)))
    pair = fond.eff_and([when,
                         fond.eff_lit(fond.Literal(logic.Atom("r"), True))])
    (branch,) = fond.effect_branches(pair)
    gated = {str(cond): lit.atom.predicate for cond, lit in branch}
    assert gated == {"p": "q", "true": "r"}


def test_ground_counts_and_static_pruning():
    dom, prob = tireworld()
    g = fond.ground(dom, prob)
    names = [a.name for a in g.actions]
    # moves only along declared roads; changetire is not statically pruned
    # because spare is consumed by an effect
    assert sum(1 for n in names if n.startswith("(move")) == 13
    assert sum(1 for n in names if n.startswith("(changetire")) == 13
    assert g.action_index["(move 11 21)"] == names.index("(move 11 21)")
    assert len(set(names)) == len(names)


def test_successors_and_applicability():
    dom, prob = tireworld()
    g = fond.ground(dom, prob)
    move = g.action_index["(move 11 21)"]
    succs = g.successors(g.s0, move)
    assert len(succs) == 2
    at21 = {frozenset(g.atoms_of(s)) for s in succs}
    vat21 = logic.Atom("vAt", ("21",))
    flat = logic.Atom("flat")
    assert all(vat21 in s for s in at21)
    assert {flat in s for s in at21} == {True, False}

    far = g.action_index["(move 21 22)"]
    assert not g.applicable(g.s0, far)
    with pytest.raises(InapplicableActionError):
        g.successors(g.s0, far)
    assert move in g.applicable_actions(g.s0)


def test_deterministic_duplicate_outcomes_collapse():
    dom = fond.parse_domain("""(define (domain d)
      (:predicates (p))
      (:action a :precondition (and) :effect (oneof (p) (p))))""")
    prob = fond.parse_problem("(define (problem x) (:domain d) (:init) (:goal (p)))")
    g = fond.ground(dom, prob)
    assert len(g.successors(g.s0, 0)) == 1


def test_goal_evaluation():
    dom, prob = tireworld()
    g = fond.ground(dom, prob)
    assert not g.is_goal(g.s0)
    goal_state = g.state_of({logic.Atom("vAt", ("22",))})
    assert g.is_goal(goal_state)
    with pytest.raises(PddlParseError):
        g.state_of({logic.Atom("nope")})
    base = fond.goal_free_grounding(dom, prob)
    with pytest.raises(PddlParseError) as err:
        base.is_goal(base.s0)
    assert str(err.value) == "problem has no goal"
    with pytest.raises(UnsupportedFeatureError) as err:
        base.with_goal(logic.parse_formula("F((vAt 22))"))
    assert str(err.value) == "temporal operator inside goal"


def test_state_str_is_sorted():
    dom, prob = tireworld()
    g = fond.ground(dom, prob)
    rendered = g.state_str(g.s0)
    parts = rendered.split(") (")
    assert parts == sorted(parts)
    assert rendered.startswith("(")


def test_grounding_caps():
    dom, prob = tireworld()
    with pytest.raises(GroundingCapError):
        fond.ground(dom, prob, action_cap=3)
    with pytest.raises(GroundingCapError):
        fond.ground(dom, prob, fluent_cap=3)


def test_writers_reach_a_fixed_point():
    for spec in (TIREWORLD, BLOCKS):
        dom = fond.parse_domain(spec.domain_text)
        prob = fond.parse_problem(spec.problem_text)
        dom_text = fond.domain_to_pddl(dom)
        prob_text = fond.problem_to_pddl(prob)
        assert fond.domain_to_pddl(fond.parse_domain(dom_text)) == dom_text
        assert fond.problem_to_pddl(fond.parse_problem(prob_text)) == prob_text
        # reparsed structures ground to the same model
        g1 = fond.ground(dom, prob)
        g2 = fond.ground(fond.parse_domain(dom_text),
                         fond.parse_problem(prob_text))
        assert [a.name for a in g1.actions] == [a.name for a in g2.actions]
        assert g1.fluents == g2.fluents
        assert g1.s0 == g2.s0


def test_problem_domain_name_mismatch():
    dom, _ = tireworld()
    other = fond.parse_problem(
        "(define (problem x) (:domain elsewhere) (:init) (:goal (flat)))")
    with pytest.raises(PddlParseError):
        fond.ground(dom, other)


CONDITION_ATOMS = [logic.atom(f"p{i}") for i in range(8)]
CONDITION_INDEX = {f.atom: i for i, f in enumerate(CONDITION_ATOMS)}


def assert_compiled_agrees_on_every_state(f):
    compiled = fond._compile_condition(f, CONDITION_INDEX, "test")
    for state in range(1 << len(CONDITION_ATOMS)):
        atoms = {a.atom for i, a in enumerate(CONDITION_ATOMS)
                 if state >> i & 1}
        assert fond._eval_compiled(compiled, state) == \
            logic.evaluate(f, [atoms]), (str(f), state)
    return compiled


@pytest.mark.parametrize("text, tag, cubes", [
    ("p0", "any", 1),
    ("!p0", "any", 1),
    ("p0 & !p1 & p2", "any", 1),
    ("p0 | !p1 | (p2 & p3)", "any", 3),
    # a literal conjunction and-ed with a disjunction: a sync guard's form
    ("(p0 & !p1) & ((p2 & p3) | !p4 | p5)", "any", 3),
    ("((p2 & p3) | !p4) & p0 & !p1", "any", 2),
    ("(p0 | p1) & (p2 | p3)", "and", None),
    ("!(p0 & p1)", "not", None),
    ("!(p0 | p1) | (p2 & p3)", "or", None),
    ("(p0 & (p1 | p2)) | ((p3 | p4) & (p5 | !p6 | p7))", "or", None),
    ("true & (p0 | false)", "any", 1),
    ("false & p0", "any", 0),
])
def test_compiled_conditions_flatten_what_distributes_linearly(text, tag,
                                                               cubes):
    compiled = assert_compiled_agrees_on_every_state(
        logic.parse_formula(text))
    assert compiled[0] == tag
    if tag == "any":
        assert len(compiled[1]) == cubes


def conditions():
    """Random and/or/not conditions over up to eight atoms."""
    leaves = st.sampled_from(CONDITION_ATOMS + [logic.TRUE, logic.FALSE])
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(logic.lnot),
        st.tuples(sub, sub).map(lambda lr: logic.land(*lr)),
        st.tuples(sub, sub).map(lambda lr: logic.lor(*lr))), max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(conditions())
def test_compiled_conditions_agree_with_the_formula(f):
    assert_compiled_agrees_on_every_state(f)


def test_with_goal_shares_the_precondition_index(monkeypatch):
    dom = fond.parse_domain(BLOCKS.domain_text)
    prob = fond.parse_problem(BLOCKS.problem_text)
    base = fond.goal_free_grounding(dom, prob)
    base.transition_table

    def rebuild(self):
        raise AssertionError("the precondition index was rebuilt")

    monkeypatch.setattr(fond.GroundedFond, "__post_init__", rebuild)
    g = base.with_goal(prob.goal)
    assert (g.goal, g.problem.goal, base.goal) == (prob.goal, prob.goal, None)
    assert g.is_goal(g.state_of(logic.atoms(prob.goal))) and not g.is_goal(0)
    assert g._watch is base._watch and g._always is base._always
    # the copy searches its source's transition table
    assert g.transition_table is base.transition_table
    assert base.transition_table._model is base
    rng = random.Random(25)
    for _ in range(300):
        state = rng.getrandbits(len(g.fluents))
        assert g.applicable_actions(state) == base.applicable_actions(state) \
            == [i for i in range(len(g.actions)) if g.applicable(state, i)]


def test_goal_free_groundings_are_shared_but_errors_are_not(monkeypatch):
    grounded = []

    def counting(dom, prob, ground=fond.ground):
        grounded.append(prob)
        return ground(dom, prob)

    monkeypatch.setattr(fond, "ground", counting)
    dom, prob = tireworld()
    other = fond.parse_problem(
        "(define (problem x) (:domain elsewhere) (:init) (:goal (flat)))")
    for _ in range(2):
        with pytest.raises(PddlParseError, match="targets domain 'elsewhere'"):
            fond.goal_free_grounding(dom, other)
    shared = fond.goal_free_grounding(dom, prob)
    assert shared.goal is None
    # equal values share it, whatever goal the problem carries
    assert fond.goal_free_grounding(*tireworld()) is shared
    assert fond.goal_free_grounding(
        dom, dataclasses.replace(prob, goal=None)) is shared
    # another problem of the domain gets its own
    trap = fond.parse_problem(bench.bundled_text("triangle-tireworld",
                                                 "trap.pddl"))
    assert fond.goal_free_grounding(dom, trap).problem == \
        dataclasses.replace(trap, goal=None)
    assert [p.name for p in grounded] == ["x", "x", prob.name, trap.name]
    assert all(p.goal is None for p in grounded[2:])
    # `ground` itself builds a fresh model every time
    assert fond.ground(dom, prob) is not fond.ground(dom, prob)


def test_parsed_models_keep_their_hash_but_compare_by_value():
    dom, prob = tireworld()
    again_dom, again_prob = tireworld()
    assert dom is not again_dom and prob is not again_prob
    for first, second in ((dom, again_dom), (prob, again_prob)):
        assert first == second and hash(first) == hash(second)
    # A kept hash does not leak into equality, replacement or pickles.
    moved = dataclasses.replace(prob, init=prob.init | {logic.Atom("flat")})
    assert moved != prob and "_hash" not in vars(moved)
    copy = pickle.loads(pickle.dumps(dom))
    assert "_hash" not in vars(copy) and copy == dom
    assert hash(copy) == hash(dom)


class Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt, which pytest itself acts on."""


def filled(table):
    """`table` with every state it reaches expanded, in id order; its
    arrays and the links the planner's product search reads."""
    i = 0
    while i < len(table.states):
        table.pairs_at(i)
        i += 1
    return (table.states, table.action, table.out, table.target,
            table._succ, table._into, table._pred, table._source)


def test_an_interrupted_expansion_is_undone_links_included(monkeypatch):
    # Putting a block down returns to a known state, so an expansion
    # links known ids as well as new ones. Interrupted at any id lookup,
    # the table is left as if the expansion had not begun, and filling
    # it afterwards gives the table a cold fill gives.
    dom = fond.parse_domain(BLOCKS.domain_text)
    prob = dataclasses.replace(fond.parse_problem(BLOCKS.problem_text),
                               goal=None)
    g = fond.ground(dom, prob)
    cold = filled(fond.TransitionTable(g))
    real = fond.TransitionTable._id
    calls = []

    def interrupting(self, state):
        calls.append(state)
        if len(calls) == cut:
            raise Interrupt
        return real(self, state)

    monkeypatch.setattr(fond.TransitionTable, "_id", interrupting)
    cut = 0
    filled(fond.TransitionTable(g))
    total = len(calls)
    assert total > len(cold[0])
    for cut in range(2, total + 1):
        calls.clear()
        table = fond.TransitionTable(g)
        with pytest.raises(Interrupt):
            filled(table)
        assert filled(table) == cold
