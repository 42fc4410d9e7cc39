"""Compiling temporal goals into augmented FOND tasks."""

import hashlib

import pytest

from reference_executions import MalformedAlternationError, strip_sync
from tgr import bench, compilation, executions, fond, logic, planner
from tgr.errors import CompileError

TIREWORLD = bench.bundled_dataset("triangle-tireworld")


def tireworld():
    return (fond.parse_domain(TIREWORLD.domain_text),
            fond.parse_problem(TIREWORLD.problem_text))


def compile_f22():
    dom, prob = tireworld()
    return compilation.compile_goal(dom, prob,
                                    logic.parse_formula("F((vAt 22))"))


def test_augmented_structure():
    aug = compile_f22()
    assert aug.prefix == ""
    assert len(aug.q_atoms) == aug.dfa.n_states == 2
    preds = {p.name for p in aug.domain.predicates}
    assert {"q0", "q1", "turnDomain"} <= preds
    assert ":conditional-effects" in aug.domain.requirements
    assert ":negative-preconditions" in aug.domain.requirements
    # the automaton starts in its initial state and the mover acts first
    assert logic.Atom("q0") in aug.problem.init
    assert aug.turn_atom not in aug.problem.init
    goal_text = str(aug.problem.goal)
    assert "q1" in goal_text and "turnDomain" in goal_text
    assert [a.name for a in aug.domain.actions] == \
        ["move", "changetire", "trans"]


def test_base_actions_wait_for_the_automaton():
    aug = compile_f22()
    for action in aug.domain.actions[:-1]:
        assert any(lit.atom == aug.turn_atom and lit.positive
                   for lit in action.precondition)
    trans = aug.domain.actions[-1]
    assert any(lit.atom == aug.turn_atom and not lit.positive
               for lit in trans.precondition)


def test_goal_atom_validation():
    dom, prob = tireworld()

    def bad(text):
        with pytest.raises(CompileError):
            compilation.compile_goal(dom, prob, logic.parse_formula(text))

    bad("F((nope 11))")           # unknown predicate
    bad("F((vAt 11 22))")         # wrong arity
    bad("F((vAt 99))")            # undeclared object
    bad("F(flat_11)")             # arity again, via underscore syntax
    lifted = logic.eventually(logic.from_atom(logic.Atom("vAt", ("?x",))))
    with pytest.raises(CompileError) as err:
        compilation.validate_goal_atoms(dom, prob, lifted)
    assert str(err.value) == "goal atom (vAt ?x) is not ground"

    lg = bench.bundled_dataset("logistics")
    ldom = fond.parse_domain(lg.domain_text)
    lprob = fond.parse_problem(lg.problem_text)
    with pytest.raises(CompileError):
        # at wants a truck, p1 is a package
        compilation.compile_goal(ldom, lprob, logic.parse_formula("F((at p1 l1))"))


def test_a_domain_that_takes_every_prefix_is_a_compile_error():
    # every prefix names a fluent of F(q0)'s two-state automaton
    crowded = fond.parse_domain(
        "(define (domain c) (:predicates (q0) (sync-q0) (sync2-q0)) "
        "(:action a :parameters () :precondition (and) :effect (q0)))")
    problem = fond.parse_problem("(define (problem c1) (:domain c) (:init))")
    with pytest.raises(CompileError) as err:
        compilation.compile_goal(crowded, problem,
                                 logic.parse_formula("F(q0)"))
    assert str(err.value) == ("cannot find a collision-free name prefix "
                              "for the automaton fluents")


SUBTYPED_DOMAIN = """
(define (domain fleet)
  (:requirements :strips :typing)
  (:types vehicle location - object truck - vehicle)
  (:predicates (at ?v - vehicle ?l - location))
  (:action park
    :parameters (?t - truck ?l - location)
    :precondition (and)
    :effect (at ?t ?l)))
"""

SUBTYPED_PROBLEM = """
(define (problem fleet-1)
  (:domain fleet)
  (:objects t1 - truck l1 - location)
  (:init)
  (:goal (at t1 l1)))
"""


def test_goal_atoms_follow_the_type_hierarchy():
    dom = fond.parse_domain(SUBTYPED_DOMAIN)
    prob = fond.parse_problem(SUBTYPED_PROBLEM)
    # t1 is a truck, a truck is a vehicle, and at wants a vehicle
    aug = compilation.compile_goal(dom, prob,
                                   logic.parse_formula("F((at t1 l1))"))
    assert planner.solve_strong_cyclic(aug.grounded)
    with pytest.raises(CompileError, match="expected 'vehicle'"):
        compilation.compile_goal(dom, prob,
                                 logic.parse_formula("F((at l1 l1))"))


def test_goal_atoms_are_checked_once_per_problem_and_goal(monkeypatch):
    dom, prob = tireworld()
    tables = []
    real = fond._type_table
    monkeypatch.setattr(fond, "_type_table",
                        lambda *args: tables.append(args) or real(*args))
    good = logic.parse_formula("F((vAt 22))")
    for problem in (prob, prob._goal_free, tireworld()[1]):
        compilation.validate_goal_atoms(dom, problem, good)
    assert len(tables) == 1
    # A failed check is never kept: it raises, with its text, every time.
    bad = logic.parse_formula("F((vAt 99))")
    for _ in range(2):
        with pytest.raises(CompileError,
                           match=r"^goal atom \(vAt 99\): '99' is not a "
                                 "declared object$"):
            compilation.validate_goal_atoms(dom, prob, bad)
    assert len(tables) == 3


def table_letters(product):
    """The letters of `product`'s automaton atoms by table id, as the
    solver reads them off the base's transition table."""
    return product.base.transition_table.letters(product.dfa.atoms,
                                                 product.letter)


def test_goals_over_the_same_atoms_share_their_letters():
    dom, prob = tireworld()
    base = fond.goal_free_grounding(dom, prob)
    first = compilation.GoalProduct(base, logic.parse_formula(
        "F((vAt 21) & X(F((vAt 22))))"))
    planner.solve_strong_cyclic(first)
    second = compilation.GoalProduct(base, logic.parse_formula(
        "((vAt 22) & O((vAt 21)))"))
    letters = table_letters(second)
    assert letters is table_letters(first)
    table = base.transition_table
    assert len(letters) == len(table.states) > 1
    atoms = second.dfa.atoms
    assert letters == [sum(1 << i for i, a in enumerate(atoms)
                           if a in base.atoms_of(state))
                       for state in table.states]


def test_evicted_letters_are_rebuilt_as_a_cold_run_builds_them(monkeypatch):
    dom, prob = tireworld()
    goals = [logic.parse_formula(g) for g in (
        "F((vAt 21) & X(F((vAt 22))))", "F((vAt 33))")]

    def solved(base, goal):
        product = compilation.GoalProduct(base, goal)
        return product, planner.solve_strong_cyclic(product).mapping

    def cold_letters(base, product):
        return [sum(1 << i for i, a in enumerate(product.dfa.atoms)
                    if a in base.atoms_of(state))
                for state in base.transition_table.states]

    cold = []
    for goal in goals:
        fond._memo_ground.cache_clear()
        cold.append(solved(fond.goal_free_grounding(dom, prob), goal)[1])
    fond._memo_ground.cache_clear()
    monkeypatch.setattr(fond, "_LETTER_MEMO_SIZE", 1)
    base = fond.goal_free_grounding(dom, prob)
    first = compilation.GoalProduct(base, goals[0])
    for turn in range(4):
        product, mapping = solved(base, goals[turn % 2])
        assert mapping == cold[turn % 2]
        assert table_letters(product) == cold_letters(base, product)
        # The table keeps the letters of the last goal's atoms only.
        assert list(base.transition_table._letters) == [product.dfa.atoms]
    # A product made before its letters were evicted reads them afresh.
    assert table_letters(first) == cold_letters(base, first)


def test_unsatisfiable_goal_is_a_compile_error():
    dom, prob = tireworld()
    with pytest.raises(CompileError):
        compilation.compile_goal(dom, prob,
                                 logic.parse_formula("F((flat & !(flat)))"))


def test_prefix_picks_a_fresh_namespace():
    dom, prob = tireworld()
    q0 = fond.PredicateSchema("q0", ())
    clash = fond.Domain(dom.name, dom.requirements, dom.types,
                        dom.predicates + (q0,), dom.actions)
    aug = compilation.compile_goal(clash, prob,
                                   logic.parse_formula("F((vAt 22))"))
    assert aug.prefix == "sync-"
    assert aug.sync_schema == "sync-trans"
    assert {p.name for p in aug.domain.predicates} >= {"sync-q0", "sync-q1"}


def test_strip_sync():
    acts = ["(trans)", "(move 11 21)", "(trans)", "(move 21 22)", "(trans)"]
    assert strip_sync(acts) == ["(move 11 21)", "(move 21 22)"]
    assert strip_sync(["(trans)"]) == []
    for bad in (
        [],
        ["(move 11 21)"],
        ["(trans)", "(move 11 21)"],
        ["(move 11 21)", "(trans)"],
        ["(trans)", "(trans)", "(move 11 21)", "(trans)"],
    ):
        with pytest.raises(MalformedAlternationError):
            strip_sync(bad)
    named = ["(sync-trans x)", "(a)", "(sync-trans x)"]
    assert strip_sync(named, "sync-trans") == ["(a)"]


def test_project_removes_bookkeeping():
    aug = compile_f22()
    atoms = aug.grounded.atoms_of(aug.grounded.s0)
    policy = planner.solve_strong_cyclic(aug.grounded)
    projected = executions.enumerate_executions(policy, aug)[0].trace[0]
    assert logic.Atom("q0") in atoms
    assert all(not a.predicate.startswith("q") for a in projected
               if a.predicate != "road")
    assert logic.Atom("vAt", ("11",)) in projected


def test_emitted_grounded_pddl_round_trips():
    aug = compile_f22()
    dom_text, prob_text = compilation.emit_pddl(aug, "grounded")
    g = fond.ground(fond.parse_domain(dom_text), fond.parse_problem(prob_text))
    pol = planner.solve_strong_cyclic(g)
    got = sorted(tuple(strip_sync(e.actions))
                 for e in executions.enumerate_executions(pol))
    want = sorted(tuple(e.actions)
                  for e in executions.enumerate_executions(
                      planner.solve_strong_cyclic(aug.grounded), aug))
    assert got == want


def test_parametric_emission_pins_the_tracked_objects():
    aug = compile_f22()
    dom_text, prob_text = compilation.emit_pddl(aug, "parametric")
    assert "tracked" in dom_text
    assert "?x0" in dom_text
    dom = fond.parse_domain(dom_text)
    prob = fond.parse_problem(prob_text)
    trans = [a for a in dom.actions if a.name == "trans"]
    assert len(trans) == 1 and len(trans[0].params) == 1
    g = fond.ground(dom, prob)
    ground_trans = [a.name for a in g.actions if a.name.startswith("(trans")]
    # tracked() restricts the sync action to the goal's own objects
    assert ground_trans == ["(trans 22)"]
    pol = planner.solve_strong_cyclic(g)
    got = sorted(tuple(strip_sync(e.actions))
                 for e in executions.enumerate_executions(pol))
    assert got == sorted([("(move 11 21)", "(move 21 22)"),
                          ("(move 11 21)", "(changetire 21)", "(move 21 22)")])


def test_emit_unknown_mode():
    aug = compile_f22()
    with pytest.raises(CompileError):
        compilation.emit_pddl(aug, "liftedish")


def test_write_pddl_file_names(tmp_path):
    aug = compile_f22()
    dpath, ppath = compilation.write_pddl(aug, str(tmp_path), mode="grounded")
    assert dpath.endswith("tt-p01__g0__domain.pddl")
    assert ppath.endswith("tt-p01__g0__problem.pddl")
    fond.parse_domain(open(dpath).read())
    fond.parse_problem(open(ppath).read())


def test_past_goal_compiles():
    dom, prob = tireworld()
    aug = compilation.compile_goal(
        dom, prob, logic.parse_formula("((vAt 22) & O((vAt 21)))"))
    policy = planner.solve_strong_cyclic(aug.grounded)
    execs = executions.enumerate_executions(policy, aug)
    assert all(logic.evaluate(aug.formula, e.trace, as_dialect="PLTLf")
               for e in execs)


# sha256 of the emitted (domain, problem) text, by goal and mode.
PINNED_PDDL = {
    ("F(vAt_51)", "grounded"):
        "0a1ba8eaa57b672df6625029e28e28c594083f09ad88d2faa543f9357b5f5f79",
    ("F(vAt_51)", "parametric"):
        "813c1b36416b6f2393f104c953580fad407398f800ffd84b804b80135a7d5f3b",
    ("F(vAt_22 & X(F(vAt_33)))", "grounded"):
        "0aec6837cf49f84c3018535a86b383b7cd6fef4dccdb6c330fa5a3cbb7f67bf9",
    ("F(vAt_22 & X(F(vAt_33)))", "parametric"):
        "bee5958108989ab8aad1908972eea031c43bbddb8f8f4ff7e4fc8b3d3249fbd6",
    ("vAt_22 & O(vAt_11)", "grounded"):
        "a755d249a1669e4906e3a83db7a78ae5c71c3c24b6784421da90998809a3ba52",
    ("vAt_22 & O(vAt_11)", "parametric"):
        "33fc789036618cec9671a215a5a118e7a214973cd7607961b681a741f56964c3",
    ("F(emptyhand)", "grounded"):
        "047d52015b79145d4ba144a004324312e6a2955f1e217defc48e38f2152ba226",
    ("F(emptyhand)", "parametric"):
        "0262f2b7310c12c9cc7982f44dbb74e1b54bb3fa43237b3bba3ca00476d7f3ba",
    ("true", "grounded"):
        "356a90b3e0bf3b421c8a2ec8e3dff0f6fd60bc27849a8a6c5108c2dec96dbf67",
    ("true", "parametric"):
        "d8869b05913dc320e6d55fbd7169d598949abfc621dc5d23dfdc82915c5baa85",
    ("clash: F(vAt_22)", "grounded"):
        "caf8f186ab3231f126f96742d59d91535d84d176392edbcbfdd10f8589e1aa75",
    ("clash: F(vAt_22)", "parametric"):
        "6f5788ef878786964b0dc5cf08beebfb737efde9b89644ae4afd533382bdbcd5",
}


def test_emitted_pddl_is_pinned():
    # The blocks-world goals have no objects of interest, so their
    # parametric sync action and `tracked` fact take no parameters; the
    # clash domain declares q0, as in test_prefix_picks_a_fresh_namespace.
    dom, prob = tireworld()
    blocks = bench.bundled_dataset("blocks-world")
    bdom = fond.parse_domain(blocks.domain_text)
    bprob = fond.parse_problem(blocks.problem_text)
    clash = fond.Domain(dom.name, dom.requirements, dom.types,
                        dom.predicates + (fond.PredicateSchema("q0", ()),),
                        dom.actions)
    cases = [
        ("F(vAt_51)", dom, prob, "F(vAt_51)"),
        ("F(vAt_22 & X(F(vAt_33)))", dom, prob, "F(vAt_22 & X(F(vAt_33)))"),
        ("vAt_22 & O(vAt_11)", dom, prob, "vAt_22 & O(vAt_11)"),
        ("F(emptyhand)", bdom, bprob, "F(emptyhand)"),
        ("true", bdom, bprob, "true"),
        ("clash: F(vAt_22)", clash, prob, "F(vAt_22)"),
    ]
    got = {}
    for label, d, p, text in cases:
        aug = compilation.compile_goal(d, p, logic.parse_formula(text))
        for mode in ("grounded", "parametric"):
            h = hashlib.sha256()
            for part in compilation.emit_pddl(aug, mode):
                h.update(part.encode())
            got[label, mode] = h.hexdigest()
    assert got == PINNED_PDDL
