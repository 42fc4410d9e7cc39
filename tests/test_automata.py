"""DFA construction: semantics, minimality, determinism, lifting."""

import hashlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from tgr import automata, logic
from tgr.errors import AutomatonCapError, TgrError

import reference_automata
from helpers import P, Q, ltlf_corpus, pltlf_corpus, trace_corpus

EMPTY = frozenset()
JUST_P = frozenset({P})
JUST_Q = frozenset({Q})


def test_eventually_dfa_shape():
    dfa = automata.ltlf_to_dfa(logic.parse_formula("F(p)"))
    assert dfa.n_states == 2
    assert not dfa.accepts([])
    assert dfa.accepts([EMPTY, JUST_P])
    assert dfa.accepts([JUST_P, EMPTY])
    assert not dfa.accepts([EMPTY, EMPTY])


def test_always_dfa_shape():
    dfa = automata.ltlf_to_dfa(logic.parse_formula("G(p)"))
    assert dfa.n_states == 2
    assert dfa.accepts([])
    assert dfa.accepts([JUST_P, JUST_P])
    assert not dfa.accepts([JUST_P, EMPTY])


def test_until_dfa_shape():
    dfa = automata.ltlf_to_dfa(logic.parse_formula("(p U q)"))
    assert dfa.n_states == 3
    assert dfa.accepts([JUST_P, JUST_Q])
    assert not dfa.accepts([JUST_P, EMPTY, JUST_Q])


def test_guard_rows_partition_the_alphabet():
    for text in ["F((p & X(q)))", "(p U q)", "G((p -> X(q)))"]:
        dfa = automata.ltlf_to_dfa(logic.parse_formula(text))
        n_minterms = 1 << len(dfa.atoms)
        for state, rows in enumerate(dfa.transitions):
            for m in range(n_minterms):
                val = {a for i, a in enumerate(dfa.atoms) if m & (1 << i)}
                hits = [t for guard, t in rows
                        if logic.evaluate(guard, [val])]
                # exactly one guard per minterm, agreeing with the table
                assert hits == [dfa.table[state][m]], (text, state, m)


def test_construction_is_canonical():
    a = automata.ltlf_to_dfa(logic.parse_formula("F((p | q))"))
    b = automata.ltlf_to_dfa(logic.parse_formula("F((q | p))"))
    assert a.table == b.table
    assert a.accepting == b.accepting
    assert a.atoms == b.atoms


def test_ltlf_corpus_matches_evaluate():
    corpus = ltlf_corpus()[:40]
    traces = trace_corpus(3)
    for f in corpus:
        dfa = automata.ltlf_to_dfa(f)
        for t in traces:
            assert dfa.accepts(t) == logic.evaluate(f, t), f"{f} on {t}"


def test_pltlf_corpus_matches_evaluate():
    corpus = pltlf_corpus()[:40]
    traces = trace_corpus(3)
    for f in corpus:
        dfa = automata.pltlf_to_dfa(f)
        for t in traces:
            want = logic.evaluate(f, t, as_dialect="PLTLf")
            assert dfa.accepts(t) == want, f"{f} on {t}"


def test_formula_to_dfa_dispatches_on_dialect():
    past = automata.formula_to_dfa(logic.parse_formula("O(p)"))
    future = automata.formula_to_dfa(logic.parse_formula("F(p)"))
    assert past.accepts([JUST_P, EMPTY])
    assert future.accepts([JUST_P, EMPTY])
    prop = automata.formula_to_dfa(logic.parse_formula("p"))
    assert prop.accepts([JUST_P])
    assert not prop.accepts([EMPTY, JUST_P])
    with pytest.raises(TgrError, match="^ltlf_to_dfa requires a "
                       "future-dialect formula$"):
        automata.ltlf_to_dfa(logic.parse_formula("O(p)"))
    with pytest.raises(TgrError, match="^pltlf_to_dfa requires a "
                       "past-dialect formula$"):
        automata.pltlf_to_dfa(logic.parse_formula("F(p)"))


def test_state_cap():
    f = logic.parse_formula("F((p & X((q & X(p)))))")
    with pytest.raises(AutomatonCapError):
        automata.ltlf_to_dfa(f, state_cap=2)


def test_state_cap_counts_states_before_minimization():
    # F(a) reads three values before minimization: the initial one, a
    # pending F(a) and a fulfilled one.
    f = logic.parse_formula("F(a)")
    with pytest.raises(AutomatonCapError, match="exceeded 2 states"):
        automata.ltlf_to_dfa(f, state_cap=2)
    assert automata.ltlf_to_dfa(f, state_cap=3).n_states == 2


def test_formula_to_dfa_memoizes_results_but_not_cap_errors(monkeypatch):
    built = []

    def counting(f, state_cap, build=automata.ltlf_to_dfa):
        built.append(state_cap)
        return build(f, state_cap)

    monkeypatch.setattr(automata, "ltlf_to_dfa", counting)
    automata._memo_dfa.cache_clear()
    f = logic.parse_formula("F((p & X((q & X(p)))))")
    for _ in range(2):
        with pytest.raises(AutomatonCapError):
            automata.formula_to_dfa(f, 2)
    assert automata.formula_to_dfa(f) is automata.formula_to_dfa(
        f, automata.DEFAULT_STATE_CAP)
    assert built == [2, 2, automata.DEFAULT_STATE_CAP]


# Atoms listed out of sort order, so that a drawn formula's order of
# occurrence seldom matches the sort order its automaton's bits follow.
SHAPE_ATOMS = (logic.Atom("q"), logic.Atom("on", ("x", "a")), logic.Atom("c9"),
               logic.Atom("b"), logic.Atom("on", ("a", "x")),
               logic.Atom("c10"), logic.Atom("a"))
FUTURE_OPS = ([logic.next_, logic.weak_next, logic.eventually, logic.always],
              [logic.until])
PAST_OPS = ([logic.yesterday, logic.once, logic.historically], [logic.since])
MIXED_OPS = (FUTURE_OPS[0] + PAST_OPS[0], FUTURE_OPS[1] + PAST_OPS[1])


@st.composite
def shape_formulas(draw, dialects=(FUTURE_OPS, PAST_OPS, MIXED_OPS)):
    """Random formulas over 0-5 atoms, atoms repeated, with the operators
    of one of `dialects` (by default LTLf, PLTLf or mixed)."""
    atoms = draw(st.lists(st.sampled_from(SHAPE_ATOMS), max_size=5,
                          unique=True))
    unaries, binaries = draw(st.sampled_from(dialects))
    leaves = st.sampled_from([logic.TRUE, logic.FALSE]
                             + [logic.from_atom(a) for a in atoms])
    return draw(st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda op, f: op(f),
                  st.sampled_from([logic.lnot] + unaries), sub),
        st.builds(lambda op, f, g: op(f, g),
                  st.sampled_from([logic.land, logic.lor] + binaries),
                  sub, sub)), max_leaves=8))


def _direct(f, state_cap):
    build = (automata.pltlf_to_dfa if logic.dialect(f) == "PLTLf"
             else automata.ltlf_to_dfa)
    return build(f, state_cap)


def _outcome(build, f, state_cap):
    try:
        dfa = build(f, state_cap)
    except TgrError as e:
        return type(e), str(e)
    return dfa.atoms, dfa.accepting, dfa.table


@settings(max_examples=300, deadline=None)
@given(shape_formulas(), st.integers(1, 4))
def test_formula_to_dfa_by_shape_equals_the_direct_construction(f, small_cap):
    for cap in (small_cap, automata.DEFAULT_STATE_CAP):
        assert _outcome(automata.formula_to_dfa, f, cap) == \
            _outcome(_direct, f, cap), (str(f), cap)


def test_shape_placeholders_sort_like_eleven_atoms():
    # Bit i of a minterm is the i-th sorted atom; placeholders that sorted
    # "p10" before "p2" would hand the negated atom's bit to a positive one.
    atoms = [logic.atom(name) for name in "abcdefghijk"]
    f = logic.eventually(logic.conj(atoms[:10] + [logic.lnot(atoms[10])]))
    shaped = automata.formula_to_dfa(f)
    direct = automata.ltlf_to_dfa(f)
    assert (shaped.atoms, shaped.accepting, shaped.table) == \
        (direct.atoms, direct.accepting, direct.table)


def test_renamed_twin_costs_no_second_construction(monkeypatch):
    built = []

    def counting(f, state_cap, build=automata.ltlf_to_dfa):
        built.append(str(f))
        return build(f, state_cap)

    monkeypatch.setattr(automata, "ltlf_to_dfa", counting)
    goal, twin, flipped = (automata.formula_to_dfa(logic.parse_formula(g))
                           for g in ("F(((vAt 21) & X(F((vAt 22)))))",
                                     "F(((vAt 31) & X(F((vAt 33)))))",
                                     "F(((vAt 33) & X(F((vAt 31)))))"))
    # The twin's atoms sort in the order of the goal's; the flipped
    # goal's do not, so it is another shape.
    assert built == ["F((p0 & X(F(p1))))", "F((p1 & X(F(p0))))"]
    assert twin.atoms == (logic.Atom("vAt", ("31",)), logic.Atom("vAt", ("33",)))
    assert twin.table is goal.table and twin.accepting is goal.accepting
    assert flipped.atoms == twin.atoms and flipped.table != goal.table


def test_atom_cap():
    wide = logic.disj([logic.atom(f"a{i}") for i in range(13)])
    with pytest.raises(AutomatonCapError):
        automata.ltlf_to_dfa(logic.eventually(wide))


def test_minimality_on_redundant_formula():
    # p | p and p must give identical automata after minimization
    a = automata.ltlf_to_dfa(logic.parse_formula("(p | p)"))
    b = automata.ltlf_to_dfa(logic.parse_formula("p"))
    assert a.table == b.table and a.accepting == b.accepting


def test_lift_and_instantiate_round_trip():
    f = logic.parse_formula("F(((vAt 22) & X(F((vAt 33)))))")
    dfa = automata.formula_to_dfa(f)
    pdfa = automata.lift(dfa, ("22", "33"))
    assert pdfa.object_map == (("22", "?x0"), ("33", "?x1"))
    for atom in pdfa.atoms:
        assert not any(arg in ("22", "33") for arg in atom.args)
    back = pdfa.instantiate()
    assert back.table == dfa.table
    assert back.accepting == dfa.accepting
    assert back.atoms == dfa.atoms
    swapped = pdfa.instantiate({"?x0": "33", "?x1": "22"})
    assert swapped.atoms != dfa.atoms
    with pytest.raises(TgrError,
                       match=r"^instantiate: no binding for '\?x0'$"):
        pdfa.instantiate({})


def test_lift_rejects_bad_objects():
    dfa = automata.formula_to_dfa(logic.parse_formula("F((vAt 22))"))
    with pytest.raises(Exception):
        automata.lift(dfa, ("99",))
    with pytest.raises(Exception):
        automata.lift(dfa, ("22", "22"))


def test_to_dot_renders_every_state():
    dfa = automata.ltlf_to_dfa(logic.parse_formula("(p U q)"))
    dot = automata.to_dot(dfa)
    assert dot.startswith("digraph")
    for s in range(dfa.n_states):
        assert f"q{s}" in dot


def test_dead_states_are_those_that_cannot_accept():
    until = automata.formula_to_dfa(logic.parse_formula("!(a) U (b)"))
    (sink,) = until.dead
    assert sink not in until.accepting
    assert set(until.table[sink]) == {sink}
    assert not automata.formula_to_dfa(logic.parse_formula("F((a))")).dead


def _tables_digest(build, corpus):
    """sha256 over (atoms, sorted accepting states, table) of every DFA."""
    h = hashlib.sha256()
    for f in corpus:
        dfa = build(f)
        h.update(repr((dfa.atoms, sorted(dfa.accepting), dfa.table)).encode())
    return h.hexdigest()


def test_dfa_tables_are_pinned():
    # Pins state numbering as well as acceptance: a change to the
    # construction must leave every corpus automaton identical.
    assert _tables_digest(automata.ltlf_to_dfa, ltlf_corpus()) == (
        "36d54a132210ebbf6b01bf6c71f34c4054547a0e5f9fc009afadf7f7fe280dec")
    assert _tables_digest(automata.pltlf_to_dfa, pltlf_corpus()) == (
        "9b667ff11f4cfa0f9850b1e494ad64b339a01b05c91150802fc01a434fad7214")


BENCH_SHAPES = ("F(a)", "F(a) & F(b)", "F(a & X(F(b)))", "!(a) U b",
                "a & O(b)", "a & (!(b) S c)")


def wide_probes(k):
    """`F(c1 & X(F(c2)))` and `c2 & O(c1)`, where c1 and c2 are the
    conjunctions of the first and the last k // 2 of k atoms."""
    atoms = [logic.atom(f"x{i:02d}") for i in range(k)]
    c1, c2 = logic.conj(atoms[:k // 2]), logic.conj(atoms[k // 2:])
    return (logic.eventually(logic.land(c1, logic.next_(logic.eventually(c2)))),
            logic.land(c2, logic.once(c1)))


def test_bench_shapes_and_wide_probes_are_pinned():
    # The corpus above has two atoms and depth <= 3; these pin the bench
    # templates' automata and two 8-atom goals.
    shapes = [logic.parse_formula(t) for t in BENCH_SHAPES]
    assert _tables_digest(automata.formula_to_dfa, shapes) == (
        "a4ae00b1039cd6532f238d9de33d1c30e4b694b7812f5f18755398bf91c2df9c")
    assert _tables_digest(automata.formula_to_dfa, wide_probes(8)) == (
        "188472cc415f2d49717f3233d504562efbd23acd1fea9639633b3227dab8d5e0")


@st.composite
def bfs_automata(draw):
    """Random complete automata as `_determinize` hands them over:
    reachable states only, numbered breadth first from state 0 with
    successors in letter order. Returns (atoms, rows, accepting)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1 << k,
                                  max_size=1 << k), min_size=n, max_size=n))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    order = {0: 0}
    queue = [0]
    for s in queue:
        for t in rows[s]:
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    atoms = tuple(logic.Atom(f"a{i}") for i in range(k))
    return (atoms, [[order[t] for t in rows[s]] for s in queue],
            {order[s] for s in accepting if s in order})


def _check_finish(atoms, rows, accepting):
    dfa = automata._finish(atoms, rows, accepting)
    assert dfa.atoms == atoms
    assert (dfa.accepting, dfa.table) == reference_automata.minimize(
        rows, accepting)


@settings(max_examples=500, deadline=None)
@given(bfs_automata())
def test_finish_equals_table_filling_then_bfs_numbering(automaton):
    _check_finish(*automaton)


@settings(max_examples=200, deadline=None)
@given(shape_formulas((FUTURE_OPS, PAST_OPS)))
def test_finish_equals_the_reference_on_formula_automata(f):
    handed = []
    finish = automata._finish

    def recording(atoms, rows, accepting):
        handed.append((atoms, rows, set(accepting)))
        return finish(atoms, rows, accepting)

    with mock.patch.object(automata, "_finish", recording):
        _direct(f, automata.DEFAULT_STATE_CAP)
    (automaton,) = handed
    _check_finish(*automaton)


@settings(max_examples=300, deadline=None)
@given(shape_formulas((PAST_OPS,)))
def test_pltlf_to_dfa_equals_the_full_vector_construction(f):
    assert _outcome(automata.pltlf_to_dfa, f, automata.DEFAULT_STATE_CAP) == \
        _outcome(reference_automata.pltlf_to_dfa, f,
                 automata.DEFAULT_STATE_CAP), str(f)


# The unpruned LTLf oracle's cap. Unpruned, some small formulas reach
# hundreds or thousands of states; an example whose oracle reaches the
# cap is skipped, not compared.
ORACLE_STATE_CAP = 2_000


@settings(max_examples=300, deadline=None)
@given(shape_formulas((FUTURE_OPS,)))
def test_ltlf_to_dfa_equals_the_unpruned_subset_construction(f):
    want = _outcome(reference_automata.ltlf_to_dfa, f, ORACLE_STATE_CAP)
    assume(want != (AutomatonCapError,
                    f"DFA exceeded {ORACLE_STATE_CAP} states"))
    assert _outcome(automata.ltlf_to_dfa, f, automata.DEFAULT_STATE_CAP) \
        == want, str(f)


def test_subsumed_obligation_sets_are_dropped_before_the_cap():
    # Unpruned, this formula reaches 668 states before minimization.
    f = logic.parse_formula("(((F(((true U a2) U (a2 U a0))) U a3) U "
                            "N((X((a1 | a2)) & G(X(a1))))) U a3)")
    assert automata.ltlf_to_dfa(f, state_cap=60).n_states == 8


def test_wide_pltlf_probe_equals_the_full_vector_construction():
    _, past = wide_probes(8)
    assert _outcome(automata.pltlf_to_dfa, past, automata.DEFAULT_STATE_CAP) \
        == _outcome(reference_automata.pltlf_to_dfa, past,
                    automata.DEFAULT_STATE_CAP)
