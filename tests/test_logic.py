"""Formula syntax and finite-trace semantics."""

import pickle
import re

import pytest

from tgr import logic
from tgr.errors import FormulaParseError, MixedDialectError, TgrError

from helpers import P, Q, ltlf_corpus, trace_corpus

EMPTY = frozenset()
JUST_P = frozenset({P})
JUST_Q = frozenset({Q})
BOTH = frozenset({P, Q})


def test_parse_atom_forms():
    assert str(logic.parse_formula("p")) == "p"
    assert str(logic.parse_formula("(vAt 22)")) == "(vAt 22)"
    assert str(logic.parse_formula("vAt_22")) == "(vAt 22)"
    # a single identifier in parens is a grouped bare atom, so it still
    # splits on underscores
    assert str(logic.parse_formula("F(vAt_33)")) == "F((vAt 33))"
    assert str(logic.parse_formula("(on b1 b2)")) == "(on b1 b2)"


def test_parse_round_trip():
    for text in [
        "F((vAt 22))",
        "(!(p) U q)",
        "G((p -> X(q)))",
        "((p & q) | !(p))",
        "(p & (!(q) S r))",
        "(true & !(false))",
        "N(p)", "O(p)", "Y(p)", "H(p)",
    ]:
        f = logic.parse_formula(text)
        assert str(logic.parse_formula(str(f))) == str(f)


def test_operator_precedence_and_associativity():
    assert str(logic.parse_formula("p & q | p")) == "((p & q) | p)"
    # implication desugars at parse time and associates to the right
    assert str(logic.parse_formula("p -> q -> p")) == "(!(p) | (!(q) | p))"
    assert str(logic.parse_formula("p & q & p")) == "(p & (q & p))"
    assert str(logic.parse_formula("!p U q")) == "(!(p) U q)"
    assert str(logic.parse_formula("F p & q")) == "(F(p) & q)"


def test_parse_errors_carry_position():
    with pytest.raises(FormulaParseError) as err:
        logic.parse_formula("F((")
    assert err.value.line == 1
    assert err.value.column >= 3
    with pytest.raises(FormulaParseError):
        logic.parse_formula("")
    with pytest.raises(FormulaParseError):
        logic.parse_formula("p q")
    with pytest.raises(FormulaParseError):
        logic.parse_formula("(U p)")


@pytest.mark.parametrize("text, message", [
    ("vAt__33", r"empty segment in atom 'vAt__33' \(line 1, column 1\)"),
    # the column is where the interpreter's stack ran out
    ("(" * 3000 + "p" + ")" * 3000,
     r"formula is nested too deeply \(line 1, column \d+\)"),
    ("p &\n  q $", r"unexpected character '\$' \(line 2, column 5\)"),
])
def test_parse_errors_are_worded(text, message):
    with pytest.raises(FormulaParseError) as err:
        logic.parse_formula(text)
    assert re.fullmatch(message, str(err.value))


def test_mixed_dialect_rejected():
    with pytest.raises(MixedDialectError):
        logic.parse_formula("F(p) & Y(q)")
    with pytest.raises(MixedDialectError):
        logic.parse_formula("(p U q) & O(p)")


def test_dialect_classification():
    # propositional formulas default to the future dialect
    assert logic.dialect(logic.parse_formula("p & !(q)")) == "LTLf"
    assert logic.dialect(logic.parse_formula("F(p)")) == "LTLf"
    assert logic.dialect(logic.parse_formula("O(p)")) == "PLTLf"
    assert logic.is_propositional(logic.parse_formula("p | q"))
    assert not logic.is_propositional(logic.parse_formula("X(p)"))
    assert logic.is_propositional(logic.parse_formula("!(p) & (q | true)"))
    assert not logic.is_propositional(logic.parse_formula("p & (q | Y(p))"))


def test_empty_trace_semantics():
    cases = {
        "G(p)": True, "H(p)": True, "N(p)": True,
        "F(p)": False, "X(p)": False, "O(p)": False, "Y(p)": False,
        "p": False, "!(p)": True,
        "(p U q)": False, "(p S q)": False,
        "true": True, "false": False,
        "!(F(p))": True, "!(G(p))": False,
    }
    for text, want in cases.items():
        assert logic.evaluate(logic.parse_formula(text), []) is want, text


def test_future_semantics_on_known_traces():
    f = logic.parse_formula("(p U q)")
    assert logic.evaluate(f, [JUST_P, JUST_P, JUST_Q])
    assert not logic.evaluate(f, [JUST_P, EMPTY, JUST_Q])
    assert logic.evaluate(f, [JUST_Q])

    g = logic.parse_formula("G((p -> X(q)))")
    assert logic.evaluate(g, [JUST_P, JUST_Q])
    # the last position has no successor, so p there falsifies X(q)
    assert not logic.evaluate(g, [JUST_Q, JUST_P])
    assert logic.evaluate(g, [EMPTY, EMPTY])


def test_past_semantics_on_known_traces():
    f = logic.parse_formula("(p & O(q))")
    assert logic.evaluate(f, [JUST_Q, EMPTY, JUST_P])
    assert not logic.evaluate(f, [EMPTY, EMPTY, JUST_P])

    g = logic.parse_formula("(!(p) S q)")
    assert logic.evaluate(g, [JUST_Q, EMPTY, EMPTY])
    assert not logic.evaluate(g, [JUST_Q, JUST_P, EMPTY])
    assert logic.evaluate(g, [JUST_P, JUST_Q])


def test_propositional_dialect_override():
    f = logic.parse_formula("p")
    trace = [EMPTY, JUST_P]
    assert not logic.evaluate(f, trace)
    assert logic.evaluate(f, trace, as_dialect="PLTLf")
    with pytest.raises(TgrError):
        logic.evaluate(f, trace, as_dialect="middle")
    with pytest.raises(TgrError):
        logic.evaluate(logic.parse_formula("F(p)"), trace, as_dialect="PLTLf")


def test_conj_disj_factories():
    parts = [logic.atom("a"), logic.atom("b"), logic.atom("c")]
    assert str(logic.conj(parts)) == "(a & (b & c))"
    assert str(logic.disj(parts)) == "(a | (b | c))"
    assert logic.conj([]).kind == "true"
    assert logic.disj([]).kind == "false"
    assert logic.conj(parts[:1]) is parts[0]


def test_subformulas_postorder_dedup():
    f = logic.parse_formula("(p & (p & q))")
    subs = logic.subformulas(f)
    assert [str(s) for s in subs] == ["p", "q", "(p & q)", "(p & (p & q))"]
    assert logic.atoms(f) == frozenset({P, Q})


def test_nnf_structure_and_equivalence():
    corpus = [f for f in ltlf_corpus() if logic.dialect(f) != "PLTLf"]
    traces = [t for t in trace_corpus(3)]

    def negation_on_atoms_only(g):
        if g.kind == "not":
            return g.children[0].kind == "atom"
        return all(negation_on_atoms_only(c) for c in g.children)

    for f in corpus[:80]:
        nf = logic.to_nnf(logic.lnot(f))
        assert negation_on_atoms_only(nf), str(nf)
        for t in traces:
            assert logic.evaluate(nf, t) == (not logic.evaluate(f, t)), \
                f"{f} on {t}"


def test_nnf_rejects_past():
    with pytest.raises(TgrError):
        logic.to_nnf(logic.parse_formula("O(p)"))


def test_a_formula_hashes_as_its_fields_and_pickles_without_the_hash():
    f = logic.parse_formula("F((at a) & X(F((at b) U !(c))))")
    assert hash(f) == hash((f.kind, f.children, f.atom))
    assert "_hash" in f.__dict__
    copy = pickle.loads(pickle.dumps(f))
    # The kept hash depends on the string hash seed, so it is not shipped.
    nodes = [copy]
    for node in nodes:  # walked without hashing
        assert "_hash" not in node.__dict__
        nodes.extend(node.children)
    assert len(nodes) == 9
    assert copy == f and hash(copy) == hash(f)
    assert {copy: 1}[f] == 1
