"""Shared test corpora: systematic small formulas over two atoms, every
trace of length 0..4 over their valuations, and PDDL inputs that the
parser or the grounder rejects."""

from tgr import logic
from tgr.errors import PddlParseError, UnsupportedFeatureError

P = logic.Atom("p")
Q = logic.Atom("q")

_SEEDS = (logic.atom("p"), logic.atom("q"))


def _closure(unaries, binaries):
    """Seed atoms, one operator layer, and a bounded second layer.

    Every result has depth at most 3, which keeps the DFA corpus runs
    fast while still covering each operator under and over negation.
    """
    lvl0 = list(_SEEDS)
    lvl1 = [u(f) for u in unaries for f in lvl0]
    lvl1 += [b(f, g) for b in binaries for f in lvl0 for g in lvl0]
    lvl2 = [u(f) for u in unaries for f in lvl1]
    lvl2 += [b(f, g) for b in binaries for f in lvl1[:6] for g in lvl0]
    return lvl0 + lvl1 + lvl2


def ltlf_corpus():
    return _closure(
        [logic.lnot, logic.next_, logic.weak_next, logic.eventually,
         logic.always],
        [logic.land, logic.lor, logic.implies, logic.until])


def pltlf_corpus():
    return _closure(
        [logic.lnot, logic.yesterday, logic.once, logic.historically],
        [logic.land, logic.lor, logic.implies, logic.since])


def trace_corpus(max_len=4):
    vals = [frozenset(), frozenset({P}), frozenset({Q}), frozenset({P, Q})]
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [t + (v,) for t in layer for v in vals]
        out.extend(layer)
    return out


def _domain(body):
    return f"(define (domain d)\n  {body})"


def _action(body):
    return _domain(f"(:predicates (p)) (:action a {body})")


_PROBLEM = "(define (problem x) (:domain d) (:init) (:goal (p)))"
_DOMAIN = _action(":parameters () :precondition (and) :effect (p)")

# (domain text, problem text, error type, message): each pair is rejected
# by `fond.parse_domain`, `fond.parse_problem` or `fond.ground`.
PDDL_ERRORS = [
    (_domain("(:types (a) - t)"), _PROBLEM, PddlParseError,
     "expected a name in types list (line 2, column 12)"),
    (_action(":precondition (not (p) (p)) :effect (p)"), _PROBLEM,
     PddlParseError, "(not ...) takes one argument in precondition of a "
     "(line 2, column 47)"),
    (_action(":precondition (oneof (p)) :effect (p)"), _PROBLEM,
     PddlParseError, "(oneof ...) is not allowed inside a condition "
     "(line 2, column 47)"),
    (_action(":precondition (or (p) (p)) :effect (p)"), _PROBLEM,
     UnsupportedFeatureError,
     "precondition of a must be a conjunction of literals"),
    (_action(":effect (oneof)"), _PROBLEM, PddlParseError,
     "(oneof) needs at least one alternative (line 2, column 41)"),
    (_action(":effect (when (p))"), _PROBLEM, PddlParseError,
     "(when condition effect) takes two arguments (line 2, column 41)"),
    (_action(":effect " + "(and " * 1500 + "(p)" + ")" * 1500), _PROBLEM,
     PddlParseError, "domain is nested too deeply"),
    ("(define (domain d e))", _PROBLEM, PddlParseError,
     "expected (domain NAME) (line 1, column 2)"),
    (_domain("(:constants c)"), _PROBLEM, UnsupportedFeatureError,
     "unsupported domain section :constants"),
    (_domain("(:predicates (p)) (:action)"), _PROBLEM, PddlParseError,
     "expected (:action NAME ...) (line 2, column 22)"),
    (_action("(p) :effect (p)"), _PROBLEM, PddlParseError,
     "expected a keyword in action a (line 2, column 33)"),
    (_action(":effect"), _PROBLEM, PddlParseError,
     "missing value for :effect in action a (line 2, column 32)"),
    (_action(":parameters p :effect (p)"), _PROBLEM, PddlParseError,
     ":parameters expects a list (line 2, column 44)"),
    (_action(":precondition (q) :effect (p)"), _PROBLEM, PddlParseError,
     "precondition atom (q) of a is not a declared fluent"),
    (_DOMAIN, "(define (problem x) (:domain))", PddlParseError,
     "expected (:domain NAME) (line 1, column 22)"),
    (_DOMAIN, "(define (problem x) (:domain d) (:init) (:goal))",
     PddlParseError, "expected (:goal CONDITION) (line 1, column 42)"),
    (_DOMAIN, "(define (problem x) (:init (p)))", PddlParseError,
     "problem x has no (:domain ...) section"),
]
