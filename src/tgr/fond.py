"""PDDL subset for fully observable nondeterministic planning.

Supported: :strips, :typing (flat or chained parents),
:negative-preconditions, :conditional-effects, and :non-deterministic
oneof effects (nested oneofs are distributed into flat alternatives).
Names are case-sensitive. Preconditions are conjunctions of literals;
conditions of `when` effects and problem goals may use and/or/not.

Grounding enumerates the full typed fluent universe in declaration
order, prunes action bindings whose static precondition literals fail in
the initial state, and yields an indexed model. A state is a Python
`int` used as a bitmask: bit i is set iff `fluents[i]` holds. Ints hash
and compare in one step and are not tracked by the cyclic garbage
collector. `successors` returns one state per nondeterministic branch
with duplicates merged.

The model is built for repeated expansion. Each action is watched under
its rarest positive precondition fluent, so `applicable_actions` tests
only the actions watched by a set bit of the state (plus those without
a positive precondition). Preconditions, effects and compiled conditions
are masks, so testing a conjunction of literals is two `&`s and applying
an effect is `(state & ~deletes) | adds`. A condition that is a
disjunction of literal conjunctions, or one conjunction and-ed with
such a disjunction (a sync guard `q & guard`), compiles to a flat tuple
of (positive, negative) mask pairs; only what does not flatten keeps a
tree of and/or/not above such tuples. Each branch keeps its
unconditional adds and deletes, and groups its conditional literals by
compiled condition, so a condition is evaluated once per branch however
many literals it guards. `ground` builds the goal-free model and
attaches the problem's goal, if any, through `with_goal`, so a goal is
compiled in one place.

The solver reads a grounding through its `TransitionTable`, made on
first use, a cache that derives each state's transitions once
(`transitions`) and keeps them by state id: flat integer arrays of
state-action pairs, the links (successors, incoming pairs, predecessors,
pair sources) over which the planner searches a set of states at a time,
and each goal's letters. Only `planner` reads it: the verifier and the
execution walks step a model through `successors`, so a policy is
checked against the model itself. A `with_goal` copy reads the table
of the goal-free grounding it was made from, made on the first read of
either, and so does every goal product over a goal-free grounding; a
compiled temporal goal is solved as its goal product (`compiled_goal`),
so its own grounding keeps no table. `goal_free_grounding` keeps the
last few goal-free groundings of the process, so every recognition of
the same problem, classical goals included, shares one grounding and its
table; `ground` itself always builds a fresh model.
`Domain` and `ProblemInstance` compute their hash once, so a memo hit
costs a lookup, not a walk over the parsed model.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, wraps
from typing import Callable, Hashable, Protocol

from . import logic
from .errors import (GroundingCapError, InapplicableActionError,
                     PddlParseError, UnsupportedFeatureError)
from .logic import Atom, Formula, _hash_once, _state_without_hash


# ---------------------------------------------------------------------------
# S-expression reader

class Symbol(str):
    """A bare token; carries its source position for error messages."""

    line: int = 0
    column: int = 0


def _read_sexprs(text: str) -> list:
    exprs: list = []
    stack: list[list] = [exprs]
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "(":
            new: list = []
            stack[-1].append(new)
            stack.append(new)
            col += 1
            i += 1
            continue
        if ch == ")":
            if len(stack) == 1:
                raise PddlParseError("unbalanced ')'", line, col)
            stack.pop()
            col += 1
            i += 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();":
            j += 1
        sym = Symbol(text[i:j])
        sym.line, sym.column = line, col
        stack[-1].append(sym)
        col += j - i
        i = j
    if len(stack) != 1:
        raise PddlParseError("unbalanced '('", line, col)
    return exprs


def _head_is(expr, word: str) -> bool:
    return isinstance(expr, list) and expr and isinstance(expr[0], str) \
        and expr[0] == word


def _err(node, message: str) -> PddlParseError:
    if isinstance(node, Symbol):
        return PddlParseError(message, node.line, node.column)
    if isinstance(node, list):
        for item in node:
            if isinstance(item, Symbol):
                return PddlParseError(message, item.line, item.column)
    return PddlParseError(message)


# ---------------------------------------------------------------------------
# Schema-level model

@dataclass(frozen=True)
class Parameter:
    name: str
    type: str


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    params: tuple[Parameter, ...]


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True


@dataclass(frozen=True)
class Effect:
    """Effect tree node: kind is one of lit, and, when, oneof."""

    kind: str
    literal: Literal | None = None
    condition: Formula | None = None
    children: tuple["Effect", ...] = ()


def eff_lit(literal: Literal) -> Effect:
    return Effect("lit", literal=literal)


def eff_and(children) -> Effect:
    return Effect("and", children=tuple(children))


def eff_when(condition: Formula, body: Effect) -> Effect:
    return Effect("when", condition=condition, children=(body,))


def eff_oneof(children) -> Effect:
    return Effect("oneof", children=tuple(children))


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[Parameter, ...]
    precondition: tuple[Literal, ...]
    effect: Effect


@dataclass(frozen=True)
class Domain:
    """A parsed domain. Its hash is computed once, since the grounding
    memo hashes it on every lookup."""

    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, parent) pairs
    predicates: tuple[PredicateSchema, ...]
    actions: tuple[ActionSchema, ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def predicate(self, name: str) -> PredicateSchema | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class ProblemInstance:
    """A parsed problem; its hash is computed once, as `Domain`'s."""

    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type) pairs
    init: frozenset[Atom]
    goal: Formula | None = None

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @cached_property
    def _goal_free(self) -> ProblemInstance:
        """This problem without its goal, one copy per instance, so that
        its hash too is computed once."""
        return replace(self, goal=None)


_KNOWN_REQUIREMENTS = {
    ":strips", ":typing", ":negative-preconditions",
    ":conditional-effects", ":non-deterministic",
}

_UNSUPPORTED_HINTS = {
    "forall", "exists", "imply", "increase", "decrease", "assign",
    "scale-up", "scale-down", "=",
}


# ---------------------------------------------------------------------------
# Parsing

def _parse_typed_list(items: list, what: str) -> list[tuple[str, str]]:
    """Parse `a b - t c - u d` into [(a,t),(b,t),(c,u),(d,"object")]."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, str):
            raise _err(tok, f"expected a name in {what} list")
        if tok == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], str):
                raise _err(tok, f"missing type after '-' in {what} list")
            t = str(items[i + 1])
            out.extend((name, t) for name in pending)
            pending = []
            i += 2
            continue
        pending.append(str(tok))
        i += 1
    out.extend((name, "object") for name in pending)
    return out


def _parse_atom(expr, what: str) -> Atom:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise _err(expr, f"malformed atom in {what}")
    head = str(expr[0])
    if head in _UNSUPPORTED_HINTS:
        raise UnsupportedFeatureError(f"unsupported construct ({head} ...) in {what}")
    if not all(isinstance(x, str) for x in expr):
        raise _err(expr, f"malformed atom in {what}")
    return Atom(head, tuple(str(x) for x in expr[1:]))


def _parse_condition(expr, what: str) -> Formula:
    """General propositional condition: and / or / not / atom."""
    if isinstance(expr, list) and expr and isinstance(expr[0], str):
        head = str(expr[0])
        if head == "and":
            return logic.conj([_parse_condition(c, what) for c in expr[1:]])
        if head == "or":
            return logic.disj([_parse_condition(c, what) for c in expr[1:]])
        if head == "not":
            if len(expr) != 2:
                raise _err(expr, f"(not ...) takes one argument in {what}")
            return logic.lnot(_parse_condition(expr[1], what))
        if head in ("oneof", "when"):
            raise _err(expr, f"({head} ...) is not allowed inside a condition")
    return logic.from_atom(_parse_atom(expr, what))


def _condition_to_literals(f: Formula, what: str) -> tuple[Literal, ...]:
    """Flatten a condition into a conjunction of literals or reject it."""
    lits: list[Literal] = []

    def walk(g: Formula) -> None:
        if g.kind == "true":
            return
        if g.kind == "and":
            walk(g.children[0])
            walk(g.children[1])
            return
        if g.kind == "atom":
            assert g.atom is not None
            lits.append(Literal(g.atom, True))
            return
        if g.kind == "not" and g.children[0].kind == "atom":
            inner = g.children[0].atom
            assert inner is not None
            lits.append(Literal(inner, False))
            return
        raise UnsupportedFeatureError(
            f"{what} must be a conjunction of literals")

    walk(f)
    return tuple(lits)


def _parse_effect(expr, what: str) -> Effect:
    if isinstance(expr, list) and expr and isinstance(expr[0], str):
        head = str(expr[0])
        if head == "and":
            return eff_and(_parse_effect(c, what) for c in expr[1:])
        if head == "oneof":
            children = [_parse_effect(c, what) for c in expr[1:]]
            if not children:
                raise _err(expr, "(oneof) needs at least one alternative")
            return eff_oneof(children)
        if head == "when":
            if len(expr) != 3:
                raise _err(expr, "(when condition effect) takes two arguments")
            cond = _parse_condition(expr[1], f"{what} when-condition")
            return eff_when(cond, _parse_effect(expr[2], what))
        if head == "not":
            if len(expr) != 2:
                raise _err(expr, "(not ...) takes one argument")
            return eff_lit(Literal(_parse_atom(expr[1], what), False))
        if head in _UNSUPPORTED_HINTS:
            raise UnsupportedFeatureError(
                f"unsupported construct ({head} ...) in {what}")
    return eff_lit(Literal(_parse_atom(expr, what), True))


def _nesting_checked(what: str):
    """Make a parser of `what` raise PddlParseError, not RecursionError,
    on input nested too deeply for its recursive descent."""

    def wrap(parse):
        @wraps(parse)
        def checked(text: str):
            try:
                return parse(text)
            except RecursionError:
                raise PddlParseError(f"{what} is nested too deeply") from None
        return checked
    return wrap


@_nesting_checked("domain")
def parse_domain(text: str) -> Domain:
    exprs = _read_sexprs(text)
    if len(exprs) != 1 or not _head_is(exprs[0], "define"):
        raise PddlParseError("expected a single (define (domain ...)) form")
    body = exprs[0][1:]
    if not body or not _head_is(body[0], "domain") or len(body[0]) != 2:
        raise _err(exprs[0], "expected (domain NAME)")
    name = str(body[0][1])

    requirements: tuple[str, ...] = ()
    types: list[tuple[str, str]] = []
    predicates: list[PredicateSchema] = []
    actions: list[ActionSchema] = []

    for section in body[1:]:
        if not isinstance(section, list) or not section \
                or not isinstance(section[0], str):
            raise _err(section, "malformed domain section")
        head = str(section[0])
        if head == ":requirements":
            reqs = [str(r) for r in section[1:]]
            for r in reqs:
                if r not in _KNOWN_REQUIREMENTS:
                    raise UnsupportedFeatureError(f"unsupported requirement {r}")
            requirements = tuple(reqs)
        elif head == ":types":
            types = _parse_typed_list(section[1:], "types")
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or not isinstance(p[0], str):
                    raise _err(p, "malformed predicate declaration")
                params = _parse_typed_list(p[1:], "predicate parameters")
                predicates.append(PredicateSchema(
                    str(p[0]), tuple(Parameter(n, t) for n, t in params)))
        elif head == ":action":
            actions.append(_parse_action(section))
        elif head in (":constants", ":functions", ":axioms", ":derived"):
            raise UnsupportedFeatureError(f"unsupported domain section {head}")
        else:
            raise UnsupportedFeatureError(f"unknown domain section {head}")

    return Domain(name, requirements, tuple(types), tuple(predicates),
                  tuple(actions))


def _parse_action(section: list) -> ActionSchema:
    if len(section) < 2 or not isinstance(section[1], str):
        raise _err(section, "expected (:action NAME ...)")
    name = str(section[1])
    params: tuple[Parameter, ...] = ()
    precondition: tuple[Literal, ...] = ()
    effect: Effect | None = None
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str) or not key.startswith(":"):
            raise _err(key, f"expected a keyword in action {name}")
        if i + 1 >= len(section):
            raise _err(key, f"missing value for {key} in action {name}")
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise _err(value, ":parameters expects a list")
            params = tuple(Parameter(n, t)
                           for n, t in _parse_typed_list(value, "parameters"))
        elif key == ":precondition":
            cond = _parse_condition(value, f"precondition of {name}")
            precondition = _condition_to_literals(
                cond, f"precondition of {name}")
        elif key == ":effect":
            effect = _parse_effect(value, f"effect of {name}")
        else:
            raise UnsupportedFeatureError(f"unsupported action keyword {key}")
        i += 2
    if effect is None:
        raise PddlParseError(f"action {name} has no :effect")
    return ActionSchema(name, params, precondition, effect)


@_nesting_checked("problem")
def parse_problem(text: str) -> ProblemInstance:
    exprs = _read_sexprs(text)
    if len(exprs) != 1 or not _head_is(exprs[0], "define"):
        raise PddlParseError("expected a single (define (problem ...)) form")
    body = exprs[0][1:]
    if not body or not _head_is(body[0], "problem") or len(body[0]) != 2:
        raise _err(exprs[0], "expected (problem NAME)")
    name = str(body[0][1])

    domain_name = ""
    objects: list[tuple[str, str]] = []
    init: list[Atom] = []
    goal: Formula | None = None

    for section in body[1:]:
        if not isinstance(section, list) or not section \
                or not isinstance(section[0], str):
            raise _err(section, "malformed problem section")
        head = str(section[0])
        if head == ":domain":
            if len(section) != 2:
                raise _err(section, "expected (:domain NAME)")
            domain_name = str(section[1])
        elif head == ":objects":
            objects = _parse_typed_list(section[1:], "objects")
        elif head == ":init":
            for item in section[1:]:
                init.append(_parse_atom(item, "init"))
        elif head == ":goal":
            if len(section) != 2:
                raise _err(section, "expected (:goal CONDITION)")
            goal = _parse_condition(section[1], "goal")
        else:
            raise UnsupportedFeatureError(f"unsupported problem section {head}")

    if not domain_name:
        raise PddlParseError(f"problem {name} has no (:domain ...) section")
    return ProblemInstance(name, domain_name, tuple(objects),
                           frozenset(init), goal)


# ---------------------------------------------------------------------------
# Branch normalization: one flat alternative list per action

def effect_branches(effect: Effect) -> list[tuple[tuple[Formula, Literal], ...]]:
    """Distribute oneof/when/and into a list of deterministic branches.

    Each branch is a tuple of (condition, literal): apply the literal when
    the condition holds in the pre-state. Independent oneofs multiply.
    """
    if effect.kind == "lit":
        assert effect.literal is not None
        return [((logic.TRUE, effect.literal),)]
    if effect.kind == "and":
        combos: list[tuple[tuple[Formula, Literal], ...]] = [()]
        for child in effect.children:
            child_branches = effect_branches(child)
            combos = [acc + cb for acc in combos for cb in child_branches]
        return combos
    if effect.kind == "oneof":
        out: list[tuple[tuple[Formula, Literal], ...]] = []
        for child in effect.children:
            out.extend(effect_branches(child))
        return out
    if effect.kind == "when":
        assert effect.condition is not None
        gate = effect.condition
        out = []
        for branch in effect_branches(effect.children[0]):
            out.append(tuple(
                (gate if cond.kind == "true" else logic.land(gate, cond), lit)
                for cond, lit in branch))
        return out
    raise UnsupportedFeatureError(f"unknown effect kind {effect.kind!r}")


# ---------------------------------------------------------------------------
# Grounding

# Compiled conditions are nested tuples evaluated against a state mask.
# A disjunction of literal conjunctions is flat: ("any", cubes), where
# each cube is a (positive mask, negative mask) pair, so an atom is one
# cube, true is the empty cube and false has none. A conjunction with a
# single cube on one side distributes that cube over the other side's
# cubes, so the flat form grows linearly; the ("not", c), ("and", l, r)
# and ("or", l, r) tree remains only above what does not flatten.
def _compile_condition(f: Formula, index: dict[Atom, int], what: str):
    k = f.kind
    if k == "atom":
        assert f.atom is not None
        i = index.get(f.atom)
        if i is None:
            raise PddlParseError(f"unknown atom {f.atom} in {what}")
        return ("any", ((1 << i, 0),))
    if k == "true":
        return ("any", ((0, 0),))
    if k == "false":
        return ("any", ())
    if k == "not":
        inner = _compile_condition(f.children[0], index, what)
        if f.children[0].kind == "atom":
            (bit, _), = inner[1]
            return ("any", ((0, bit),))
        return ("not", inner)
    if k in ("and", "or"):
        left = _compile_condition(f.children[0], index, what)
        right = _compile_condition(f.children[1], index, what)
        if left[0] == right[0] == "any":
            if k == "or":
                return ("any", left[1] + right[1])
            if len(right[1]) == 1:
                left, right = right, left
            if len(left[1]) == 1:
                (pos, neg), = left[1]
                return ("any", tuple((pos | p, neg | n) for p, n in right[1]))
        return (k, left, right)
    raise UnsupportedFeatureError(f"temporal operator inside {what}")


def _eval_compiled(cond, state: int) -> bool:
    tag = cond[0]
    if tag == "any":
        for pos, neg in cond[1]:
            if state & pos == pos and not state & neg:
                return True
        return False
    if tag == "not":
        return not _eval_compiled(cond[1], state)
    if tag == "and":
        return _eval_compiled(cond[1], state) and _eval_compiled(cond[2], state)
    return _eval_compiled(cond[1], state) or _eval_compiled(cond[2], state)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class GroundAction:
    name: str
    index: int
    # Fluent masks that must hold and must not hold.
    pre_pos: int
    pre_neg: int
    # branches[b] = (adds, deletes, guarded): the unconditional fluent
    # masks, and (compiled condition, adds, deletes) per distinct
    # condition of the branch.
    branches: tuple[tuple[int, int, tuple[tuple[object, int, int], ...]],
                    ...] = field(repr=False)


class StateModel(Protocol):
    """The state model the planner and the execution enumerator search:
    `GroundedFond`, or the goal product of `compilation.GoalProduct`.

    States are ints; actions are indices into `actions`, whose `name` is
    the ground action name. `goal` is None for a task without a goal.
    `successors(state, action)` gives one state per nondeterministic
    branch, in branch order, duplicates merged. `applicable` and
    `successors` serve the verifier and the walks over a policy, which
    read every model kind through them alone; only the solver reads a
    grounding through its `TransitionTable`, and a goal product through
    its base's (see `planner`).
    """

    s0: int
    goal: Formula | None
    actions: tuple[GroundAction, ...]
    action_index: dict[str, int]

    def applicable(self, state: int, action: int) -> bool: ...

    def successors(self, state: int, action: int) -> tuple[int, ...]: ...

    def is_goal(self, state: int) -> bool: ...

    def atoms_of(self, state: int) -> frozenset[Atom]: ...

    def state_str(self, state: int) -> str: ...


@dataclass
class GroundedFond:
    """Indexed FOND model: fluents, ground actions, initial state, goal.

    A state is an `int` whose bit i is set iff `fluents[i]` holds;
    `atoms_of` and `state_of` convert between states and atom sets.
    """

    domain: Domain
    problem: ProblemInstance
    fluents: tuple[Atom, ...]
    fluent_index: dict[Atom, int] = field(repr=False)
    actions: tuple[GroundAction, ...] = field(repr=False)
    action_index: dict[str, int] = field(repr=False)
    s0: int = 0
    goal: Formula | None = None
    _goal_compiled: object | None = field(default=None, repr=False)
    # The goal-free grounding a `with_goal` copy was made from, whose
    # `transition_table` the copy reads; None for that grounding itself.
    _source: GroundedFond | None = field(default=None, repr=False)
    # The goal product whose policy the builtin planner lifts onto this
    # model, when `compilation.compile_goal` built it for a temporal goal
    # (a `compilation.CompiledGoal`); None for every other grounding.
    compiled_goal: object | None = field(default=None, repr=False)
    # Precondition index: _watch[f] holds (index, pre_pos, pre_neg) of the
    # actions watched under fluent f, and _watched is the mask of the
    # fluents that watch some action (static fluents, set in every state,
    # watch none); _always holds the actions with no positive precondition.
    _watch: list[tuple[tuple[int, int, int], ...]] = field(
        init=False, repr=False)
    _watched: int = field(init=False, repr=False)
    _always: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        uses = Counter(f for a in self.actions for f in _bits(a.pre_pos))
        watch: list[list] = [[] for _ in self.fluents]
        always = []
        for a in self.actions:
            entry = (a.index, a.pre_pos, a.pre_neg)
            if a.pre_pos:
                rarest = min(_bits(a.pre_pos), key=lambda f: (uses[f], f))
                watch[rarest].append(entry)
            else:
                always.append(entry)
        self._watch = [tuple(entries) for entries in watch]
        self._watched = sum(1 << f for f, entries in enumerate(watch)
                            if entries)
        self._always = tuple(always)

    def with_goal(self, goal: Formula) -> GroundedFond:
        """This model with the classical goal `goal`, whose atoms must be
        fluents; the grounding and its precondition index are shared, not
        redone, and the copy reads the `transition_table` of its goal-free
        source, made on the first read, not here."""
        model = copy(self)
        model._source = self._source or self
        model.compiled_goal = None
        model.problem = replace(self.problem, goal=goal)
        model.goal = goal
        model._goal_compiled = _compile_condition(goal, self.fluent_index,
                                                  "goal")
        return model

    def applicable(self, state: int, action: int) -> bool:
        a = self.actions[action]
        return state & a.pre_pos == a.pre_pos and not state & a.pre_neg

    def applicable_actions(self, state: int) -> list[int]:
        """Indices of the actions applicable in `state`, ascending."""
        found = [i for i, _, neg in self._always if not state & neg]
        watch = self._watch
        rest = state & self._watched
        while rest:
            low = rest & -rest
            rest ^= low
            for i, pos, neg in watch[low.bit_length() - 1]:
                if state & pos == pos and not state & neg:
                    found.append(i)
        found.sort()
        return found

    def transitions(self, state: int) -> list[tuple[int, tuple[int, ...]]]:
        """`(action, successors)` per applicable action, in ascending
        action order, derived afresh; `TransitionTable` keeps what it
        returns, and the planner reads only the table."""
        actions, outcomes = self.actions, self._outcomes
        found = []
        for ai in self.applicable_actions(state):
            found.append((ai, outcomes(state, actions[ai])))
        return found

    @cached_property
    def transition_table(self) -> TransitionTable:
        """The `TransitionTable` over which the planner searches this
        model's goal, made on the first read. A `with_goal` copy reads
        its goal-free source's, so the goals of one grounding share one
        table."""
        if self._source is not None:
            return self._source.transition_table
        return TransitionTable(self)

    def successors(self, state: int, action: int) -> tuple[int, ...]:
        a = self.actions[action]
        if not self.applicable(state, action):
            raise InapplicableActionError(
                f"{a.name} is not applicable in {self.state_str(state)}")
        return self._outcomes(state, a)

    @staticmethod
    def _outcomes(state: int, a: GroundAction) -> tuple[int, ...]:
        """The successors of applying `a`, known applicable, in `state`."""
        out: list[int] = []
        for adds, dels, guarded in a.branches:
            for cond, cond_adds, cond_dels in guarded:
                if _eval_compiled(cond, state):
                    adds |= cond_adds
                    dels |= cond_dels
            succ = (state & ~dels) | adds
            if succ not in out:
                out.append(succ)
        return tuple(out)

    def is_goal(self, state: int) -> bool:
        if self._goal_compiled is None:
            raise PddlParseError("problem has no goal")
        return _eval_compiled(self._goal_compiled, state)

    def atoms_of(self, state: int) -> frozenset[Atom]:
        return frozenset(self.fluents[i] for i in _bits(state))

    def state_of(self, atoms: frozenset[Atom] | set[Atom]) -> int:
        missing = [a for a in atoms if a not in self.fluent_index]
        if missing:
            raise PddlParseError(f"unknown fluent {sorted(map(str, missing))[0]}")
        state = 0
        for a in atoms:
            state |= 1 << self.fluent_index[a]
        return state

    def state_str(self, state: int) -> str:
        return " ".join(sorted(pddl_atom_str(self.fluents[i])
                               for i in _bits(state)))


# Keys whose letters a transition table keeps: as many as the goal
# automata `automata` keeps, each keyed by its atom tuple; a classical
# goal is keyed by its formula.
_LETTER_MEMO_SIZE = 512


class TransitionTable:
    """The transitions of a model's states, each derived at most once.

    A state gets a dense id when it is first met, as the model's initial
    state, which has id 0, or as an outcome: `states[i]` is the state
    with id i. The first `pairs_at(i)` expands the state with id i
    through `model.transitions` and appends its state-action pairs to
    flat arrays: pair p applies `action[p]` and leads to the states
    whose ids are `target[out[p]:out[p + 1]]`. A state's pairs are
    stored only after all of them are derived, so a search that stops
    partway (at its state cap or deadline) leaves no partial entry for
    the next reader. An exception raised inside an expansion, such as a
    KeyboardInterrupt, undoes that expansion, since the table outlives
    the search (see `goal_free_grounding`).

    An expansion also fills four links that the planner's set-at-a-time
    search reads: `_succ[i]`, the distinct successor
    ids of state i (None until i is expanded); `_into[i]`, the pairs
    that lead to state i; `_pred[i]`, the distinct ids of the states
    that have a pair into state i, in `_into` order; and `_source[p]`,
    the id of the state that pair p applies in. They hold ids in tuples
    and lists, not sets, to keep the table small. The undo covers them
    too: it drops the pairs and the predecessor id that the interrupted
    expansion appended to a known state's `_into` and `_pred`.

    `letters(key, letter)` gives each state's letter by the caller's
    function, kept under `key` for the last `_LETTER_MEMO_SIZE` keys and
    extended as the table grows: a goal product's, keyed by its
    automaton's atoms, so that goal automata over the same atoms share
    it, or a classical goal's goal test, keyed by the goal.

    Only `planner` reads the table, so that the verifier checks a policy
    against the model, not against what the solver searched.
    """

    def __init__(self, model: GroundedFond) -> None:
        self._model = model
        self._ids: dict[int, int] = {}
        self.states: list[int] = []
        # The pairs of state i are first[i] .. stop[i] - 1; first[i] is
        # -1 until state i is expanded.
        self._first = array("i")
        self._stop = array("i")
        self.action = array("i")
        self.out = array("i", [0])
        self.target = array("i")
        self._succ: list[tuple[int, ...] | None] = []
        self._into: list[list[int]] = []
        self._pred: list[list[int]] = []
        self._source: list[int] = []
        self._letters: dict[Hashable, list[int]] = {}
        self._id(model.s0)

    def _id(self, state: int) -> int:
        i = self._ids.get(state)
        if i is None:
            # The id is published last: `_expand` undoes the rest.
            i = len(self.states)
            self.states.append(state)
            self._first.append(-1)
            self._stop.append(-1)
            self._succ.append(None)
            self._into.append([])
            self._pred.append([])
            self._ids[state] = i
        return i

    def letters(self, key: Hashable, letter: Callable[[int], int]
                ) -> list[int]:
        """Per state id, `letter` of that state: kept under `key` for the
        last `_LETTER_MEMO_SIZE` keys and extended as the table grows, so
        callers that agree on a key share one list."""
        letters = self._letters.pop(key, None)
        if letters is None:
            if len(self._letters) >= _LETTER_MEMO_SIZE:
                del self._letters[next(iter(self._letters))]
            letters = []
        self._letters[key] = letters  # now the most recent
        states = self.states
        if len(letters) < len(states):
            letters.extend(map(letter, states[len(letters):]))
        return letters

    def pairs_at(self, i: int) -> range:
        """The pair indices of the state with id i, expanding it on first
        use."""
        first = self._first[i]
        if first < 0:
            return self._expand(i)
        return range(first, self._stop[i])

    def _expand(self, i: int) -> range:
        found = self._model.transitions(self.states[i])
        states, action, out, target, into, pred, source = (
            self.states, self.action, self.out, self.target, self._into,
            self._pred, self._source)
        n_states, first, n_targets = len(states), len(action), len(target)
        try:
            succ = set()
            for ai, succs in found:
                p = len(action)
                action.append(ai)
                source.append(i)
                for t in succs:
                    t = self._id(t)
                    target.append(t)
                    into[t].append(p)
                    if t not in succ:
                        succ.add(t)
                        pred[t].append(i)
                out.append(len(target))
            self._first[i] = first
            self._stop[i] = len(action)
            self._succ[i] = tuple(succ)
        except BaseException:
            self._first[i] = -1
            self._succ[i] = None
            # A pair of this expansion is numbered `first` or above, and i
            # is the last predecessor it gave a known id; the ids met
            # first here are dropped whole below.
            for t in set(target[n_targets:]):
                if t < n_states:
                    pairs = into[t]
                    while pairs and pairs[-1] >= first:
                        pairs.pop()
                    if pred[t] and pred[t][-1] == i:
                        pred[t].pop()
            for s in states[n_states:]:
                self._ids.pop(s, None)
            del states[n_states:], self._first[n_states:], \
                self._stop[n_states:], self._succ[n_states:], \
                into[n_states:], pred[n_states:]
            del action[first:], out[first + 1:], target[n_targets:], \
                source[first:]
            raise
        return range(first, len(action))


def pddl_atom_str(a: Atom) -> str:
    """Always-parenthesized rendering, unambiguous in space-joined lists."""
    return "(" + " ".join((a.predicate,) + a.args) + ")"


def ground_action_name(action: str, args: tuple[str, ...]) -> str:
    return "(" + " ".join((action,) + args) + ")"


def _type_table(domain: Domain,
                problem: ProblemInstance) -> dict[str, list[str]]:
    parents = dict(domain.types)
    table: dict[str, list[str]] = {"object": []}
    for t, _ in domain.types:
        table.setdefault(t, [])
    for name, t in problem.objects:
        if t != "object" and t not in parents:
            raise PddlParseError(f"object {name} has undeclared type {t}")
        seen_chain = set()
        cur: str | None = t
        while cur is not None and cur not in seen_chain:
            seen_chain.add(cur)
            table.setdefault(cur, []).append(name)
            cur = parents.get(cur)
        if "object" not in seen_chain:
            table["object"].append(name)
    return table


def ground(domain: Domain, problem: ProblemInstance, *,
           fluent_cap: int = 200_000, action_cap: int = 100_000) -> GroundedFond:
    """Instantiate the schema model into an indexed ground FOND model."""
    if problem.domain_name != domain.name:
        raise PddlParseError(
            f"problem {problem.name} targets domain {problem.domain_name!r}, "
            f"got {domain.name!r}")
    by_type = _type_table(domain, problem)

    fluents: list[Atom] = []
    fluent_index: dict[Atom, int] = {}
    for pred in domain.predicates:
        pools = [by_type.get(p.type, []) for p in pred.params]
        for combo in itertools.product(*pools):
            a = Atom(pred.name, tuple(combo))
            if a not in fluent_index:
                fluent_index[a] = len(fluents)
                fluents.append(a)
            if len(fluents) > fluent_cap:
                raise GroundingCapError(
                    f"grounding exceeded {fluent_cap} fluents")

    for a in problem.init:
        if a not in fluent_index:
            raise PddlParseError(
                f"init atom {pddl_atom_str(a)} is not a well-typed instance "
                "of a declared predicate")

    static_preds = {p.name for p in domain.predicates}
    for schema in domain.actions:
        for branch in effect_branches(schema.effect):
            for _, lit in branch:
                static_preds.discard(lit.atom.predicate)

    actions: list[GroundAction] = []
    action_index: dict[str, int] = {}
    init_set = problem.init
    for schema in domain.actions:
        schema_branches = effect_branches(schema.effect)
        pools = [by_type.get(p.type, []) for p in schema.params]
        names = [p.name for p in schema.params]
        for combo in itertools.product(*pools):
            theta = dict(zip(names, combo))

            def subst(a: Atom) -> Atom:
                return Atom(a.predicate, tuple(theta.get(x, x) for x in a.args))

            pre = [0, 0]  # [positive, negative] masks
            ok = True
            for lit in schema.precondition:
                ga = subst(lit.atom)
                if ga not in fluent_index:
                    raise PddlParseError(
                        f"precondition atom {pddl_atom_str(ga)} of "
                        f"{schema.name} is not a declared fluent")
                if ga.predicate in static_preds:
                    holds = ga in init_set
                    if holds != lit.positive:
                        ok = False
                        break
                    continue
                pre[0 if lit.positive else 1] |= 1 << fluent_index[ga]
            if not ok:
                continue

            ground_branches = []
            for branch in schema_branches:
                # [adds, deletes] masks: unconditional, and per condition.
                unconditional = [0, 0]
                guarded: dict[object, list[int]] = {}
                for cond, lit in branch:
                    ga = subst(lit.atom)
                    if ga not in fluent_index:
                        raise PddlParseError(
                            f"effect atom {pddl_atom_str(ga)} of "
                            f"{schema.name} is not a declared fluent")
                    if cond.kind == "true":
                        masks = unconditional
                    else:
                        ground_cond = logic.map_atoms(
                            cond, lambda a: logic.from_atom(subst(a)))
                        masks = guarded.setdefault(_compile_condition(
                            ground_cond, fluent_index,
                            f"effect condition of {schema.name}"), [0, 0])
                    masks[0 if lit.positive else 1] |= 1 << fluent_index[ga]
                ground_branches.append((*unconditional, tuple(
                    (cond, a, d) for cond, (a, d) in guarded.items())))

            name = ground_action_name(schema.name, tuple(combo))
            action_index[name] = len(actions)
            actions.append(GroundAction(
                name=name, index=len(actions),
                pre_pos=pre[0], pre_neg=pre[1],
                branches=tuple(ground_branches)))
            if len(actions) > action_cap:
                raise GroundingCapError(
                    f"grounding exceeded {action_cap} actions")

    model = GroundedFond(
        domain=domain, problem=problem._goal_free,
        fluents=tuple(fluents), fluent_index=fluent_index,
        actions=tuple(actions), action_index=action_index,
        s0=sum(1 << fluent_index[a] for a in problem.init))
    return model if problem.goal is None else model.with_goal(problem.goal)


# Distinct problems a process keeps grounded: a few datasets or bundles.
_GROUNDING_MEMO_SIZE = 8


def goal_free_grounding(domain: Domain,
                        problem: ProblemInstance) -> GroundedFond:
    """The grounding of `problem` without its goal, shared by every caller
    that asks for an equal domain and problem.

    The last `_GROUNDING_MEMO_SIZE` groundings are kept, each with its
    `transition_table`, so a process that recognizes the same problem
    again grounds it once and expands each base state once. Callers must
    not change the shared model; `with_goal` makes a copy. A grounding
    error is raised again on every call, never stored.
    """
    return _memo_ground(domain, problem._goal_free)


@lru_cache(maxsize=_GROUNDING_MEMO_SIZE)
def _memo_ground(domain: Domain, problem: ProblemInstance) -> GroundedFond:
    return ground(domain, problem)


# ---------------------------------------------------------------------------
# Writing PDDL back out

def _format_typed(pairs) -> str:
    return " ".join(f"{n} - {t}" for n, t in pairs)


def _condition_to_sexpr(f: Formula) -> str:
    k = f.kind
    if k == "atom":
        assert f.atom is not None
        return pddl_atom_str(f.atom)
    if k == "true":
        return "(and)"
    if k == "false":
        return "(or)"
    if k == "not":
        return f"(not {_condition_to_sexpr(f.children[0])})"
    if k in ("and", "or"):
        flat: list[Formula] = []

        def gather(g: Formula) -> None:
            if g.kind == k:
                gather(g.children[0])
                gather(g.children[1])
            else:
                flat.append(g)

        gather(f)
        inner = " ".join(_condition_to_sexpr(c) for c in flat)
        return f"({k} {inner})"
    raise UnsupportedFeatureError(f"cannot write temporal operator {k} as PDDL")


def _literal_to_sexpr(lit: Literal) -> str:
    s = pddl_atom_str(lit.atom)
    return s if lit.positive else f"(not {s})"


def _effect_to_sexpr(e: Effect) -> str:
    if e.kind == "lit":
        assert e.literal is not None
        return _literal_to_sexpr(e.literal)
    if e.kind == "and":
        if not e.children:
            return "(and)"
        return "(and " + " ".join(_effect_to_sexpr(c) for c in e.children) + ")"
    if e.kind == "when":
        assert e.condition is not None
        return (f"(when {_condition_to_sexpr(e.condition)} "
                f"{_effect_to_sexpr(e.children[0])})")
    if e.kind == "oneof":
        return "(oneof " + " ".join(_effect_to_sexpr(c) for c in e.children) + ")"
    raise UnsupportedFeatureError(f"unknown effect kind {e.kind!r}")


def domain_to_pddl(domain: Domain) -> str:
    lines = [f"(define (domain {domain.name})"]
    if domain.requirements:
        lines.append("  (:requirements " + " ".join(domain.requirements) + ")")
    if domain.types:
        lines.append("  (:types " + _format_typed(domain.types) + ")")
    preds = []
    for p in domain.predicates:
        if p.params:
            inner = " ".join(f"{q.name} - {q.type}" for q in p.params)
            preds.append(f"({p.name} {inner})")
        else:
            preds.append(f"({p.name})")
    lines.append("  (:predicates " + " ".join(preds) + ")")
    for a in domain.actions:
        lines.append(f"  (:action {a.name}")
        params = " ".join(f"{p.name} - {p.type}" for p in a.params)
        lines.append(f"    :parameters ({params})")
        pre = logic.conj([logic.from_atom(l.atom) if l.positive
                          else logic.lnot(logic.from_atom(l.atom))
                          for l in a.precondition])
        lines.append(f"    :precondition {_condition_to_sexpr(pre)}")
        lines.append(f"    :effect {_effect_to_sexpr(a.effect)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(problem: ProblemInstance) -> str:
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects " + _format_typed(problem.objects) + ")")
    init = " ".join(sorted(pddl_atom_str(a) for a in problem.init))
    lines.append(f"  (:init {init})")
    if problem.goal is not None:
        lines.append(f"  (:goal {_condition_to_sexpr(problem.goal)})")
    lines.append(")")
    return "\n".join(lines) + "\n"
