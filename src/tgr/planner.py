"""Strong-cyclic planning over FOND state models.

The solver and the verifier read a model through `fond.StateModel`: a
`fond.GroundedFond`, whose states are `int` bitmasks (bit i set iff
fluent i holds), or the goal product of `compilation.GoalProduct`. A
policy maps such states to ground action indices.

Every model gets the same fixpoint. A state-action pair dies with any of
its outcomes, and a non-goal state with its last live pair. Then a
backward breadth-first search from the goals through live pairs gives
each state its goal distance (each action one step, taking the best
outcome), and the live states that get none die. The rounds repeat until
one kills nothing. Surviving pairs reach the goal under the usual
fairness assumption: every outcome of an action that is tried infinitely
often occurs infinitely often. The states counted toward the budget's
state cap are every state numbered, goals and dead ends included. A
search that numbers no goal state stops there, once numbering has passed
the cap check, with the verdict the rounds would reach: every state
dies, the initial one too, so the task is unsolvable, not capped.

One body computes it, a set of states at a time (Cimatti, Pistore,
Roveri & Traverso, AIJ 2003, state the fixpoint over sets), over a goal
automaton crossed with a grounding's `fond.TransitionTable`. A node is a
table id t with an automaton state q. Per q, the solver keeps the ids
reached with q and the dead pairs of q. Forward reachability unions the
table's successor ids and splits them by the automaton step on each
id's letter. The dead-pair propagation unions the table's incoming
pairs, less q's dead pairs. The distance search unions, one level at a
time, the table's predecessor ids of the level, or, for a q that has
dead pairs, the level's incoming pairs less those, and keeps the levels
of each q as sets of ids. The table builds those links once, so a goal
that finds its states expanded pays only for set operations, which run
in C. A node whose q accepts is a goal and one whose q can no longer
accept is dead: both are numbered but not expanded. The budget's
deadline is checked once per level, once per round and every 512 states
the search expands. This module alone reads the table; the table keeps
each goal's letters by id under a key (`fond.TransitionTable.letters`),
so a goal solved again on a warm table, or one over the same atoms,
reads them off the table.

The body reads two kinds of model:

- A goal product brings its goal's automaton (`Dfa.table`, with the
  dead states of `Dfa.dead`), its letter function over the automaton's
  atoms, which key its letters, and the table its goal-free grounding
  shares with every goal and recognition of the same problem.
- A grounding with a classical goal brings a fixed two-state automaton
  over a one-bit letter, the goal test of the id's state, keyed by the
  goal: q moves from 0 to 1, which accepts, at the first goal state. So
  a non-goal node has q = 0, and its policy state is the plain base
  state. No goal formula becomes an automaton, so the automaton's atom
  cap does not apply. Its table is the grounding's own, which a
  `GroundedFond.with_goal` copy shares with the grounding it was made
  from: a classical goal of a recognition expands only the states no
  earlier goal did.

A task that `compilation.compile_goal` built for a temporal goal is
solved by the same body on its goal product, over the goal-free
grounding the process shares, under the same budget: the product's nodes
count toward the state cap. The compiled task's states where the turn
fluent holds are the product's nodes, its goal distances twice the
product's, and its live pairs the product's, so the body's choices lift
onto it exactly: a state without the turn fluent maps to the sync
action, and one with it to the action the body chooses at its product
node (`_lifted`). Only the compiled task's policy is extracted and
checked.

Every route extracts the policy by one rule. From the initial state, the
policy maps each reachable non-goal state to its first live pair, in
action order, that has an outcome one step nearer the goals, and follows
that action's outcomes in branch order. A live state's distance is one
more than its nearest live outcome's, so this is the action whose best
outcome is closest to the goal, ties to the lowest ground-action index.
The result is deterministic and is checked by `verify_policy`, which
reads only the policy's own actions, through `applicable` and
`successors`, never the table, so it checks the policy against the model
rather than against what the search read, before the policy is returned.
The check numbers the policy's states depth first, once, whether the
policy passes or fails: a failing policy's report is read off that
graph. A policy that passes keeps the graph, from which `executions`
counts its executions without reading the model again.

The search and the check test the deadline only through the budget
(`budget.Budget.check`), which raises "planner deadline exceeded" once
it has passed; the check tests it every 512 states. The external
planner also reads the clock to give its process the time left.
"""

from __future__ import annotations

import re
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, filterfalse
from typing import AbstractSet, Callable, Hashable, Iterator, Sequence

from .budget import DEFAULT_STATE_CAP, Budget  # callers read the cap here
from .errors import (DeadlineExceeded, ExternalPlannerError, PolicyParseError,
                     UnsolvableError)
from .fond import GroundedFond, StateModel, TransitionTable
from .logic import Atom

# A node's policy step: its state, its action and the outcome nodes.
_Step = tuple[int, int, Sequence[Hashable]]


@dataclass
class Policy:
    """A partial mapping from non-goal states to ground action indices.

    A policy that `verify_policy` passed keeps the graph it verified
    (see `_policy_graph`), which `executions` reads while the mapping
    still maps every state of the graph to the action verified there.
    """

    grounded: StateModel
    mapping: dict[int, int] = field(repr=False)
    # (model, graph, action index per graph state), set by verification.
    _verified: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __len__(self) -> int:
        return len(self.mapping)


@dataclass
class PolicyReport:
    """Outcome of the independent policy check."""

    closed: bool
    strong_cyclic: bool
    counterexample: int | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.closed and self.strong_cyclic


def solve_strong_cyclic(grounded: StateModel, *,
                        budget: Budget = Budget()) -> Policy:
    """Return a strong-cyclic policy or raise UnsolvableError."""
    if grounded.goal is None:
        raise UnsolvableError("planning task has no goal")
    if grounded.is_goal(grounded.s0):
        return Policy(grounded, {})
    if getattr(grounded, "compiled_goal", None) is None:
        start, choose = _product_rounds(*_automaton(grounded), budget)
    else:
        start, choose = _lifted(grounded, budget)

    mapping: dict[int, int] = {}
    closure = [start]
    seen = {start}
    for node in closure:
        step = choose(node)
        if step is None:
            continue
        state, action, outcomes = step
        mapping[state] = action
        for t in outcomes:
            if t not in seen:
                seen.add(t)
                closure.append(t)

    policy = Policy(grounded, mapping)
    report = verify_policy(policy, budget=budget)
    if not report.ok:  # pragma: no cover - solver internal invariant
        raise UnsolvableError(f"extracted policy failed verification: "
                              f"{report.reason}")
    return policy


_PRUNED = "no strong-cyclic policy: the initial state was pruned"

# A classical goal as an automaton over one letter, the goal test: q = 1,
# the accepting state, from the first goal state on.
_GOAL_ROWS = ((0, 1), (1, 1))
_GOAL_ACCEPTING = frozenset({1})


def _automaton(model: StateModel) -> tuple:
    """What `_product_rounds` searches for `model`, a goal product or a
    grounding with a classical goal: the table, the automaton's rows,
    accepting and dead states, a function that gives the letters of the
    table's ids, kept on the table under the goal's key, and the shift
    of q in a node's state."""
    if isinstance(model, GroundedFond):
        table = model.transition_table
        return (table, _GOAL_ROWS, _GOAL_ACCEPTING, frozenset(),
                partial(table.letters, model.goal, model.is_goal),
                len(model.fluents))
    dfa, table = model.dfa, model.base.transition_table
    return (table, dfa.table, dfa.accepting, dfa.dead,
            partial(table.letters, dfa.atoms, model.letter), model._shift)


def _product_rounds(table: TransitionTable, rows: Sequence[Sequence[int]],
                    accepting: AbstractSet[int], dead: AbstractSet[int],
                    letters_of: Callable[[], list[int]], shift: int,
                    budget: Budget
                    ) -> tuple[tuple[int, int],
                               Callable[[tuple[int, int]], _Step | None]]:
    """The fixpoint over the automaton `rows` crossed with `table`, a set
    of ids at a time. A node is (table id t, automaton state q), and
    `letters_of()` gives each id's letter, for every id the table holds.
    Returns the initial node and the policy step of a node (None at a
    goal)."""
    states, succ, into, pred, source = (table.states, table._succ,
                                        table._into, table._pred,
                                        table._source)
    first, stop = table._first, table._stop
    nq = len(rows)

    def spans(ids: tuple[int, ...]) -> Iterator[range]:
        """The pairs of each expanded id, as ranges, in order."""
        return map(range, map(first.__getitem__, ids),
                   map(stop.__getitem__, ids))

    # The automaton states whose nodes have pairs: a node whose q accepts
    # is a goal, and one whose q is dead has none.
    expanded = {q for q in range(nq)
                if q not in accepting and q not in dead}
    # The outcome of a pair of (t, q) into t' is (t', rows[q][letter]),
    # the letter being t''s. Per q, usual[q] is the most common target,
    # and other[q][q2] holds the ids whose letter moves q to another q2,
    # filled as the table grows.
    usual = [max(set(row), key=row.count) for row in rows]
    moves: list[list[tuple[int, int]]] = [[] for _ in rows[0]]
    other: list[dict[int, set[int]]] = [{} for _ in rows]
    for q in expanded:
        for letter, q2 in enumerate(rows[q]):
            if q2 != usual[q]:
                moves[letter].append((q, q2))
                other[q][q2] = set()
    letters: list[int] = []

    # Forward: the ids reached with each q, one breadth-first level at a
    # time. Every numbered node counts toward the cap, which is checked
    # before the level that crosses it is expanded. The deadline is also
    # checked every 512 ids expanded.
    q0 = rows[0][letters_of()[0]]  # the table numbers s0 0
    reached: list[set[int]] = [set() for _ in rows]
    reached[q0].add(0)
    total = 1
    cold = 0
    level = {q0: {0}}
    while level:
        budget.check("planner")
        nxt: dict[int, set[int]] = {}
        for q, ids in level.items():
            if q not in expanded:
                continue
            try:
                rest = set(chain.from_iterable(map(succ.__getitem__, ids)))
            except TypeError:  # some id is not expanded yet
                for t in ids:
                    if succ[t] is None:
                        table.pairs_at(t)
                        cold += 1
                        if not cold % 512:
                            budget.check("planner")
                rest = set(chain.from_iterable(map(succ.__getitem__, ids)))
            if len(letters) < len(states):
                n = len(letters)
                letters = letters_of()
                for t in range(n, len(letters)):
                    for q1, q2 in moves[letters[t]]:
                        other[q1][q2].add(t)
            for q2, cls in other[q].items():
                part = rest & cls
                if part:
                    rest -= part
                    nxt.setdefault(q2, set()).update(part - reached[q2])
            q2 = usual[q]
            nxt.setdefault(q2, set()).update(rest - reached[q2])
        level = {}
        for q2, ids in nxt.items():
            if ids:
                reached[q2] |= ids
                total += len(ids)
                level[q2] = ids
        if level and total > budget.state_cap:
            raise budget.state_cap_error()
    # No goal node reached: the rounds would kill every node.
    goals = {q: reached[q] for q in accepting if reached[q]}
    if not goals:
        raise UnsolvableError(_PRUNED)

    # entering[q2] lists (q, cls, keep) per q whose nodes have pairs into
    # nodes of q2: into those whose ids are in cls (keep) or not in it
    # (not keep), or into all of them (cls None).
    entering: list[list[tuple[int, set[int] | None, bool]]] = [
        [] for _ in rows]
    for q in expanded:
        if reached[q]:
            for q2, cls in other[q].items():
                entering[q2].append((q, cls, True))
            entering[usual[q]].append(
                (q, set(chain.from_iterable(other[q].values())) or None,
                 False))

    # Per q: its dead nodes, and the dead pairs of its nodes.
    dead_ids: list[set[int]] = [set() for _ in rows]
    dead_pairs: list[set[int]] = [set() for _ in rows]
    for q in dead:
        dead_ids[q] = reached[q]
    for q in expanded:
        dead_ids[q] = set(filterfalse(succ.__getitem__, reached[q]))
    work = [(q, ids) for q, ids in enumerate(dead_ids) if ids]

    while True:
        budget.check("planner")
        # A pair dies with any of its outcomes; a node dies with its last
        # live pair.
        while work:
            q2, ids = work.pop()
            for q, cls, keep in entering[q2]:
                hit = ids if cls is None else ids & cls if keep else ids - cls
                gone = dead_pairs[q]
                new = set(filterfalse(gone.__contains__, chain.from_iterable(
                    map(into.__getitem__, hit))))
                if not new:
                    continue
                gone |= new
                nodes = set(map(source.__getitem__, new))
                nodes &= reached[q]
                nodes = tuple(nodes - dead_ids[q])
                died = set(compress(nodes, map(gone.issuperset,
                                               spans(nodes))))
                if died:
                    dead_ids[q] |= died
                    work.append((q, died))
        # Goal distances through live pairs, one level at a time:
        # shells[q][d] holds the ids of the nodes of q at distance d,
        # goals aside. While q has no dead pair, a node of q has a live
        # pair into the level exactly when its id is a predecessor of one
        # there; otherwise the level's incoming pairs, less the dead ones,
        # give the sources. A live node that gets none reaches no goal and
        # dies.
        todo = [reached[q] - dead_ids[q] if q in expanded else set()
                for q in range(nq)]
        shells: list[dict[int, set[int]]] = [{} for _ in rows]
        level, d = goals, 0
        while level:
            d += 1
            nxt: dict[int, set[int]] = {}
            for q2, ids in level.items():
                for q, cls, keep in entering[q2]:
                    if not todo[q]:
                        continue
                    hit = (ids if cls is None else ids & cls if keep
                           else ids - cls)
                    if dead_pairs[q]:
                        found = todo[q].intersection(map(
                            source.__getitem__,
                            filterfalse(dead_pairs[q].__contains__,
                                        chain.from_iterable(
                                            map(into.__getitem__, hit)))))
                    else:
                        found = todo[q].intersection(chain.from_iterable(
                            map(pred.__getitem__, hit)))
                    if found:
                        todo[q] -= found
                        nxt.setdefault(q, set()).update(found)
            for q, ids in nxt.items():
                shells[q][d] = ids
            level = nxt
        for q in expanded:
            lost = todo[q]
            if lost:
                dead_pairs[q].update(chain.from_iterable(spans(tuple(lost))))
                dead_ids[q] |= lost
                work.append((q, lost))
        if not work:
            break

    if 0 in dead_ids[q0]:
        raise UnsolvableError(_PRUNED)

    action, out, target = table.action, table.out, table.target

    def choose(node: tuple[int, int]) -> _Step | None:
        t, q = node
        if q in accepting:
            return None
        nearer = next(d for d, ids in shells[q].items() if t in ids) - 1
        row, gone = rows[q], dead_pairs[q]
        for p in range(first[t], stop[t]):
            if p not in gone:
                for u in target[out[p]:out[p + 1]]:
                    q2 = row[letters[u]]
                    if (nearer == 0 if q2 in accepting
                            else u in shells[q2].get(nearer, ())):
                        return (states[t] | q << shift, action[p],
                                [(u, row[letters[u]])
                                 for u in target[out[p]:out[p + 1]]])
        return None  # pragma: no cover - a live node has such a pair

    return (0, q0), choose


def _lifted(grounded: GroundedFond, budget: Budget
            ) -> tuple[int, Callable[[int], _Step | None]]:
    """The policy steps of a compiled temporal goal, lifted from the
    body's search of its goal product (`compilation.CompiledGoal`).
    Returns what `_product_rounds` does, over the compiled task's
    states: a state without the turn fluent steps by the sync action, and
    one with it by the action the body chooses at its product node (none
    at a goal)."""
    compiled = grounded.compiled_goal
    product = compiled.product()
    ids = product.base.transition_table._ids
    _, step = _product_rounds(*_automaton(product), budget)
    to_product, sync, n = compiled.product_state, compiled.sync, compiled.n
    low = (1 << n) - 1

    def choose(state: int) -> _Step | None:
        product_state = to_product(state)
        if product_state is None:
            action = sync
        else:
            chosen = step((ids[product_state & low], product_state >> n))
            if chosen is None:
                return None
            action = chosen[1]
        return state, action, grounded.successors(state, action)

    return grounded.s0, choose


def verify_policy(policy: Policy, *,
                  budget: Budget = Budget()) -> PolicyReport:
    """Check closure and strong cyclicity by an independent traversal.

    Closed: every state reachable from s0 under the policy is a goal
    state or has an applicable mapped action. Strong cyclic: from every
    reachable state, some goal state is reachable along policy edges.

    The traversal reads only the model and `policy.mapping`, through
    `_policy_graph`, and a policy that passes keeps the graph, so that
    it passes again without a traversal while the graph is current (see
    `_kept_graph`). A policy that fails is reported from the same graph:
    a breadth-first pass over its ids names the first state in that
    order with no applicable mapped action, else the first from which no
    goal is reachable. The budget's deadline is checked every 512 states
    of the graph, whether the policy passes or fails.
    """
    if _kept_graph(policy) is None:
        graph, actions, reaches = _policy_graph(policy, budget, True)
        if not all(reaches):
            return _failure(policy.grounded, graph, actions, reaches)
        policy._verified = (policy.grounded, graph, actions)
    return PolicyReport(True, True, None, "policy is closed and strong cyclic")


def _failure(g: StateModel, graph: tuple, actions: list[int | None],
             reaches: list[bool]) -> PolicyReport:
    """The report of a policy whose graph `_policy_graph` numbered and
    found failing, naming the first failing state in breadth-first
    order."""
    _, label_of, outs, _, states, _ = graph
    order = [0]  # the non-goal ids in breadth-first order
    seen = {0}
    for v in order:
        for t in outs[v]:
            if t >= 0 and t not in seen:
                seen.add(t)
                order.append(t)
    v = next((v for v in order if label_of[v] < 0), None)
    if v is None:
        v = next(v for v in order if not reaches[v])
        return PolicyReport(True, False, states[v],
                            f"no goal state is reachable from "
                            f"{g.state_str(states[v])} along policy edges")
    state, ai = states[v], actions[v]
    if ai is None:
        reason = (f"non-goal state {g.state_str(state)} reachable under "
                  "the policy has no mapped action")
    else:
        reason = (f"mapped action {g.actions[ai].name} is not applicable "
                  f"in {g.state_str(state)}")
    return PolicyReport(False, False, state, reason)


def _kept_graph(policy: Policy) -> tuple | None:
    """The graph `verify_policy` kept for `policy`, if the policy's model
    is the one verified and its mapping still maps every state of the
    graph to the action verified there; else None."""
    kept = policy._verified
    if kept is not None:
        model, graph, actions = kept
        if (model is policy.grounded
                and list(map(policy.mapping.get, graph[4])) == actions):
            return graph
    return None


def _graph_of(policy: Policy, budget: Budget) -> tuple:
    """The graph of `policy` for `executions`: `_kept_graph`'s, else one
    built afresh by `_policy_graph`."""
    graph = _kept_graph(policy)
    if graph is None:
        graph = _policy_graph(policy, budget)[0]
    return graph


def _policy_graph(policy: Policy, budget: Budget, verify: bool = False
                  ) -> tuple[tuple, list[int | None], list[bool]]:
    """Number the states of `policy` depth first from s0 and find the
    cycles through them (Tarjan's algorithm, iterative). The executions
    walk and count over these ids, and `verify_policy` reports from them;
    only this reads the policy's mapping and the model's successors and
    goal test for them.

    Returns the graph (names, label_of, outs, comp, states, goals), the
    action index of each state (None where the policy maps none), and
    whether a goal is reachable from each state. `names` are the action
    names by label. Per state id: its action's label (-1 if the policy
    maps no action there or, with `verify`, one not applicable there,
    whose successors it then never asks for), its outcomes' ids in order
    (~j for the j-th goal state met), the id of its strongly connected
    component if a cycle runs through the state, else -1, and the state
    itself. `goals` are the goal states by j. When s0 is a goal, only
    `goals` is non-empty. Components complete in reverse topological
    order, so one reaches a goal exactly when some outcome of its states
    is a goal or a state of an earlier component that reaches one. The
    budget's deadline is checked every 512 states, for the stage that
    asked: the planner when verifying, else execution enumeration.
    """
    g = policy.grounded
    mapping = policy.mapping
    stage = "planner" if verify else "execution enumeration"
    names: list[str] = []
    label_of: list[int] = []
    outs: list[list[int]] = []
    comp: list[int] = []
    states: list[int] = []
    goals: list[int] = []
    actions: list[int | None] = []
    reaches: list[bool] = []
    graph = names, label_of, outs, comp, states, goals
    if g.is_goal(g.s0):
        goals.append(g.s0)
        return graph, actions, reaches
    ids = {g.s0: 0}
    labels: dict[int, int] = {}  # action index -> label
    # Tarjan's low links, ids doubling as visit order; a state whose
    # component is complete gets `done`, which no comparison picks. The
    # path holds ids in ascending order.
    low: list[int] = []
    done = sys.maxsize
    path: list[int] = []
    stack: list[tuple] = []
    state = g.s0
    while True:
        if state is not None:  # enter it as state len(outs)
            i = len(outs)
            if i and not i % 512:
                budget.check(stage)
            ai = mapping.get(state)
            if ai is None or verify and not g.applicable(state, ai):
                lab, succs = -1, ()
            else:
                lab = labels.get(ai)
                if lab is None:
                    lab = labels[ai] = len(names)
                    names.append(g.actions[ai].name)
                succs = g.successors(state, ai)
            label_of.append(lab)
            outs.append([])
            comp.append(-1)
            states.append(state)
            actions.append(ai)
            reaches.append(False)
            low.append(i)
            path.append(i)
            stack.append((i, iter(succs)))
            state = None
        v, pending = stack[-1]
        row = outs[v]
        for succ in pending:
            w = ids.get(succ)
            if w is None:
                if not g.is_goal(succ):
                    ids[succ] = len(outs)
                    row.append(len(outs))
                    state = succ
                    break
                w = ids[succ] = ~len(goals)
                goals.append(succ)
            row.append(w)
            if w >= 0 and low[w] < low[v]:
                low[v] = low[w]
        else:
            stack.pop()
            if low[v] == v:
                k = bisect_left(path, v)
                members = path[k:]
                del path[k:]
                # The members' own flags are still False here.
                found = any(t < 0 or reaches[t]
                            for w in members for t in outs[w])
                for w in members:
                    low[w] = done
                    reaches[w] = found
                if len(members) > 1 or v in row:
                    for w in members:
                        comp[w] = v
            if not stack:
                return graph, actions, reaches
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]


# ---------------------------------------------------------------------------
# Policy text format and the external planner adapter

def policy_to_text(policy: Policy) -> str:
    """One line per entry: sorted state fluents, a tab, the action."""
    g = policy.grounded
    lines = []
    for state, ai in policy.mapping.items():
        lines.append(f"{g.state_str(state)}\t{g.actions[ai].name}")
    return "\n".join(lines) + ("\n" if lines else "")


_ATOM_RE = re.compile(r"\(([^()]*)\)")


def _parse_atom_list(text: str) -> list[Atom]:
    out = []
    for inner in _ATOM_RE.findall(text):
        parts = inner.split()
        if not parts:
            raise PolicyParseError(f"empty atom in {text!r}")
        out.append(Atom(parts[0], tuple(parts[1:])))
    return out


def policy_from_text(text: str, grounded: GroundedFond) -> Policy:
    """Parse the policy text format against a grounded model."""
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Split the unstripped line: the empty state's line starts with
        # the tab.
        if "\t" not in raw:
            raise PolicyParseError(
                f"line {lineno}: expected 'state<TAB>action', got {raw!r}")
        state_part, action_part = raw.split("\t", 1)
        atoms = _parse_atom_list(state_part)
        try:
            state = grounded.state_of(frozenset(atoms))
        except Exception as exc:
            raise PolicyParseError(f"line {lineno}: {exc}") from exc
        action = action_part.strip()
        ai = grounded.action_index.get(action)
        if ai is None:
            raise PolicyParseError(
                f"line {lineno}: unknown action {action!r}")
        mapping[state] = ai
    return Policy(grounded, mapping)


def solve_with_external(command: str, grounded: GroundedFond,
                        domain_text: str, problem_text: str, *,
                        budget: Budget = Budget()) -> Policy:
    """Run an external planner: `command domain.pddl problem.pddl`, with
    `command` split as a POSIX shell line would be (`shlex.split`), so
    that a quoted path may hold spaces.

    The planner must print the policy in the text format above on stdout
    and exit 0; exit code 2 means the task is unsolvable; anything else
    is an error. The returned policy is verified before use. A deadline
    that has passed starts no process; the process gets the time left,
    and the verification checks the deadline too.
    """
    # Imported here: only an external planner runs a process.
    import shlex
    import subprocess
    import tempfile

    budget.check("planner")
    try:
        words = shlex.split(command)
    except ValueError as exc:
        raise ExternalPlannerError(
            f"cannot split planner command {command!r}: {exc}") from exc
    timeout = (None if budget.deadline is None
               else budget.deadline - time.monotonic())
    with tempfile.TemporaryDirectory(prefix="tgr-planner-") as tmp:
        dom = f"{tmp}/domain.pddl"
        prob = f"{tmp}/problem.pddl"
        with open(dom, "w") as fh:
            fh.write(domain_text)
        with open(prob, "w") as fh:
            fh.write(problem_text)
        argv = words + [dom, prob]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=timeout)
        except FileNotFoundError as exc:
            raise ExternalPlannerError(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise DeadlineExceeded(
                "external planner exceeded its deadline") from exc
    if proc.returncode == 2:
        raise UnsolvableError(
            "external planner reports the task unsolvable")
    if proc.returncode != 0:
        raise ExternalPlannerError(
            f"external planner exited with {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}")
    try:
        policy = policy_from_text(proc.stdout, grounded)
    except PolicyParseError as exc:
        raise ExternalPlannerError(f"bad policy output: {exc}") from exc
    report = verify_policy(policy, budget=budget)
    if not report.ok:
        raise ExternalPlannerError(
            f"external policy failed verification: {report.reason}")
    return policy
