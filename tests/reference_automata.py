"""Plain automaton constructions, kept as test oracles.

`minimize` is the textbook minimizer: it fills the table of
distinguishable state pairs (Myhill-Nerode) until nothing changes, then
numbers the classes breadth first from the initial state, successors in
letter order. It is quadratic in the states, but plainly faithful to the
definition, so `tgr.automata._finish` is checked against it.

`pltlf_to_dfa` is the PLTLf construction as first written: it keeps the
truth value of every subformula in its state, atoms included, so before
minimization it has a state per letter read last.
`tgr.automata.pltlf_to_dfa` keeps only the values the next step reads,
and must build the same minimal DFA.

`ltlf_to_dfa` is the LTLf subset construction as first written: a state
keeps every obligation set its NFA states step to, including those that
contain another set of the same state. `tgr.automata.ltlf_to_dfa` drops
those, and must build the same minimal DFA. The oracle can need
thousands of states where the pruned step needs dozens, so call it under
a small state cap.
"""

from tgr import automata, logic
from tgr.errors import TgrError


def minimize(rows, accepting):
    """(accepting, table) of the minimal DFA of a complete automaton with
    initial state 0, numbered breadth first."""
    n = len(rows)
    apart = {(p, q) for p in range(n) for q in range(p)
             if (p in accepting) != (q in accepting)}
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(p):
                if (p, q) not in apart and any(
                        (max(a, b), min(a, b)) in apart
                        for a, b in zip(rows[p], rows[q])):
                    apart.add((p, q))
                    changed = True
    # Each class is named by its least state.
    least = [next(q for q in range(p + 1) if q == p or (p, q) not in apart)
             for p in range(n)]
    order = {least[0]: 0}
    queue = [least[0]]
    for r in queue:
        for t in rows[r]:
            if least[t] not in order:
                order[least[t]] = len(order)
                queue.append(least[t])
    return (frozenset(order[r] for r in queue if r in accepting),
            tuple(tuple(order[least[t]] for t in rows[r]) for r in queue))


def pltlf_to_dfa(f, state_cap=automata.DEFAULT_STATE_CAP):
    """The truth-vector construction over every subformula."""
    subs = logic.subformulas(f)
    index = {g: i for i, g in enumerate(subs)}
    root = index[f]

    def advance(prev, val):
        now = []
        for g in subs:
            k = g.kind
            if k == "atom":
                v = g.atom in val
            elif k == "true":
                v = True
            elif k == "false":
                v = False
            elif k == "not":
                v = not now[index[g.children[0]]]
            elif k == "and":
                v = now[index[g.children[0]]] and now[index[g.children[1]]]
            elif k == "or":
                v = now[index[g.children[0]]] or now[index[g.children[1]]]
            elif k == "yesterday":
                v = prev is not None and prev[index[g.children[0]]]
            elif k == "since":
                a, b = g.children
                v = now[index[b]] or (now[index[a]]
                                      and prev is not None and prev[index[g]])
            elif k == "once":
                v = now[index[g.children[0]]] or (prev is not None
                                                  and prev[index[g]])
            elif k == "historically":
                v = now[index[g.children[0]]] and (prev is None
                                                   or prev[index[g]])
            else:
                raise TgrError(f"unexpected kind in past formula: {k!r}")
            now.append(v)
        return tuple(now)

    return automata._determinize(f, tuple(sorted(logic.atoms(f))), advance,
                                 lambda vec: vec[root], state_cap)


def ltlf_to_dfa(f, state_cap=automata.DEFAULT_STATE_CAP):
    """The obligation-set subset construction without pruning."""
    nnf = logic.to_nnf(f)
    memo = {}

    def step(value, letter):
        if value is None:
            return automata._expand(nnf, letter, memo)
        targets = frozenset()
        for nfa_state in value:
            targets |= automata._nfa_step(nfa_state, letter, memo)
        return targets

    return automata._determinize(
        f, tuple(sorted(logic.atoms(f) | logic.atoms(nnf))), step,
        lambda value: any(map(automata._nfa_accepting, value)), state_cap)
