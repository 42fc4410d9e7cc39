"""Translation of finite-trace temporal formulas into minimal DFAs.

The alphabet of a formula's DFA is the powerset of its atoms. Letters are
handled as "minterms": integer bitmasks over the sorted atom tuple, so the
exponential alphabet is never materialized as formula objects. Transition
guards presented to callers are propositional formulas obtained from the
minterm groups by Quine-McCluskey simplification, built the first time
they are read: the planning pipeline steps automata through the table
and never reads them.

One breadth-first driver builds the DFA of either dialect: it enforces
the atom and state caps, reads every minterm letter from each state, and
numbers the states it reaches. Only the step and the acceptance test
differ. For LTLf, a state
is a set of states of a syntax-driven NFA over the negation normal form
(NFA states are sets of pending obligations), so the driver performs
subset construction, dropping each obligation set that contains another
of the same state. For PLTLf, a state is the truth value of every
subformula after reading a prefix (the standard truth-vector
construction), kept only where the next step reads it. The result is
complete and minimized by Moore's signature refinement, each block
numbered by its first state; since the driver numbers states
breadth first, equal formulas always yield structurally identical
automata.

Since the construction never reads an atom's name, only its position
in the sorted atom tuple, `formula_to_dfa` builds one automaton per
shape (the formula with its atoms renamed, in sort order, to
placeholders) and gives each formula of that shape the shape's states
and table over its own atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Hashable, Iterable, Sequence

from . import logic
from .errors import AutomatonCapError, TgrError
from .logic import Atom, Formula

DEFAULT_STATE_CAP = 100_000
_MAX_ATOMS = 12  # alphabet has 2^n minterms; beyond this the table is hopeless
_DFA_MEMO_SIZE = 512  # above the default bench's 360 (problem, goal) pairs


@dataclass(frozen=True)
class Dfa:
    """A complete, minimal DFA over subsets of `atoms`.

    `table[s][m]` is the successor of state s on minterm m, where bit i of
    m is the truth of atoms[i]. `transitions[s]` presents the same rows as
    (guard formula, target) pairs with mutually exclusive, total guards;
    it is computed from `atoms` and `table` on first use. State 0 is
    initial.
    """

    atoms: tuple[Atom, ...]
    accepting: frozenset[int]
    table: tuple[tuple[int, ...], ...]

    @cached_property
    def transitions(self) -> tuple[tuple[tuple[Formula, int], ...], ...]:
        return _guard_rows(self.atoms, self.table)

    @property
    def n_states(self) -> int:
        return len(self.table)

    @cached_property
    def dead(self) -> frozenset[int]:
        """The states from which no word reaches an accepting state: in a
        minimal DFA, the rejecting sink if it has one."""
        preds: list[set[int]] = [set() for _ in self.table]
        for s, row in enumerate(self.table):
            for t in row:
                preds[t].add(s)
        alive = set(self.accepting)
        queue = list(alive)
        while queue:
            for s in preds[queue.pop()]:
                if s not in alive:
                    alive.add(s)
                    queue.append(s)
        return frozenset(range(self.n_states)) - alive

    def minterm(self, valuation: Iterable[Atom]) -> int:
        val = valuation if isinstance(valuation, (set, frozenset)) else set(valuation)
        m = 0
        for i, a in enumerate(self.atoms):
            if a in val:
                m |= 1 << i
        return m

    def step(self, state: int, valuation: Iterable[Atom]) -> int:
        return self.table[state][self.minterm(valuation)]

    def accepts(self, trace: Sequence[Iterable[Atom]]) -> bool:
        state = 0
        for valuation in trace:
            state = self.step(state, valuation)
        return state in self.accepting


@dataclass(frozen=True)
class Pdfa(Dfa):
    """A DFA whose atoms mention parameters instead of concrete objects.

    `object_map` records, in order, which object each parameter replaced.
    Atom order matches the source DFA so `instantiate` is the structural
    inverse of `lift`. Guards are built from the lifted atoms on first
    use; lifting renames atoms and keeps their positions, so they equal
    the source DFA's guards with the objects renamed.
    """

    object_map: tuple[tuple[str, str], ...] = ()  # (object, variable) pairs

    def instantiate(self, bindings: dict[str, str] | None = None) -> Dfa:
        """Substitute objects back for variables. With no argument, undo
        the lift exactly."""
        if bindings is None:
            bindings = {var: obj for obj, var in self.object_map}
        missing = [var for _, var in self.object_map if var not in bindings]
        if missing:
            raise TgrError(f"instantiate: no binding for {missing[0]!r}")
        sub = {a: Atom(a.predicate, tuple(bindings.get(x, x) for x in a.args))
               for a in self.atoms}
        return Dfa(
            atoms=tuple(sub[a] for a in self.atoms),
            accepting=self.accepting,
            table=self.table,
        )


# ---------------------------------------------------------------------------
# LTLf: obligation-set NFA + subset construction

def _expand(f: Formula, val: frozenset[Atom],
            memo: dict) -> frozenset[frozenset]:
    """Ways to satisfy NNF formula `f` when the current letter is `val`.

    Each way is a set of obligations (strong, formula) that the rest of
    the trace must fulfil; a strong obligation demands that a next letter
    exists. The empty result means `f` cannot hold here.
    """
    key = (f, val)
    hit = memo.get(key)
    if hit is not None:
        return hit
    k = f.kind
    empty = frozenset()
    if k == "atom":
        out = frozenset([empty]) if f.atom in val else frozenset()
    elif k == "not":  # NNF: child is an atom
        child = f.children[0]
        out = frozenset() if child.atom in val else frozenset([empty])
    elif k == "true":
        out = frozenset([empty])
    elif k == "false":
        out = frozenset()
    elif k == "and":
        lefts = _expand(f.children[0], val, memo)
        rights = _expand(f.children[1], val, memo)
        out = frozenset(x | y for x in lefts for y in rights)
    elif k == "or":
        out = _expand(f.children[0], val, memo) | _expand(f.children[1], val, memo)
    elif k == "next":
        out = frozenset([frozenset([(True, f.children[0])])])
    elif k == "weak_next":
        out = frozenset([frozenset([(False, f.children[0])])])
    elif k == "until":
        now = _expand(f.children[1], val, memo)
        later = _expand(f.children[0], val, memo)
        out = now | frozenset(x | frozenset([(True, f)]) for x in later)
    elif k == "eventually":
        now = _expand(f.children[0], val, memo)
        out = now | frozenset([frozenset([(True, f)])])
    elif k == "always":
        now = _expand(f.children[0], val, memo)
        out = frozenset(x | frozenset([(False, f)]) for x in now)
    else:  # pragma: no cover
        raise TgrError(f"unexpected kind in NNF: {k!r}")
    memo[key] = out
    return out


def _nfa_step(state: frozenset, val: frozenset[Atom],
              memo: dict) -> frozenset[frozenset]:
    """Successor obligation sets of an NFA state on letter `val`."""
    options: frozenset[frozenset] = frozenset([frozenset()])
    for _, formula in state:
        ways = _expand(formula, val, memo)
        if not ways:
            return frozenset()
        options = frozenset(acc | w for acc in options for w in ways)
    return options


def _nfa_accepting(state: frozenset) -> bool:
    return all(not strong for strong, _ in state)


def _least_sets(targets: frozenset[frozenset]) -> frozenset[frozenset]:
    """`targets` less every obligation set that strictly contains another.

    A DFA state is a disjunction of its obligation sets, and a superset
    asks for more than the set it contains, so dropping it keeps the
    state's language; it keeps acceptance too, since a superset with no
    strong obligation contains a set with none.
    """
    return frozenset(t for t in targets if not any(o < t for o in targets))


def ltlf_to_dfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Minimal DFA accepting exactly the finite traces satisfying `f`."""
    if logic.dialect(f) != "LTLf":
        raise TgrError("ltlf_to_dfa requires a future-dialect formula")
    nnf = logic.to_nnf(f)
    memo: dict = {}

    # A state is a set of NFA states; the initial state's successors come
    # from expanding the formula itself.
    def step(value: frozenset | None, letter: frozenset[Atom]) -> frozenset:
        if value is None:
            return _least_sets(_expand(nnf, letter, memo))
        targets: frozenset = frozenset()
        for nfa_state in value:
            targets |= _nfa_step(nfa_state, letter, memo)
        return _least_sets(targets)

    return _determinize(
        f, tuple(sorted(logic.atoms(f) | logic.atoms(nnf))), step,
        lambda value: any(_nfa_accepting(s) for s in value), state_cap)


# ---------------------------------------------------------------------------
# PLTLf: truth-vector construction

def pltlf_to_dfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Minimal DFA accepting the traces whose final position satisfies `f`."""
    if logic.dialect(f) != "PLTLf":
        # A purely propositional formula is also fine here: read it as a
        # past formula evaluated at the last position.
        if not logic.is_propositional(f):
            raise TgrError("pltlf_to_dfa requires a past-dialect formula")
    subs = logic.subformulas(f)
    index = {g: i for i, g in enumerate(subs)}
    root = index[f]
    # A state keeps only what the next step reads: the root, the operand
    # of each Y, and each S, O and H itself. Vectors that agree there
    # agree on acceptance and on every successor, so the minimal DFA is
    # the one full vectors give, and no state records the last letter.
    read = {root}
    for i, g in enumerate(subs):
        if g.kind == "yesterday":
            read.add(index[g.children[0]])
        elif g.kind in ("since", "once", "historically"):
            read.add(i)
    kept = [i in read for i in range(len(subs))]

    def advance(prev: tuple[bool, ...] | None, val: frozenset[Atom]) -> tuple[bool, ...]:
        now: list[bool] = []
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
                v = now[index[g.children[0]]] or (prev is not None and prev[index[g]])
            elif k == "historically":
                v = now[index[g.children[0]]] and (prev is None or prev[index[g]])
            else:  # pragma: no cover
                raise TgrError(f"unexpected kind in past formula: {k!r}")
            now.append(v)
        return tuple(v and k for v, k in zip(now, kept))

    return _determinize(f, tuple(sorted(logic.atoms(f))), advance,
                        lambda vec: vec[root], state_cap)


# ---------------------------------------------------------------------------
# Determinization shared by both dialects

def _determinize(f: Formula, atoms: tuple[Atom, ...],
                 step: Callable[[Hashable | None, frozenset[Atom]], Hashable],
                 accepts: Callable[[Hashable], bool], state_cap: int) -> Dfa:
    """Breadth-first construction of the DFA whose states are the values
    `step` reaches from the initial value None, one letter per minterm
    over `atoms`, then minimized by `_finish`. States are numbered in the
    order they are first reached, successors in minterm order, which is
    the order `_finish` needs; `state_cap` bounds their number.

    The initial state accepts iff `f` holds on the empty trace; any other
    state accepts iff `accepts` holds of its value.
    """
    if len(atoms) > _MAX_ATOMS:
        raise AutomatonCapError(
            f"formula has {len(atoms)} atoms; the minterm alphabet cap is "
            f"{_MAX_ATOMS}")
    letters = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
               for m in range(1 << len(atoms))]
    ids: dict[Hashable, int] = {}
    values: list[Hashable | None] = [None]
    rows: list[list[int]] = []
    acc = {0} if logic.evaluate(f, []) else set()
    for value in values:  # grows as new values are numbered
        row = []
        for letter in letters:
            target = step(value, letter)
            idx = ids.get(target)
            if idx is None:
                idx = len(values)
                if idx >= state_cap:
                    raise AutomatonCapError(f"DFA exceeded {state_cap} states")
                ids[target] = idx
                values.append(target)
                if accepts(target):
                    acc.add(idx)
            row.append(idx)
        rows.append(row)
    return _finish(atoms, rows, acc)


def formula_to_dfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Dispatch on dialect; propositional formulas use the LTLf reading.

    The automaton is built once per shape: `f` with its k sorted atoms
    renamed to k placeholders that sort the same way. That is exact. The
    construction reads an atom only through its membership in a letter,
    with bit i of a minterm standing for the i-th sorted atom, and
    minimization numbers the states canonically; so `f`'s DFA is the
    shape's with the real atoms put back, and no error message names an
    atom. Goals drawn from a few templates over many atoms thus share a
    few constructions, and their automata share the shape's table.

    The construction is pure and its result immutable, so the last
    `_DFA_MEMO_SIZE` formulas and, behind them, the last `_DFA_MEMO_SIZE`
    shapes are memoized: a recognizer asked about the same goals again
    builds each automaton once. A cap error is raised again on every
    call, never stored.
    """
    # Both arguments go to the memo positionally, so a call that relies
    # on the default cap and one that passes it share an entry.
    return _memo_dfa(f, state_cap)


@lru_cache(maxsize=_DFA_MEMO_SIZE)
def _memo_dfa(f: Formula, state_cap: int) -> Dfa:
    atoms = tuple(sorted(logic.atoms(f)))
    # Zero-padded, so that "p10" does not sort before "p2".
    width = len(str(len(atoms)))
    placeholders = {a: logic.from_atom(Atom(f"p{i:0{width}d}"))
                    for i, a in enumerate(atoms)}
    shape = _memo_shape(logic.map_atoms(f, placeholders.__getitem__),
                        state_cap)
    return Dfa(atoms=atoms, accepting=shape.accepting, table=shape.table)


@lru_cache(maxsize=_DFA_MEMO_SIZE)
def _memo_shape(f: Formula, state_cap: int) -> Dfa:
    return (pltlf_to_dfa(f, state_cap) if logic.dialect(f) == "PLTLf"
            else ltlf_to_dfa(f, state_cap))


# ---------------------------------------------------------------------------
# Minimization

def _finish(atoms: tuple[Atom, ...], rows: list[list[int]],
            accepting: set[int]) -> Dfa:
    """The minimal DFA of `rows`, by Moore's signature refinement.

    Starting from the accepting/rejecting split, each round gives every
    state the signature (its block, the blocks of its row) and numbers
    the signatures by the first state that has them; the partition is
    final when a round splits no block. Each block thus takes the number
    of its first state, and the minimal table is read off that state's
    row.

    The numbering is canonical only if `rows` holds reachable states
    only, numbered breadth first from state 0 with successors in minterm
    order, as `_determinize` numbers them. Then the blocks' first states
    come in the order in which a breadth-first walk of the minimal DFA
    meets the blocks, so equal languages give equal tables.
    """
    block = [s in accepting for s in range(len(rows))]
    n_blocks = len(set(block))
    while True:
        numbers: dict[tuple, int] = {}
        block = [numbers.setdefault((block[s], *map(block.__getitem__, row)),
                                    len(numbers))
                 for s, row in enumerate(rows)]
        if len(numbers) == n_blocks:
            break
        n_blocks = len(numbers)
    table: list[tuple[int, ...]] = []
    for s, row in enumerate(rows):
        if block[s] == len(table):  # s is the first state of its block
            table.append(tuple(block[t] for t in row))
    return Dfa(atoms=atoms, accepting=frozenset(block[s] for s in accepting),
               table=tuple(table))


def _guard_rows(atoms: tuple[Atom, ...], table: tuple[tuple[int, ...], ...]
                ) -> tuple[tuple[tuple[Formula, int], ...], ...]:
    """Per state, one (guard, target) pair per distinct target, in order
    of the first minterm leading there; each guard covers exactly the
    minterms of its target."""
    rows = []
    for targets in table:
        groups: dict[int, list[int]] = {}
        for m, t in enumerate(targets):
            groups.setdefault(t, []).append(m)
        rows.append(tuple((_minterms_to_formula(ms, atoms), t)
                          for t, ms in groups.items()))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Guard synthesis: Quine-McCluskey simplification of minterm groups

def _prime_implicants(masks: list[int], nbits: int) -> list[tuple[int, int]]:
    current = {(v, 0) for v in masks}
    primes: set[tuple[int, int]] = set()
    while current:
        nxt: set[tuple[int, int]] = set()
        merged: set[tuple[int, int]] = set()
        items = sorted(current)
        for i, (v1, d1) in enumerate(items):
            for v2, d2 in items[i + 1:]:
                if d1 != d2:
                    continue
                diff = v1 ^ v2
                if diff and not diff & (diff - 1):
                    nxt.add((v1 & ~diff, d1 | diff))
                    merged.add((v1, d1))
                    merged.add((v2, d2))
        primes |= current - merged
        current = nxt
    return sorted(primes)


def _covers(term: tuple[int, int], minterm: int) -> bool:
    value, dontcare = term
    return (minterm & ~dontcare) == value


def _minterms_to_formula(masks: list[int], atoms: tuple[Atom, ...]) -> Formula:
    nbits = len(atoms)
    if len(masks) == 1 << nbits:
        return logic.TRUE
    primes = _prime_implicants(masks, nbits)
    uncovered = set(masks)
    chosen: list[tuple[int, int]] = []
    while uncovered:
        best = None
        best_gain = -1
        for term in primes:
            gain = sum(1 for m in uncovered if _covers(term, m))
            if gain > best_gain:
                best, best_gain = term, gain
        assert best is not None
        chosen.append(best)
        uncovered -= {m for m in uncovered if _covers(best, m)}
        primes.remove(best)
    chosen.sort()
    terms = []
    for value, dontcare in chosen:
        literals = []
        for i, a in enumerate(atoms):
            if dontcare >> i & 1:
                continue
            lit = logic.from_atom(a)
            literals.append(lit if value >> i & 1 else logic.lnot(lit))
        terms.append(logic.conj(literals))
    return logic.disj(terms)


# ---------------------------------------------------------------------------
# Lifting and rendering

def lift(dfa: Dfa, objects: Sequence[str]) -> Pdfa:
    """Replace each object of interest with a fresh parameter throughout
    the DFA's atoms and guards. Objects must occur among the atom
    arguments and must be distinct."""
    if len(set(objects)) != len(objects):
        raise TgrError("lift: objects of interest must be distinct")
    seen = {arg for a in dfa.atoms for arg in a.args}
    for obj in objects:
        if obj not in seen:
            raise TgrError(f"lift: object {obj!r} does not occur in the DFA atoms")
    mapping = {obj: f"?x{i}" for i, obj in enumerate(objects)}
    sub = {a: Atom(a.predicate, tuple(mapping.get(x, x) for x in a.args))
           for a in dfa.atoms}
    return Pdfa(
        atoms=tuple(sub[a] for a in dfa.atoms),
        accepting=dfa.accepting,
        table=dfa.table,
        object_map=tuple((obj, mapping[obj]) for obj in objects),
    )


def to_dot(dfa: Dfa) -> str:
    """Graphviz rendering with guard-labelled edges."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for s in range(dfa.n_states):
        shape = "doublecircle" if s in dfa.accepting else "circle"
        lines.append(f"  q{s} [shape={shape}, label=\"q{s}\"];")
    lines.append("  hidden -> q0;")
    for s, row in enumerate(dfa.transitions):
        for guard, target in row:
            label = str(guard).replace('"', '\\"')
            lines.append(f"  q{s} -> q{target} [label=\"{label}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
