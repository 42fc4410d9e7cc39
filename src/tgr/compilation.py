"""Temporal goals as FOND tasks: the goal product and its PDDL compilation.

`GoalProduct` is the product of the grounded domain and the goal
automaton (De Giacomo & Rubin, IJCAI 2018), expanded on the fly as the
planner searches it: one grounding serves every goal, and the automaton
steps on the letter of each base state. The builtin planner searches
every temporal goal this way.

`compile_goal` encodes the same product as a PDDL task, which is what
`tgr compile`, `tgr plan` and external planners get. The grounding it
returns records its goal product (`CompiledGoal`), so the builtin
planner solves that product and lifts the policy onto the compiled
task; only external planners search the compiled task itself.

The automaton for the goal formula is embedded into the planning task:
one zero-ary fluent per automaton state, plus a turn-alternation fluent.
The parametric emission (`emit_pddl(aug, "parametric")`) comes from the
same builder with the automaton lifted: its fluents and the sync action
take one parameter per object of the goal, pinned by a static `tracked`
fact. Every domain action requires the turn fluent and retracts it; a
single sync action (`trans`) requires it to be false and asserts it,
advancing the automaton with one conditional effect per transition.
Plans therefore alternate `trans, a1, trans, a2, ..., trans`: the first
sync reads the initial state as the first letter, so the induced trace
includes s0.

The augmented goal demands the turn fluent plus an accepting-state
fluent (a disjunction when the minimal DFA has several accepting
states). The problem's original classical goal is discarded. The
policy of the compiled task, restricted to the states where the turn
fluent holds, is the product's policy (`AugmentedProblem.product_policy`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import automata, fond, logic, planner
from .automata import Dfa
from .budget import Budget
from .errors import CompileError, InapplicableActionError, TgrError
from .fond import (ActionSchema, Domain, Effect, Literal, Parameter,
                   PredicateSchema, ProblemInstance, eff_and, eff_lit,
                   eff_when)
from .logic import Atom, Formula


def validate_goal_atoms(domain: Domain, problem: ProblemInstance,
                        formula: Formula) -> None:
    """Every atom of the goal must be a well-typed ground instance of a
    declared predicate over declared objects.

    The check reads only the domain, the problem's objects and the goal,
    so the last `automata._DFA_MEMO_SIZE` goals that passed it are kept
    per domain and goal-free problem, beside the automaton memo. A goal
    that fails it raises again on every call, never stored.
    """
    _memo_validate(domain, problem._goal_free, formula)


@lru_cache(maxsize=automata._DFA_MEMO_SIZE)
def _memo_validate(domain: Domain, problem: ProblemInstance,
                   formula: Formula) -> None:
    obj_types = dict(problem.objects)
    by_type = fond._type_table(domain, problem)
    for a in sorted(logic.atoms(formula)):
        schema = domain.predicate(a.predicate)
        if schema is None:
            raise CompileError(f"goal atom {fond.pddl_atom_str(a)}: predicate "
                               f"{a.predicate!r} is not declared")
        if len(a.args) != len(schema.params):
            raise CompileError(
                f"goal atom {fond.pddl_atom_str(a)}: {a.predicate} takes "
                f"{len(schema.params)} arguments, got {len(a.args)}")
        for arg, param in zip(a.args, schema.params):
            if arg.startswith("?"):
                raise CompileError(
                    f"goal atom {fond.pddl_atom_str(a)} is not ground")
            if arg not in obj_types:
                raise CompileError(
                    f"goal atom {fond.pddl_atom_str(a)}: {arg!r} is not a "
                    "declared object")
            if arg not in by_type.get(param.type, ()):
                raise CompileError(
                    f"goal atom {fond.pddl_atom_str(a)}: object {arg!r} has "
                    f"type {obj_types[arg]!r}, expected {param.type!r}")


def goal_dfa(domain: Domain, problem: ProblemInstance, formula: Formula) -> Dfa:
    """The minimal DFA of a goal whose atoms are checked against the
    domain and problem; a goal no trace satisfies is a CompileError."""
    validate_goal_atoms(domain, problem, formula)
    dfa = automata.formula_to_dfa(formula)
    if not dfa.accepting:
        raise CompileError(
            f"goal {formula} is unsatisfiable: its automaton has no "
            "accepting state")
    return dfa


class GoalProduct:
    """The product of a goal-free grounding and the DFA of `goal`,
    expanded on the fly; a `fond.StateModel`.

    A state is `base_state | q << n`, with n the number of base fluents
    and q the DFA state after reading the trace up to and including
    base_state; goal states are those whose q accepts. Actions, their
    applicability, branch order and duplicate merging are the base's:
    `successors` steps the base and the DFA reads each outcome's letter
    (`letter`). `atoms_of` returns the base atoms only. `dfa` is the
    goal's automaton, from `goal_dfa`, which `automata` memoizes.

    The planner searches it a set of base states per DFA state at a
    time, through the transitions and letters that the base keeps for
    every product over it (see `planner`): a base state is expanded once
    however many automaton states and goals pair with it, and a product
    holds no per-goal graph and builds a node's state only when the
    policy maps it. A node whose q is a dead DFA state (`Dfa.dead`) is
    numbered but not expanded: no goal lies beyond it, so the solver
    would prune all it leads to.
    """

    def __init__(self, base: fond.GroundedFond, goal: Formula) -> None:
        self.base = base
        self.goal = goal
        self.dfa = goal_dfa(base.domain, base.problem, goal)
        self.actions = base.actions
        self.action_index = base.action_index
        index = base.fluent_index
        self._masks = tuple((1 << index[a], 1 << i)
                            for i, a in enumerate(self.dfa.atoms))
        self._shift = len(base.fluents)
        self._low = (1 << self._shift) - 1
        self.s0 = base.s0 | self.dfa.table[0][self.letter(base.s0)] \
            << self._shift

    def letter(self, state: int) -> int:
        """The DFA letter of the base state `state`: bit i is set iff
        `dfa.atoms[i]` holds."""
        m = 0
        for bit, atom_bit in self._masks:
            if state & bit:
                m |= atom_bit
        return m

    def applicable(self, state: int, action: int) -> bool:
        return self.base.applicable(state & self._low, action)

    def successors(self, state: int, action: int) -> tuple[int, ...]:
        low, a = state & self._low, self.actions[action]
        # `base.applicable` inlined: the verifier steps every policy state.
        if low & a.pre_pos != a.pre_pos or low & a.pre_neg:
            raise InapplicableActionError(
                f"{a.name} is not applicable in {self.state_str(state)}")
        row, shift, letter = (self.dfa.table[state >> self._shift],
                              self._shift, self.letter)
        return tuple([t | row[letter(t)] << shift
                      for t in self.base._outcomes(low, a)])

    def is_goal(self, state: int) -> bool:
        return state >> self._shift in self.dfa.accepting

    def atoms_of(self, state: int) -> frozenset[Atom]:
        return self.base.atoms_of(state & self._low)

    def state_str(self, state: int) -> str:
        atoms = self.base.state_str(state & self._low)
        q = f"q{state >> self._shift}"
        return f"{atoms} {q}" if atoms else q


@dataclass(frozen=True, eq=False)
class CompiledGoal:
    """What `compile_goal` records on the grounding it returns, as
    `GroundedFond.compiled_goal`: the base task and goal of the goal
    product that the compiled task encodes, and the translation between
    the two models' states. The builtin planner solves the product and
    lifts its policy onto the compiled task (see `planner`), and
    `AugmentedProblem.product_policy` translates back.

    The compiled fluents extend the base's n fluents, so a compiled state
    is a base state below bit n and bookkeeping fluents above it. Where
    the turn fluent holds, the state with automaton fluent q is the
    product state `(state & low) | q << n`: `q_of` maps each such high
    part (`state >> n`) to q. A state without the turn fluent has only
    the sync action applicable, `sync`.
    """

    domain: Domain
    problem: ProblemInstance
    formula: Formula
    n: int
    q_of: dict[int, int]
    sync: int

    def product(self) -> GoalProduct:
        """The goal product over the goal-free grounding the process
        shares for the base task."""
        return GoalProduct(fond.goal_free_grounding(self.domain, self.problem),
                           self.formula)

    def product_state(self, state: int) -> int | None:
        """The product state of a compiled state where the turn fluent
        holds, else None."""
        n = self.n
        q = self.q_of.get(state >> n)
        return None if q is None else (state & ((1 << n) - 1)) | q << n


def _names(prefix: str, n_states: int) -> tuple[list[str], str, str, str]:
    """The bookkeeping names under `prefix`: one fluent per automaton
    state, the turn fluent, the sync action and the `tracked` fact."""
    return ([f"{prefix}q{i}" for i in range(n_states)], f"{prefix}turnDomain",
            f"{prefix}trans", f"{prefix}tracked")


def _pick_prefix(domain: Domain, n_states: int) -> str:
    taken = {p.name for p in domain.predicates} | {a.name for a in domain.actions}
    for prefix in ("", "sync-", "sync2-"):
        q_names, *others = _names(prefix, n_states)
        if taken.isdisjoint(q_names + others):
            return prefix
    raise CompileError("cannot find a collision-free name prefix for the "
                       "automaton fluents")


@dataclass
class AugmentedProblem:
    """A compiled temporal-goal planning task plus its bookkeeping.

    `grounded` is the compiled task's grounding, whose `compiled_goal`
    holds the goal product it encodes and the translation of states
    between the two, which `product_policy` uses."""

    base_domain: Domain
    base_problem: ProblemInstance
    formula: Formula
    goal_id: str
    dfa: Dfa
    domain: Domain
    problem: ProblemInstance
    grounded: fond.GroundedFond
    prefix: str
    q_atoms: tuple[Atom, ...]
    turn_atom: Atom
    sync_schema: str

    def product_policy(self, policy: planner.Policy,
                       base: fond.GroundedFond | None = None, *,
                       budget: Budget = Budget()) -> planner.Policy:
        """A closed policy of this task as a policy of the goal product
        over `base`, the goal-free grounding (the shared one if not
        given), whose fluents and actions the compiled ones extend in
        order: a turn-fluent state maps to its product state
        (`CompiledGoal.product_state`) and keeps its action. The closure
        check runs under `budget`."""
        g = self.grounded
        if policy.grounded is not g:
            raise TgrError("policy was not produced from the given compiled task")
        report = planner.verify_policy(policy, budget=budget)
        if not report.closed:
            raise TgrError(f"policy is not closed: {report.reason}")
        compiled = g.compiled_goal
        if base is None:
            base = fond.goal_free_grounding(self.base_domain,
                                            self.base_problem)
        if g.fluents[:compiled.n] != base.fluents:
            raise TgrError("base grounding is not the compiled task's base")
        to_product = compiled.product_state
        pairs = ((to_product(state), ai)
                 for state, ai in policy.mapping.items())
        return planner.Policy(GoalProduct(base, self.formula), {
            state: ai for state, ai in pairs if state is not None})

    @cached_property
    def objects_of_interest(self) -> tuple[str, ...]:
        out: list[str] = []
        for a in sorted(logic.atoms(self.formula)):
            for arg in a.args:
                if arg not in out:
                    out.append(arg)
        return tuple(out)


def compile_goal(domain: Domain, problem: ProblemInstance, formula: Formula,
                 *, goal_id: str = "g0") -> AugmentedProblem:
    """Build the augmented domain/problem pair for `formula` and ground
    it. The grounding records its goal product as `compiled_goal`, which
    holds no reference to the returned task."""
    dfa = goal_dfa(domain, problem, formula)
    prefix = _pick_prefix(domain, dfa.n_states)
    aug_domain, aug_problem = _augment(domain, problem, dfa, prefix, goal_id)
    q_names, turn_name, sync_name, _ = _names(prefix, dfa.n_states)
    q_atoms, turn_atom = tuple(map(Atom, q_names)), Atom(turn_name)
    grounded = fond.ground(aug_domain, aug_problem)
    index = grounded.fluent_index
    n = index[q_atoms[0]]  # the base fluents come first
    turn = 1 << index[turn_atom] >> n
    grounded.compiled_goal = CompiledGoal(
        domain=domain, problem=problem, formula=formula, n=n,
        q_of={1 << index[a] >> n | turn: q for q, a in enumerate(q_atoms)},
        sync=grounded.action_index[fond.ground_action_name(sync_name, ())])
    return AugmentedProblem(
        base_domain=domain, base_problem=problem, formula=formula,
        goal_id=goal_id, dfa=dfa, domain=aug_domain, problem=aug_problem,
        grounded=grounded, prefix=prefix, q_atoms=q_atoms,
        turn_atom=turn_atom, sync_schema=sync_name)


def _augment(domain: Domain, problem: ProblemInstance, dfa: Dfa, prefix: str,
             goal_id: str, objects: tuple[str, ...] | None = None
             ) -> tuple[Domain, ProblemInstance]:
    """The augmented domain and problem that embed `dfa` under `prefix`.

    Without `objects` the automaton fluents are zero-ary. Given the
    objects of interest, the automaton is lifted: its fluents and the
    sync action take one parameter per object, and a static `tracked`
    fact over the objects pins the sync parameters to them, so grounding
    the emitted files yields exactly one sync action and the automaton
    cannot skip letters.
    """
    q_names, turn_name, sync_name, tracked_name = _names(prefix, dfa.n_states)
    turn = Atom(turn_name)
    params: tuple[Parameter, ...] = ()
    tracked: tuple[str, ...] = ()  # the tracked fact's name, when lifted
    if objects is not None:
        dfa = automata.lift(dfa, objects)
        obj_types = dict(problem.objects)
        params = tuple(Parameter(var, obj_types[obj])
                       for obj, var in dfa.object_map)
        tracked = (tracked_name,)
    variables = tuple(p.name for p in params)
    args = objects or ()

    predicates = list(domain.predicates)
    predicates.extend(PredicateSchema(name, params) for name in q_names)
    predicates.append(PredicateSchema(turn_name, ()))
    predicates.extend(PredicateSchema(name, params) for name in tracked)

    actions = [
        ActionSchema(
            name=a.name, params=a.params,
            precondition=a.precondition + (Literal(turn, True),),
            effect=eff_and((a.effect, eff_lit(Literal(turn, False)))))
        for a in domain.actions
    ]
    actions.append(_sync_action(
        dfa, tuple(Atom(name, variables) for name in q_names), turn,
        sync_name, params,
        tuple(Literal(Atom(name, variables), True) for name in tracked)))

    requirements = list(domain.requirements)
    for extra in (":negative-preconditions", ":conditional-effects"):
        if extra not in requirements:
            requirements.append(extra)

    aug_domain = Domain(
        name=f"{domain.name}-{goal_id}",
        requirements=tuple(requirements),
        types=domain.types,
        predicates=tuple(predicates),
        actions=tuple(actions),
    )

    accepting = [Atom(q_names[i], args) for i in sorted(dfa.accepting)]
    goal = logic.land(
        logic.disj([logic.from_atom(a) for a in accepting]),
        logic.from_atom(turn))

    aug_problem = ProblemInstance(
        name=f"{problem.name}-{goal_id}",
        domain_name=aug_domain.name,
        objects=problem.objects,
        init=problem.init | {Atom(name, args) for name in (q_names[0], *tracked)},
        goal=goal,
    )
    return aug_domain, aug_problem


def _sync_action(dfa: Dfa, q_atoms: tuple[Atom, ...], turn_atom: Atom,
                 name: str, params: tuple[Parameter, ...],
                 extra_pre: tuple[Literal, ...]) -> ActionSchema:
    """One conditional effect per DFA transition: entering state t asserts
    q_t and retracts every other state fluent."""
    effects: list[Effect] = [eff_lit(Literal(turn_atom, True))]
    n = len(q_atoms)
    for s in range(n):
        source = logic.from_atom(q_atoms[s])
        for guard, target in dfa.transitions[s]:
            cond = source if guard.kind == "true" else logic.land(source, guard)
            body = [eff_lit(Literal(q_atoms[target], True))]
            body.extend(eff_lit(Literal(q_atoms[u], False))
                        for u in range(n) if u != target)
            effects.append(eff_when(cond, eff_and(body)))
    return ActionSchema(
        name=name, params=params,
        precondition=(Literal(turn_atom, False),) + extra_pre,
        effect=eff_and(effects))


def emit_pddl(aug: AugmentedProblem, mode: str = "grounded") -> tuple[str, str]:
    """Render the augmented task as PDDL text (domain, problem)."""
    if mode == "grounded":
        domain, problem = aug.domain, aug.problem
    elif mode == "parametric":
        domain, problem = _augment(aug.base_domain, aug.base_problem, aug.dfa,
                                   aug.prefix, aug.goal_id,
                                   aug.objects_of_interest)
    else:
        raise CompileError(f"unknown emission mode {mode!r}")
    return fond.domain_to_pddl(domain), fond.problem_to_pddl(problem)


def write_pddl(aug: AugmentedProblem, out_dir: str, *,
               mode: str = "grounded") -> tuple[str, str]:
    """Write `<task>__<goal-id>__domain.pddl` and `...__problem.pddl`."""
    domain_text, problem_text = emit_pddl(aug, mode)
    task = aug.base_problem.name
    stem = f"{task}__{aug.goal_id}__"
    os.makedirs(out_dir, exist_ok=True)
    domain_path = os.path.join(out_dir, stem + "domain.pddl")
    problem_path = os.path.join(out_dir, stem + "problem.pddl")
    with open(domain_path, "w") as fh:
        fh.write(domain_text)
    with open(problem_path, "w") as fh:
        fh.write(problem_text)
    return domain_path, problem_path
