"""Temporal goal recognition in nondeterministic planning domains."""

from .automata import Dfa, Pdfa, lift, ltlf_to_dfa, pltlf_to_dfa, to_dot
from .bench import BenchConfig, load_config, run_benchmark
from .budget import Budget
from .compilation import AugmentedProblem, compile_goal, emit_pddl
from .executions import (Execution, average_distances, enumerate_executions,
                         goal_model, order_relations)
from .fond import (Domain, GroundedFond, ProblemInstance, ground,
                   parse_domain, parse_problem)
from .logic import Atom, Formula, atoms, dialect, evaluate, parse_formula, to_nnf
from .planner import (Policy, PolicyReport, policy_from_text, policy_to_text,
                      solve_strong_cyclic, verify_policy)
from .recognizer import (RecognitionProblem, RecognitionResult, analyze,
                         load_bundle, recognize, score)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Formula", "parse_formula", "evaluate", "atoms", "dialect",
    "to_nnf",
    "Dfa", "Pdfa", "ltlf_to_dfa", "pltlf_to_dfa", "lift", "to_dot",
    "Domain", "ProblemInstance", "GroundedFond", "parse_domain",
    "parse_problem", "ground",
    "AugmentedProblem", "compile_goal", "emit_pddl",
    "Budget",
    "Policy", "PolicyReport", "solve_strong_cyclic", "verify_policy",
    "policy_to_text", "policy_from_text",
    "Execution", "enumerate_executions", "goal_model", "average_distances",
    "order_relations",
    "RecognitionProblem", "RecognitionResult", "recognize", "analyze",
    "score", "load_bundle",
    "BenchConfig", "load_config", "run_benchmark",
    "__version__",
]
