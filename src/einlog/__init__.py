"""einlog: mean-field inference for Markov logic compiled to einsums."""

from .engine import (CompiledImplication, EngineConfig, EngineError,
                     IterationTrace, MarginalTable, Program, UnaryTable,
                     compile_rules, initial_marginals, iterate, message,
                     run_inference, transitivity_violations)
from .fol import (Clause, CnfFormula, Literal, Predicate, RuleError, RuleSet, Term,
                  binary_literal, constant, format_rules, parse_rules, split_cnf,
                  variable)
from .kb import (EvidenceError, GroundAtom, KnowledgeBase, ObservationMask, Queries,
                 load_evidence, load_queries)
from .metrics import MetricError, auc_pr
from .oracle import (Grounding, OracleError, brute_einsum, enumerate_groundings,
                     exact_marginals, naive_mf_step)
from .planner import ContractionPlan, ContractionStep, PlanError, execute, plan
from .tensor import EinsumSpec, TensorError, einsum, softmax_lastaxis

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
