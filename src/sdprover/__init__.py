"""Saturation prover for first-order logic with equality.

The calculus is superposition with literal selection over a Knuth-Bendix
ordering.  Simplification includes rewriting by unit equalities, clause
subsumption, and conditional rewriting whose side conditions are discharged
by matching the rest of the side clause into the clause being rewritten,
in both forward and backward direction.
"""

from .clauses import Clause, ClauseFactory, Literal, PredicateSymbol, eq, neq, predicate
from .ordering import OrderResult, compare_literals, compare_terms
from .saturation import ProverConfig, SatStatus, SaturationResult, proof_clauses, saturate, verify_proof
from .terms import App, FunctionSymbol, Signature, SignatureError, Term, Var
from .tptp import ParseError, Problem, emit_result, format_clause, parse_problem

__all__ = [
    "App",
    "Clause",
    "ClauseFactory",
    "FunctionSymbol",
    "Literal",
    "OrderResult",
    "ParseError",
    "Problem",
    "PredicateSymbol",
    "ProverConfig",
    "SatStatus",
    "SaturationResult",
    "Signature",
    "SignatureError",
    "Term",
    "Var",
    "compare_literals",
    "compare_terms",
    "emit_result",
    "eq",
    "format_clause",
    "neq",
    "parse_problem",
    "predicate",
    "proof_clauses",
    "saturate",
    "verify_proof",
]
