"""The benchmark's tracer still finds every name it wraps in src/.

perfbench/tracer.py wraps prover functions at the names their callers look
them up by.  A name that src/ stops binding would only break a traced
benchmark run; installing the tracer here makes it fail the test suite.
"""

import importlib.util
import os

from sdprover import calculus, clauses, index, matching, ordering, saturation, simplify
from sdprover.clauses import ClauseFactory
from sdprover.saturation import ProverConfig, SatStatus, saturate
from sdprover.terms import Signature
from sdprover.tptp import parse_problem

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")

PROBLEM = """
cnf(unit, axiom, f(X) = X).
cnf(guarded, axiom, g(X) = X | ~q(X)).
cnf(fact, axiom, q(a)).
cnf(goal, negated_conjecture, p(g(f(a))) | p(f(g(a)))).
cnf(other, axiom, ~p(a)).
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    owners = (calculus, clauses, index, matching, ordering, saturation, simplify,
              clauses.ClauseFactory, index.BackwardIndex, index.FsdIndex,
              saturation.ProverState, saturation.PassiveQueue)
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_runs_and_uninstalls_against_src():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install(run_id=1)
    try:
        sig, factory = Signature(), ClauseFactory()
        problem = parse_problem(PROBLEM, sig, factory)
        result = saturate(problem.clauses, ProverConfig(time_limit=10), factory)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert result.status is SatStatus.UNSATISFIABLE
    totals = tracer.totals()
    for name in ("saturation.forward", "simplify.demod", "matching.match_solutions", "matching.subsumes"):
        assert totals[name]["calls"] > 0, name
