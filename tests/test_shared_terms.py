"""The run scope: inside a saturation run every application the term
constructors build is the run's one App equal to it, every variable that
minting and renaming apart make is the run's one Var of its id, and
check_time enforces the run's deadline; outside a run each construction is
a new object and check_time never raises; and neither the table nor the
deadline outlives saturate."""

import glob
import os
import sys
import time
from itertools import product

import pytest
from oracles import nvars

from sdprover import calculus, saturation, terms
from sdprover.calculus import superposition
from sdprover.clauses import ClauseFactory, Literal, predicate, rename_apart
from sdprover.saturation import ProverConfig, SatStatus, saturate, verify_proof
from sdprover.terms import (
    App,
    ResourceLimit,
    Signature,
    Var,
    check_time,
    instantiate,
    make_app,
    replace_at,
    run_scope,
    term_vars,
)
from sdprover.tptp import emit_result, parse_problem

X, Y = Var(0), Var(1)

GROUP_AXIOMS = """
cnf(left_identity, axiom, mult(e, X) = X).
cnf(left_inverse, axiom, mult(inv(X), X) = e).
cnf(associativity, axiom, mult(mult(X, Y), Z) = mult(X, mult(Y, Z))).
"""

# (goal, clause limit): proved goals, and one the 1500-clause cap stops
GROUP_GOALS = [
    ("cnf(goal, negated_conjecture, inv(mult(a, b)) != mult(inv(b), inv(a))).", 20000),
    ("cnf(h, hypothesis, mult(b, a) = mult(c, a)).\ncnf(goal, negated_conjecture, b != c).", 20000),
    ("cnf(h, hypothesis, mult(X, X) = e).\ncnf(goal, negated_conjecture, mult(a, b) != mult(b, a)).", 20000),
    ("cnf(h, hypothesis, mult(X, mult(X, X)) = e).\ncnf(goal, negated_conjecture, mult(a, a) != inv(a)).", 20000),
    (
        "cnf(h, hypothesis, mult(X, mult(X, X)) = e).\n"
        "cnf(goal, negated_conjecture, mult(a, mult(b, a)) != mult(inv(b), mult(inv(a), inv(b)))).",
        1500,
    ),
]


class Setup:
    def __init__(self) -> None:
        self.sig = Signature()
        self.factory = ClauseFactory()
        self.f = self.sig.function("f", 1)
        self.h = self.sig.function("h", 2)
        self.a = self.sig.constant("a")
        self.p = predicate(self.sig, "p", 1)

    def clause(self, *lits):
        return self.factory.make(lits)


def _sharing_installed() -> bool:
    return terms._shared is not None


def _deadline_installed() -> bool:
    return terms._deadline is not None


def _fresh_constructions(s: Setup) -> list[tuple]:
    """Pairs of equal terms, each built twice by one of the constructors."""
    base = s.h(X, s.f(Y))
    leaf = lambda v: s.f(s.a) if v.vid == 0 else v  # noqa: E731
    lit_args = (s.f(s.a),)
    return [
        (s.h(s.a, s.f(s.a)), s.h(s.a, s.f(s.a))),
        (instantiate(base, {}, {}, leaf), instantiate(base, {}, {}, leaf)),
        (replace_at(base, (1, 0), s.a), replace_at(base, (1, 0), s.a)),
        (Literal(True, s.p.sid, lit_args).atom(), Literal(True, s.p.sid, lit_args).atom()),
    ]


def test_construction_outside_a_run_builds_new_objects():
    s = Setup()
    assert not _sharing_installed()
    for first, second in _fresh_constructions(s):
        assert first == second and hash(first) == hash(second)
        assert first is not second


def test_equal_constructions_inside_a_run_are_one_object(monkeypatch):
    """Reached from inside the run through a wrapped rule: each constructor
    returns one object for equal results, and the applications of the
    clauses the run mints are shared wherever the input did not supply
    them."""
    s = Setup()
    seen = []
    generate = saturation._generate

    def wrapped(g, st):
        seen.append(_fresh_constructions(s))
        return generate(g, st)

    monkeypatch.setattr(saturation, "_generate", wrapped)
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
    result = saturate(inputs, ProverConfig(time_limit=0, clause_limit=30), s.factory)
    assert result.status is SatStatus.RESOURCE_OUT
    assert seen
    for pairs in seen:
        for first, second in pairs:
            assert first is second
    # the same term from two iterations is the same object as well
    assert all(seen[0][i][0] is seen[-1][i][0] for i in range(len(seen[0])))

    def apps(clauses):
        stack = [arg for c in clauses for lit in c.literals for arg in lit.args]
        while stack:
            t = stack.pop()
            if type(t) is App:
                yield t
                stack.extend(t.args)

    from_input = {id(t) for t in apps(inputs)}
    minted = [c for c in s.factory.registry.values() if c.rule != "input"]
    first: dict = {}
    for t in apps(minted):
        if id(t) not in from_input:
            assert first.setdefault(t, t) is t, t
    assert len(first) > 10


def _variables(lits) -> list[Var]:
    """The variable objects of lits, at every occurrence."""
    out = []
    stack = [arg for lit in lits for arg in lit.args]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            out.append(t)
        else:
            stack.extend(t.args)
    return out


def _made_variables(s: Setup) -> list[Var]:
    """The variables of two minted clauses, renumbered since their input
    is not numbered in pre-order, and of those clauses renamed apart."""
    minted = [s.clause(s.p(s.h(Y, X))), s.clause(s.p(s.f(Y)), s.p(X).negated())]
    return [v for c in minted for lits in (c.literals, rename_apart(c)) for v in _variables(lits)]


def _one_per_id(variables: list[Var]) -> bool:
    first: dict[int, Var] = {}
    return all(first.setdefault(v.vid, v) is v for v in variables)


def test_minted_and_renamed_variables_are_one_object_per_id_in_a_run():
    """Inside a run, minting and renaming apart take every variable from
    the run's table, so all the variables of one id across clauses are one
    object; outside a run each clause gets variables of its own."""
    s = Setup()
    outside = _made_variables(s)
    assert {v.vid for v in outside} == {0, 1, -1, -2}
    assert not _one_per_id(outside)
    with run_scope(None):
        inside = _made_variables(s)
        assert _one_per_id(inside)
        assert all(terms._shared[v.vid] is v for v in inside)
    assert not _sharing_installed()
    assert not _one_per_id(inside + _made_variables(s))


def test_an_inner_run_gives_back_the_outer_variables_however_it_exits():
    s = Setup()
    with run_scope(None):
        outer = terms._shared
        before = _made_variables(s)
        with pytest.raises(RuntimeError):
            with run_scope(None):
                inner = _made_variables(s)
                raise RuntimeError("step failed")
        assert terms._shared is outer
        after = _made_variables(s)
        assert _one_per_id(before + after)
        assert not _one_per_id(inner + after)
    assert not _sharing_installed()


def _rule_raises(*args):
    raise RuntimeError("rule failed")


def _exits(s: Setup):
    """(name, inputs, config, patches, expected status or exception) per exit of saturate."""
    a, p, f = s.a, s.p, s.f
    grow = lambda: [s.clause(p(a)), s.clause(p(X).negated(), p(f(X)))]  # noqa: E731
    return [
        ("unsatisfiable", [s.clause(p(a)), s.clause(p(a).negated())], ProverConfig(), {}, SatStatus.UNSATISFIABLE),
        ("empty input", [s.clause(p(a)), s.clause()], ProverConfig(), {}, SatStatus.UNSATISFIABLE),
        ("saturated", [s.clause(p(a))], ProverConfig(), {}, SatStatus.SATURATED),
        ("clause limit", grow(), ProverConfig(time_limit=0, clause_limit=30), {}, SatStatus.RESOURCE_OUT),
        ("time limit", grow(), ProverConfig(time_limit=0.05, clause_limit=0), {}, SatStatus.RESOURCE_OUT),
        ("rule raises", grow(), ProverConfig(), {"resolution": _rule_raises}, RuntimeError),
    ]


def test_no_table_outlives_saturate(monkeypatch):
    """Every way out of saturate leaves sharing off and no deadline
    installed: construction builds new objects again, and check_time does
    not raise, also after the run that stopped at its time limit."""
    s = Setup()
    for name, inputs, config, patches, expected in _exits(s):
        with monkeypatch.context() as patch:
            for attr, replacement in patches.items():
                patch.setattr(calculus, attr, replacement)
            if isinstance(expected, SatStatus):
                result = saturate(inputs, config, s.factory)
                assert result.status is expected, name
                if name == "time limit":
                    assert result.limit_reason == "time"
                if name == "clause limit":
                    assert result.limit_reason == "clauses"
            else:
                with pytest.raises(expected):
                    saturate(inputs, config, s.factory)
        assert not _sharing_installed(), name
        assert not _deadline_installed(), name
        assert s.f(s.a) is not s.f(s.a), name
        check_time()


def test_a_table_in_force_before_saturate_is_put_back():
    """An enclosing scope gets its table and its deadline back.  Its
    deadline has passed, but the run, which has no time limit, stops at
    its clause cap: inside saturate only the run's own deadline holds."""
    s = Setup()
    grow = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
    passed = time.monotonic() - 1.0
    with run_scope(passed):
        outer = terms._shared
        built = s.f(s.a)
        result = saturate(grow, ProverConfig(time_limit=0, clause_limit=30), s.factory)
        assert result.limit_reason == "clauses"
        assert terms._shared is outer
        assert terms._deadline == passed
        assert s.f(s.a) is built
        with pytest.raises(ResourceLimit):
            check_time()
    assert not _sharing_installed()
    assert not _deadline_installed()


def test_superposition_contexts_stay_out_of_the_term_table():
    """Superposition builds each context literal, the target with a hole
    at the rewritten occurrence, outside the run's table: after every
    superposition among the group axioms and their first conclusions, no
    entry of the table holds the hole, though contexts were built."""
    sig, factory = Signature(), ClauseFactory()
    hole = calculus._HOLE.vid
    with run_scope(None):
        clauses = parse_problem(GROUP_AXIOMS, sig, factory).clauses
        made = [d for c1 in clauses for c2 in clauses for d in superposition(c1, c2, factory)]
        for c1 in made[:10]:
            for c2 in clauses:
                superposition(c1, c2, factory)
                superposition(c2, c1, factory)
        contexts = [lit for c in clauses + made if c._into for *_, held in c._into for lit in held.values()]
        assert len(made) >= 5 and any(hole in term_vars(arg) for lit in contexts for arg in lit.args)
        apps = [t for t in terms._shared.values() if type(t) is App]
        assert len(apps) > 50
        assert not any(hole in term_vars(t) for t in apps)


def test_check_time_raises_only_in_a_run_past_its_deadline():
    check_time()
    with run_scope(None):
        check_time()
    with run_scope(time.monotonic() + 60.0):
        check_time()
    with run_scope(time.monotonic() - 1.0):
        with pytest.raises(ResourceLimit) as stopped:
            check_time()
        assert stopped.value.reason == "time"
    check_time()


def test_saturate_installs_its_time_limit_as_the_deadline(monkeypatch):
    """Seen from inside the run: the deadline is the time limit from the
    start of saturate, and a run with no time limit has none."""
    seen = []
    generate = saturation._generate

    def wrapped(g, st):
        seen.append(terms._deadline)
        return generate(g, st)

    monkeypatch.setattr(saturation, "_generate", wrapped)
    for time_limit in (30.0, 0):
        s = Setup()
        seen.clear()
        started = time.monotonic()
        grow = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
        saturate(grow, ProverConfig(time_limit=time_limit, clause_limit=30), s.factory)
        assert seen and len(set(seen)) == 1
        if time_limit:
            assert started + time_limit <= seen[0] <= time.monotonic() + time_limit
        else:
            assert seen[0] is None


def _search(text, fsd, bsd, clause_limit):
    """The SZS text and every registry entry of one run, and whether its
    proof checks."""
    sig = Signature()
    factory = ClauseFactory()
    problem = parse_problem(text, sig, factory)
    config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=clause_limit)
    result = saturate(problem.clauses, config, factory)
    registry = [(c.cid, c.rule, c.parents, repr(c.literals), nvars(c.literals)) for c in factory.registry.values()]
    proved = result.status is SatStatus.UNSATISFIABLE and verify_proof(result) == []
    return emit_result(result, sig), registry, proved


def test_sharing_leaves_the_search_byte_identical(monkeypatch):
    """With the constructor replaced by plain App in every module that binds
    it, every corpus run in every configuration and the typed-in group
    problems give the same SZS output and the same registry, literal by
    literal, as with sharing."""
    corpus = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.p")))
    assert len(corpus) == 20
    problems = []
    for path in corpus:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        problems += [(text, fsd, bsd, 100) for fsd, bsd in product((True, False), repeat=2)]
    problems += [(GROUP_AXIOMS + goal + "\n", True, True, limit) for goal, limit in GROUP_GOALS]
    bindings = [mod for name, mod in sys.modules.items() if name.startswith("sdprover") and getattr(mod, "make_app", None) is make_app]
    assert {terms.__name__, "sdprover.clauses"} <= {mod.__name__ for mod in bindings}
    unshared_calls = 0

    def unshared(sym, args):
        nonlocal unshared_calls
        unshared_calls += 1
        return App(sym, args)

    statuses = set()
    for problem in problems:
        shared = _search(*problem)
        with monkeypatch.context() as patch:
            for mod in bindings:
                patch.setattr(mod, "make_app", unshared)
            plain = _search(*problem)
        assert shared == plain, problem
        statuses.add(shared[0].splitlines()[0])
        if shared[0].startswith("% SZS status Unsatisfiable"):
            assert shared[2], problem
    assert unshared_calls > 1000
    assert {"% SZS status Unsatisfiable", "% SZS status Satisfiable", "% SZS status ResourceOut"} <= statuses, statuses
