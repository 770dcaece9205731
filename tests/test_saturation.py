"""Saturation loop tests: verdicts, limits, simplification effects, proofs."""

import gc
import glob
import os
from itertools import product

from oracles import (
    all_pairs_generate,
    filed_paths,
    ground_entails,
    load_problem,
    nvars,
    scan_demodulate_once,
    scan_retrievals,
    unscreened_superposition,
)
from randgen import Gen, GroundGen

from sdprover import calculus, saturation
from sdprover.clauses import Clause, ClauseFactory, eq, neq, predicate
from sdprover.index import BackwardIndex, FsdIndex
from sdprover.simplify import backward_subsumption_deletions
from sdprover.saturation import (
    PassiveQueue,
    ProverConfig,
    ProverState,
    SatStatus,
    proof_clauses,
    saturate,
    verify_proof,
)
from sdprover.terms import Signature, Var
from sdprover.tptp import emit_result, parse_problem

X = Var(0)


def _quick(**kw) -> ProverConfig:
    base = dict(time_limit=10.0, clause_limit=20000)
    base.update(kw)
    return ProverConfig(**base)


class Setup:
    """One problem workspace: fresh signature, symbols on demand, factory."""

    def __init__(self) -> None:
        self.sig = Signature()
        self.factory = ClauseFactory()
        self.f = self.sig.function("f", 1)
        self.g = self.sig.function("g", 1)
        self.a = self.sig.constant("a")
        self.p = predicate(self.sig, "p", 1)
        self.q = predicate(self.sig, "q", 1)
        self.d = predicate(self.sig, "d", 1)

    def clause(self, *lits):
        return self.factory.make(lits)


def test_direct_contradiction():
    s = Setup()
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(s.a).negated())]
    result = saturate(inputs, _quick(), s.factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert result.empty is not None and result.empty.is_empty
    assert verify_proof(result) == []
    cids = {c.cid for c in proof_clauses(result)}
    assert {inputs[0].cid, inputs[1].cid, result.empty.cid} <= cids


def test_single_clause_saturates():
    s = Setup()
    result = saturate([s.clause(s.p(s.a))], _quick(), s.factory)
    assert result.status is SatStatus.SATURATED
    assert result.empty is None


def test_empty_input_clause_short_circuits():
    s = Setup()
    result = saturate([s.clause()], _quick(), s.factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert result.iterations == 0


def test_equality_reasoning_closes():
    s = Setup()
    inputs = [
        s.clause(eq(s.f(s.a), s.a)),
        s.clause(s.p(s.f(s.f(s.a)))),
        s.clause(s.p(s.a).negated()),
    ]
    result = saturate(inputs, _quick(), s.factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert verify_proof(result) == []


def test_duplicate_inputs_collapse():
    s = Setup()
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(s.a))]
    result = saturate(inputs, _quick(), s.factory)
    assert result.status is SatStatus.SATURATED
    assert result.activated == 1


def test_clause_limit():
    s = Setup()
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
    result = saturate(inputs, _quick(clause_limit=30), s.factory)
    assert result.status is SatStatus.RESOURCE_OUT
    assert result.limit_reason == "clauses"


def test_time_limit():
    s = Setup()
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
    result = saturate(inputs, _quick(time_limit=0.05), s.factory)
    assert result.status is SatStatus.RESOURCE_OUT
    assert result.limit_reason == "time"


def test_memory_limit():
    # every interpreter's peak resident set is above 1 MB, so the limit
    # stops the run before its first given clause
    s = Setup()
    inputs = [s.clause(s.p(s.a)), s.clause(s.p(X).negated(), s.p(s.f(X)))]
    result = saturate(inputs, _quick(memory_limit=1), s.factory)
    assert result.status is SatStatus.RESOURCE_OUT
    assert result.limit_reason == "memory"
    assert result.activated == 0
    assert emit_result(result, s.sig) == "% SZS status MemoryOut"


def _guarded_growth():
    """A clause set whose growth only conditional rewriting can stop.

    The guard r never occurs negatively, so no resolution can strip it off
    the equality clause and hand demodulation a unit.  Rewriting under the
    guard turns the p-generator into a tautology and the set saturates;
    without it the generator feeds itself p(f(..f(a)..)) forever.
    """
    sig = Signature()
    factory = ClauseFactory()
    f = sig.function("f", 1)
    a = sig.constant("a")
    r = predicate(sig, "r", 0)
    p = predicate(sig, "p", 1)
    inputs = [
        factory.make([r(), eq(f(X), X)]),
        factory.make([r(), p(X).negated(), p(f(X))]),
        factory.make([p(a)]),
    ]
    return factory, inputs


def test_conditional_rewriting_closes_the_guarded_growth_set():
    factory, inputs = _guarded_growth()
    result = saturate(inputs, _quick(), factory)
    assert result.status is SatStatus.SATURATED
    assert any(c.rule in ("fsd", "bsd") for c in factory.registry.values())


def test_guarded_growth_diverges_without_conditional_rewriting():
    factory, inputs = _guarded_growth()
    result = saturate(
        inputs, _quick(fsd=False, bsd=False, clause_limit=200), factory
    )
    assert result.status is SatStatus.RESOURCE_OUT
    assert result.limit_reason == "clauses"
    rules = {c.rule for c in factory.registry.values()}
    assert "fsd" not in rules and "bsd" not in rules


def test_backward_rewriting_replaces_an_active_clause():
    s = Setup()
    main = s.clause(s.p(s.f(s.a)), s.q(s.a))
    side = s.clause(eq(s.f(X), X), s.q(X))
    result = saturate([main, side], _quick(), s.factory)
    assert result.status is SatStatus.SATURATED
    rewritten = [c for c in s.factory.registry.values() if c.rule == "bsd"]
    assert len(rewritten) == 1
    assert rewritten[0].literals == (s.p(s.a), s.q(s.a))
    assert rewritten[0].parents == (main.cid, side.cid)


def test_forward_rewriting_of_a_popped_clause():
    s = Setup()
    side = s.clause(eq(s.f(X), X), s.q(X))
    # heavy main pops after the side premise is active
    main = s.clause(s.p(s.f(s.f(s.f(s.a)))), s.q(s.f(s.a)))
    result = saturate([side, main], _quick(), s.factory)
    assert result.status is SatStatus.SATURATED
    rules = {c.rule for c in s.factory.registry.values()}
    assert "fsd" in rules


def test_guarded_interval_chain():
    sig = Signature()
    factory = ClauseFactory()
    f = sig.function("f", 1)
    g = sig.function("g", 1)
    z = sig.constant("z")
    n = sig.constant("n")
    sC = sig.constant("s")
    leq = predicate(sig, "leq", 2)
    less = predicate(sig, "less", 2)
    p = predicate(sig, "p", 1)
    inputs = [
        factory.make([leq(z, X).negated(), less(X, n).negated(), eq(f(X), g(X))]),
        factory.make([leq(z, X).negated(), less(X, n).negated(), p(f(X))]),
        factory.make([leq(z, sC)]),
        factory.make([less(sC, n)]),
        factory.make([p(g(sC)).negated()]),
    ]
    result = saturate(inputs, _quick(), factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert verify_proof(result) == []
    proof_rules = {c.rule for c in proof_clauses(result)}
    assert "fsd" in proof_rules

    baseline_factory = ClauseFactory()
    baseline_inputs = [baseline_factory.make(c.literals) for c in inputs]
    baseline = saturate(
        baseline_inputs, _quick(fsd=False, bsd=False), baseline_factory
    )
    assert baseline.status is SatStatus.UNSATISFIABLE
    assert verify_proof(baseline) == []
    assert "fsd" not in {c.rule for c in baseline_factory.registry.values()}


def test_every_ground_derivation_step_is_entailed_by_its_parents():
    gg = GroundGen(seed=11)
    checked = 0
    for _ in range(12):
        factory = ClauseFactory()
        inputs = [factory.make(gg.lits(gg.rng.randrange(1, 3))) for _ in range(4)]
        saturate(inputs, ProverConfig(time_limit=5.0, clause_limit=250), factory)
        for clause in factory.registry.values():
            if clause.rule == "input":
                continue
            parents = [factory.registry[pid].literals for pid in clause.parents]
            assert ground_entails(parents, clause.literals)
            checked += 1
    assert checked > 40


def test_four_configurations_agree_with_the_ground_oracle():
    """Standing verdict differential on random ground problems.

    Every fsd/bsd configuration must reach the verdict the model-enumeration
    oracle gives, and every refutation must re-check.
    """
    gg = GroundGen(seed=2024)
    configs = [(True, True), (True, False), (False, True), (False, False)]
    verdicts = {SatStatus.UNSATISFIABLE: 0, SatStatus.SATURATED: 0}
    for _ in range(50):
        lits = [gg.lits(gg.rng.randrange(1, 3)) for _ in range(gg.rng.randrange(3, 7))]
        if gg.rng.random() < 0.5:
            # a complemented unit makes refutations common
            lits.append((gg.rng.choice(gg.rng.choice(lits)).negated(),))
        unsat = ground_entails(lits, [])
        expected = SatStatus.UNSATISFIABLE if unsat else SatStatus.SATURATED
        for fsd, bsd in configs:
            factory = ClauseFactory()
            inputs = [factory.make(clause) for clause in lits]
            result = saturate(inputs, _quick(fsd=fsd, bsd=bsd), factory)
            assert result.status is expected, (lits, fsd, bsd)
            if unsat:
                assert verify_proof(result) == [], (lits, fsd, bsd)
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_passive_queue_alternates_age_and_weight():
    s = Setup()
    queue = PassiveQueue()
    clauses = []
    for i in range(8):
        term = s.a
        for _ in range(8 - i):
            term = s.f(term)
        clauses.append(s.clause(s.p(term)))
    for c in clauses:
        queue.push(c)
    order = [queue.pop().cid for _ in range(8)]
    by_cid = [c.cid for c in clauses]
    # first pop by age, five by weight, then age again
    expected = [by_cid[0], by_cid[7], by_cid[6], by_cid[5], by_cid[4], by_cid[3], by_cid[1], by_cid[2]]
    assert order == expected


def test_proofs_only_reference_registered_clauses():
    s = Setup()
    inputs = [
        s.clause(eq(s.f(X), X), s.q(X).negated()),
        s.clause(s.q(s.a)),
        s.clause(s.p(s.f(s.a))),
        s.clause(s.p(s.a).negated()),
    ]
    result = saturate(inputs, _quick(), s.factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert verify_proof(result) == []
    for clause in proof_clauses(result):
        for pid in clause.parents:
            assert pid in s.factory.registry


def test_verify_proof_reports_a_step_replaced_by_a_renamed_variant():
    """The checker compares canonical literals, so a step whose registry
    literals are a variant of the replayed conclusion's, with two variable
    ids swapped, is not reproduced."""
    s = Setup()
    r = predicate(s.sig, "r", 2)
    Y = Var(1)
    inputs = [s.clause(r(X, Y), s.p(s.a).negated()), s.clause(s.p(s.a)), s.clause(r(s.a, s.f(s.a)).negated())]
    result = saturate(inputs, _quick(), s.factory)
    assert result.status is SatStatus.UNSATISFIABLE
    assert verify_proof(result) == []
    (node,) = [c for c in proof_clauses(result) if c.literals == (r(X, Y),)]
    assert node.rule == "resolution"
    node.literals = (r(Y, X),)
    assert verify_proof(result) == [f"clause {node.cid} not reproduced by rule resolution"]


def _corpus_search(path, fsd, bsd):
    """The SZS text and every registry entry of one corpus run."""
    sig = Signature()
    factory = ClauseFactory()
    problem = load_problem(path, sig, factory)
    config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=100)
    result = saturate(problem.clauses, config, factory)
    registry = [(c.cid, c.rule, c.parents, repr(c.literals), nvars(c.literals)) for c in factory.registry.values()]
    return emit_result(result, sig), registry


def test_indexed_generation_matches_the_all_pairs_loop(monkeypatch):
    """Generation through the index leaves out only calls that give no
    conclusion, so every corpus run in every configuration makes the same
    clauses, with the same ids and parents, as pairing with every clause."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.p")))
    assert len(paths) == 20
    unsat = 0
    for path, (fsd, bsd) in product(paths, product((True, False), repeat=2)):
        indexed = _corpus_search(path, fsd, bsd)
        with monkeypatch.context() as patch:
            patch.setattr(saturation, "_generate", all_pairs_generate)
            oracle = _corpus_search(path, fsd, bsd)
        assert indexed == oracle, (path, fsd, bsd)
        unsat += indexed[0].startswith("% SZS status Unsatisfiable")
    assert unsat > 0


def test_indexed_retrieval_matches_every_eligible_clause(monkeypatch):
    """Subsumption and subsumption demodulation, forward and backward, try
    only the partners the discrimination trees retrieve, so every corpus
    run in every configuration makes the same clauses, with the same ids
    and parents, and prints the same SZS output as trying every eligible
    clause: every other active clause, or every indexed side premise."""
    retrievals = [
        (BackwardIndex, "forward_subsumption_candidates"),
        (BackwardIndex, "backward_subsumption_candidates"),
        (BackwardIndex, "retrieve_bsd_candidates"),
        (FsdIndex, "retrieve_fsd_candidates"),
    ]
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.p")))
    assert len(paths) == 20
    rules = set()
    for path, (fsd, bsd) in product(paths, product((True, False), repeat=2)):
        indexed = _corpus_search(path, fsd, bsd)
        with monkeypatch.context() as patch:
            scan_retrievals(patch, retrievals)
            oracle = _corpus_search(path, fsd, bsd)
        assert indexed == oracle, (path, fsd, bsd)
        rules.update(rule for _, rule, _, _, _ in indexed[1])
    assert {"fsd", "bsd"} <= rules, rules


def test_fsd_off_files_no_side_premise_in_the_forward_index():
    """With FSD off nothing reads a non-unit side premise from the forward
    index, so activation files none there; units are filed in both
    configurations, since demodulation stays on."""
    for fsd in (True, False):
        s = Setup()
        st = ProverState(factory=s.factory, config=_quick(fsd=fsd))
        side = s.clause(eq(s.f(X), X), s.q(X).negated())
        unit = s.clause(eq(s.g(X), X))
        st.activate(side)
        st.activate(unit)
        main = s.clause(s.p(s.f(s.a)), s.q(s.a).negated())
        assert st.fsd_index.retrieve_fsd_candidates(main) == ({side} if fsd else set())
        assert bool(filed_paths(st.fsd_index._tree, side)) is fsd
        rewritten = saturation._demodulate_once(s.clause(s.p(s.g(s.a))), st)
        assert rewritten.literals == (s.p(s.a),) and rewritten.parents[1] == unit.cid
        st.remove_active(side)
        st.remove_active(unit)
        assert st.fsd_index._tree._root == {}


def test_indexed_demodulation_matches_the_scan():
    """The units the index retrieves make the rewrite the scan over every
    active unit equality makes, for units with a variable, an EQUAL, an
    INCOMPARABLE and a GREATER left-hand side."""
    gen = Gen(seed=73)
    x, y = Var(0), Var(1)
    special = {
        "variable": eq(x, gen.a),
        "equal": eq(gen.f(x), gen.f(x)),
        "incomparable": eq(gen.h(x, y), gen.h(y, x)),
        "greater": eq(gen.f(gen.g(x)), gen.g(x)),
        "extra variable": eq(gen.f(x), gen.g(y)),
    }
    rewrote = {kind: 0 for kind in special}
    rewrites = 0
    for round_no in range(40):
        factory = ClauseFactory()
        st = ProverState(factory=factory, config=ProverConfig())
        kinds = {}
        pool = [(kind, lit) for kind, lit in special.items() if gen.rng.random() < 0.4]
        pool += [(None, gen.pos_eq()) for _ in range(6)]
        gen.rng.shuffle(pool)
        for kind, lit in pool:
            unit = factory.make([lit])
            kinds[unit.cid] = kind
            st.activate(unit)
        for _ in range(3):
            st.activate(factory.make(gen.lits(2) + (gen.pos_eq(),)))
        for _ in range(15):
            g = factory.make(gen.lits(gen.rng.randrange(1, 4), depth=3))
            got = saturation._demodulate_once(g, st)
            want = scan_demodulate_once(g, st)
            assert (got is None) == (want is None), (round_no, g)
            if got is not None:
                assert (got.literals, got.parents) == (want.literals, want.parents)
                rewrites += 1
                kind = kinds.get(got.parents[1])
                if kind is not None:
                    rewrote[kind] += 1
    assert rewrites >= 100, rewrites
    assert min(rewrote["variable"], rewrote["incomparable"], rewrote["greater"]) > 0, rewrote
    assert rewrote["equal"] == rewrote["extra variable"] == 0


GROUP_PROBLEM = """
cnf(left_identity, axiom, mult(e, X) = X).
cnf(left_inverse, axiom, mult(inv(X), X) = e).
cnf(associativity, axiom, mult(mult(X, Y), Z) = mult(X, mult(Y, Z))).
cnf(goal, negated_conjecture, inv(mult(a, b)) != mult(inv(b), inv(a))).
"""


def _text_search(text, fsd, bsd, clause_limit):
    """The SZS text and every registry entry of one run on a typed-in problem."""
    sig = Signature()
    factory = ClauseFactory()
    problem = parse_problem(text, sig, factory)
    config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=clause_limit)
    result = saturate(problem.clauses, config, factory)
    registry = [(c.cid, c.rule, c.parents, repr(c.literals), nvars(c.literals)) for c in factory.registry.values()]
    return emit_result(result, sig), registry


def test_retrieval_and_stored_verdicts_match_the_plain_scans(monkeypatch):
    """Demodulation and forward subsumption through the generalization tree,
    and superposition on stored orientation verdicts, make every corpus run
    in every configuration, and a group theorem, clause for clause what the
    scans over every partner with every instance compared make."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.p")))
    problems = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        problems += [(text, fsd, bsd, 100) for fsd, bsd in product((True, False), repeat=2)]
    problems.append((GROUP_PROBLEM, True, True, 20000))
    unsat = 0
    for problem in problems:
        indexed = _text_search(*problem)
        with monkeypatch.context() as patch:
            patch.setattr(saturation, "_demodulate_once", scan_demodulate_once)
            scan_retrievals(patch, [(BackwardIndex, "forward_subsumption_candidates")])
            patch.setattr(calculus, "superposition", unscreened_superposition)
            oracle = _text_search(*problem)
        assert indexed == oracle, problem
        unsat += indexed[0].startswith("% SZS status Unsatisfiable")
    assert unsat > 0
    # the group theorem is proved, with demodulation and superposition steps
    assert indexed[0].startswith("% SZS status Unsatisfiable")
    rules = {rule for _, rule, _, _, _ in indexed[1]}
    assert {"demodulation", "superposition"} <= rules


def test_a_backward_subsumed_permutative_unit_leaves_the_index(monkeypatch):
    """h(f(X), f(Y)) = h(f(Y), f(X)) is activated first and then subsumed
    by commutativity.  Both its left-hand sides have one tree path, and its
    removal must leave the run to reach its verdict."""
    deleted = []

    def recording(g, bindex, *rest):
        found = backward_subsumption_deletions(g, bindex, *rest)
        deleted.extend(d.cid for d in found)
        return found

    monkeypatch.setattr(saturation, "backward_subsumption_deletions", recording)
    units = "cnf(a, axiom, h(f(X), f(Y)) = h(f(Y), f(X))).\ncnf(b, axiom, h(X, Y) = h(Y, X)).\n"
    goals = [
        ("cnf(c, axiom, p(a)).", SatStatus.SATURATED),
        ("cnf(c, negated_conjecture, h(a, b) != h(b, a)).", SatStatus.UNSATISFIABLE),
    ]
    for goal, status in goals:
        factory = ClauseFactory()
        problem = parse_problem(units + goal, Signature(), factory)
        deleted.clear()
        result = saturate(problem.clauses, _quick(), factory)
        assert result.status is status
        assert problem.clauses[0].cid in deleted
        if status is SatStatus.UNSATISFIABLE:
            assert verify_proof(result) == []


CACHES = tuple(slot for slot in Clause.__slots__ if slot.startswith("_"))


def _holds_search_data(c) -> bool:
    return any(getattr(c, slot) is not None for slot in CACHES)


def _live_clauses() -> list:
    """Every live clause object, after a collection."""
    gc.collect()
    return [c for c in gc.get_objects() if type(c) is Clause]


def test_the_registry_keeps_no_search_data(monkeypatch):
    """The registry holds a copy of each clause the search holds: mid-run
    no registry entry of an active clause holds data the search computed,
    while the active clause itself does, and once saturate returns no live
    clause holds any but the caller's input clauses.  Proof checking
    recomputes what it needs."""
    checked = {"active": 0}
    backward_simplify = saturation.backward_simplify

    def checked_backward_simplify(g, st):
        backward_simplify(g, st)
        for cid, c in st.active.items():
            entry = st.factory.registry[cid]
            assert entry is not c and entry.literals is c.literals, c
            assert _holds_search_data(c) and not _holds_search_data(entry), c
            checked["active"] += 1

    monkeypatch.setattr(saturation, "backward_simplify", checked_backward_simplify)
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.p")))
    problems = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            problems.append((handle.read(), 100))
    problems.append((GROUP_PROBLEM, 20000))
    statuses = set()
    for (text, clause_limit), (fsd, bsd) in product(problems, product((True, False), repeat=2)):
        # held through the run, so that no clause of the run reuses an id
        earlier = _live_clauses()
        factory = ClauseFactory()
        problem = parse_problem(text, Signature(), factory)
        config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=clause_limit)
        result = saturate(problem.clauses, config, factory)
        statuses.add(result.status)
        skip = {id(c) for c in earlier + problem.clauses}
        run = [c for c in _live_clauses() if id(c) not in skip]
        assert len(run) >= factory.created - len(problem.clauses)
        assert [c for c in run if _holds_search_data(c)] == []
        del earlier, run
        if result.status is SatStatus.UNSATISFIABLE:
            assert verify_proof(result) == []
    assert statuses == set(SatStatus)
    assert checked["active"] >= 10000, checked
