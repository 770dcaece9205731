"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line through capsys.disabled() when it
passes, so the criterion verdicts stay visible in plain pytest output.
Budgets are asserted inside the tests; seeds are fixed so failures replay.
"""

from __future__ import annotations

import functools
import glob
import os
import time
from collections import Counter

from oracles import (
    check_ordering_conditions,
    compare_clauses,
    ground_entails,
    load_problem,
    naive_sd_applicable,
    reference_demodulate,
    rename_apart,
)
from randgen import Gen, GroundGen

from sdprover.clauses import Clause, ClauseFactory, eq, literal_occurrences, predicate, replace_in_literal
from sdprover.index import BackwardIndex, FsdIndex
from sdprover.matching import match_solutions
from sdprover.ordering import OrderResult, compare_terms
from sdprover.saturation import (
    ProverConfig,
    ProverState,
    SatStatus,
    forward_simplify,
    saturate,
)
from sdprover.simplify import (
    build_simplified_clause,
    demodulate,
    forward_subsumption_delete,
    forward_subsumption_demodulation,
    sd_simplifications,
)
from sdprover.terms import Signature, Var, apply_term, match_pairs

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

GENERATING_RULES = {"resolution", "factoring", "superposition", "eq_resolution", "eq_factoring"}
SIMPLIFYING_RULES = {"demodulation", "fsd", "bsd"}


def _pass_line(capsys, n: int, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: PASS ({detail})")


# ------------------------------------------------------------- criterion 1

class _Worked:
    """Fixed signature for the worked examples: h > f > g > a > b > c > d."""

    def __init__(self) -> None:
        self.sig = Signature()
        self.h = self.sig.function("h", 2)
        self.f = self.sig.function("f", 1)
        self.g = self.sig.function("g", 1)
        self.a = self.sig.constant("a")
        self.b = self.sig.constant("b")
        self.c = self.sig.constant("c")
        self.d = self.sig.constant("d")
        self.p = predicate(self.sig, "p", 1)
        self.q = predicate(self.sig, "q", 1)
        self.r = predicate(self.sig, "r", 1)
        self.leq = predicate(self.sig, "leq", 2)
        self.less = predicate(self.sig, "less", 2)
        self.z = self.sig.constant("z")
        self.n = self.sig.constant("n")
        self.factory = ClauseFactory()


def _first_conclusion(side, main, factory):
    step = next(sd_simplifications(side, main), None)
    if step is None:
        return None
    return build_simplified_clause(main, step, factory, rule="fsd")


@functools.lru_cache(maxsize=None)
def _worked_replacements():
    """Conditional-rewrite examples with frozen conclusions.

    Returns (label, main literals, expected literals, derived clause) rows;
    the derived clause is None when no inference may exist.
    """
    w = _Worked()
    x, y = Var(0), Var(1)
    f, g, h, p, q, r = w.f, w.g, w.h, w.p, w.q, w.r
    c, d = w.c, w.d
    rows = []

    def run(label, side_lits, main_lits, expected):
        side = w.factory.make(side_lits)
        main = w.factory.make(main_lits)
        got = _first_conclusion(side, main, w.factory)
        rows.append((label, main.literals, expected, got))

    guard = (w.leq(w.z, x).negated(), w.less(x, w.n).negated())
    run(
        "guarded rewrite",
        list(guard) + [eq(f(x), g(x))],
        list(guard) + [p(f(x))],
        guard + (p(g(x)),),
    )
    run(
        "two matched literals",
        [eq(f(g(x)), g(x)), q(x), r(y)],
        [p(f(g(c))), q(c), q(d), r(f(g(d)))],
        (p(g(c)), q(c), q(d), r(f(g(d)))),
    )
    run(
        "instance oriented left to right",
        [eq(f(g(x)), g(y)), q(x), r(y)],
        [p(f(g(c))), q(c), r(c)],
        (p(g(c)), q(c), r(c)),
    )
    run(
        "instance oriented right to left",
        [eq(f(g(x)), g(y)), q(x), r(y)],
        [p(g(f(g(c)))), q(c), r(f(g(c)))],
        (p(f(g(c))), q(c), r(f(g(c)))),
    )
    run(
        "unorientable instance",
        [eq(f(g(x)), g(y)), q(x), r(y)],
        [p(f(g(c))), q(c), r(Var(2))],
        None,
    )
    run(
        "rigid match target",
        [eq(f(c), c), q(d)],
        [p(f(c)), q(x)],
        None,
    )
    run(
        "two stage substitution",
        [eq(h(x, y), y), q(x)],
        [p(h(c, d)), q(c)],
        (p(d), q(c)),
    )
    return w, rows


def test_criterion_1_worked_examples(capsys):
    start = time.monotonic()
    w, rows = _worked_replacements()
    for label, _, expected, got in rows:
        if expected is None:
            assert got is None, label
        else:
            assert got is not None, label
            assert got.literals == expected, label

    x, y = Var(0), Var(1)
    factory = w.factory

    # the baseline pipeline leaves the guarded main premise untouched
    side = factory.make([w.leq(w.z, x).negated(), w.less(x, w.n).negated(), eq(w.f(x), w.g(x))])
    main = factory.make([w.leq(w.z, y).negated(), w.less(y, w.n).negated(), w.p(w.f(y))])
    st = ProverState(factory=factory, config=ProverConfig(fsd=False, bsd=False))
    st.activate(side)
    assert forward_simplify(main, st) is main

    # the two stage match binds one variable first, the occurrence the other
    side = factory.make([eq(w.h(x, y), y), w.q(x)])
    main = factory.make([w.p(w.h(w.c, w.d)), w.q(w.c)])
    first = next(match_solutions(side, main, reserve_equality=True))
    assert first.rewrite_eq_pos == 0
    assert first.subst == {0: w.c}
    step = next(sd_simplifications(side, main))
    assert step.subst == {0: w.c, 1: w.d}

    # unit rewriting reproduces its frozen conclusions
    unit = factory.make([eq(w.f(w.f(x)), w.f(x))])
    out = demodulate(unit, factory.make([w.p(w.f(w.f(w.c))), w.q(w.d)]), factory)
    assert out is not None and out.literals == (w.p(w.f(w.c)), w.q(w.d))
    unit = factory.make([eq(w.f(x), w.g(x))])
    guarded = factory.make([w.leq(w.z, x).negated(), w.less(x, w.n).negated(), w.p(w.f(x))])
    out = demodulate(unit, guarded, factory)
    assert out is not None
    assert out.literals == (w.leq(w.z, x).negated(), w.less(x, w.n).negated(), w.p(w.g(x)))
    assert demodulate(factory.make([eq(w.c, w.d)]), factory.make([w.p(w.sig.constant("e"))]), factory) is None

    # a clause with an instance of every subsumer literal is deleted
    active = BackwardIndex()
    subsumer = factory.make([w.p(x), w.q(w.f(x))])
    active.insert(subsumer)
    dup = factory.make([w.p(w.f(w.c)), w.p(w.g(w.c)), w.q(w.f(w.c)), w.q(w.f(w.g(w.c))), w.r(y)])
    assert forward_subsumption_delete(dup, active) == subsumer.cid
    assert forward_subsumption_delete(factory.make([w.q(w.c)]), active) is None

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass_line(capsys, 1, f"{len(rows)} rewrite examples plus unit and deletion checks in {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 2

@functools.lru_cache(maxsize=None)
def _ground_steps():
    """Derivation steps harvested from saturating random ground problems.

    Every other problem is seeded with a conditional equality, its guard,
    and a rewritable companion so the simplifying rules see real traffic.
    Returns (steps, replacements): steps as (parent literal tuples,
    conclusion literals, rule), replacements as (main, conclusion) pairs.
    """
    gg = GroundGen(seed=29)
    steps = []
    replacements = []
    for round_no in range(400):
        literal_sets = [gg.lits(gg.rng.randrange(1, 4)) for _ in range(gg.rng.randrange(4, 8))]
        if round_no % 2 == 0:
            t = gg.term(1)
            guard = gg.rng.choice([gg.p, gg.q])(gg.term())
            literal_sets.append((guard, eq(gg.f(t), t)))
            literal_sets.append((guard, gg.p(gg.f(t))))
            literal_sets.append((eq(gg.g(gg.a), gg.a),))
        factory = ClauseFactory()
        clauses = [factory.make(list(lits)) for lits in literal_sets]
        saturate(clauses, ProverConfig(time_limit=3.0, clause_limit=110), factory)
        for cid in sorted(factory.registry):
            clause = factory.registry[cid]
            if clause.rule == "input":
                continue
            parents = tuple(factory.registry[p].literals for p in clause.parents)
            steps.append((parents, clause.literals, clause.rule))
            if clause.rule in ("fsd", "bsd"):
                replacements.append((parents[0], clause.literals))
        if len(steps) >= 1200:
            break
    return steps, replacements


def test_criterion_2_ground_step_soundness(capsys):
    start = time.monotonic()
    steps, _ = _ground_steps()
    counts = Counter()
    for parents, conclusion, rule in steps:
        assert ground_entails(list(parents), conclusion), (rule, parents, conclusion)
        counts[rule] += 1
    checked = sum(counts.values())
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert sum(counts[r] for r in GENERATING_RULES) > 0
    assert sum(counts[r] for r in SIMPLIFYING_RULES) > 0
    assert elapsed <= 60.0
    detail = ", ".join(f"{r}={counts[r]}" for r in sorted(counts))
    _pass_line(capsys, 2, f"{checked} steps entailed in {elapsed:.1f}s; {detail}")


# ------------------------------------------------------------- criterion 3

@functools.lru_cache(maxsize=None)
def _rewrite_configurations():
    """Candidate rewrites as fed to the ordering check, before it runs.

    A configuration fixes the match solution, the occurrence, and the
    orientation; rows carry everything both redundancy formulations need.
    """
    env = Gen(seed=47)
    factory = ClauseFactory()
    configs = []
    rounds = 0
    while len(configs) < 2400 and rounds < 4000:
        rounds += 1
        bucket = rounds % 4
        if bucket == 0:
            t = env.term(2, ground=True)
            side = factory.make([eq(env.f(Var(0)), Var(0)), env.p(Var(0))])
            main = factory.make([env.p(t), env.q(env.f(t)), env.r(env.f(t), env.f(t))])
        elif bucket == 1:
            # remainder close to the equality instance, including duplicates
            t = env.term(1, ground=True)
            side = factory.make([eq(env.f(Var(0)), Var(0)), env.q(Var(0))])
            extra = [eq(env.f(t), t)] * env.rng.randrange(0, 2)
            main = factory.make([eq(env.f(t), t)] + extra + [env.q(t)])
        elif bucket == 2:
            side = factory.make([env.pos_eq()] + list(env.lits(env.rng.randrange(1, 3))))
            main = factory.make(env.lits(env.rng.randrange(1, 5)))
        else:
            side = factory.make(env.lits(env.rng.randrange(2, 4)))
            main = factory.make(env.lits(env.rng.randrange(1, 5)))
        if not any(l.positive and l.is_equality for l in side.literals):
            continue
        if len(side.literals) - 1 > len(main.literals):
            continue
        side_lits = rename_apart(side.literals, main.literals)
        for m in match_solutions(Clause(side_lits, side.cid), main, reserve_equality=True):
            equality = side_lits[m.rewrite_eq_pos]
            orientations = [(equality.args[0], equality.args[1])]
            if equality.args[0] != equality.args[1]:
                orientations.append((equality.args[1], equality.args[0]))
            for lit_pos, lit in enumerate(main.literals):
                if lit_pos in m.image:
                    continue
                for path, t in literal_occurrences(lit):
                    for lhs, rhs in orientations:
                        sigma = match_pairs([(lhs, t)], m.subst)
                        if sigma is None:
                            continue
                        rhs_image = apply_term(rhs, sigma)
                        configs.append((main, equality, sigma, t, rhs_image, m.image, lit_pos, path))
    return configs


def _conclusion_literals(main, lit_pos, path, rhs_image):
    lits = list(main.literals)
    lits[lit_pos] = replace_in_literal(lits[lit_pos], path, rhs_image)
    return tuple(lits)


def _configuration_replacements():
    out = []
    for main, _, _, t, rhs_image, image, lit_pos, path in _rewrite_configurations():
        if check_ordering_conditions(main, t, rhs_image, image):
            out.append((main.literals, _conclusion_literals(main, lit_pos, path, rhs_image)))
    return out


def test_criterion_3_remainder_check_matches_whole_clause_comparison(capsys):
    """The implemented check compares the unmatched remainder against the
    instantiated equality; the expensive formulation compares the whole
    main premise against the full instantiated side premise.  On oriented
    configurations the two must agree exactly."""
    start = time.monotonic()
    oriented = 0
    applicable = 0
    for main, equality, sigma, t, rhs_image, image, _, _ in _rewrite_configurations():
        cheap = check_ordering_conditions(main, t, rhs_image, image)
        if compare_terms(t, rhs_image) is not OrderResult.GREATER:
            assert not cheap
            continue
        oriented += 1
        instance = eq(apply_term(equality.args[0], sigma), apply_term(equality.args[1], sigma))
        side_instance = [instance] + [main.literals[j] for j in sorted(image)]
        full = compare_clauses(main.literals, side_instance) is OrderResult.GREATER
        assert cheap == full, (main.literals, side_instance)
        applicable += cheap
    elapsed = time.monotonic() - start
    assert oriented >= 1000
    assert applicable >= 200
    assert elapsed <= 30.0
    _pass_line(capsys, 3, f"{oriented} oriented configurations agreed ({applicable} applicable) in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_replacements_strictly_decrease(capsys):
    start = time.monotonic()
    sources = {
        "examples": [(main, got.literals) for _, main, _, got in _worked_replacements()[1] if got is not None],
        "ground runs": _ground_steps()[1],
        "configurations": _configuration_replacements(),
    }
    total = 0
    for name, pairs in sources.items():
        assert pairs, name
        for main_lits, conclusion_lits in pairs:
            assert compare_clauses(main_lits, conclusion_lits) is OrderResult.GREATER, (name, main_lits)
            total += 1
    elapsed = time.monotonic() - start
    detail = ", ".join(f"{name}={len(pairs)}" for name, pairs in sources.items())
    _pass_line(capsys, 4, f"{total} replacements decreased in {elapsed:.1f}s; {detail}")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_indexed_pipeline_matches_brute_force(capsys):
    """Indexed forward rewriting applies iff exhaustive enumeration over the
    store finds an application.  Unit equality sides are out of scope for
    the index by contract; plain rewriting owns them (criterion 8)."""
    env = Gen(seed=83)
    factory = ClauseFactory()
    start = time.monotonic()
    instances = 0
    applications = 0
    while instances < 520:
        store = []
        ix = FsdIndex()
        for k in range(env.rng.randrange(3, 7)):
            if k == 0 and env.rng.random() < 0.5:
                clause = factory.make([eq(env.f(Var(0)), Var(0)), env.p(Var(0))])
            elif env.rng.random() < 0.4:
                clause = factory.make([env.pos_eq()] + list(env.lits(env.rng.randrange(1, 3))))
            else:
                clause = factory.make(env.lits(env.rng.randrange(1, 5)))
            store.append(clause)
            ix.insert(clause)
        for _ in range(4):
            if env.rng.random() < 0.35:
                t = env.term(2, ground=True)
                query = factory.make([env.p(t), env.q(env.f(t))])
            else:
                query = factory.make(env.lits(env.rng.randrange(1, 5)))
            got = forward_subsumption_demodulation(query, ix, factory)
            expected = any(
                len(c.literals) >= 2 and naive_sd_applicable(c.literals, query.literals)
                for c in store
            )
            assert (got is not None) == expected, (query.literals, [c.literals for c in store])
            applications += got is not None
            instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 500
    assert applications >= 30
    assert elapsed <= 60.0
    _pass_line(capsys, 5, f"{instances} store and query instances agreed ({applications} applications) in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 6

def _greater_pairs(env, n):
    out = []
    attempts = 0
    while len(out) < n and attempts < 60 * n:
        attempts += 1
        s, t = env.term(2), env.term(2)
        order = compare_terms(s, t)
        if order is OrderResult.GREATER:
            out.append((s, t))
        elif order is OrderResult.LESS:
            out.append((t, s))
    assert len(out) == n
    return out


def _random_subst(env, s, t):
    from sdprover.terms import term_vars

    bindings = {}
    for vid in term_vars(s) | term_vars(t):
        if env.rng.random() < 0.7:
            bindings[vid] = env.term(1)
    return bindings


def test_criterion_6_ordering_axioms(capsys):
    from sdprover.terms import preorder_subterms

    env = Gen(seed=101)
    start = time.monotonic()
    n = 10000

    for s, t in _greater_pairs(env, n):
        sigma = _random_subst(env, s, t)
        assert compare_terms(apply_term(s, sigma), apply_term(t, sigma)) is OrderResult.GREATER, (s, t, sigma)

    for s, t in _greater_pairs(env, n):
        filler = env.term(1)
        wrap = env.rng.randrange(3)
        if wrap == 0:
            bigger, smaller = env.f(s), env.f(t)
        elif wrap == 1:
            bigger, smaller = env.h(s, filler), env.h(t, filler)
        else:
            bigger, smaller = env.h(filler, s), env.h(filler, t)
        assert compare_terms(bigger, smaller) is OrderResult.GREATER, (s, t, wrap)

    for _ in range(n):
        term = env.term(3)
        while isinstance(term, Var) or not term.args:
            term = env.term(3)
        positions = list(preorder_subterms(term))[1:]
        _, sub = env.rng.choice(positions)
        assert compare_terms(term, sub) is OrderResult.GREATER, (term, sub)

    flipped = {
        OrderResult.GREATER: OrderResult.LESS,
        OrderResult.LESS: OrderResult.GREATER,
        OrderResult.EQUAL: OrderResult.EQUAL,
        OrderResult.INCOMPARABLE: OrderResult.INCOMPARABLE,
    }
    for _ in range(n):
        s, t = env.term(2), env.term(2)
        assert compare_terms(t, s) is flipped[compare_terms(s, t)], (s, t)

    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _pass_line(capsys, 6, f"4 x {n} axiom checks in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 7

def _solve(path, fsd, bsd):
    sig = Signature()
    factory = ClauseFactory()
    problem = load_problem(path, sig, factory)
    config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=10.0, clause_limit=300)
    result = saturate(problem.clauses, config, factory)
    return result.status in (SatStatus.UNSATISFIABLE, SatStatus.SATURATED)


def test_criterion_7_corpus_differential(capsys):
    """With conditional rewriting on, the prover must solve at least as many
    corpus problems as the baseline on every file, and strictly more on at
    least three: the conditional equalities are inert for the baseline."""
    start = time.monotonic()
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.p")))
    assert len(paths) == 20
    solved_full = set()
    solved_base = set()
    for path in paths:
        name = os.path.basename(path)
        if _solve(path, fsd=True, bsd=True):
            solved_full.add(name)
        if _solve(path, fsd=False, bsd=False):
            solved_base.add(name)
    assert solved_base <= solved_full, sorted(solved_base - solved_full)
    gaps = sorted(solved_full - solved_base)
    assert len(gaps) >= 3, gaps
    elapsed = time.monotonic() - start
    _pass_line(
        capsys,
        7,
        f"full {len(solved_full)}/20, baseline {len(solved_base)}/20, "
        f"{len(gaps)} gaps ({', '.join(gaps)}) in {elapsed:.1f}s",
    )


# ------------------------------------------------------------- criterion 8

def test_criterion_8_unit_side_reduces_to_plain_rewriting(capsys):
    env = Gen(seed=127)
    factory = ClauseFactory()
    start = time.monotonic()
    instances = 0
    applicable = 0
    while instances < 520:
        if instances % 3 == 0:
            t = env.term(2, ground=True)
            unit = factory.make([eq(env.f(Var(0)), Var(0))])
            main = factory.make([env.q(env.f(t)), env.p(t)])
        else:
            unit = factory.make([env.pos_eq()])
            main = factory.make(env.lits(env.rng.randrange(1, 4)))
        plain = reference_demodulate(unit.literals, main.literals)
        step = next(sd_simplifications(unit, main), None)
        if plain is None:
            assert step is None, (unit.literals, main.literals)
        else:
            assert step is not None, (unit.literals, main.literals)
            built = build_simplified_clause(main, step, factory, rule="fsd")
            assert built.literals == plain
            applicable += 1
        instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 500
    assert applicable >= 100
    _pass_line(capsys, 8, f"{instances} unit side instances agreed ({applicable} applicable) in {elapsed:.1f}s")
