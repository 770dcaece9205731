"""Generating rule tests: unit cases, selection discipline, ground soundness."""

from oracles import (
    apply,
    clause_vars,
    ground_entails,
    nvars,
    offset_resolution,
    replaced_superposition,
    unscreened_superposition,
    variant,
)
from randgen import Gen, GroundGen

from sdprover.calculus import (
    equality_factoring,
    equality_resolution,
    factoring,
    resolution,
    superposition,
    unary_inferences,
)
from sdprover.clauses import Clause, ClauseFactory, eq, neq, select
from sdprover.terms import Var

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
env = Gen(seed=47)
x, y = Var(0), Var(1)


def _lits_of(clauses):
    return {c.literals for c in clauses}


def test_resolution_basic():
    factory = ClauseFactory()
    c1 = factory.make([env.p(env.f(x))])
    c2 = factory.make([env.p(env.f(env.a)).negated(), env.q(env.a)])
    out = resolution(c1, c2, factory)
    assert _lits_of(out) == {(env.q(env.a),)}
    assert out[0].rule == "resolution"
    assert out[0].parents == (c1.cid, c2.cid)


def test_resolution_requires_selected_negative_literal():
    factory = ClauseFactory()
    # the heavier negative literal is selected, so the lighter one is inert
    c2 = factory.make([env.q(env.a).negated(), env.p(env.f(env.f(env.a))).negated()])
    assert select(c2) == (1,)
    q_unit = factory.make([env.q(env.a)])
    assert resolution(q_unit, c2, factory) == []
    p_unit = factory.make([env.p(env.f(env.f(env.a)))])
    assert _lits_of(resolution(p_unit, c2, factory)) == {(env.q(env.a).negated(),)}


def test_resolution_ignores_mismatched_predicates_and_polarity():
    factory = ClauseFactory()
    assert resolution(factory.make([env.p(env.a)]), factory.make([env.q(env.a).negated()]), factory) == []
    assert resolution(factory.make([env.p(env.a)]), factory.make([env.p(env.a)]), factory) == []


def test_resolution_renames_shared_variables_apart():
    factory = ClauseFactory()
    c1 = factory.make([env.p(x)])
    c2 = factory.make([env.p(env.f(x)).negated(), env.q(x)])
    out = resolution(c1, c2, factory)
    assert len(out) == 1
    assert variant(out[0], Clause((env.q(x),), 0))


def test_factoring_unifies_two_selected_literals():
    factory = ClauseFactory()
    c = factory.make([env.p(x), env.p(env.c)])
    out = factoring(c, factory)
    assert _lits_of(out) == {(env.p(env.c),)}
    assert out[0].rule == "factoring"


def test_factoring_mints_one_clause_per_variant():
    factory = ClauseFactory()
    c = factory.make([env.p(Var(0)), env.p(Var(1)), env.p(Var(2))])
    before = factory.created
    out = factoring(c, factory)
    # six factoring pairs, all conclusions variants of p(X) | p(Y)
    assert _lits_of(out) == {(env.p(Var(0)), env.p(Var(1)))}
    assert factory.created == before + 1


def test_factoring_skips_negative_clauses_with_one_selected_literal():
    factory = ClauseFactory()
    # only the heaviest negative literal is selected, so no pair unifies
    c = factory.make([env.p(x).negated(), env.p(env.f(env.c)).negated()])
    assert select(c) == (1,)
    assert factoring(c, factory) == []


def test_superposition_ground_rewrite():
    factory = ClauseFactory()
    c1 = factory.make([eq(env.f(env.c), env.c)])
    c2 = factory.make([env.p(env.f(env.c))])
    out = superposition(c1, c2, factory)
    assert _lits_of(out) == {(env.p(env.c),)}
    assert out[0].rule == "superposition"
    assert out[0].parents == (c1.cid, c2.cid)


def test_superposition_respects_orientation():
    factory = ClauseFactory()
    # rewriting with the small side would grow the term; nothing applies
    c1 = factory.make([eq(env.f(env.c), env.c)])
    c2 = factory.make([env.p(env.c)])
    assert superposition(c1, c2, factory) == []


def test_superposition_skips_variable_positions():
    factory = ClauseFactory()
    c1 = factory.make([eq(env.f(env.a), env.a)])
    c2 = factory.make([env.p(x)])
    assert superposition(c1, c2, factory) == []


def test_superposition_needs_selected_equality():
    factory = ClauseFactory()
    # the negative literal is selected, leaving the equality inert
    c1 = factory.make([env.q(env.f(env.a)).negated(), eq(env.f(env.a), env.a)])
    assert select(c1) == (0,)
    c2 = factory.make([env.p(env.f(env.a))])
    assert superposition(c1, c2, factory) == []


def test_superposition_into_equality_checks_both_sides():
    factory = ClauseFactory()
    c1 = factory.make([eq(env.f(env.c), env.c)])
    c2 = factory.make([neq(env.f(env.c), env.g(env.c))])
    out = superposition(c1, c2, factory)
    assert _lits_of(out) == {(neq(env.c, env.g(env.c)),)}


def test_superposition_into_incomparable_sides_compares_the_instance():
    factory = ClauseFactory()
    z = Var(2)
    c1 = factory.make([eq(env.h(env.a, x), x)])
    # h(X, Y) and f(f(f(Y))) are incomparable, but once X is a the right
    # side is greater, so rewriting the left side gives no conclusion
    c2 = factory.make([eq(env.h(x, y), env.f(env.f(env.f(y))))])
    assert superposition(c1, c2, factory) == []
    # with another variable on the right the instance stays incomparable
    c3 = factory.make([eq(env.h(x, y), env.f(env.f(env.f(z))))])
    assert _lits_of(superposition(c1, c3, factory)) == {(eq(x, env.f(env.f(env.f(y)))),)}


def test_equality_resolution():
    factory = ClauseFactory()
    c = factory.make([neq(env.f(x), env.f(env.a)), env.p(x)])
    out = equality_resolution(c, factory)
    assert _lits_of(out) == {(env.p(env.a),)}
    assert out[0].rule == "eq_resolution"
    assert out[0].parents == (c.cid,)


def test_equality_resolution_needs_unifiable_sides():
    factory = ClauseFactory()
    c = factory.make([neq(env.a, env.b)])
    assert equality_resolution(c, factory) == []


def test_equality_factoring():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(x), x), eq(env.f(env.b), env.b)])
    out = equality_factoring(c, factory)
    assert _lits_of(out) == {(eq(env.f(env.b), env.b), neq(env.b, env.b))}
    assert out[0].rule == "eq_factoring"


def test_unary_wrapper_collects_all_three_rules():
    factory = ClauseFactory()
    c = factory.make([env.p(x), env.p(env.c), neq(y, env.a)])
    out = unary_inferences(c, factory)
    rules = {cl.rule for cl in out}
    assert "eq_resolution" in rules


def test_ground_inferences_are_sound():
    gg = GroundGen(seed=5)
    factory = ClauseFactory()
    checked = 0
    for _ in range(600):
        lits1 = gg.lits(gg.rng.randrange(1, 3))
        lits2 = gg.lits(gg.rng.randrange(1, 3))
        if gg.rng.random() < 0.5:
            # share a complemented literal so binary rules fire often
            lits2 = lits2 + (gg.rng.choice(lits1).negated(),)
        c1 = factory.make(lits1)
        c2 = factory.make(lits2)
        produced = unary_inferences(c1, factory) + resolution(c1, c2, factory) + superposition(c1, c2, factory)
        for concl in produced:
            assert ground_entails([c1.literals, c2.literals], concl.literals)
            checked += 1
    assert checked > 50


def _minted(clauses):
    return [(c.cid, c.rule, c.parents, nvars(c.literals), c.literals) for c in clauses]


def test_screened_superposition_agrees_with_the_unscreened_scan():
    """Superposition with its screens and stored verdicts mints exactly what
    unifying every orientation at every position and comparing every
    instance mints: for INCOMPARABLE equations, whose instances are
    compared, and into predicate, negative-equality and positive-equality
    targets, whose sides are compared once per call."""
    gen = Gen(seed=89)
    produced = {"predicate": 0, "negative equality": 0, "positive equality": 0}
    incomparable = 0
    for round_no in range(450):
        if round_no % 3 == 0:
            equality = eq(gen.h(Var(0), Var(1)), gen.h(Var(1), Var(0)))
        elif round_no % 3 == 1:
            equality = eq(Var(0), gen.rng.choice(gen.unary)(Var(1)))
        else:
            equality = gen.pos_eq()
        lits1 = (equality,) + gen.lits(gen.rng.randrange(0, 2), depth=1)
        # the partner holds an instance of one side, so unification often succeeds
        redex = apply(gen.rng.choice(equality.args), {0: gen.term(1), 1: gen.term(1)})
        target = ("predicate", "negative equality", "positive equality")[round_no // 3 % 3]
        if target == "predicate":
            holder = gen.rng.choice([gen.p, gen.q])(gen.f(redex))
        else:
            sides = [gen.f(redex), gen.term(2)]
            gen.rng.shuffle(sides)
            holder = (neq if target == "negative equality" else eq)(*sides)
        lits2 = (holder,) + gen.lits(gen.rng.randrange(0, 2), depth=1)
        for first, second in ((lits1, lits2), (lits2, lits1)):
            screened, unscreened = ClauseFactory(), ClauseFactory()
            c1, c2 = screened.make(first), screened.make(second)
            d1, d2 = unscreened.make(first), unscreened.make(second)
            got = superposition(c1, c2, screened)
            assert _minted(got) == _minted(unscreened_superposition(d1, d2, unscreened)), (first, second)
            if first is lits1:
                produced[target] += len(got)
                incomparable += len(got) if round_no % 3 < 2 else 0
    assert min(produced.values()) > 60, produced
    assert incomparable > 100, incomparable


def _exact(clauses):
    # argument order too: equality literals compare as unordered pairs
    return [(c.cid, c.rule, c.parents, nvars(c.literals), [(l.positive, l.pred, l.args) for l in c.literals]) for c in clauses]


def test_generation_agrees_with_the_offset_renaming():
    """Resolution and superposition with the renamed copy and target view
    kept on each clause mint what renaming by offset per call mints: same
    ids, rules, parents, variable counts and literals.  Every ordered pair
    of one pool of clause objects is tried, each clause with itself too,
    so each clause serves as first and second premise in turn."""
    gen = Gen(seed=101)
    pool = []
    for k in range(40):
        lits = gen.lits(gen.rng.randrange(0, 2), depth=1)
        if k % 4 == 0:
            lits = (gen.pos_eq(),) + lits
        elif k % 4 == 1:
            # positive and negative predicate literals, so resolution fires often
            lits = (gen.p(gen.term(2)),)
        elif k % 4 == 2:
            lits = (gen.p(gen.term(2)).negated(),) + lits
        pool.append(lits or (gen.pos_eq(),))
    stored, offset = ClauseFactory(), ClauseFactory()
    cs = [stored.make(lits) for lits in pool]
    ds = [offset.make(lits) for lits in pool]
    minted = {"resolution": 0, "superposition": 0, "self": 0}
    for _ in range(2):
        for c1, d1 in zip(cs, ds):
            for c2, d2 in zip(cs, ds):
                got = resolution(c1, c2, stored)
                assert _exact(got) == _exact(offset_resolution(d1, d2, offset)), (c1, c2)
                minted["resolution"] += len(got)
                minted["self"] += len(got) if c1 is c2 else 0
                got = superposition(c1, c2, stored)
                assert _exact(got) == _exact(unscreened_superposition(d1, d2, offset)), (c1, c2)
                minted["superposition"] += len(got)
                minted["self"] += len(got) if c1 is c2 else 0
    assert minted["resolution"] > 80 and minted["superposition"] > 600 and minted["self"] > 30, minted


def test_superposition_mints_what_replacing_then_canonicalizing_gives():
    """Differential: each superposition conclusion, literal by literal and
    in order, is what putting the right-hand side in at the rewritten
    position and then applying the unifier and renumbering gives
    (oracles.replaced_superposition), though superposition hands the
    factory a context literal with a hole there instead.  Ground and
    non-ground clauses pair in both roles, each clause with itself too,
    and every pair twice, so a context kept from the first call serves the
    second.  No minted clause, nor its registry copy, holds a variable
    other than 0, 1, ..., so none holds the hole."""
    gen = Gen(seed=139)
    pool = []
    for k in range(36):
        ground = k % 3 == 2
        lits = gen.lits(gen.rng.randrange(0, 2), depth=1, ground=ground)
        if k % 2 == 0:
            lits = (gen.pos_eq(ground=ground),) + lits
        pool.append(lits or (gen.pos_eq(ground=ground),))
    factory = ClauseFactory()
    cs = [factory.make(lits) for lits in pool]
    minted = {"ground": 0, "non-ground": 0}
    for _ in range(2):
        for c1 in cs:
            for c2 in cs:
                got = superposition(c1, c2, factory)
                expected = replaced_superposition(c1, c2)
                assert [_exact_literals(c.literals) for c in got] == [_exact_literals(e) for e in expected], (c1, c2)
                for c in got:
                    for lits in (c.literals, factory.registry[c.cid].literals):
                        assert clause_vars(lits) == set(range(nvars(lits))), c
                    minted["ground" if all(lit.ground for lit in c.literals) else "non-ground"] += 1
    assert minted["ground"] > 100 and minted["non-ground"] > 400, minted


def _exact_literals(lits):
    # argument order too: equality literals compare as unordered pairs
    return [(lit.positive, lit.pred, lit.args) for lit in lits]
