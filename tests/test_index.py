"""Index tests: key stability, bucket choice, and retrieval completeness."""

from oracles import naive_sd_applicable, naive_subsumes, rename_apart
from randgen import Gen

from sdprover.clauses import ClauseFactory, apply, eq
from sdprover.index import (
    BackwardIndex,
    FsdIndex,
    best_literal_keys,
    literal_key,
)
from sdprover.terms import Substitution, Var

env = Gen(seed=31)
x, y = Var(0), Var(1)


def _clauses(factory, count, max_len):
    out = []
    for _ in range(count):
        out.append(factory.make(env.lits(env.rng.randrange(1, max_len + 1))))
    return out


def _applicable_pair(factory):
    """A (side, main) clause pair where one rewrite step fires."""
    t = env.term(2, ground=True)
    u = env.term(1, ground=True)
    if env.rng.random() < 0.5:
        side = factory.make([eq(env.f(x), x), env.p(x)])
        main = factory.make([env.p(t), env.q(env.f(t))])
    else:
        side = factory.make([eq(env.h(x, y), y), env.q(x)])
        main = factory.make([env.q(t), env.p(env.h(t, u))])
    return side, main


def test_literal_key_stable_under_substitution():
    for _ in range(300):
        lit = env.literal()
        subst = Substitution({vid: env.term(2, ground=True) for vid in range(3)})
        assert literal_key(lit) == literal_key(apply(lit, subst))


def test_literal_key_separates_polarity_and_predicate():
    assert literal_key(env.p(x)) != literal_key(env.q(x))
    assert literal_key(env.p(x)) != literal_key(env.p(x).negated())
    assert literal_key(eq(x, y)) != literal_key(eq(x, y).negated())
    assert literal_key(eq(x, env.a)) == literal_key(eq(env.b, y))


def test_index_keys_skip_best_positive_equality():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(env.g(x)), env.g(x)), env.q(x), env.r(y, y)])
    # the equality outweighs both others, so the heaviest remaining literal
    # (the binary atom) is the lookup key
    assert best_literal_keys(c) == [literal_key(env.r(x, y))]


def test_index_keys_use_top_two_when_both_are_equalities():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(x), x), eq(env.g(y), y)])
    assert best_literal_keys(c) == [("e", True), ("e", True)]


def test_index_keys_use_best_literal_when_not_an_equality():
    factory = ClauseFactory()
    c = factory.make([env.p(env.f(env.f(x))), eq(x, y)])
    assert best_literal_keys(c) == [literal_key(env.p(x))]


def test_unindexable_clauses_have_no_keys():
    factory = ClauseFactory()
    assert best_literal_keys(factory.make([env.p(x), env.q(x)])) == []
    assert best_literal_keys(factory.make([eq(env.f(x), x)])) == []
    assert best_literal_keys(factory.make([])) == []


def test_fsd_index_insert_remove_round_trip():
    factory = ClauseFactory()
    ix = FsdIndex()
    kept = []
    for c in _clauses(factory, 40, 4):
        ix.insert(c)
        if best_literal_keys(c):
            kept.append(c)
    assert len(ix) == len({c.cid for c in kept})
    for c in kept:
        assert c in ix
        ix.remove(c)
        assert c not in ix
    assert len(ix) == 0
    probe = factory.make([env.p(env.a)])
    assert ix.retrieve_fsd_candidates(probe) == set()


def test_fsd_index_double_insert_and_remove_are_idempotent():
    factory = ClauseFactory()
    ix = FsdIndex()
    c = factory.make([eq(env.f(x), x), env.p(x)])
    ix.insert(c)
    ix.insert(c)
    assert len(ix) == 1
    ix.remove(c)
    ix.remove(c)
    assert len(ix) == 0


def test_fsd_retrieval_by_residual_literal():
    factory = ClauseFactory()
    ix = FsdIndex()
    c = factory.make([eq(env.h(x, y), y), env.q(x)])
    ix.insert(c)
    d = factory.make([env.p(env.h(env.a, env.b)), env.q(env.a)])
    assert c in ix.retrieve_fsd_candidates(d)


def test_fsd_retrieval_never_misses_an_applicable_side():
    factory = ClauseFactory()
    ix = FsdIndex()
    stored = _clauses(factory, 25, 3)
    mains = []
    for _ in range(15):
        side, main = _applicable_pair(factory)
        stored.append(side)
        mains.append(main)
    for c in stored:
        ix.insert(c)
    queries = mains + [factory.make(env.lits(env.rng.randrange(1, 4))) for _ in range(40)]
    hits = 0
    for d in queries:
        found = ix.retrieve_fsd_candidates(d)
        for c in stored:
            # unit equalities are out of scope for the index by contract
            if best_literal_keys(c) and naive_sd_applicable(c.literals, d.literals):
                assert c in found
                hits += 1
    assert hits >= 15


def test_backward_index_round_trip():
    factory = ClauseFactory()
    ix = BackwardIndex()
    stored = _clauses(factory, 30, 4)
    for c in stored:
        ix.insert(c)
        ix.insert(c)
    assert len(ix) == len(stored)
    assert all(c in ix for c in stored)
    for c in stored:
        ix.remove(c)
        ix.remove(c)
    assert len(ix) == 0


def test_bsd_retrieval_never_misses_a_rewritable_main():
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    sides = []
    for _ in range(15):
        side, main = _applicable_pair(factory)
        active.append(main)
        sides.append(side)
    for d in active:
        ix.insert(d)
    queries = sides + [factory.make(env.lits(env.rng.randrange(2, 4))) for _ in range(25)]
    hits = 0
    for c in queries:
        found = ix.retrieve_bsd_candidates(c)
        for d in active:
            if naive_sd_applicable(c.literals, d.literals):
                assert d in found
                hits += 1
    assert hits >= 15


def test_forward_subsumption_retrieval_complete():
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    for c in active:
        ix.insert(c)
    hits = 0
    for _ in range(40):
        d = factory.make(env.lits(env.rng.randrange(1, 4)))
        found = ix.forward_subsumption_candidates(d)
        for c in active:
            src = rename_apart(c.literals, d.literals)
            if naive_subsumes(src, d.literals):
                assert c in found
                hits += 1
    assert hits > 0


def test_backward_subsumption_retrieval_complete():
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    for d in active:
        ix.insert(d)
    hits = 0
    for _ in range(40):
        g = factory.make(env.lits(env.rng.randrange(1, 3)))
        found = ix.backward_subsumption_candidates(g)
        for d in active:
            src = rename_apart(g.literals, d.literals)
            if naive_subsumes(src, d.literals):
                assert d in found
                hits += 1
    assert hits > 0
