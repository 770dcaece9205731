"""Tests for literals, clauses, selection, renaming, and variants."""

import pytest
from oracles import clause_vars
from randgen import Gen

from sdprover.clauses import (
    ClauseFactory,
    Literal,
    _literal_pairings,
    apply,
    canonical_literals,
    eq,
    neq,
    rename_apart,
    select,
    variant,
)
from sdprover.ordering import OrderResult, compare_literals
from sdprover.terms import SignatureError, Substitution, Var, unify_pairs

env = Gen(seed=11)
x, y = Var(0), Var(1)


def test_equality_literal_is_unordered_pair():
    assert eq(env.a, env.b) == eq(env.b, env.a)
    assert hash(eq(env.a, env.b)) == hash(eq(env.b, env.a))
    assert neq(env.a, env.b) == neq(env.b, env.a)
    assert eq(env.a, env.b) != neq(env.a, env.b)


def test_predicate_literal_is_positional():
    assert env.r(env.a, env.b) != env.r(env.b, env.a)


def test_negated_flips_polarity_only():
    lit = env.p(env.a)
    assert lit.negated() == Literal(False, lit.pred, lit.args)
    assert lit.negated().negated() == lit


def test_literal_weight():
    assert env.p(env.f(env.a)).weight == 3
    assert eq(env.a, env.b).weight == 3


def test_predicate_arity_checked():
    with pytest.raises(SignatureError):
        env.p(env.a, env.b)


def test_factory_mints_ascending_ids_and_registers():
    factory = ClauseFactory()
    c1 = factory.make([env.p(env.a)])
    c2 = factory.make([env.q(env.b)], rule="resolution", parents=(c1.cid,))
    assert c1.cid < c2.cid
    assert factory.registry[c2.cid] is c2
    assert factory.created == 2


def test_factory_canonicalizes_variables():
    factory = ClauseFactory()
    c = factory.make([env.p(Var(7)), env.q(Var(7)), env.p(Var(3))])
    assert clause_vars(c.literals) == {0, 1}
    assert c.nvars == 2
    assert c.literals[0].args == c.literals[1].args


def test_clauses_compare_by_identity():
    factory = ClauseFactory()
    c1 = factory.make([env.p(env.a)])
    c2 = factory.make([env.p(env.a)])
    assert c1 != c2
    assert variant(c1.literals, c2.literals)


def test_apply_on_literal_and_tuple():
    sub = Substitution({0: env.a})
    assert apply(env.p(x), sub) == env.p(env.a)
    assert apply((env.p(x), eq(x, env.b)), sub) == (env.p(env.a), eq(env.a, env.b))


def test_unify_literals_with_equality_orientation():
    # only the swapped orientation unifies here
    stored, swapped = _literal_pairings(eq(env.f(x), env.a), eq(env.a, env.f(env.b)))
    assert unify_pairs(stored) is None
    sub = unify_pairs(swapped)
    assert sub is not None
    assert apply(eq(env.f(x), env.a), sub) == eq(env.a, env.f(env.b))


def test_unify_respects_polarity():
    assert list(_literal_pairings(env.p(x), env.p(env.a).negated())) == []


def test_canonical_literals_first_occurrence_order():
    lits = (env.p(Var(5)), env.r(Var(2), Var(5)))
    renamed = canonical_literals(lits)
    assert renamed == (env.p(Var(0)), env.r(Var(1), Var(0)))


def test_rename_apart_makes_vars_disjoint():
    factory = ClauseFactory()
    for _ in range(200):
        a = factory.make(env.lits(env.rng.randrange(1, 4)))
        b = factory.make(env.lits(env.rng.randrange(1, 4)))
        renamed = rename_apart(a, b)
        assert not (clause_vars(renamed) & clause_vars(b.literals))
        assert variant(renamed, a.literals)
        # the shift is b's variable count, so the ids stay dense
        assert clause_vars(renamed) == {v + b.nvars for v in clause_vars(a.literals)}


def test_select_prefers_heaviest_negative():
    factory = ClauseFactory()
    c = factory.make([env.p(env.a), env.q(env.f(env.b)).negated(), env.p(env.b).negated()])
    assert select(c) == (1,)


def test_select_is_stored_on_the_clause():
    factory = ClauseFactory()
    c = factory.make([env.p(x), env.q(env.a).negated()])
    first = select(c)
    assert c._selected == first
    assert select(c) is first


def test_select_negative_tie_breaks_leftmost():
    factory = ClauseFactory()
    c = factory.make([env.p(env.a).negated(), env.q(env.b).negated()])
    assert select(c) == (0,)


def test_select_all_maximal_when_no_negative():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(env.a), env.a), env.p(env.b)])
    # non-equality literals sit above equality literals
    assert select(c) == (1,)


def test_select_well_behaved_on_random_clauses():
    factory = ClauseFactory()
    for _ in range(300):
        lits = env.lits(env.rng.randrange(1, 5))
        c = factory.make(lits)
        chosen = select(c)
        assert chosen
        if len(chosen) == 1 and not c.literals[chosen[0]].positive:
            continue
        maximal = tuple(
            i
            for i, lit in enumerate(c.literals)
            if not any(compare_literals(other, lit) is OrderResult.GREATER for other in c.literals)
        )
        assert chosen == maximal


def test_variant_is_renaming_equivalence():
    a = (env.p(x), env.q(x))
    b = (env.p(y), env.q(y))
    c = (env.p(x), env.q(y))
    assert variant(a, b)
    assert not variant(a, c)
    # variants may list literals in any order
    assert variant(a, tuple(reversed(b)))


def test_variant_requires_bijective_renaming():
    a = (env.r(x, y),)
    b = (env.r(x, x),)
    assert not variant(a, b)
    assert not variant(b, a)
