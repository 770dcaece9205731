"""Knuth-Bendix ordering tests: unit cases, axioms, and a multiset oracle."""

from oracles import multiset_greater_ref
from randgen import Gen

from sdprover.clauses import eq, neq
from sdprover.ordering import (
    OrderResult,
    compare_clauses,
    compare_literal_multisets,
    compare_literals,
    compare_terms,
    multiset_extension,
)
from sdprover.terms import Var, apply_term, preorder_subterms

env = Gen(seed=7)
x, y = Var(0), Var(1)


def test_equal_terms():
    assert compare_terms(env.f(env.a), env.f(env.a)) is OrderResult.EQUAL


def test_subterm_is_smaller():
    assert compare_terms(env.f(env.a), env.a) is OrderResult.GREATER
    assert compare_terms(x, env.f(x)) is OrderResult.LESS


def test_weight_dominates():
    assert compare_terms(env.g(env.g(env.a)), env.f(env.a)) is OrderResult.GREATER


def test_precedence_higher_arity_first():
    # equal weight comparisons fall through to precedence: h interned first
    # but wins by arity, f beats g by declaration order
    assert compare_terms(env.h(env.a, env.b), env.f(env.f(env.a))) is OrderResult.GREATER
    assert compare_terms(env.f(env.a), env.g(env.a)) is OrderResult.GREATER
    assert compare_terms(env.g(env.a), env.a) is OrderResult.GREATER


def test_lexicographic_tie_break():
    # first differing argument decides; a precedes b, so a is greater
    assert compare_terms(env.h(env.a, env.b), env.h(env.b, env.a)) is OrderResult.GREATER


def test_variable_count_blocks_comparison():
    assert compare_terms(env.f(x), env.g(y)) is OrderResult.INCOMPARABLE
    assert compare_terms(env.h(x, x), env.h(x, y)) is OrderResult.INCOMPARABLE


def test_variable_under_weight():
    # same weight, right side is a bare variable occurring on the left
    assert compare_terms(env.f(x), x) is OrderResult.GREATER


def test_is_oriented():
    assert compare_terms(env.f(x), x) is OrderResult.GREATER
    assert compare_terms(env.f(x), env.g(y)) is OrderResult.INCOMPARABLE


def test_ground_totality():
    for _ in range(300):
        s = env.term(ground=True)
        t = env.term(ground=True)
        result = compare_terms(s, t)
        if s == t:
            assert result is OrderResult.EQUAL
        else:
            assert result in (OrderResult.GREATER, OrderResult.LESS)


def test_antisymmetry_sampled():
    for _ in range(500):
        s, t = env.term(), env.term()
        a = compare_terms(s, t)
        b = compare_terms(t, s)
        flips = {
            OrderResult.GREATER: OrderResult.LESS,
            OrderResult.LESS: OrderResult.GREATER,
            OrderResult.EQUAL: OrderResult.EQUAL,
            OrderResult.INCOMPARABLE: OrderResult.INCOMPARABLE,
        }
        assert b is flips[a]


def test_subterm_property_sampled():
    for _ in range(300):
        t = env.term(depth=3)
        for path, sub in preorder_subterms(t):
            if path:
                assert compare_terms(t, sub) is OrderResult.GREATER


def test_stability_under_substitution_sampled():
    from sdprover.terms import Substitution

    for _ in range(400):
        s, t = env.term(), env.term()
        if compare_terms(s, t) is not OrderResult.GREATER:
            continue
        sub = Substitution({v: env.term(depth=1) for v in range(env.n_vars)})
        assert compare_terms(apply_term(s, sub), apply_term(t, sub)) is OrderResult.GREATER


def test_monotone_in_contexts_sampled():
    for _ in range(400):
        s, t = env.term(), env.term()
        if compare_terms(s, t) is not OrderResult.GREATER:
            continue
        assert compare_terms(env.f(s), env.f(t)) is OrderResult.GREATER
        assert compare_terms(env.h(s, env.a), env.h(t, env.a)) is OrderResult.GREATER


def test_literal_layering_non_equality_above_equality():
    pred = env.p(env.a)
    heavy_eq = eq(env.h(env.h(env.a, env.b), env.a), env.b)
    assert compare_literals(pred, heavy_eq) is OrderResult.GREATER


def test_literal_polarity_tie_break():
    atom = env.p(env.a)
    assert compare_literals(atom.negated(), atom) is OrderResult.GREATER


def test_negative_equality_above_its_positive():
    assert compare_literals(neq(env.a, env.b), eq(env.a, env.b)) is OrderResult.GREATER


def test_equality_sides_unordered():
    assert compare_literals(eq(env.a, env.b), eq(env.b, env.a)) is OrderResult.EQUAL


def test_multiset_extension_matches_reference():
    checked = 0
    for _ in range(400):
        xs = env.lits(env.rng.randrange(4))
        ys = env.lits(env.rng.randrange(4))
        result = compare_literal_multisets(xs, ys)
        gt = multiset_greater_ref(xs, ys, compare_literals)
        lt = multiset_greater_ref(ys, xs, compare_literals)
        if result is OrderResult.GREATER:
            assert gt and not lt
        elif result is OrderResult.LESS:
            assert lt and not gt
        else:
            assert not gt and not lt
        checked += 1
    assert checked == 400


def test_multiset_extension_cancels_equal_elements():
    lits = [eq(env.a, env.b), env.p(env.a)]
    assert multiset_extension(tuple(lits), tuple(reversed(lits)), compare_literals) is OrderResult.EQUAL


def test_compare_clauses_accepts_sequences():
    big = [env.p(env.f(env.a))]
    small = [env.p(env.a)]
    assert compare_clauses(big, small) is OrderResult.GREATER
