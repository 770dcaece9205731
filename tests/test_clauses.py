"""Tests for literals, clauses, selection, renaming, and variants."""

import itertools
import time
from operator import is_

import pytest
from oracles import (
    apply,
    canonical_literals,
    clause_vars,
    literal_pairings,
    nvars,
    rename_literals,
    shift_vars,
    variant,
)
from randgen import Gen

from sdprover.clauses import (
    Clause,
    ClauseFactory,
    Literal,
    _instantiate_literals,
    canonical_instance,
    eq,
    neq,
    predicate,
    rename_apart,
    select,
)
from sdprover.ordering import OrderResult, compare_literals
from sdprover.terms import Signature, SignatureError, Var, run_scope, unify_pairs
from sdprover.tptp import parse_problem

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
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
    # the registry keeps a copy of its own: the same literals and provenance
    entry = factory.registry[c2.cid]
    assert entry is not c2
    assert entry.literals is c2.literals
    assert (entry.cid, entry.rule, entry.parents) == (c2.cid, "resolution", (c1.cid,))
    assert factory.created == 2


def test_factory_canonicalizes_variables():
    factory = ClauseFactory()
    c = factory.make([env.p(Var(7)), env.q(Var(7)), env.p(Var(3))])
    assert clause_vars(c.literals) == {0, 1}
    assert nvars(c.literals) == 2
    assert c.literals[0].args == c.literals[1].args


def test_clauses_compare_by_identity():
    factory = ClauseFactory()
    c1 = factory.make([env.p(env.a)])
    c2 = factory.make([env.p(env.a)])
    assert c1 != c2
    assert variant(c1, c2)


def test_apply_on_literal_and_tuple():
    # the dispatcher is a test oracle now; other tests lean on it
    sub = {0: env.a}
    assert apply(env.p(x), sub) == env.p(env.a)
    assert apply((env.p(x), eq(x, env.b)), sub) == (env.p(env.a), eq(env.a, env.b))


def test_unify_literals_with_equality_orientation():
    # only the swapped orientation unifies here
    stored, swapped = literal_pairings(eq(env.f(x), env.a), eq(env.a, env.f(env.b)))
    assert unify_pairs(stored) is None
    sub = unify_pairs(swapped)
    assert sub is not None
    assert apply(eq(env.f(x), env.a), sub) == eq(env.a, env.f(env.b))


def test_canonical_literals_first_occurrence_order():
    lits = (env.p(Var(5)), env.r(Var(2), Var(5)))
    renamed = ClauseFactory().make(lits).literals
    assert renamed == (env.p(Var(0)), env.r(Var(1), Var(0)))


def _full_pass(lits, unifier):
    """canonical_instance without its shortcut: every literal rebuilt."""
    fresh = itertools.count()
    return _instantiate_literals(lits, unifier, lambda v: Var(next(fresh)))


def _same_objects(got, lits) -> bool:
    return len(got) == len(lits) and all(map(is_, got, lits))


def test_numbered_literals_are_minted_as_they_are():
    """Under an empty unifier, literals whose variables are already 0, 1,
    ... in pre-order of first occurrence are not rebuilt: the parser's
    clauses are minted with the literal objects it made."""
    lits = (env.r(Var(0), env.f(Var(1))), eq(env.g(Var(1)), Var(2)), env.p(env.a), env.q(Var(0)))
    assert canonical_instance(lits, {}) is lits
    assert _same_objects(canonical_instance(list(lits), {}), lits)
    assert ClauseFactory().make(lits).literals is lits
    problem = parse_problem("cnf(a, axiom, ~p(X) | q(f(Y, X)) | Z = g(Y)).", Signature(), ClauseFactory())
    (clause,) = problem.clauses
    assert canonical_instance(clause.literals, {}) is clause.literals


@pytest.mark.parametrize(
    "vids",
    [(-1,), (-1, -1), (0, -1), (-1, 0), (0, -2, 1), (1, 0), (0, 2, 1), (0, 2), (1,), (0, 1, 3), (0, 0, 2)],
)
def test_misnumbered_literals_are_renumbered_as_the_full_pass_does(vids):
    """Negative ids (renamed apart), ids out of order and gaps all go
    through the full pass: a negative id is never one already met."""
    lits = tuple(env.r(Var(v), env.f(Var(v))) if i % 2 else env.p(Var(v)) for i, v in enumerate(vids))
    got = canonical_instance(lits, {})
    assert [(l.positive, l.pred, l.args) for l in got] == [(l.positive, l.pred, l.args) for l in _full_pass(lits, {})]
    assert [l.args for l in got] == [l.args for l in canonical_literals(lits)]
    assert not any(map(is_, got, lits))


def test_canonical_instance_agrees_with_the_full_pass():
    """Random literal lists, some already numbered, some shifted to
    negative or higher ids, under empty and non-empty unifiers: the result
    equals the full pass, and is the literals themselves exactly when the
    unifier is empty and they are already numbered."""
    gen = Gen(seed=67, n_vars=4)
    kept = rebuilt = 0
    for _ in range(600):
        lits = gen.lits(gen.rng.randrange(1, 4), depth=3)
        roll = gen.rng.random()
        if roll < 0.4:
            lits = canonical_literals(lits)
        elif roll < 0.6:
            lits = rename_literals(lits, gen.rng.choice([-9, -4, 2]))
        sub = {}
        if gen.rng.random() < 0.3:
            terms = [a for lit in lits for a in lit.args]
            sub = unify_pairs([(gen.rng.choice(terms), gen.rng.choice(terms))]) or {}
        got = canonical_instance(lits, sub)
        expected = _full_pass(lits, sub)
        assert [(l.positive, l.pred, l.args) for l in got] == [(l.positive, l.pred, l.args) for l in expected]
        if all(lit.ground for lit in lits):
            continue
        numbered = [l.args for l in canonical_literals(lits)] == [l.args for l in lits]
        assert _same_objects(got, lits) == (not sub and numbered)
        kept += _same_objects(got, lits)
        rebuilt += not _same_objects(got, lits)
    assert kept > 150 and rebuilt > 250


def test_one_pass_instance_agrees_with_apply_then_canonicalize():
    gen = Gen(seed=53, n_vars=4)
    factory = ClauseFactory()
    checked = nonground_images = 0
    for _ in range(300):
        lits = gen.lits(gen.rng.randrange(1, 4), depth=3)
        terms = [a for lit in lits for a in lit.args]
        # bind the literals' variables to terms over fresh variables, and
        # sometimes to each other, so bound images hold unbound variables
        pairs = [(Var(v), shift_vars(gen.term(2), gen.n_vars)) for v in range(gen.n_vars) if gen.rng.random() < 0.5]
        if gen.rng.random() < 0.5:
            pairs.append((gen.rng.choice(terms), gen.rng.choice(terms)))
        sub = unify_pairs(pairs)
        if sub is None:
            continue
        (clause,) = factory.make_all([(lits, sub)], "test", ())
        # the unifier is triangular: apply it until nothing changes
        instance = apply(lits, sub)
        while (again := apply(instance, sub)) != instance:
            instance = again
        expected = canonical_literals(instance)
        # compare argument tuples: equality literals compare unordered
        assert [(l.positive, l.pred, l.args) for l in clause.literals] == [
            (l.positive, l.pred, l.args) for l in expected
        ]
        assert clause_vars(expected) == set(range(nvars(clause.literals)))
        checked += 1
        nonground_images += any(not t.ground for _, t in sub.items())
    assert checked > 200 and nonground_images > 150


def test_minting_instantiates_a_binding_chain_in_linear_time():
    """Unifying X1..X64 with g(X0,X0)..g(X63,X63) binds each Xi to
    g(X(i-1), X(i-1)): fully applied, the image of X64 is a tree of
    2^65 - 1 nodes, but the triangular unifier holds 64 bindings, and
    minting builds each variable's image once, as a shared term."""
    sig = Signature()
    g = sig.function("g", 2)
    p = predicate(sig, "p", 1)
    pairs = [(Var(i), g(Var(i - 1), Var(i - 1))) for i in range(1, 65)]
    with run_scope(time.monotonic() + 2):
        sub = unify_pairs(pairs)
        assert sub is not None
        (clause,) = ClauseFactory().make_all([((p(Var(64)),), sub)], "test", ())
    (image,) = clause.literals[0].args
    assert image.weight == 2**65 - 1
    assert image.args[0] is image.args[1] and image.args[0].weight == 2**64 - 1


def test_rename_apart_makes_vars_disjoint():
    gen = Gen(seed=11)
    factory = ClauseFactory()
    for _ in range(200):
        a = factory.make(gen.lits(gen.rng.randrange(1, 4)))
        renamed = rename_apart(a)
        # factory clauses number variables from 0, so negative ids are
        # apart from every first premise, a itself included
        assert all(v < 0 for v in clause_vars(renamed))
        assert clause_vars(renamed) == {-1 - v for v in clause_vars(a.literals)}
        assert variant(Clause(renamed, 0), a)
        # kept on the clause: a second call returns the same copy
        assert rename_apart(a) is renamed
        for lit, copy in zip(a.literals, renamed):
            if all(t.ground for t in lit.args):
                assert copy is lit


def test_rename_apart_returns_a_ground_clause_as_it_is():
    ground = ClauseFactory().make([env.p(env.a), eq(env.f(env.a), env.b)])
    assert rename_apart(ground) is ground.literals


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
    gen = Gen(seed=11)
    factory = ClauseFactory()
    for _ in range(300):
        lits = gen.lits(gen.rng.randrange(1, 5))
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
    a = Clause((env.p(x), env.q(x)), 0)
    b = Clause((env.p(y), env.q(y)), 1)
    c = Clause((env.p(x), env.q(y)), 2)
    assert variant(a, b)
    assert not variant(a, c)
    # variants may list literals in any order
    assert variant(a, Clause(tuple(reversed(b.literals)), 3))


def test_variant_requires_bijective_renaming():
    a = Clause((env.r(x, y),), 0)
    b = Clause((env.r(x, x),), 1)
    assert not variant(a, b)
    assert not variant(b, a)
