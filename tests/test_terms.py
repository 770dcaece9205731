"""Unit tests for terms, substitutions, unification, and matching."""

import pytest
from oracles import var_counts
from hypothesis import given
from hypothesis import strategies as st

from sdprover.terms import (
    Signature,
    SignatureError,
    Var,
    apply_term,
    instantiate,
    match_pairs,
    preorder_subterms,
    replace_at,
    term_vars,
    unify_pairs,
)

sig = Signature()
f = sig.function("f", 1)
g = sig.function("g", 1)
h = sig.function("h", 2)
a = sig.constant("a")
b = sig.constant("b")
x, y, z = Var(0), Var(1), Var(2)

terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([a, b]),
        st.integers(0, 2).map(Var),
        terms.map(f),
        terms.map(g),
        st.tuples(terms, terms).map(lambda pair: h(*pair)),
    )
)


def test_interning_reuses_ids():
    assert sig.function("f", 1).sid == f.sid
    assert sig.constant("a") == a


def test_interning_order_gives_ascending_ids():
    assert f.sid < g.sid < h.sid


def test_arity_conflict_raises():
    with pytest.raises(SignatureError):
        sig.function("f", 3)


def test_wrong_argument_count_raises():
    with pytest.raises(SignatureError):
        f(a, b)


def test_apply_term_replaces_simultaneously():
    # x -> y and y -> a must not chain into x -> a
    sub = {0: Var(1), 1: a}
    assert apply_term(h(x, y), sub) == h(y, a)


def test_unify_binds_and_applies():
    sub = unify_pairs([(h(x, g(y)), h(f(z), g(a)))])
    assert sub is not None
    assert instantiate(h(x, g(y)), sub, {}) == instantiate(h(f(z), g(a)), sub, {})


def test_unifier_is_triangular_and_builds_no_term():
    # x is bound to f(y) and y to a: the binding of x keeps y, as the input
    # object, and instantiate resolves it
    s, t = h(x, y), h(f(y), a)
    sub = unify_pairs([(s, t)])
    assert sub == {0: f(y), 1: a} and sub[0] is t.args[0]
    assert instantiate(s, sub, {}) == h(f(a), a)


def test_unify_occurs_check():
    assert unify_pairs([(x, f(x))]) is None
    assert unify_pairs([(h(x, x), h(f(y), y))]) is None


def test_unify_clash():
    assert unify_pairs([(f(a), g(a))]) is None
    assert unify_pairs([(a, b)]) is None


def test_match_target_variables_are_rigid():
    assert match_pairs([(f(x), f(y))]) == {0: y}
    assert match_pairs([(f(a), f(x))]) is None


def test_match_bound_variable_must_agree():
    assert match_pairs([(h(x, x), h(a, a))]) is not None
    assert match_pairs([(h(x, x), h(a, b))]) is None


def test_match_pairs_extends_base():
    base = {0: a}
    sub = match_pairs([(h(x, y), h(a, b))], base)
    assert sub is not None
    assert sub.get(1) == b
    assert base.get(1) is None
    assert match_pairs([(h(x, x), h(a, b))], base) is None


def test_match_pairs_keeps_identity_across_pairs():
    # x matched to itself first must block a later x -> a binding
    assert match_pairs([(x, x), (x, a)]) is None
    assert match_pairs([(x, x), (y, a)]) is not None


def test_match_pairs_identity_in_base_blocks_later_binding():
    # a base that binds x to itself is a binding like any other
    base = {0: x}
    assert match_pairs([(x, a)], base) is None
    assert base == {0: x}


def test_var_helpers():
    t = h(x, f(x))
    assert term_vars(t) == {0}
    assert var_counts(t)[0] == 2
    assert t.weight == 4


def test_replace_at_roundtrip():
    t = h(f(a), g(b))
    for path, sub in preorder_subterms(t):
        assert replace_at(t, path, sub) == t
    assert replace_at(t, (0, 0), b) == h(f(b), g(b))


@given(terms)
def test_weight_counts_preorder_nodes(t):
    assert t.weight == len(list(preorder_subterms(t)))


@given(terms, terms)
def test_unifier_unifies_and_is_idempotent(s, t):
    sub = unify_pairs([(s, t)])
    if sub is not None:
        # triangular: every binding is a subterm of the input, none is built
        inputs = {id(u) for term in (s, t) for _, u in preorder_subterms(term)}
        assert all(id(u) in inputs for u in sub.values())
        left = instantiate(s, sub, {})
        assert left == instantiate(t, sub, {})
        # the instance holds no variable the unifier binds
        assert instantiate(left, sub, {}) == left
        assert not term_vars(left) & set(sub)


@given(terms, terms)
def test_match_agrees_with_application(s, t):
    sub = match_pairs([(s, t)])
    if sub is not None:
        assert apply_term(s, sub) == t


@given(terms)
def test_empty_substitution_is_identity(t):
    assert apply_term(t, {}) == t


def test_term_walks_run_on_deep_terms():
    depth = 1500  # past the interpreter's default recursion limit of 1000
    tower = x
    for _ in range(depth):
        tower = f(tower)
    ground = apply_term(tower, {0: a})
    assert ground.ground and ground.weight == depth + 1
    count, last = 0, None
    for count, last in enumerate(preorder_subterms(tower), 1):
        pass
    assert count == depth + 1 and last == ((0,) * depth, x)
    assert replace_at(tower, (0,) * depth, a) == ground
    # y is bound through z to the tower: its resolved image is f(tower)
    sub = unify_pairs([(h(y, z), h(f(z), tower))])
    assert sub is not None and instantiate(y, sub, {}) == f(tower)


def test_instantiate_shares_every_unchanged_application():
    t = h(f(x), g(h(y, a)))
    assert instantiate(t, {}, {}) is t
    assert apply_term(t, {2: b}) is t
    changed = apply_term(t, {1: b})
    assert changed == h(f(x), g(h(b, a)))
    # only the spine above y is new
    assert changed.args[0] is t.args[0]
    assert changed.args[1] is not t.args[1]


def test_unifier_holds_no_identity_binding():
    sub = unify_pairs([(h(x, y), h(y, f(z))), (z, z)])
    assert sub is not None
    assert all(not (isinstance(t, Var) and t.vid == v) for v, t in sub.items())
    assert instantiate(h(x, y), sub, {}) == instantiate(h(y, f(z)), sub, {})
