"""Unit tests for terms, substitutions, unification, and matching."""

import pytest
from oracles import match_pairs_ref, unify_pairs_ref, var_counts
from hypothesis import given
from hypothesis import strategies as st

from sdprover.clauses import Literal
from sdprover.terms import (
    Signature,
    SignatureError,
    Var,
    apply_term,
    instantiate,
    make_app,
    match_pairs,
    preorder_subterms,
    replace_at,
    run_scope,
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
ground_terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([a, b]),
        ground_terms.map(f),
        st.tuples(ground_terms, ground_terms).map(lambda pair: h(*pair)),
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


def _rebuild(t):
    """t rebuilt by make_app, with new variable objects: outside a run
    scope a term equal to t that shares no object with it, inside one the
    run's one application equal to it."""
    if type(t) is Var:
        return Var(t.vid)
    return make_app(t.sym, tuple(_rebuild(u) for u in t.args))


@st.composite
def _kernel_pairs(draw):
    """Term pairs for the unification and matching kernels.  The sides are
    drawn from a pool of terms and their subterms, so pairs share objects;
    a side may also be the other side itself, a copy of it made of distinct
    objects (variables included), an instance of it, or a ground term next
    to another ground term."""
    pool = draw(st.lists(terms, min_size=1, max_size=3))
    pick = st.sampled_from([u for t in pool for _, u in preorder_subterms(t)])
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["any", "same", "copy", "instance", "ground"]))
        s = draw(pick)
        if kind == "any":
            t = draw(pick)
        elif kind == "same":
            t = s
        elif kind == "copy":
            t = _rebuild(s)
        elif kind == "instance":
            t = apply_term(s, draw(st.dictionaries(st.integers(0, 2), pick, max_size=3)))
        else:
            s = draw(ground_terms)
            t = draw(st.one_of(st.just(s), st.just(_rebuild(s)), ground_terms))
        pairs.append((s, t) if draw(st.booleans()) else (t, s))
    return pairs


def _same_bindings(got, want) -> bool:
    """Both None, or the same keys in the same insertion order, each bound
    to the identical object."""
    if want is None or got is None:
        return got is want
    return list(got) == list(want) and all(got[v] is want[v] for v in want)


@given(_kernel_pairs())
def test_unify_pairs_agrees_with_the_reference_kernel(pairs):
    assert _same_bindings(unify_pairs(pairs), unify_pairs_ref(pairs))


@given(_kernel_pairs(), st.sets(st.integers(0, 2)), st.dictionaries(st.integers(3, 4), terms, max_size=2))
def test_match_pairs_agrees_with_the_reference_kernel(pairs, identities, bound):
    # base holds X -> X bindings, each to a variable object of its own,
    # beside bindings of variables the pairs do not hold
    base = {vid: Var(vid) for vid in identities}
    base.update(bound)
    for given_base in (None, base):
        assert _same_bindings(match_pairs(pairs, given_base), match_pairs_ref(pairs, given_base))


@given(_kernel_pairs())
def test_kernels_agree_on_shared_terms(pairs):
    # inside a run scope both sides of an equal pair are one object, and
    # so are equal subterms across pairs
    with run_scope(None):
        shared = [(_rebuild(s), _rebuild(t)) for s, t in pairs]
        assert _same_bindings(unify_pairs(shared), unify_pairs_ref(shared))
        assert _same_bindings(match_pairs(shared), match_pairs_ref(shared))


def _recomputed(t):
    """(weight, ground) of t counted from scratch."""
    nodes = [u for _, u in preorder_subterms(t)]
    return len(nodes), not any(type(u) is Var for u in nodes)


@given(terms)
def test_construction_caches_agree_with_a_fresh_count(t):
    for _, u in preorder_subterms(t):
        assert (u.weight, u.ground) == _recomputed(u)
        if type(u) is not Var:
            assert u._hash == hash((u.sym, u.args))


@given(st.booleans(), st.one_of(st.none(), st.just(7)), terms, terms)
def test_literal_caches_agree_with_a_fresh_count(positive, pred, s, t):
    lit = Literal(positive, pred, (s, t))
    assert lit.weight == 1 + _recomputed(s)[0] + _recomputed(t)[0]
    assert lit.ground == (_recomputed(s)[1] and _recomputed(t)[1])
    if pred is None:
        assert lit._hash == hash((positive, *sorted((hash(s), hash(t)))))
    else:
        assert lit._hash == hash((positive, pred, (s, t)))


@given(st.integers(-(2**70), 2**70))
def test_variable_hash_is_the_hash_of_its_id_tuple(vid):
    assert hash(Var(vid)) == hash((vid,))
