"""Knuth-Bendix ordering tests: unit cases, axioms, and a multiset oracle."""

import time

from oracles import compare_clauses, multiset_extension_ref, multiset_greater_ref, recount_kbo_greater
from randgen import Gen

from sdprover.clauses import Literal, eq, neq
from sdprover.ordering import (
    OrderResult,
    _kbo_greater,
    compare_literal_multisets,
    compare_literals,
    compare_terms,
    multiset_extension,
)
from sdprover.terms import App, Signature, Var, apply_term, preorder_subterms

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
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
    gen = Gen(seed=7)
    for _ in range(300):
        s = gen.term(ground=True)
        t = gen.term(ground=True)
        result = compare_terms(s, t)
        if s == t:
            assert result is OrderResult.EQUAL
        else:
            assert result in (OrderResult.GREATER, OrderResult.LESS)


def test_antisymmetry_sampled():
    gen = Gen(seed=7)
    for _ in range(500):
        s, t = gen.term(), gen.term()
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
    gen = Gen(seed=7)
    for _ in range(300):
        t = gen.term(depth=3)
        for path, sub in preorder_subterms(t):
            if path:
                assert compare_terms(t, sub) is OrderResult.GREATER


def test_stability_under_substitution_sampled():
    gen = Gen(seed=7)
    for _ in range(400):
        s, t = gen.term(), gen.term()
        if compare_terms(s, t) is not OrderResult.GREATER:
            continue
        sub = {v: gen.term(depth=1) for v in range(gen.n_vars)}
        assert compare_terms(apply_term(s, sub), apply_term(t, sub)) is OrderResult.GREATER


def test_monotone_in_contexts_sampled():
    gen = Gen(seed=7)
    for _ in range(400):
        s, t = gen.term(), gen.term()
        if compare_terms(s, t) is not OrderResult.GREATER:
            continue
        assert compare_terms(gen.f(s), gen.f(t)) is OrderResult.GREATER
        assert compare_terms(gen.h(s, gen.a), gen.h(t, gen.a)) is OrderResult.GREATER


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
    gen = Gen(seed=7)
    checked = 0
    for _ in range(400):
        xs = gen.lits(gen.rng.randrange(4))
        ys = gen.lits(gen.rng.randrange(4))
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


def test_literals_compare_equal_exactly_when_equal():
    """compare_literals is EQUAL exactly when the literals are ==, the fact
    multiset_extension cancels by: on sampled pairs over a small signature,
    each literal met as a rebuilt copy, negated, with an equality's sides
    swapped, and against other sampled literals."""
    gen = Gen(seed=11, n_vars=2)
    lits = [gen.literal(depth=gen.rng.randrange(3)) for _ in range(300)]
    equal = 0
    for a in lits:
        others = [Literal(a.positive, a.pred, a.args), Literal(a.positive, a.pred, a.args[::-1]), a.negated()]
        for b in (others if a.is_equality else others[::2]) + gen.rng.sample(lits, 30):
            assert (compare_literals(a, b) is OrderResult.EQUAL) == (a == b), (a, b)
            equal += a == b
    assert equal >= 450, equal


def test_multiset_extension_agrees_with_the_full_table():
    """multiset_extension, which cancels by == and stops at the first
    certified verdict, gives the verdict of the version that filled the
    whole table (oracles.multiset_extension_ref) on sampled literal
    multisets of up to five elements, shared and repeated ones among them."""
    gen = Gen(seed=13, n_vars=2)
    pool = [gen.literal(depth=gen.rng.randrange(3)) for _ in range(12)]
    verdicts = set()
    for _ in range(1500):
        xs = [gen.rng.choice(pool) for _ in range(gen.rng.randrange(6))]
        ys = [gen.rng.choice(pool) for _ in range(gen.rng.randrange(6))]
        want = multiset_extension_ref(xs, ys, compare_literals)
        assert multiset_extension(xs, ys, compare_literals) is want, (xs, ys)
        verdicts.add(want)
    assert verdicts == set(OrderResult), verdicts


def test_compare_clauses_accepts_sequences():
    big = [env.p(env.f(env.a))]
    small = [env.p(env.a)]
    assert compare_clauses(big, small) is OrderResult.GREATER


def _similar(gen: Gen, t):
    """t with some f and g swapped and some variables replaced: same weight."""
    if isinstance(t, Var):
        return Var(gen.rng.randrange(gen.n_vars)) if gen.rng.random() < 0.2 else t
    args = tuple(_similar(gen, a) for a in t.args)
    if t.sym in (gen.f.sid, gen.g.sid) and gen.rng.random() < 0.3:
        return (gen.g if t.sym == gen.f.sid else gen.f)(*args)
    return App(t.sym, args)


def _paired_terms(gen: Gen, depth: int):
    """Two terms that often share their top symbols and weights for a few
    levels, so the comparison descends, with variables on both sides of
    the first difference."""
    roll = gen.rng.random()
    if depth == 0 or roll < 0.25:
        u = gen.term(3)
        return u, _similar(gen, u)
    s, t = _paired_terms(gen, depth - 1)
    if roll < 0.5:
        fn = gen.rng.choice(gen.unary)
        return fn(s), fn(t)
    if roll < 0.7:
        shared = gen.term(2)
        return gen.h(shared, s), gen.h(shared, t)
    if roll < 0.85:
        # equal variable counts at the top, and after the first difference
        # the arguments that hold them go out of the balance
        return gen.h(s, t), gen.h(t, s)
    sibling = gen.term(2)
    return gen.h(s, sibling), gen.h(t, _similar(gen, sibling))


def test_linear_kbo_agrees_with_the_recounting_descent():
    gen = Gen(seed=97, n_vars=3)
    descended = {True: 0, False: 0}
    for round_no in range(6000):
        s, t = _paired_terms(gen, 6) if round_no % 2 else (gen.term(3), gen.term(3))
        for left, right in ((s, t), (t, s)):
            verdict = _kbo_greater(left, right)
            assert verdict == recount_kbo_greater(left, right), (left, right)
            if (
                isinstance(left, App)
                and isinstance(right, App)
                and left.weight == right.weight
                and left.sym == right.sym
                and not right.ground
                and left != right
            ):
                descended[verdict] += 1
    assert min(descended.values()) > 300, descended


def test_linear_kbo_on_towers():
    ts = Signature()
    f, g, h = ts.function("f", 1), ts.function("g", 1), ts.function("h", 1)
    k = ts.function("k", 2)
    pairs = []
    for n in (1, 2, 10, 60):
        s, t = g(x), h(x)
        u, v = k(x, y), k(y, x)
        w, z = k(f(x), y), k(g(y), x)
        for _ in range(n):
            s, t = f(s), f(t)
            u, v = k(u, x), k(v, y)
            w, z = k(f(w), y), k(f(z), x)
        pairs += [(s, t), (u, v), (w, z), (k(s, y), k(t, x)), (k(s, x), k(t, x))]
    for s, t in pairs:
        for left, right in ((s, t), (t, s)):
            assert _kbo_greater(left, right) == recount_kbo_greater(left, right), (left, right)


def test_kbo_on_deep_towers_is_linear():
    ts = Signature()
    f, g, h = ts.function("f", 1), ts.function("g", 1), ts.function("h", 1)
    s, t = g(x), h(x)
    for _ in range(4000):
        s, t = f(s), f(t)
    start = time.perf_counter()
    # g was declared before h, so it is the greater symbol
    assert compare_terms(s, t) is OrderResult.GREATER
    assert compare_terms(t, s) is OrderResult.LESS
    # the recounting descent took 0.53 s for one comparison at depth 2,000
    assert time.perf_counter() - start < 0.5
