"""Multi-literal matcher tests: subsumption, solution enumeration, cursors,
variants, and clauses too wide for a recursive search."""

import random
import time
import tracemalloc
from collections import Counter

from oracles import (
    apply,
    clause_vars,
    naive_ml_solutions,
    naive_subsumes,
    recursive_match_solutions,
    rename_apart,
    renaming_variant,
    variant,
)
from randgen import Gen

from sdprover import matching
from sdprover.clauses import Clause, ClauseFactory, Literal, eq, predicate
from sdprover.matching import match_solutions, subsumes
from sdprover.simplify import sd_simplifications
from sdprover.terms import Signature, Var, run_scope

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
env = Gen(seed=23)
x, y = Var(0), Var(1)


def _clause(lits, cid: int = 0) -> Clause:
    # literals exactly as given: the factory would renumber their variables
    return Clause(tuple(lits), cid)


def test_subsumption_by_instance_submultiset():
    c = (env.p(x), env.q(env.f(x)))
    d = (
        env.p(env.f(env.c)),
        env.p(env.g(env.c)),
        env.q(env.f(env.c)),
        env.q(env.f(env.g(env.c))),
        env.r(y, y),
    )
    assert subsumes(_clause(c), _clause(d))


def test_subsumption_needs_distinct_targets():
    # two source copies cannot share one target literal
    assert not subsumes(_clause((env.p(x), env.p(y))), _clause((env.p(env.a),)))
    assert subsumes(_clause((env.p(x), env.p(y))), _clause((env.p(env.a), env.p(env.b))))


def test_subsumption_respects_polarity():
    # the matcher pairs a literal only with target literals of its own
    # polarity and predicate, read off the target's set-up
    assert not subsumes(_clause((env.p(x),)), _clause((env.p(env.a).negated(),)))
    assert subsumes(_clause((env.p(x).negated(),)), _clause((env.p(env.a).negated(),)))


def test_subsumption_tries_equality_orientations():
    assert subsumes(_clause((eq(x, env.a),)), _clause((eq(env.a, env.b),)))


def test_subsumption_shared_variables_stay_independent():
    # the source x is renamed away from the target x, so it may map anywhere
    assert subsumes(_clause((env.p(x),)), _clause((env.p(env.f(x)),)))
    assert not subsumes(_clause((env.p(x), env.q(x))), _clause((env.p(x), env.q(env.a))))


def test_subsumption_without_renaming_keeps_shared_ids_apart():
    # source and target share ids 0 and 1; target variables stay rigid
    factory = ClauseFactory()
    for c, d, expected in (
        ((env.r(x, y),), (env.r(y, x),), True),
        ((env.r(x, x),), (env.r(x, y),), False),
        # the same, split over two literals matched one after the other
        ((env.p(x), env.q(x)), (env.q(y), env.p(x)), False),
    ):
        assert subsumes(_clause(c), _clause(d)) is expected
        assert subsumes(factory.make(c), factory.make(d)) is expected


def test_rename_free_matching_agrees_with_renamed_inputs():
    gen = Gen(seed=23)
    factory = ClauseFactory()
    subsumed = rewritten = 0
    for round_no in range(400):
        lits = gen.lits(gen.rng.randrange(1, 4))
        c = factory.make((gen.pos_eq(),) + lits if round_no % 2 else lits)
        d_lits = gen.lits(gen.rng.randrange(1, 4))
        if round_no % 4 < 2:
            # an instance of c inside d, over variables with c's own ids
            inst = {v: gen.term(1) for v in range(gen.n_vars)}
            d_lits += apply(c.literals, inst)
        d = factory.make(d_lits)
        renamed = rename_apart(c.literals, d.literals)
        expected = subsumes(_clause(renamed), d)
        assert subsumes(c, d) == expected
        subsumed += expected
        step = next(sd_simplifications(c, d), None)
        reference = next(sd_simplifications(Clause(renamed, c.cid), d), None)
        if reference is None:
            assert step is None
        else:
            assert (step.lit_pos, step.path, step.rhs_image) == (
                reference.lit_pos, reference.path, reference.rhs_image)
            rewritten += 1
    assert subsumed > 100 and rewritten > 50


def test_subsumes_matches_oracle():
    gen = Gen(seed=23)
    agreements = 0
    for _ in range(400):
        c = gen.lits(gen.rng.randrange(1, 4))
        d = gen.lits(gen.rng.randrange(1, 5))
        c = rename_apart(c, d)
        assert subsumes(_clause(c), _clause(d)) == naive_subsumes(c, d)
        agreements += 1
    assert agreements == 400


def test_match_solutions_exhaustive_and_duplicate_free():
    gen = Gen(seed=23)
    checked = 0
    for _ in range(300):
        side = gen.lits(gen.rng.randrange(1, 4))
        main = gen.lits(gen.rng.randrange(1, 5))
        side = rename_apart(side, main)
        # as multisets: the oracle counts each assignment of side literals
        # once, so a solution enumerated twice shows as a count too high
        got = Counter(
            (m.rewrite_eq_pos, m.image, tuple(sorted(m.subst.items())))
            for m in match_solutions(_clause(side), _clause(main), reserve_equality=True)
        )
        assert got == naive_ml_solutions(side, main)
        checked += 1
    assert checked == 300
    # a pair with more side literals under some key than main has there,
    # and one the reserved equality brings within the count
    a, b, c, f, p, q = env.a, env.b, env.c, env.f, env.p, env.q
    for side, main, solved in (
        ((eq(f(x), x), p(y), p(x)), (p(a), q(b)), False),
        ((eq(x, a), eq(y, b)), (eq(c, b),), True),
    ):
        side = rename_apart(side, main)
        got = Counter(
            (m.rewrite_eq_pos, m.image, tuple(sorted(m.subst.items())))
            for m in match_solutions(_clause(side), _clause(main), reserve_equality=True)
        )
        assert got == naive_ml_solutions(side, main) and bool(got) == solved
        assert list(match_solutions(_clause(side), _clause(main), reserve_equality=False)) == []
        assert not naive_subsumes(side, main)


def test_match_solutions_reserves_exactly_one_positive_equality():
    side = _clause((eq(x, env.a), env.p(x)))
    main = _clause((env.p(env.b),))
    solutions = list(match_solutions(side, main, reserve_equality=True))
    assert [m.rewrite_eq_pos for m in solutions] == [0]
    assert solutions[0].subst.get(0) == env.b


def test_match_solutions_without_equality_yields_nothing_when_reserving():
    side = _clause((env.p(x),))
    assert list(match_solutions(side, _clause((env.p(env.a),)), reserve_equality=True)) == []


def test_cursor_resumes_without_repeating():
    side = _clause((eq(x, y), env.p(x)))
    main = _clause((env.p(env.a), env.p(env.b)))
    direct = list(match_solutions(side, main, reserve_equality=True))
    # the generator is the cursor: each next() resumes the enumeration
    cursor = match_solutions(side, main, reserve_equality=True)
    first = next(cursor)
    rest = list(cursor)
    assert [first] + rest == direct
    assert first not in rest


def test_unit_equality_source_has_single_trivial_solution():
    side = _clause((eq(env.f(x), x),))
    main = _clause((env.p(env.f(env.a)),))
    solutions = list(match_solutions(side, main, reserve_equality=True))
    assert len(solutions) == 1
    assert solutions[0].image == frozenset()
    assert len(solutions[0].subst) == 0


def test_match_solutions_enumerates_in_the_recursive_order():
    """The stack-based search yields what the recursive one did, in the same
    order: forward and backward rewriting take the first step they find."""
    gen = Gen(seed=97)
    several = 0
    for round_no in range(320):
        side = gen.lits(gen.rng.randrange(1, 4))
        if round_no % 2:
            side = (gen.pos_eq(),) + side
        if round_no % 3 == 0:
            side += (gen.rng.choice(side),)
        main = list(gen.lits(gen.rng.randrange(1, 5)))
        if round_no % 4 < 2:
            # an instance of side inside main; side and main share variable ids
            main += apply(side, {v: gen.term(1) for v in range(gen.n_vars) if gen.rng.random() < 0.7})
        # every equality in both argument orders, and a repeated literal
        main += [Literal(lit.positive, None, lit.args[::-1]) for lit in main if lit.is_equality]
        if round_no % 5 == 0:
            main.append(gen.rng.choice(main))
        gen.rng.shuffle(main)
        source, target = _clause(side), _clause(main, 1)
        for reserve in (False, True):
            solutions = list(match_solutions(source, target, reserve_equality=reserve))
            expected = list(recursive_match_solutions(source, target, reserve_equality=reserve))
            assert [(m.rewrite_eq_pos, m.image, m.subst) for m in solutions] == expected
            several += len(solutions) > 1
    assert several > 100


def _near_variant(gen: Gen, lits: tuple) -> tuple:
    """lits changed in a way that may or may not keep it a variant."""
    out = list(lits)
    vids = sorted(clause_vars(lits))
    choice = gen.rng.randrange(3)
    if choice == 0 and len(vids) > 1:
        # merge two variables
        out = list(apply(lits, {vids[0]: Var(vids[1])}))
    elif choice == 1 and vids:
        # bind a variable in one literal only
        i = gen.rng.randrange(len(out))
        out[i] = apply(out[i], {gen.rng.choice(vids): gen.a})
    else:
        # one literal in place of another
        out[gen.rng.randrange(len(out))] = gen.rng.choice(out)
    return tuple(out)


def test_variant_agrees_with_the_renaming_search():
    gen = Gen(seed=101, n_vars=4)
    outcomes = {True: 0, False: 0}
    for round_no in range(300):
        lits = gen.lits(gen.rng.randrange(1, 5))
        if round_no % 3 == 2:
            lits = _near_variant(gen, lits)
        vids = sorted(clause_vars(lits))
        # a bijection onto ids that overlap lits' own
        renaming = {v: Var(w) for v, w in zip(vids, gen.rng.sample(range(6), len(vids)))}
        other = [
            Literal(lit.positive, None, lit.args[::-1]) if lit.is_equality and gen.rng.random() < 0.5 else lit
            for lit in apply(lits, renaming)
        ]
        gen.rng.shuffle(other)
        if round_no % 3 == 1:
            other = _near_variant(gen, tuple(other))
        a, b = _clause(lits), _clause(other, 1)
        expected = renaming_variant(a.literals, b.literals)
        assert variant(a, b) == expected
        assert variant(b, a) == renaming_variant(b.literals, a.literals)
        outcomes[expected] += 1
    assert outcomes[True] > 100 and outcomes[False] > 50
    merged, apart = _clause((env.p(x), env.p(x))), _clause((env.p(x), env.p(y)), 1)
    assert not variant(merged, apart) and not variant(apart, merged)
    assert not renaming_variant(merged.literals, apart.literals)
    # one subsumes the other, not the other way: literals match one to one
    single = _clause((env.p(x),), 2)
    assert not variant(single, merged) and not variant(merged, single)


def test_wide_clauses_subsume_and_are_variants():
    """1,500 literals: one level per literal on the search's own stack, far
    past Python's recursion limit."""
    sig = Signature()
    p = predicate(sig, "p", 1)
    ground = tuple(p(sig.constant(f"a{i}")) for i in range(1500))
    c, d = _clause(ground), _clause(ground, 1)
    assert subsumes(c, c) and subsumes(c, d)
    assert variant(c, c) and variant(c, d)
    nonground = _clause(p(Var(i)) for i in range(1500))
    renamed = _clause(p(Var(1499 - i)) for i in range(1500))
    assert variant(nonground, renamed)
    assert subsumes(nonground, c) and not variant(nonground, c)


def test_ground_source_literals_go_only_to_equal_targets(monkeypatch):
    """A ground source literal is sent only to the target positions holding
    an equal literal, so a ground variant costs no literal match at all,
    not one per unused same-predicate target per level: about n^2/4 per
    subsumption search, 2.3 million for these four searches of 1,500
    literals."""
    sig = Signature()
    p = predicate(sig, "p", 1)
    lits = [p(sig.constant(f"a{i}")) for i in range(1500)]
    c = _clause(lits)
    random.Random(5).shuffle(lits)
    d = _clause(lits, 1)
    calls = 0
    literal_match_substs = matching.literal_match_substs

    def counted(*args):
        nonlocal calls
        calls += 1
        return literal_match_substs(*args)

    monkeypatch.setattr(matching, "literal_match_substs", counted)
    assert variant(c, d) and variant(d, c)
    assert calls <= len(lits), calls
    # a ground literal that occurs twice in the target goes to both places
    twice = _clause((p(sig.constant("a0")), p(Var(0)), p(sig.constant("a0"))), 2)
    single = _clause((p(sig.constant("a0")),), 3)
    assert [m.image for m in match_solutions(single, twice, reserve_equality=False)] == [
        frozenset({0}),
        frozenset({2}),
    ]


class _NoRescan(tuple):
    """A literal tuple that fails the test when it is walked."""

    def __iter__(self):
        raise AssertionError("the target's literals were scanned again")


def test_ground_positions_are_found_once_per_target():
    """A target with no ground literal is scanned for them once, not on
    every match of a ground source literal into it."""
    sig = Signature()
    p = predicate(sig, "p", 1)
    source = _clause((p(sig.constant("a")), p(sig.constant("b"))))
    target = _clause((p(x), p(y)), 1)
    assert list(match_solutions(source, target, reserve_equality=False)) == []
    target.literals = _NoRescan(target.literals)
    assert list(match_solutions(source, target, reserve_equality=False)) == []
    assert not subsumes(source, target)


def test_one_search_path_holds_linear_memory():
    """A path of n levels records each level's target position once, not a
    set of every position taken so far per level: subsumes(c, c) on a
    1,200-literal ground clause stays far below the 34 MB of per-state sets."""
    sig = Signature()
    p = predicate(sig, "p", 1)
    c = _clause(p(sig.constant(f"a{i}")) for i in range(1200))
    tracemalloc.start()
    try:
        assert subsumes(c, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024, peak


def test_pigeonhole_pairs_end_at_the_count_screen():
    """Twelve side literals ~p(Xi), each matching any of the main premise's
    eleven ~p(aj): a search fails only after trying every assignment.  The
    count screen ends forward and backward subsumption demodulation
    (sd_simplifications), the plain matcher and subsumption before the
    search starts, well inside a 1 s deadline."""
    sig = Signature()
    p, q = predicate(sig, "p", 1), predicate(sig, "q", 1)
    f = sig.function("f", 1)
    n = 12
    side = _clause([p(Var(i)).negated() for i in range(n)] + [eq(f(Var(n)), Var(n))])
    main = _clause([p(sig.constant(f"a{i}")).negated() for i in range(n - 1)] + [q(f(sig.constant("b")))], 1)
    with run_scope(time.monotonic() + 1):
        assert list(sd_simplifications(side, main)) == []
        assert list(match_solutions(side, main, reserve_equality=False)) == []
        # as many literals as main, so only the per-key counts tell
        assert not subsumes(_clause(side.literals[:n]), main)
