"""Multi-literal matcher tests: subsumption, solution enumeration, cursors."""

from oracles import naive_ml_solutions, naive_subsumes, rename_apart
from randgen import Gen

from sdprover.clauses import Clause, ClauseFactory, apply, eq
from sdprover.matching import match_solutions, subsumes
from sdprover.simplify import sd_simplifications
from sdprover.terms import Substitution, Var

env = Gen(seed=23)
x, y = Var(0), Var(1)


def test_subsumption_by_instance_submultiset():
    c = (env.p(x), env.q(env.f(x)))
    d = (
        env.p(env.f(env.c)),
        env.p(env.g(env.c)),
        env.q(env.f(env.c)),
        env.q(env.f(env.g(env.c))),
        env.r(y, y),
    )
    assert subsumes(c, d)


def test_subsumption_needs_distinct_targets():
    # two source copies cannot share one target literal
    assert not subsumes((env.p(x), env.p(y)), (env.p(env.a),))
    assert subsumes((env.p(x), env.p(y)), (env.p(env.a), env.p(env.b)))


def test_subsumption_tries_equality_orientations():
    assert subsumes((eq(x, env.a),), (eq(env.a, env.b),))


def test_subsumption_shared_variables_stay_independent():
    # the source x is renamed away from the target x, so it may map anywhere
    assert subsumes((env.p(x),), (env.p(env.f(x)),))
    assert not subsumes((env.p(x), env.q(x)), (env.p(x), env.q(env.a)))


def test_subsumption_without_renaming_keeps_shared_ids_apart():
    # source and target share ids 0 and 1; target variables stay rigid
    factory = ClauseFactory()
    for c, d, expected in (
        ((env.r(x, y),), (env.r(y, x),), True),
        ((env.r(x, x),), (env.r(x, y),), False),
        # the same, split over two literals matched one after the other
        ((env.p(x), env.q(x)), (env.q(y), env.p(x)), False),
    ):
        assert subsumes(c, d) is expected
        assert subsumes(factory.make(c), factory.make(d)) is expected


def test_rename_free_matching_agrees_with_renamed_inputs():
    factory = ClauseFactory()
    subsumed = rewritten = 0
    for round_no in range(400):
        lits = env.lits(env.rng.randrange(1, 4))
        c = factory.make((env.pos_eq(),) + lits if round_no % 2 else lits)
        d_lits = env.lits(env.rng.randrange(1, 4))
        if round_no % 4 < 2:
            # an instance of c inside d, over variables with c's own ids
            inst = Substitution({v: env.term(1) for v in range(env.n_vars)})
            d_lits += apply(c.literals, inst)
        d = factory.make(d_lits)
        renamed = rename_apart(c.literals, d.literals)
        expected = subsumes(renamed, d.literals)
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
    agreements = 0
    for _ in range(400):
        c = env.lits(env.rng.randrange(1, 4))
        d = env.lits(env.rng.randrange(1, 5))
        c = rename_apart(c, d)
        assert subsumes(c, d) == naive_subsumes(c, d)
        agreements += 1
    assert agreements == 400


def test_match_solutions_exhaustive_and_duplicate_free():
    checked = 0
    for _ in range(300):
        side = env.lits(env.rng.randrange(1, 4))
        main = env.lits(env.rng.randrange(1, 5))
        side = rename_apart(side, main)
        got = [
            (m.rewrite_eq_pos, tuple(sorted(m.pairs)), tuple(sorted(m.subst.items())))
            for m in match_solutions(side, main, reserve_equality=True)
        ]
        assert len(got) == len(set(got))
        assert set(got) == naive_ml_solutions(side, main)
        checked += 1
    assert checked == 300


def test_match_solutions_reserves_exactly_one_positive_equality():
    side = (eq(x, env.a), env.p(x))
    main = (env.p(env.b),)
    solutions = list(match_solutions(side, main, reserve_equality=True))
    assert [m.rewrite_eq_pos for m in solutions] == [0]
    assert solutions[0].subst.get(0) == env.b


def test_match_solutions_without_equality_yields_nothing_when_reserving():
    side = (env.p(x),)
    assert list(match_solutions(side, (env.p(env.a),), reserve_equality=True)) == []


def test_match_solutions_limit():
    side = (eq(x, y), env.p(x))
    main = (env.p(env.a), env.p(env.b), env.p(env.c))
    unlimited = list(match_solutions(side, main, reserve_equality=True))
    assert len(unlimited) == 3
    capped = list(match_solutions(side, main, reserve_equality=True, limit=2))
    assert capped == unlimited[:2]


def test_cursor_resumes_without_repeating():
    side = (eq(x, y), env.p(x))
    main = (env.p(env.a), env.p(env.b))
    direct = list(match_solutions(side, main, reserve_equality=True))
    # the generator is the cursor: each next() resumes the enumeration
    cursor = match_solutions(side, main, reserve_equality=True)
    first = next(cursor)
    rest = list(cursor)
    assert [first] + rest == direct
    assert first not in rest


def test_unit_equality_source_has_single_trivial_solution():
    side = (eq(env.f(x), x),)
    main = (env.p(env.f(env.a)),)
    solutions = list(match_solutions(side, main, reserve_equality=True))
    assert len(solutions) == 1
    assert solutions[0].pairs == ()
    assert len(solutions[0].subst) == 0
