"""Simplification rule tests: demodulation, conditional rewriting, subsumption."""

from oracles import naive_sd_results, reference_demodulate
from randgen import Gen

from sdprover.clauses import ClauseFactory, canonical_literals, eq, predicate
from sdprover.index import BackwardIndex, FsdIndex
from sdprover.ordering import OrderResult, compare_clauses
from sdprover.simplify import (
    backward_subsumption_deletions,
    backward_subsumption_demodulation,
    build_simplified_clause,
    check_ordering_conditions,
    demodulate,
    forward_subsumption_delete,
    forward_subsumption_demodulation,
    sd_simplifications,
)
from sdprover.terms import Signature, Var

# fixed signature for the worked examples: h > f > g > a > b > c > d
sig = Signature()
h = sig.function("h", 2)
f = sig.function("f", 1)
g = sig.function("g", 1)
a = sig.constant("a")
b = sig.constant("b")
c = sig.constant("c")
d = sig.constant("d")
p = predicate(sig, "p", 1)
q = predicate(sig, "q", 1)
r = predicate(sig, "r", 1)

x, y, z = Var(0), Var(1), Var(2)

env = Gen(seed=61)


def _first_result(side, main, factory):
    step = next(sd_simplifications(side, main), None)
    if step is None:
        return None
    return build_simplified_clause(main, step, factory, rule="fsd")


def test_demodulate_rewrites_innermost_redex_of_leftmost_literal():
    factory = ClauseFactory()
    unit = factory.make([eq(f(f(x)), f(x))])
    main = factory.make([p(f(f(c))), q(d)])
    out = demodulate(unit, main, factory)
    assert out is not None
    assert out.literals == (p(f(c)), q(d))
    assert out.rule == "demodulation"
    assert out.parents == (main.cid, unit.cid)


def test_demodulate_uses_flipped_orientation_when_needed():
    factory = ClauseFactory()
    unit = factory.make([eq(x, f(x))])
    main = factory.make([p(f(c))])
    out = demodulate(unit, main, factory)
    assert out is not None
    assert out.literals == (p(c),)


def test_demodulate_blocks_when_main_equals_the_equality_instance():
    factory = ClauseFactory()
    unit = factory.make([eq(f(x), x)])
    main = factory.make([eq(f(c), c)])
    assert demodulate(unit, main, factory) is None


def test_demodulate_none_without_redex():
    factory = ClauseFactory()
    unit = factory.make([eq(f(c), c)])
    main = factory.make([p(c)])
    assert demodulate(unit, main, factory) is None


def test_conditional_rewrite_with_two_matched_literals():
    factory = ClauseFactory()
    side = factory.make([eq(f(g(x)), g(x)), q(x), r(y)])
    main = factory.make([p(f(g(c))), q(c), q(d), r(f(g(d)))])
    out = _first_result(side, main, factory)
    assert out is not None
    assert out.literals == (p(g(c)), q(c), q(d), r(f(g(d))))


def test_two_stage_substitution_extends_partial_match():
    factory = ClauseFactory()
    side = factory.make([eq(h(x, y), y), q(x)])
    main = factory.make([p(h(c, d)), q(c)])
    steps = list(sd_simplifications(side, main))
    assert steps
    step = steps[0]
    # q binds only x; the equality occurrence then supplies y
    images = sorted(repr(t) for _, t in step.subst.items())
    assert len(images) == 2
    out = build_simplified_clause(main, step, factory, rule="fsd")
    assert out.literals == (p(d), q(c))


def test_instance_oriented_left_to_right():
    factory = ClauseFactory()
    side = factory.make([eq(f(g(x)), g(y)), q(x), r(y)])
    main = factory.make([p(f(g(c))), q(c), r(c)])
    out = _first_result(side, main, factory)
    assert out is not None
    assert out.literals == (p(g(c)), q(c), r(c))


def test_instance_oriented_right_to_left():
    factory = ClauseFactory()
    side = factory.make([eq(f(g(x)), g(y)), q(x), r(y)])
    main = factory.make([p(g(f(g(c)))), q(c), r(f(g(c)))])
    out = _first_result(side, main, factory)
    assert out is not None
    assert out.literals == (p(f(g(c))), q(c), r(f(g(c))))


def test_unorientable_instance_blocks_rewriting():
    factory = ClauseFactory()
    side = factory.make([eq(f(g(x)), g(y)), q(x), r(y)])
    main = factory.make([p(f(g(c))), q(c), r(z)])
    assert list(sd_simplifications(side, main)) == []


def test_match_targets_stay_rigid():
    factory = ClauseFactory()
    side = factory.make([eq(f(c), c), q(d)])
    main = factory.make([p(f(c)), q(x)])
    assert list(sd_simplifications(side, main)) == []


def test_rhs_variable_outside_lhs_rewrites_only_when_a_matched_literal_binds_it():
    # side and main share variable ids 0 and 1, and nothing renames them apart
    factory = ClauseFactory()
    x0, x1 = Var(0), Var(1)
    # no side literal binds X1: rewriting g(f(X1)) to X1 would capture the
    # main premise's X1, which no instance of the side premise justifies
    side = factory.make([eq(env.g(x0), x1), env.p(x0)])
    main = factory.make([env.r(x0, x1), env.p(env.f(x1)), env.q(env.g(env.f(x1)))])
    assert list(sd_simplifications(side, main)) == []
    assert naive_sd_results(side.literals, main.literals) == set()
    # here r(X0, X1) matches r(f(X1), X1), binding X1 -> X1, and the step is sound
    side = factory.make([eq(env.g(x0), x1), env.r(x0, x1)])
    main = factory.make([env.p(x0), env.r(env.f(x1), x1), env.q(env.g(env.f(x1)))])
    (step,) = sd_simplifications(side, main)
    built = build_simplified_clause(main, step, factory, rule="fsd")
    assert built.literals == (env.p(x0), env.r(env.f(x1), x1), env.q(x1))
    assert {built.literals} == naive_sd_results(side.literals, main.literals)


def test_ordering_conditions_on_a_heavier_outside_literal():
    factory = ClauseFactory()
    main = factory.make([p(h(c, d)), q(c)])
    assert check_ordering_conditions(main, h(c, d), d, frozenset({1}))


def test_ordering_conditions_reject_incomparable_instance():
    factory = ClauseFactory()
    main = factory.make([p(f(g(c))), q(c), r(z)])
    assert not check_ordering_conditions(main, f(g(c)), g(z), frozenset({1, 2}))


def test_ordering_conditions_reject_equality_only_remainder():
    factory = ClauseFactory()
    main = factory.make([eq(f(c), c), q(c)])
    assert not check_ordering_conditions(main, f(c), c, frozenset({1}))


def test_duplicate_equality_instance_cancels_not_blocks():
    # one copy of the instantiated equality cancels against the remainder,
    # the second copy still witnesses the decrease
    factory = ClauseFactory()
    side = factory.make([eq(f(x), x), q(x)])
    main = factory.make([eq(f(c), c), eq(f(c), c), q(c)])
    out = _first_result(side, main, factory)
    assert out is not None
    assert out.literals == (eq(c, c), eq(f(c), c), q(c))


def test_rewrites_match_exhaustive_reference():
    checked = 0
    factory = ClauseFactory()
    for round_no in range(120):
        if round_no % 3 == 0:
            t = env.term(2, ground=True)
            side = factory.make([eq(env.f(Var(0)), Var(0)), env.p(Var(0))])
            main = factory.make([env.p(t), env.q(env.f(t))])
        else:
            side = factory.make(env.lits(env.rng.randrange(1, 4)))
            main = factory.make(env.lits(env.rng.randrange(1, 5)))
        got = set()
        for step in sd_simplifications(side, main):
            built = build_simplified_clause(main, step, factory, rule="fsd")
            got.add(canonical_literals(built.literals))
        assert got == naive_sd_results(side.literals, main.literals)
        checked += len(got)
    assert checked > 30


def test_every_replacement_is_strictly_smaller():
    factory = ClauseFactory()
    seen = 0
    for round_no in range(120):
        if round_no % 3 == 0:
            t = env.term(2, ground=True)
            side = factory.make([eq(env.h(Var(0), Var(1)), Var(1)), env.q(Var(0))])
            main = factory.make([env.q(t), env.p(env.h(t, env.a))])
        else:
            side = factory.make(env.lits(env.rng.randrange(1, 4)))
            main = factory.make(env.lits(env.rng.randrange(1, 5)))
        for step in sd_simplifications(side, main):
            built = build_simplified_clause(main, step, factory, rule="fsd")
            assert compare_clauses(main.literals, built.literals) is OrderResult.GREATER
            seen += 1
    assert seen > 30


def test_unit_side_rewrites_agree_with_demodulation():
    factory = ClauseFactory()
    agreed = 0
    for round_no in range(150):
        if round_no % 3 == 0:
            t = env.term(2, ground=True)
            unit = factory.make([eq(env.f(Var(0)), Var(0))])
            main = factory.make([env.q(env.f(t)), env.p(t)])
        else:
            unit = factory.make([env.pos_eq()])
            main = factory.make(env.lits(env.rng.randrange(1, 4)))
        reference = reference_demodulate(unit.literals, main.literals)
        demod = demodulate(unit, main, factory)
        if reference is None:
            assert demod is None
        else:
            assert demod is not None
            assert demod.literals == reference
            assert demod.rule == "demodulation"
            agreed += 1
    assert agreed > 20


def test_forward_pipeline_uses_index_and_reports_provenance():
    factory = ClauseFactory()
    ix = FsdIndex()
    side = factory.make([eq(h(x, y), y), q(x)])
    ix.insert(side)
    ix.insert(factory.make([eq(f(x), x), r(x)]))
    main = factory.make([p(h(c, d)), q(c)])
    out = forward_subsumption_demodulation(main, ix, factory)
    assert out is not None
    assert out.literals == (p(d), q(c))
    assert out.rule == "fsd"
    assert out.parents == (main.cid, side.cid)


def test_forward_pipeline_none_when_nothing_applies():
    factory = ClauseFactory()
    ix = FsdIndex()
    ix.insert(factory.make([eq(f(x), x), r(x)]))
    assert forward_subsumption_demodulation(factory.make([p(c)]), ix, factory) is None


def test_backward_pipeline_rewrites_active_clauses():
    factory = ClauseFactory()
    active = BackwardIndex()
    main = factory.make([p(f(g(c))), q(c), q(d), r(f(g(d)))])
    active.insert(main)
    active.insert(factory.make([p(a)]))
    side = factory.make([eq(f(g(x)), g(x)), q(x), r(y)])
    out = backward_subsumption_demodulation(side, active, factory)
    assert len(out) == 1
    old, new = out[0]
    assert old is main
    assert new.literals == (p(g(c)), q(c), q(d), r(f(g(d))))
    assert new.rule == "bsd"
    assert new.parents == (main.cid, side.cid)


def test_backward_pipeline_skips_unit_sides():
    factory = ClauseFactory()
    active = BackwardIndex()
    active.insert(factory.make([p(f(c)), q(c)]))
    unit = factory.make([eq(f(x), x)])
    assert backward_subsumption_demodulation(unit, active, factory) == []


def test_forward_subsumption_delete():
    factory = ClauseFactory()
    active = BackwardIndex()
    subsumer = factory.make([p(x), q(f(x))])
    active.insert(subsumer)
    active.insert(factory.make([r(a)]))
    dup = factory.make([p(f(c)), p(g(c)), q(f(c)), q(f(g(c))), r(y)])
    assert forward_subsumption_delete(dup, active) == subsumer.cid
    assert forward_subsumption_delete(factory.make([r(b)]), active) is None


def test_backward_subsumption_deletions():
    factory = ClauseFactory()
    active = BackwardIndex()
    wide = factory.make([p(f(c)), q(d)])
    active.insert(wide)
    active.insert(factory.make([q(c)]))
    new = factory.make([p(x)])
    assert backward_subsumption_deletions(new, active) == [wide]


def test_subsumption_respects_multiset_discipline():
    factory = ClauseFactory()
    active = BackwardIndex()
    doubled = factory.make([p(x), p(y)])
    active.insert(doubled)
    single = factory.make([p(c)])
    # two source literals cannot collapse onto one target literal
    assert forward_subsumption_delete(single, active) is None
