"""Simplification rule tests: demodulation, conditional rewriting, subsumption."""

from oracles import (
    apply,
    canonical_literals,
    check_ordering_conditions,
    compare_clauses,
    naive_sd_results,
    nvars,
    reference_demodulate,
    unscreened_sd_steps,
)
from randgen import Gen

from sdprover import simplify
from sdprover.clauses import ClauseFactory, eq, neq, predicate
from sdprover.index import BackwardIndex, FsdIndex
from sdprover.matching import source_set_up
from sdprover.ordering import OrderResult
from sdprover.simplify import (
    backward_subsumption_deletions,
    backward_subsumption_demodulation,
    build_simplified_clause,
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

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
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
    gen = Gen(seed=61)
    checked = 0
    factory = ClauseFactory()
    for round_no in range(120):
        if round_no % 3 == 0:
            t = gen.term(2, ground=True)
            side = factory.make([eq(gen.f(Var(0)), Var(0)), gen.p(Var(0))])
            main = factory.make([gen.p(t), gen.q(gen.f(t))])
        else:
            side = factory.make(gen.lits(gen.rng.randrange(1, 4)))
            main = factory.make(gen.lits(gen.rng.randrange(1, 5)))
        got = set()
        for step in sd_simplifications(side, main):
            built = build_simplified_clause(main, step, factory, rule="fsd")
            got.add(canonical_literals(built.literals))
        assert got == naive_sd_results(side.literals, main.literals)
        checked += len(got)
    assert checked > 30


def test_every_replacement_is_strictly_smaller():
    gen = Gen(seed=61)
    factory = ClauseFactory()
    seen = 0
    for round_no in range(120):
        if round_no % 3 == 0:
            t = gen.term(2, ground=True)
            side = factory.make([eq(gen.h(Var(0), Var(1)), Var(1)), gen.q(Var(0))])
            main = factory.make([gen.q(t), gen.p(gen.h(t, gen.a))])
        else:
            side = factory.make(gen.lits(gen.rng.randrange(1, 4)))
            main = factory.make(gen.lits(gen.rng.randrange(1, 5)))
        for step in sd_simplifications(side, main):
            built = build_simplified_clause(main, step, factory, rule="fsd")
            assert compare_clauses(main.literals, built.literals) is OrderResult.GREATER
            seen += 1
    assert seen > 30


def test_unit_side_rewrites_agree_with_demodulation():
    gen = Gen(seed=61)
    factory = ClauseFactory()
    agreed = 0
    for round_no in range(150):
        if round_no % 3 == 0:
            t = gen.term(2, ground=True)
            unit = factory.make([eq(gen.f(Var(0)), Var(0))])
            main = factory.make([gen.q(gen.f(t)), gen.p(t)])
        else:
            unit = factory.make([gen.pos_eq()])
            main = factory.make(gen.lits(gen.rng.randrange(1, 4)))
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


def _side_with_instance(factory, gen):
    """A side premise, and a main premise holding an instance of its extra
    literals and of one side of its equality, plus some noise."""
    shape = gen.rng.randrange(4)
    if shape == 0:
        # not orientable: both orientations stay INCOMPARABLE
        equality = eq(gen.h(Var(0), Var(1)), gen.h(Var(1), Var(0)))
    elif shape == 1:
        # a variable left-hand side, its right-hand side bound by a matched literal or not
        equality = eq(Var(0), gen.rng.choice(gen.unary)(Var(1)))
    else:
        equality = gen.pos_eq()
    extra = gen.lits(gen.rng.randrange(0, 3), depth=1)
    if shape == 3:
        # a second positive equality brings trigger symbols of its own
        extra = (gen.pos_eq(depth=1),) + extra
    side = factory.make((equality,) + extra)
    sub = {v: gen.term(1) for v in range(nvars(side.literals))}
    instance = [apply(lit, sub) for lit in side.literals]
    redex = gen.rng.choice(instance[0].args)
    main_lits = instance[1:] + [gen.rng.choice([gen.p, gen.q])(gen.rng.choice([redex, gen.f(redex)]))]
    main_lits += gen.lits(gen.rng.randrange(0, 3), depth=1)
    gen.rng.shuffle(main_lits)
    return side, factory.make(main_lits)


def test_screened_rewriting_agrees_with_the_unscreened_scan():
    gen = Gen(seed=83)
    factory = ClauseFactory()
    steps = incomparable = variable_lhs = 0
    for _ in range(400):
        side, main = _side_with_instance(factory, gen)
        got = list(sd_simplifications(side, main))
        assert got == unscreened_sd_steps(side, main), (side, main)
        if got:
            steps += len(got)
            orientations = source_set_up(side).equations[0]
            incomparable += any(o.verdict is OrderResult.INCOMPARABLE for o in orientations)
            variable_lhs += any(isinstance(o.lhs, Var) for o in orientations)
    assert steps > 150 and incomparable > 20 and variable_lhs > 10, (steps, incomparable, variable_lhs)


def test_wide_side_premise_without_a_trigger_symbol_starts_no_matcher(monkeypatch):
    # six p-literals into ten leave 151,200 assignments, and none of them
    # can rewrite: the main premise has no g and no h.  The indexes leave
    # the pair out, forward and backward, so neither rule starts the matcher
    ws = Signature()
    wg, wh, wp = ws.function("g", 1), ws.function("h", 1), predicate(ws, "p", 1)
    factory = ClauseFactory()
    side = factory.make([wp(Var(i)) for i in range(6)] + [eq(wg(Var(6)), wh(Var(6)))])
    consts = [ws.constant(f"a{i}") for i in range(10)]
    main = factory.make([wp(k) for k in consts])
    calls = []
    matcher = simplify.match_solutions
    monkeypatch.setattr(simplify, "match_solutions", lambda *args, **kwargs: calls.append(args) or matcher(*args, **kwargs))
    forward, backward = FsdIndex(), BackwardIndex()
    forward.insert(side)
    backward.insert(main)
    assert forward.retrieve_fsd_candidates(main) == set()
    assert forward_subsumption_demodulation(main, forward, factory) is None
    assert backward.retrieve_bsd_candidates(side) == set()
    assert backward_subsumption_demodulation(side, backward, factory) == []
    assert calls == []
    # the side's indexed literal p(X) generalizes every literal of main:
    # only the trigger g kept it out, and a main premise with a g gets it
    with_g = factory.make([wp(k) for k in consts] + [wp(wg(consts[0]))])
    assert forward.retrieve_fsd_candidates(with_g) == {side}
    backward.insert(with_g)
    assert backward.retrieve_bsd_candidates(side) == {with_g}


def test_unit_side_premise_starts_no_matcher(monkeypatch):
    # a unit side's one match reserves its equality and binds nothing, so
    # rewriting makes it without a search, and the step is the same
    factory = ClauseFactory()
    unit = factory.make([eq(f(x), b)])
    main = factory.make([p(f(a)), q(c)])
    calls = []
    matcher = simplify.match_solutions
    monkeypatch.setattr(simplify, "match_solutions", lambda *args, **kwargs: calls.append(args) or matcher(*args, **kwargs))
    steps = list(sd_simplifications(unit, main))
    assert calls == []
    assert [(step.lit_pos, step.path, step.rhs_image) for step in steps] == [(0, (0,), b)]
    assert demodulate(unit, main, factory).literals == (p(b), q(c))
    assert calls == []


def test_redundancy_check_runs_only_at_the_top_of_a_positive_equality(monkeypatch):
    calls = []
    check = simplify.remainder_exceeds
    monkeypatch.setattr(simplify, "remainder_exceeds", lambda *args: calls.append(args) or check(*args))
    factory = ClauseFactory()
    unit = factory.make([eq(f(x), b)])
    # anywhere else the rewritten literal exceeds f(a) = b whatever the
    # rest of the clause holds, so no multiset is compared
    for main, rewritten in [
        (p(f(a)), p(b)),
        (eq(g(f(a)), c), eq(g(b), c)),
        (neq(f(a), c), neq(b, c)),
        (neq(g(f(a)), c), neq(g(b), c)),
    ]:
        out = demodulate(unit, factory.make([main]), factory)
        assert out is not None and out.literals == (rewritten,)
    assert calls == []
    # f(a) = c -> b = c: the remainder {f(a) = c} does not exceed f(a) = b,
    # since c < b, so the main premise is not redundant
    assert demodulate(unit, factory.make([eq(f(a), c)]), factory) is None
    assert len(calls) == 1
    # with p(f(a)) beside it, it is
    out = demodulate(unit, factory.make([eq(f(a), d), p(f(a))]), factory)
    assert out is not None and out.literals == (eq(b, d), p(f(a)))
    assert len(calls) == 2
