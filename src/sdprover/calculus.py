"""Generating inference rules of the superposition calculus.

Every rule applies only to literals returned by select().  Ordering side
conditions are checked after unification on the instantiated premises, and a
check of the form "not greater" passes when the comparison is INCOMPARABLE.
Binary rules unify against the second premise's renamed copy
(clauses.rename_apart, made once per clause), whose negative variable ids
are apart from every first premise, the clause itself included.

Superposition reads the orientations of the first premise's equalities from
its matcher set-up, computed once per clause object, with their verdicts.
KBO is stable under substitution, and renaming apart is a substitution, so
a verdict other than INCOMPARABLE holds for every instance:

  - an orientation s -> t with t > s is skipped before any unification,
    since the ordering check would reject each of its conclusions;
  - only an INCOMPARABLE orientation has t theta and s theta compared per
    unifier (s > t and s = t pass for every instance);
  - an equality target has its sides compared once per clause, kept with
    the target's occurrences, and only INCOMPARABLE sides are compared per
    unifier.  Where the other side is greater, every position in this side
    is skipped before unify_pairs; where it is less or equal, every
    instance passes.

A position whose top symbol differs from that of a non-variable s is
skipped before unify_pairs, and so is a ground position other than s when
s is ground: ground terms unify only when they are equal, and the hashed
comparison decides that without a walk.  Within a run equal terms are one
object (terms.run_scope), so an equal position usually passes at the
comparison's identity test, before hash or walk.

Every unify_pairs call checks the run's deadline first, so a rule that
unifies deep terms many times stops near the time limit even when no
unification succeeds and nothing is minted.

A unifier is unify_pairs's triangular bindings, and an ordering check
reads the instances it needs from terms.instantiate, with one memo per
unifier, so each bound variable's image is built once for all of them.  A
rule does not instantiate its conclusions itself: it hands each one to the
factory as its uninstantiated literals and the unifier, all conclusions of
one call together, and the factory applies the unifier while it
canonicalizes, drops variants of earlier conclusions of the call, and mints
the rest with the rule name and parent ids.  Superposition hands over the
literal it rewrites as a context: the target with the hole, a variable of
an id no clause carries, at the occurrence, kept with the occurrence once
a unifier succeeds there, and the hole bound to t in the unifier.  So the
factory builds the rewritten literal in the pass that numbers it, and no
intermediate term is built.  The context's spine, the applications above
the hole, is built with App, not make_app, so the run's term table never
holds the hole: instantiate rebuilds every spine node with make_app once
the hole is bound, since the hole's image is never the hole.  A ground
target that a ground t rewrites is built whole (replace_in_literal), since
the factory keeps a ground literal.
"""

from __future__ import annotations

from typing import Optional

from .clauses import (
    Clause,
    ClauseFactory,
    Literal,
    literal_occurrences,
    neq,
    orientations,
    rename_apart,
    replace_in_literal,
    select,
)
from .matching import Orientation, source_set_up
from .ordering import OrderResult, compare_terms
from .terms import App, Term, Var, instantiate, unify_pairs


def _not_greater(a: Term, b: Term) -> bool:
    return compare_terms(a, b) is not OrderResult.GREATER


def resolution(c1: Clause, c2: Clause, factory: ClauseFactory) -> list[Clause]:
    """Resolve a selected positive predicate literal of c1 against a selected
    negative one of c2."""
    lits2 = rename_apart(c2)
    sel2 = select(c2)
    raw = []
    for i in select(c1):
        li = c1.literals[i]
        if not li.positive or li.is_equality:
            continue
        for j in sel2:
            lj = lits2[j]
            if lj.positive or lj.is_equality or lj.pred != li.pred:
                continue
            sub = unify_pairs(zip(li.args, lj.args))
            if sub is None:
                continue
            rest = [lit for k, lit in enumerate(c1.literals) if k != i]
            rest += [lit for k, lit in enumerate(lits2) if k != j]
            raw.append((tuple(rest), sub))
    return factory.make_all(raw, "resolution", (c1.cid, c2.cid))


def factoring(c: Clause, factory: ClauseFactory) -> list[Clause]:
    """Unify two selected predicate literals of the same polarity, keeping one."""
    sel = select(c)
    raw = []
    for i in sel:
        li = c.literals[i]
        if li.is_equality:
            continue
        for j in sel:
            if j == i:
                continue
            lj = c.literals[j]
            if lj.is_equality or lj.positive != li.positive or lj.pred != li.pred:
                continue
            sub = unify_pairs(zip(li.args, lj.args))
            if sub is None:
                continue
            rest = [lit for k, lit in enumerate(c.literals) if k != j]
            raw.append((tuple(rest), sub))
    return factory.make_all(raw, "factoring", (c.cid,))


# a minted clause's variables are 0, 1, ... and its renamed copy's -1, -2, ...
_HOLE = Var(-(1 << 62))


def _superposition_targets(c2: Clause, lits2: tuple[Literal, ...]) -> tuple:
    """(position, verdict on the sides or None, non-variable occurrences,
    contexts) for each selected literal of lits2, c2's renamed copy; kept
    on c2.  contexts maps the path of an occurrence to the literal with
    _HOLE there, added when a unifier first succeeds at it."""
    if c2._into is None:
        c2._into = tuple((j, compare_terms(*lits2[j].args) if lits2[j].is_equality else None,
                          tuple(literal_occurrences(lits2[j])), {}) for j in select(c2))
    return c2._into


def _superpose_into(
    eq_rest: tuple[Literal, ...], o: Orientation, target_lits: tuple[Literal, ...], into: tuple, raw: list
) -> None:
    """Conclusions of o into one entry of _superposition_targets, added to raw."""
    target_pos, sides_verdict, occurrences, contexts = into
    target = target_lits[target_pos]
    s, t = o.lhs, o.rhs
    sym = None if type(s) is Var else s.sym
    ground = target.ground and t.ground
    for path, sub_term in occurrences:
        if sym is not None and sub_term.sym != sym:
            continue
        if s.ground and sub_term.ground and s != sub_term:
            continue
        # the other side is greater in every instance: no conclusion here
        if sides_verdict is (OrderResult.LESS if path[0] == 0 else OrderResult.GREATER):
            continue
        theta = unify_pairs([(s, sub_term)])
        if theta is None:
            continue
        images: dict[int, Term] = {}
        if o.verdict is OrderResult.INCOMPARABLE and not _not_greater(
            instantiate(t, theta, images), instantiate(s, theta, images)
        ):
            continue
        if sides_verdict is OrderResult.INCOMPARABLE:
            into_side = instantiate(target.args[path[0]], theta, images)
            other_side = instantiate(target.args[1 - path[0]], theta, images)
            if not _not_greater(other_side, into_side):
                continue
        if ground:
            new_target = replace_in_literal(target, path, t)
        else:
            new_target = contexts.get(path) or contexts.setdefault(path, replace_in_literal(target, path, _HOLE, App))
            theta[_HOLE.vid] = t
        raw.append((eq_rest + target_lits[:target_pos] + (new_target,) + target_lits[target_pos + 1 :], theta))


def superposition(c1: Clause, c2: Clause, factory: ClauseFactory) -> list[Clause]:
    """Rewrite inside a selected literal of c2 with a selected positive
    equality of c1, at a non-variable position."""
    equations = source_set_up(c1).equations
    froms = [i for i in select(c1) if equations[i]]
    if not froms:
        return []
    lits2 = rename_apart(c2)
    targets = _superposition_targets(c2, lits2)
    raw: list = []
    for i in froms:
        eq_rest = tuple(lit for k, lit in enumerate(c1.literals) if k != i)
        # an orientation s -> t with t > s is left out: no instance of it passes
        for o in equations[i]:
            for into in targets:
                _superpose_into(eq_rest, o, lits2, into, raw)
    return factory.make_all(raw, "superposition", (c1.cid, c2.cid))


def equality_resolution(c: Clause, factory: ClauseFactory) -> list[Clause]:
    """Resolve a selected negative equality whose sides unify."""
    raw = []
    for i in select(c):
        li = c.literals[i]
        if li.positive or not li.is_equality:
            continue
        sub = unify_pairs([(li.lhs, li.rhs)])
        if sub is None:
            continue
        rest = tuple(lit for k, lit in enumerate(c.literals) if k != i)
        raw.append((rest, sub))
    return factory.make_all(raw, "eq_resolution", (c.cid,))


def equality_factoring(c: Clause, factory: ClauseFactory) -> list[Clause]:
    """Factor a selected positive equality against another positive equality.

    With the retained equality s = t selected and another positive equality
    s' = t' in the clause, unifying s and s' yields (s = t | t != t' | C).
    """
    sel = select(c)
    raw = []
    for i in sel:
        li = c.literals[i]
        if not (li.positive and li.is_equality):
            continue
        for j, lj in enumerate(c.literals):
            if j == i or not (lj.positive and lj.is_equality):
                continue
            for s, t in orientations(li):
                for s2, t2 in orientations(lj):
                    theta = unify_pairs([(s, s2)])
                    if theta is None:
                        continue
                    images: dict[int, Term] = {}
                    t_image = instantiate(t, theta, images)
                    if not _not_greater(t_image, instantiate(s, theta, images)):
                        continue
                    if not _not_greater(instantiate(t2, theta, images), t_image):
                        continue
                    rest = tuple(
                        lit for k, lit in enumerate(c.literals) if k != i and k != j
                    )
                    lits = (Literal(True, None, (s, t)), neq(t, t2)) + rest
                    raw.append((lits, theta))
    return factory.make_all(raw, "eq_factoring", (c.cid,))


def unary_inferences(c: Clause, factory: ClauseFactory) -> list[Clause]:
    out = factoring(c, factory)
    out += equality_resolution(c, factory)
    out += equality_factoring(c, factory)
    return out

