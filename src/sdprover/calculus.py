"""Generating inference rules of the superposition calculus.

Every rule applies only to literals returned by select().  Ordering side
conditions are checked after unification on the instantiated premises, and a
check of the form "not greater" passes when the comparison is INCOMPARABLE.
Binary rules rename the second premise apart before unifying, shifting its
variables past the first premise's stored variable count.  Conclusions are
minted through the supplied factory with rule name and parent ids.
"""

from __future__ import annotations

from .clauses import (
    Clause,
    ClauseFactory,
    Literal,
    apply,
    canonical_literals,
    neq,
    orientations,
    rename_apart,
    select,
)
from .ordering import OrderResult, compare_terms
from .terms import Term, Var, preorder_subterms, replace_at, unify_pairs


def _not_greater(a: Term, b: Term) -> bool:
    return compare_terms(a, b) is not OrderResult.GREATER


def _mint_all(raw: list[tuple[Literal, ...]], factory: ClauseFactory, rule: str, parents) -> list[Clause]:
    out: list[Clause] = []
    seen: set[tuple[Literal, ...]] = set()
    for lits in raw:
        key = canonical_literals(lits)
        if key in seen:
            continue
        seen.add(key)
        out.append(factory.make(lits, rule, parents))
    return out


def resolution(c1: Clause, c2: Clause, factory: ClauseFactory) -> list[Clause]:
    """Resolve a selected positive predicate literal of c1 against a selected
    negative one of c2."""
    lits2 = rename_apart(c2, c1)
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
            raw.append(apply(tuple(rest), sub))
    return _mint_all(raw, factory, "resolution", (c1.cid, c2.cid))


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
            raw.append(apply(tuple(rest), sub))
    return _mint_all(raw, factory, "factoring", (c.cid,))


def _superpose_into(
    eq_rest: tuple[Literal, ...],
    s: Term,
    t: Term,
    target_lits: tuple[Literal, ...],
    target_pos: int,
    raw: list,
) -> None:
    target = target_lits[target_pos]
    if target.is_equality:
        sides = (0, 1)
    else:
        sides = tuple(range(len(target.args)))
    for arg_idx in sides:
        for path, sub_term in preorder_subterms(target.args[arg_idx]):
            if isinstance(sub_term, Var):
                continue
            theta = unify_pairs([(s, sub_term)])
            if theta is None:
                continue
            if not _not_greater(apply(t, theta), apply(s, theta)):
                continue
            if target.is_equality:
                into_side = apply(target.args[arg_idx], theta)
                other_side = apply(target.args[1 - arg_idx], theta)
                if not _not_greater(other_side, into_side):
                    continue
            new_args = list(target.args)
            new_args[arg_idx] = replace_at(target.args[arg_idx], path, t)
            new_target = Literal(target.positive, target.pred, tuple(new_args))
            lits = eq_rest + target_lits[:target_pos] + (new_target,) + target_lits[target_pos + 1 :]
            raw.append(apply(lits, theta))


def superposition(c1: Clause, c2: Clause, factory: ClauseFactory) -> list[Clause]:
    """Rewrite inside a selected literal of c2 with a selected positive
    equality of c1, at a non-variable position."""
    lits2 = rename_apart(c2, c1)
    sel2 = select(c2)
    raw: list = []
    for i in select(c1):
        li = c1.literals[i]
        if not (li.positive and li.is_equality):
            continue
        eq_rest = tuple(lit for k, lit in enumerate(c1.literals) if k != i)
        for s, t in orientations(li):
            for j in sel2:
                _superpose_into(eq_rest, s, t, lits2, j, raw)
    return _mint_all(raw, factory, "superposition", (c1.cid, c2.cid))


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
        raw.append(apply(rest, sub))
    return _mint_all(raw, factory, "eq_resolution", (c.cid,))


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
                    if not _not_greater(apply(t, theta), apply(s, theta)):
                        continue
                    if not _not_greater(apply(t2, theta), apply(t, theta)):
                        continue
                    rest = tuple(
                        lit for k, lit in enumerate(c.literals) if k != i and k != j
                    )
                    lits = (Literal(True, None, (s, t)), neq(t, t2)) + rest
                    raw.append(apply(lits, theta))
    return _mint_all(raw, factory, "eq_factoring", (c.cid,))


def unary_inferences(c: Clause, factory: ClauseFactory) -> list[Clause]:
    out = factoring(c, factory)
    out += equality_resolution(c, factory)
    out += equality_factoring(c, factory)
    return out

