"""Brute-force reference implementations used to cross-check the prover.

Not a test module.  Everything here favors obviousness over speed: raw-dict
matching, quantifier-style multiset comparison, and model enumeration with
congruence closure.  Ordering comparisons are the only shared code; their
own axiom tests cover them.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from sdprover.clauses import Literal, canonical_literals, eq
from sdprover.ordering import OrderResult, compare_literal_multisets, compare_terms
from sdprover.terms import App, Term, Var


def multiset_greater_ref(xs, ys, cmp) -> bool:
    """Textbook multiset extension: remove equal pairs, then every remaining
    right element must be exceeded by some remaining left element."""
    xs = list(xs)
    ys = list(ys)
    for y in list(ys):
        for x in xs:
            if cmp(x, y) is OrderResult.EQUAL:
                xs.remove(x)
                ys.remove(y)
                break
    if not xs:
        return False
    return all(any(cmp(x, y) is OrderResult.GREATER for x in xs) for y in ys)


# ---------------------------------------------------------------- renaming

def clause_vars(lits) -> set[int]:
    """Every variable id occurring in a literal sequence."""
    out: set[int] = set()
    stack = [a for lit in lits for a in lit.args]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.vid)
        else:
            stack.extend(t.args)
    return out


def rename_literals(lits, offset: int) -> tuple[Literal, ...]:
    """Shift every variable id by offset."""
    shift = {v: Var(v + offset) for v in clause_vars(lits)}
    return tuple(Literal(lit.positive, lit.pred, tuple(naive_apply(a, shift) for a in lit.args)) for lit in lits)


def rename_apart(lits, away_from) -> tuple[Literal, ...]:
    """Rename lits so they share no variables with away_from, scanning both."""
    used = clause_vars(away_from)
    if not used or not (clause_vars(lits) & used):
        return tuple(lits)
    return rename_literals(lits, max(used) + 1)


# ---------------------------------------------------------------- matching

def naive_match_term(pattern: Term, target: Term, bindings: dict) -> Optional[dict]:
    """One-way term match over a raw binding dict; identities are kept."""
    if isinstance(pattern, Var):
        if pattern.vid in bindings:
            return bindings if bindings[pattern.vid] == target else None
        out = dict(bindings)
        out[pattern.vid] = target
        return out
    if not isinstance(target, App) or pattern.sym != target.sym or len(pattern.args) != len(target.args):
        return None
    for p, t in zip(pattern.args, target.args):
        bindings = naive_match_term(p, t, bindings)
        if bindings is None:
            return None
    return bindings


def naive_literal_matches(pattern: Literal, target: Literal, bindings: dict) -> list[dict]:
    if pattern.positive != target.positive or pattern.pred != target.pred:
        return []
    pairings = [tuple(zip(pattern.args, target.args))]
    if pattern.is_equality and target.args[0] != target.args[1]:
        pairings.append(tuple(zip(pattern.args, (target.args[1], target.args[0]))))
    out = []
    for pairing in pairings:
        cur: Optional[dict] = bindings
        for p, t in pairing:
            cur = naive_match_term(p, t, cur)
            if cur is None:
                break
        if cur is not None and cur not in out:
            out.append(cur)
    return out


def _injective_matches(
    src: list[tuple[int, Literal]], dst: list[Literal], bindings: dict, pairs: tuple
) -> Iterator[tuple[dict, tuple]]:
    """All injective matchings of indexed source literals into dst.

    Yields (bindings, pairs) with pairs holding (source index, dst index).
    """
    if not src:
        yield bindings, pairs
        return
    (i, head), rest = src[0], src[1:]
    used = {j for _, j in pairs}
    for j, dlit in enumerate(dst):
        if j in used:
            continue
        for extended in naive_literal_matches(head, dlit, bindings):
            yield from _injective_matches(rest, dst, extended, pairs + ((i, j),))


def naive_subsumes(c_lits, d_lits) -> bool:
    src = list(enumerate(c_lits))
    dst = list(d_lits)
    return next(_injective_matches(src, dst, {}, ()), None) is not None


def naive_ml_solutions(side_lits, main_lits) -> set[tuple]:
    """All (reserved equality position, matched pairs, substitution items)
    solutions of the demodulation matcher, as comparable tuples.

    Assumes the inputs share no variables, so that no identity binding
    arises; rename them apart first.
    """
    side = list(side_lits)
    main = list(main_lits)
    out = set()
    for e_pos, e_lit in enumerate(side):
        if not (e_lit.positive and e_lit.is_equality):
            continue
        rest = [(i, lit) for i, lit in enumerate(side) if i != e_pos]
        for bindings, pairs in _injective_matches(rest, main, {}, ()):
            items = tuple(sorted((v, t) for v, t in bindings.items() if Var(v) != t))
            out.add((e_pos, tuple(sorted(pairs)), items))
    return out


# ------------------------------------------- subsumption demodulation

def naive_apply(term: Term, bindings: dict) -> Term:
    if isinstance(term, Var):
        return bindings.get(term.vid, term)
    return App(term.sym, tuple(naive_apply(a, bindings) for a in term.args))


def _all_positions(term: Term, prefix: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], Term]]:
    yield prefix, term
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            yield from _all_positions(arg, prefix + (i,))


def _replace(term: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(term, App)
    args = list(term.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return App(term.sym, tuple(args))


def naive_sd_results(side_lits, main_lits) -> set[tuple[Literal, ...]]:
    """Every clause derivable by one subsumption demodulation step.

    Enumerates reserved equality, injective residual match, rewritten
    occurrence, and orientation outright, validating the ordering
    conditions on each combination.
    """
    main = list(main_lits)
    side = list(rename_apart(tuple(side_lits), tuple(main)))
    out: set[tuple[Literal, ...]] = set()
    for e_pos, e_lit in enumerate(side):
        if not (e_lit.positive and e_lit.is_equality):
            continue
        rest = [(i, lit) for i, lit in enumerate(side) if i != e_pos]
        for bindings, pairs in _injective_matches(rest, main, {}, ()):
            used = {j for _, j in pairs}
            outside = [lit for j, lit in enumerate(main) if j not in used]
            for lit_pos, lit in enumerate(main):
                if lit_pos in used:
                    continue
                for arg_idx, arg in enumerate(lit.args):
                    for sub_path, t in _all_positions(arg, (arg_idx,)):
                        orientations = [(e_lit.args[0], e_lit.args[1]), (e_lit.args[1], e_lit.args[0])]
                        for lhs, rhs in orientations:
                            sigma = naive_match_term(lhs, t, bindings)
                            if sigma is None:
                                continue
                            rhs_image = naive_apply(rhs, sigma)
                            if compare_terms(t, rhs_image) is not OrderResult.GREATER:
                                continue
                            if compare_literal_multisets(outside, [eq(t, rhs_image)]) is not OrderResult.GREATER:
                                continue
                            new_args = list(lit.args)
                            new_args[sub_path[0]] = _replace(arg, sub_path[1:], rhs_image)
                            new_lit = Literal(lit.positive, lit.pred, tuple(new_args))
                            conclusion = main[:lit_pos] + [new_lit] + main[lit_pos + 1 :]
                            out.add(canonical_literals(conclusion))
    return out


def naive_sd_applicable(side_lits, main_lits) -> bool:
    return bool(naive_sd_results(side_lits, main_lits))


def reference_demodulate(unit_lits, main_lits) -> Optional[tuple[Literal, ...]]:
    """First rewrite of main by a unit equality, as plain demodulation, or None.

    A demodulator of its own, outside the subsumption demodulation engine,
    scanning in the engine's order: main literals left to right, subterms
    outermost first, the equality as stored before its flip.  The
    instantiated equality must be oriented and the whole main premise must
    exceed it as a multiset.  The result is renamed canonically, as a clause
    factory would mint it.
    """
    main = list(main_lits)
    (equality,) = rename_apart(tuple(unit_lits), tuple(main))
    stored, flipped = tuple(equality.args), (equality.args[1], equality.args[0])
    for lit_pos, lit in enumerate(main):
        for arg_idx, arg in enumerate(lit.args):
            for sub_path, t in _all_positions(arg, ()):
                for lhs, rhs in (stored, flipped):
                    sigma = naive_match_term(lhs, t, {})
                    if sigma is None:
                        continue
                    rhs_image = naive_apply(rhs, sigma)
                    if compare_terms(t, rhs_image) is not OrderResult.GREATER:
                        continue
                    if compare_literal_multisets(main, [eq(t, rhs_image)]) is not OrderResult.GREATER:
                        continue
                    new_args = list(lit.args)
                    new_args[arg_idx] = _replace(arg, sub_path, rhs_image)
                    new_lit = Literal(lit.positive, lit.pred, tuple(new_args))
                    return canonical_literals(main[:lit_pos] + [new_lit] + main[lit_pos + 1 :])
    return None


# ------------------------------------------------- ground entailment

def _atom_key(lit: Literal):
    """Canonical propositional key, or None for a trivial s = s atom."""
    if lit.is_equality:
        s, t = lit.args
        if s == t:
            return None
        pair = tuple(sorted((s, t), key=repr))
        return ("e", pair)
    return ("p", lit.pred, lit.args)


def _lit_true(lit: Literal, assignment: dict) -> bool:
    key = _atom_key(lit)
    if key is None:
        return lit.positive
    return assignment[key] == lit.positive


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)


def _subterms(term: Term) -> set[Term]:
    out = {term}
    if isinstance(term, App):
        for a in term.args:
            out |= _subterms(a)
    return out


def _consistent(assignment: dict, universe: list[Term]) -> bool:
    """Whether the truth assignment extends to a model with equality."""
    uf = _UnionFind()
    for key, value in assignment.items():
        if key[0] == "e" and value:
            uf.union(key[1][0], key[1][1])
    apps = [t for t in universe if isinstance(t, App)]
    changed = True
    while changed:
        changed = False
        for i, s in enumerate(apps):
            for t in apps[i + 1 :]:
                if s.sym != t.sym or len(s.args) != len(t.args):
                    continue
                if uf.find(s) == uf.find(t):
                    continue
                if all(uf.find(x) == uf.find(y) for x, y in zip(s.args, t.args)):
                    uf.union(s, t)
                    changed = True
    for key, value in assignment.items():
        if key[0] == "e" and not value and uf.find(key[1][0]) == uf.find(key[1][1]):
            return False
    preds = [(key, value) for key, value in assignment.items() if key[0] == "p"]
    for i, (k1, v1) in enumerate(preds):
        for k2, v2 in preds[i + 1 :]:
            if v1 != v2 and k1[1] == k2[1] and all(uf.find(x) == uf.find(y) for x, y in zip(k1[2], k2[2])):
                return False
    return True


def ground_entails(premises: list, conclusion) -> bool:
    """Whether every equality-respecting model of the premises satisfies
    the conclusion.  All literals must be ground.

    Models are enumerated as truth assignments over the atoms that occur,
    filtered by congruence-closure consistency.  The conclusion's literals
    are pinned false up front, so only assignments that could refute
    entailment are visited.
    """
    premise_lits = [list(cl) for cl in premises]
    conclusion = list(conclusion)
    forced: dict = {}
    for lit in conclusion:
        key = _atom_key(lit)
        if key is None:
            if lit.positive:
                return True
            continue
        want = not lit.positive
        if forced.get(key, want) != want:
            return True
        forced[key] = want
    atoms: list = []
    terms: set[Term] = set()
    for cl in premise_lits + [conclusion]:
        for lit in cl:
            key = _atom_key(lit)
            if key is not None and key not in atoms:
                atoms.append(key)
            for arg in lit.args:
                terms |= _subterms(arg)
    universe = sorted(terms, key=repr)
    free = [key for key in atoms if key not in forced]
    for values in product((False, True), repeat=len(free)):
        assignment = dict(forced)
        assignment.update(zip(free, values))
        if not _consistent(assignment, universe):
            continue
        if all(any(_lit_true(lit, assignment) for lit in cl) for cl in premise_lits):
            return False
    return True
