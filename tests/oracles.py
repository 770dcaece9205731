"""Brute-force reference implementations used to cross-check the prover.

Not a test module.  Everything here favors obviousness over speed: raw-dict
matching, quantifier-style multiset comparison, and model enumeration with
congruence closure.  Ordering comparisons are the only shared code; their
own axiom tests cover them.  The exception is the unscreened engine scans:
they are the engine's rewriting and superposition loops with every screen
taken out, built from the engine's own matcher and term helpers, so that a
screened result can be compared step for step with an unscreened one.
So are the retrieval-free loops (all-pairs generation, the scan over unit
equalities, every clause an index holds as a subsumption candidate):
drop-ins for the saturation steps whose partners the indexes retrieve.
Replaced versions of engine code are kept as references too: renaming
apart by an offset per call, KBO recounting variables at every level, the
term walks each index and screen made for itself before every clause kept
one walk per literal, the multiset extension that compared every remaining
pair, the multi-literal search as a recursive generator,
the variant test as a direct search for the renaming, superposition
that puts the right-hand side in before it instantiates
(replaced_superposition), the TPTP
tokenizer that kept a line and column on every token, and the unification
and matching kernels as they were before their per-pair dispatch was
inlined (unify_pairs_ref, match_pairs_ref).  Five helpers only tests
call live here too: comparing two literal sequences as clauses, the
variant test on the engine's matcher (variant: equal length and
subsumption both ways), reading a problem file, the argument pairings of
two literals (literal_pairings), and both ordering conditions of one
rewrite as a single test (check_ordering_conditions), the reference for
the rewriter's orientation and redundancy checks.
"""

from __future__ import annotations

import os
import re
import weakref
from collections import Counter
from itertools import count, product
from typing import Iterator, NamedTuple, Optional

from sdprover import calculus
from sdprover.clauses import Clause, Literal, eq, literal_occurrences, orientations, replace_in_literal, select
from sdprover.index import RESOLVES, REWRITABLE, REWRITES, BackwardIndex, best_literals
from sdprover.matching import literal_match_substs, match_solutions, source_set_up, subsumes, target_set_up
from sdprover.ordering import OrderResult, _prec_greater, compare_literal_multisets, compare_terms
from sdprover.simplify import RewriteStep, demodulate, remainder_exceeds
from sdprover.terms import (
    App,
    Substitution,
    Term,
    Var,
    apply_term,
    check_time,
    instantiate,
    match_pairs,
    term_vars,
    unify_pairs,
)
from sdprover.tptp import ParseError, Problem, parse_problem


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


def multiset_extension_ref(xs, ys, cmp) -> OrderResult:
    """ordering.multiset_extension as it was before it cancelled by == and
    compared lazily: cancel pairs that cmp calls EQUAL, fill the whole
    comparison table, then test GREATER and LESS both."""
    left = list(xs)
    right = list(ys)
    for x in list(left):
        for y in right:
            if cmp(x, y) is OrderResult.EQUAL:
                left.remove(x)
                right.remove(y)
                break
    if not left and not right:
        return OrderResult.EQUAL
    if not right and left:
        return OrderResult.GREATER
    if not left and right:
        return OrderResult.LESS
    table = {(i, j): cmp(x, y) for i, x in enumerate(left) for j, y in enumerate(right)}
    greater = all(any(table[i, j] is OrderResult.GREATER for i in range(len(left))) for j in range(len(right)))
    less = all(any(table[i, j] is OrderResult.LESS for j in range(len(right))) for i in range(len(left)))
    if greater and not less:
        return OrderResult.GREATER
    if less and not greater:
        return OrderResult.LESS
    return OrderResult.INCOMPARABLE


def compare_clauses(lits1, lits2) -> OrderResult:
    """Compare two literal sequences as clauses: as literal multisets."""
    return compare_literal_multisets(lits1, lits2)


def load_problem(path: str, sig, factory) -> Problem:
    """Parse the TPTP problem file at path, named after its base name."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_problem(text, sig, factory, path=path, name=os.path.basename(path))


# ---------------------------------------------------------------- tokens

_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>%[^\n]*)
      | (?P<neq>!=)
      | (?P<dollar>\$[a-z][A-Za-z0-9_]*)
      | (?P<lower>[a-z][A-Za-z0-9_]*)
      | (?P<upper>[A-Z_][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<punct>[(),.|~=])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
    """text's tokens with their kinds and positions, one match at a time,
    ending in an "eof" token; a character no token starts with raises
    ParseError at its line and column."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        assert kind is not None
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


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


def nvars(lits) -> int:
    """One past the largest variable id in a literal sequence, 0 when it is
    ground: the variable count of a clause whose variables the factory
    numbered 0, 1, ..."""
    return max(clause_vars(lits), default=-1) + 1


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


def shift_vars(term: Term, offset: int) -> Term:
    """term with every variable id raised by offset."""
    return naive_apply(term, {v: Var(v + offset) for v in term_vars(term)})


def offset_rename_apart(clause, away_from) -> tuple[Literal, ...]:
    """The clause renaming generation used before it kept a renamed copy on
    each clause: clause's variables shifted past away_from's variable count,
    ground literals and all literals of a ground clause unchanged."""
    offset = nvars(away_from.literals)
    if not offset or not nvars(clause.literals):
        return clause.literals
    return tuple(
        lit
        if all(a.ground for a in lit.args)
        else Literal(lit.positive, lit.pred, tuple(shift_vars(a, offset) for a in lit.args))
        for lit in clause.literals
    )


def apply(expr, subst: Substitution):
    """A substitution applied to a term, a literal, or a literal tuple."""
    if isinstance(expr, (Var, App)):
        return naive_apply(expr, subst)
    if isinstance(expr, Literal):
        return Literal(expr.positive, expr.pred, tuple(naive_apply(a, subst) for a in expr.args))
    return tuple(apply(lit, subst) for lit in expr)


def canonical_literals(lits) -> tuple[Literal, ...]:
    """Variables renamed 0, 1, ... in order of first occurrence, pre-order, left to right."""
    mapping: dict[int, Var] = {}
    for lit in lits:
        for arg in lit.args:
            for _, t in _all_positions(arg, ()):
                if isinstance(t, Var) and t.vid not in mapping:
                    mapping[t.vid] = Var(len(mapping))
    return tuple(Literal(lit.positive, lit.pred, tuple(naive_apply(a, mapping) for a in lit.args)) for lit in lits)


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


def naive_match_args(patterns, targets) -> bool:
    """Whether the pattern tuple matches the target tuple one way,
    position by position (no second order for an equality)."""
    bindings: Optional[dict] = {}
    for p, t in zip(patterns, targets):
        bindings = naive_match_term(p, t, bindings)
        if bindings is None:
            return False
    return True


def linearized(terms) -> tuple:
    """terms with each variable occurrence replaced by a variable of its own."""
    fresh = count()

    def rebuild(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(next(fresh))
        return App(t.sym, tuple(rebuild(a) for a in t.args))

    return tuple(rebuild(t) for t in terms)


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


def forward_subsumption_candidates_ref(active, d: Clause) -> set:
    """The clauses c other than d in active that forward-subsumption
    retrieval returns for d, by brute force: every literal of c matches
    some literal of d as a term, an equality in either argument order: the
    set the index found by counting reached leaves per clause, before each
    clause designated one leaf."""
    return {
        c
        for c in active
        if c is not d and all(any(naive_literal_matches(lit, m, {}) for m in d.literals) for lit in c.literals)
    }


def naive_ml_solutions(side_lits, main_lits) -> Counter:
    """The solutions of the demodulation matcher as a multiset of
    (reserved equality position, matched image, substitution items).

    Each distinct assignment of side literals to main literals with its
    substitution is one solution; two of them can agree on the image and
    the substitution, and then that tuple counts twice.  Assumes the inputs
    share no variables, so that no identity binding arises; rename them
    apart first.
    """
    side = list(side_lits)
    main = list(main_lits)
    solutions = set()
    for e_pos, e_lit in enumerate(side):
        if not (e_lit.positive and e_lit.is_equality):
            continue
        rest = [(i, lit) for i, lit in enumerate(side) if i != e_pos]
        for bindings, pairs in _injective_matches(rest, main, {}, ()):
            items = tuple(sorted((v, t) for v, t in bindings.items() if Var(v) != t))
            solutions.add((e_pos, tuple(sorted(pairs)), items))
    return Counter((e_pos, frozenset(j for _, j in pairs), items) for e_pos, pairs, items in solutions)



def recursive_match_solutions(source, target, *, reserve_equality: bool) -> Iterator[tuple]:
    """The engine's multi-literal search as it was written before it ran
    on an explicit stack: one recursive generator call per source literal,
    over the engine's own set-ups and literal matcher.  Yields
    (rewrite_eq_pos, image, subst) in the engine's enumeration order."""
    src = source.literals
    dst = target.literals
    if len(src) - (1 if reserve_equality else 0) > len(dst):
        return
    order, last_eq, _, _, _, _ = source_set_up(source)
    compatible = target_set_up(target).table

    def search(k: int, subst: Substitution, used: frozenset, eq_pos: Optional[int]) -> Iterator[tuple]:
        if k == len(order):
            if not reserve_equality or eq_pos is not None:
                yield (-1 if eq_pos is None else eq_pos, used, subst)
            return
        i = order[k]
        lit = src[i]
        if reserve_equality and eq_pos is None and lit.positive and lit.is_equality:
            yield from search(k + 1, subst, used, i)
            if k == last_eq:
                return
        for j in compatible.get((lit.positive, lit.pred), ()):
            if j in used:
                continue
            for extended in literal_match_substs(lit, dst[j], subst):
                yield from search(k + 1, extended, used | {j}, eq_pos)

    yield from search(0, {}, frozenset(), None)


def literal_pairings(a: Literal, b: Literal):
    """Ways to align the argument tuples of two literals: none unless they
    have the same polarity, predicate and arity, the stored order, and the
    swapped order for an equality whose target b has two different sides."""
    if a.positive != b.positive or a.pred != b.pred or len(a.args) != len(b.args):
        return
    yield tuple(zip(a.args, b.args))
    if a.pred is None and b.args[0] != b.args[1]:
        yield tuple(zip(a.args, (b.args[1], b.args[0])))


def _rename_match(p: Term, t: Term, fwd: dict, bwd: dict) -> Optional[tuple[dict, dict]]:
    stack = [(p, t)]
    fwd, bwd = dict(fwd), dict(bwd)
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var):
            if not isinstance(y, Var):
                return None
            if fwd.get(x.vid, y.vid) != y.vid or bwd.get(y.vid, x.vid) != x.vid:
                return None
            fwd[x.vid] = y.vid
            bwd[y.vid] = x.vid
        else:
            if not isinstance(y, App) or x.sym != y.sym or len(x.args) != len(y.args):
                return None
            stack.extend(zip(x.args, y.args))
    return fwd, bwd


def _variant_search(a, b, i, used, fwd, bwd) -> bool:
    if i == len(a):
        return True
    for j, other in enumerate(b):
        if j in used:
            continue
        for pairs in literal_pairings(a[i], other):
            maps = (fwd, bwd)
            for p, t in pairs:
                maps = _rename_match(p, t, *maps)
                if maps is None:
                    break
            if maps is not None and _variant_search(a, b, i + 1, used | {j}, *maps):
                return True
    return False


def renaming_variant(lits_a, lits_b) -> bool:
    """Whether two literal sequences are equal multisets up to a variable
    bijection, found by a direct search for the renaming (the engine's
    variant before it became mutual subsumption)."""
    a, b = tuple(lits_a), tuple(lits_b)
    return len(a) == len(b) and _variant_search(a, b, 0, set(), {}, {})


def variant(c: Clause, d: Clause) -> bool:
    """Whether the literal multisets of two clauses are equal up to variable
    renaming, decided by the engine's matcher as mutual subsumption.

    Each match assigns literals one to one, so the lengths are equal
    (compared first, as a quick exit); matching never lowers a weight, so
    each match maps variables to variables; and then neither can merge two
    of them.
    """
    return len(c) == len(d) and subsumes(c, d) and subsumes(d, c)


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


# ------------------------------------------------- unscreened engine scans

def check_ordering_conditions(
    main: Clause, lhs_image: Term, rhs_image: Term, matched_image: frozenset[int]
) -> bool:
    """Orientation and redundancy checks for one candidate rewrite.

    The instantiated equality must be oriented left to right, and the main
    literals outside the matched image must exceed it as a multiset.
    """
    return compare_terms(lhs_image, rhs_image) is OrderResult.GREATER and remainder_exceeds(
        main, lhs_image, rhs_image, matched_image
    )


def unscreened_sd_steps(side, main) -> list:
    """Every subsumption demodulation step of main by side, scanned with no screen.

    The engine's matcher, then for every solution, every subterm of the
    main premise outside the matched image and every orientation of the
    reserved equality, a full match and both ordering checks.  This is the
    scan order the screened engine must reproduce step for step.
    """
    if len(side.literals) - 1 > len(main.literals):
        return []
    steps = []
    for m in match_solutions(side, main, reserve_equality=True):
        bound = m.subst
        usable = [
            (lhs, rhs)
            for lhs, rhs in orientations(side.literals[m.rewrite_eq_pos])
            if all(bound.get(v) is not None for v in term_vars(rhs) - term_vars(lhs))
        ]
        for lit_pos, lit in enumerate(main.literals):
            if lit_pos in m.image:
                continue
            for path, t in literal_occurrences(lit):
                for lhs, rhs in usable:
                    sigma = match_pairs([(lhs, t)], bound)
                    if sigma is None:
                        continue
                    rhs_image = apply_term(rhs, sigma)
                    if check_ordering_conditions(main, t, rhs_image, m.image):
                        steps.append(RewriteStep(side.cid, lit_pos, path, sigma, rhs_image))
    return steps


def unscreened_superposition(c1, c2, factory) -> list:
    """Superposition of c1 into c2 that unifies every orientation at every position."""
    def not_greater(a, b):
        return compare_terms(a, b) is not OrderResult.GREATER

    lits2 = offset_rename_apart(c2, c1)
    raw = []
    for i in select(c1):
        li = c1.literals[i]
        if not (li.positive and li.is_equality):
            continue
        eq_rest = tuple(lit for k, lit in enumerate(c1.literals) if k != i)
        for s, t in orientations(li):
            for j in select(c2):
                target = lits2[j]
                for path, sub_term in literal_occurrences(target):
                    theta = unify_pairs([(s, sub_term)])
                    if theta is None or not not_greater(instantiate(t, theta, {}), instantiate(s, theta, {})):
                        continue
                    if target.is_equality:
                        into_side = instantiate(target.args[path[0]], theta, {})
                        other_side = instantiate(target.args[1 - path[0]], theta, {})
                        if not not_greater(other_side, into_side):
                            continue
                    new_target = replace_in_literal(target, path, t)
                    raw.append((eq_rest + lits2[:j] + (new_target,) + lits2[j + 1 :], theta))
    return factory.make_all(raw, "superposition", (c1.cid, c2.cid))


def _resolved(term: Term, bindings: Substitution) -> Term:
    """term under a triangular unifier with every binding chased to its end."""
    if isinstance(term, Var):
        bound = bindings.get(term.vid)
        return term if bound is None else _resolved(bound, bindings)
    return App(term.sym, tuple(_resolved(a, bindings) for a in term.args))


def replaced_superposition(c1, c2) -> list[tuple[Literal, ...]]:
    """The literal tuples superposition(c1, c2) mints, in order, built the
    way it built them before it kept a context per occurrence: c2 renamed
    by negating its variable ids (-1 - v), the right-hand side put in at
    the rewritten position, then the unifier applied in full and the
    variables renumbered (canonical_literals).  Every orientation is tried
    at every non-variable position, and its instances are compared; a
    tuple equal to an earlier one of the call is left out."""
    rename = {v: Var(-1 - v) for v in clause_vars(c2.literals)}
    lits2 = tuple(Literal(l.positive, l.pred, tuple(naive_apply(a, rename) for a in l.args)) for l in c2.literals)
    out: list[tuple[Literal, ...]] = []
    for i in select(c1):
        li = c1.literals[i]
        if not (li.positive and li.is_equality):
            continue
        rest = c1.literals[:i] + c1.literals[i + 1 :]
        for s, t in orientations(li):
            for j in select(c2):
                target = lits2[j]
                for k, arg in enumerate(target.args):
                    for path, sub in _all_positions(arg, ()):
                        if isinstance(sub, Var):
                            continue
                        theta = unify_pairs_ref([(s, sub)])
                        if theta is None:
                            continue
                        if compare_terms(_resolved(t, theta), _resolved(s, theta)) is OrderResult.GREATER:
                            continue
                        other = target.args[1 - k] if target.is_equality else None
                        if other is not None and compare_terms(
                            _resolved(other, theta), _resolved(arg, theta)
                        ) is OrderResult.GREATER:
                            continue
                        args = tuple(_replace(a, path, t) if m == k else a for m, a in enumerate(target.args))
                        lits = rest + lits2[:j] + (Literal(target.positive, target.pred, args),) + lits2[j + 1 :]
                        lits = tuple(Literal(l.positive, l.pred, tuple(_resolved(a, theta) for a in l.args)) for l in lits)
                        canonical = canonical_literals(lits)
                        if canonical not in out:
                            out.append(canonical)
    return out


def offset_resolution(c1, c2, factory) -> list:
    """Resolution of c1 with c2 renamed apart by offset_rename_apart."""
    lits2 = offset_rename_apart(c2, c1)
    raw = []
    for i in select(c1):
        li = c1.literals[i]
        if not li.positive or li.is_equality:
            continue
        for j in select(c2):
            lj = lits2[j]
            if lj.positive or lj.is_equality or lj.pred != li.pred:
                continue
            sub = unify_pairs(zip(li.args, lj.args))
            if sub is not None:
                rest = [lit for k, lit in enumerate(c1.literals) if k != i]
                rest += [lit for k, lit in enumerate(lits2) if k != j]
                raw.append((tuple(rest), sub))
    return factory.make_all(raw, "resolution", (c1.cid, c2.cid))


def all_pairs_generate(g, st) -> list:
    """The generation step with no partner retrieval: g against every active
    clause, both ways round, in ascending id order.

    A drop-in for saturation._generate; the indexed step must make the same
    conclusions with the same ids.
    """
    out = list(calculus.unary_inferences(g, st.factory))
    for cid in sorted(st.active):
        check_time()
        a = st.active[cid]
        out.extend(calculus.resolution(g, a, st.factory))
        out.extend(calculus.superposition(g, a, st.factory))
        if a.cid != g.cid:
            out.extend(calculus.superposition(a, g, st.factory))
            out.extend(calculus.resolution(a, g, st.factory))
    return out


def scan_demodulate_once(g, st):
    """The demodulation step with no retrieval: every active unit equality
    in ascending id order, the first rewrite wins.

    A drop-in for saturation._demodulate_once; the indexed step must make
    the same rewrite.
    """
    for cid in sorted(st.active):
        c = st.active[cid]
        if cid == g.cid or len(c.literals) != 1 or not (c.literals[0].positive and c.literals[0].is_equality):
            continue
        res = demodulate(c, g, st.factory)
        if res is not None:
            return res
    return None


def scan_retrievals(patch, retrievals) -> None:
    """Simplification partners with no retrieval: patch each (index class,
    method) of retrievals, with the monkeypatch context patch, to return
    every clause the index holds except the query.  A drop-in for the
    subsumption and subsumption demodulation retrievals of BackwardIndex
    and FsdIndex.  forward_subsumption_candidates returns a unit clause
    only when it subsumes the query, and forward subsumption takes such a
    unit without the matcher, so its drop-in keeps the held units that
    naive_subsumes says subsume the query, and every other held clause.

    The index classes' insert and remove are wrapped to record the clauses
    each index object was given: every one inserted into a BackwardIndex,
    and each one with best literals (the ones it can file) inserted into
    an FsdIndex.
    """
    held: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # index -> cid -> clause
    for owner in {owner for owner, _ in retrievals}:

        def insert(index, c, insert=owner.insert, owner=owner):
            insert(index, c)
            if owner is BackwardIndex or best_literals(c):
                held.setdefault(index, {})[c.cid] = c

        def remove(index, c, remove=owner.remove):
            remove(index, c)
            held.get(index, {}).pop(c.cid, None)

        patch.setattr(owner, "insert", insert)
        patch.setattr(owner, "remove", remove)

    def every_other_held_clause(index, d) -> set:
        return {c for c in held.get(index, {}).values() if c.cid != d.cid}

    def subsuming_units_and_every_wider_clause(index, d) -> set:
        return {
            c
            for c in every_other_held_clause(index, d)
            if len(c.literals) > 1 or naive_subsumes(c.literals, d.literals)
        }

    for owner, attr in retrievals:
        if attr == "forward_subsumption_candidates":
            patch.setattr(owner, attr, subsuming_units_and_every_wider_clause)
        else:
            patch.setattr(owner, attr, every_other_held_clause)


def generation_keys_ref(c: Clause) -> set[tuple]:
    """The generation keys of c's selected literals, read off the eager
    source set-up: REWRITES keys from each selected literal's entry in
    source_set_up(c).equations, which is () for any literal but a
    positive equality, as the index took them before it built the set-up
    only for a selected positive equality."""
    equations = source_set_up(c).equations
    keys: set[tuple] = set()
    for i in select(c):
        lit = c.literals[i]
        if lit.is_equality:
            keys.update((REWRITES, None if isinstance(o.lhs, Var) else o.lhs.sym) for o in equations[i])
        else:
            keys.add((RESOLVES, lit.pred, lit.positive))
    symbols = subterm_symbols(c.literals[i] for i in select(c))
    if symbols:
        keys.update((REWRITABLE, f) for f in symbols | {None})
    return keys


# -------------------------------------------------------------- term walks

def top_symbol_key(lit: Literal) -> tuple:
    """A literal's polarity and predicate (None for an equality): the key
    the literal indexes filed clauses under before one discrimination tree
    answered every literal retrieval."""
    return lit.positive, lit.pred


def preorder(terms) -> tuple[tuple, tuple]:
    """The pre-order keys of a term sequence, -1 - vid for each variable, and
    for each position the number of keys of the subterm that starts there,
    found from the arities: a walk in the form of clauses.literal_walks.
    The index walked a literal's terms this way on every insertion and
    query before each clause kept one walk per literal."""
    keys: list = []
    arities: list[int] = []
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            keys.append(-1 - t.vid)
            arities.append(0)
        else:
            keys.append(t.sym)
            arities.append(len(t.args))
            stack.extend(reversed(t.args))
    sizes = [0] * len(keys)
    for i in range(len(keys) - 1, -1, -1):
        end = i + 1
        for _ in range(arities[i]):
            end += sizes[end]
        sizes[i] = end - i
    return tuple(keys), tuple(sizes)


def tree_path(tag, terms) -> tuple:
    """The discrimination-tree path (tag, keys) of a term sequence, by a walk
    of its own: the pre-order keys with the variables numbered 0, 1, ... by
    first occurrence, None at a variable's first occurrence and ~n (that is
    -1 - n) at each later occurrence of the n-th variable."""
    keys, _ = preorder(terms)
    vids = [k for k in dict.fromkeys(keys) if k < 0]
    stored = []
    for i, k in enumerate(keys):
        if k >= 0:
            stored.append(k)
        else:
            stored.append(None if keys.index(k) == i else ~vids.index(k))
    return tag, tuple(stored)


def filed_paths(tree, c: Clause) -> tuple[tuple, ...]:
    """The paths (tag, keys) a discrimination tree files c under, in the
    order it filed them; () when c is not filed."""
    return tree._paths.get(c.cid, ())


def subterm_symbols(lits) -> set[int]:
    """The symbol of every non-variable subterm of the literals' arguments,
    by a walk of their own: what generation keys and target set-ups read
    before they read the stored walks."""
    symbols: set[int] = set()
    stack = [a for lit in lits for a in lit.args]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            symbols.add(t.sym)
            stack.extend(t.args)
    return symbols


# ---------------------------------------------------------------- ordering

def var_counts(term: Term) -> Counter:
    """Occurrences of each variable id in term."""
    counts: Counter = Counter()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t.vid] += 1
        else:
            stack.extend(t.args)
    return counts


def recount_kbo_greater(s: Term, t: Term) -> bool:
    """KBO's s > t as the prover decided it before the linear version: the
    same descent, with both sides' variables recounted at every level."""
    while True:
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return not s.ground and t.vid in term_vars(s)
        if not t.ground:
            if s.ground:
                return False
            sc, tc = var_counts(s), var_counts(t)
            if any(tc[v] > sc.get(v, 0) for v in tc):
                return False
        if s.weight != t.weight:
            return s.weight > t.weight
        if s.sym != t.sym:
            return _prec_greater(s.sym, len(s.args), t.sym, len(t.args))
        for sa, ta in zip(s.args, t.args):
            if sa != ta:
                s, t = sa, ta
                break
        else:
            return False


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


def _walk_ref(term: Term, bindings: dict) -> Term:
    while isinstance(term, Var):
        bound = bindings.get(term.vid)
        if bound is None:
            return term
        term = bound
    return term


def _occurs_ref(vid: int, term: Term, bindings: dict) -> bool:
    stack = [term]
    chased: set[int] = set()
    while stack:
        t = stack.pop()
        if type(t) is Var:
            if t.vid == vid:
                return True
            bound = bindings.get(t.vid)
            if bound is not None and t.vid not in chased:
                chased.add(t.vid)
                stack.append(bound)
        elif not t.ground:
            stack.extend(t.args)
    return False


def unify_pairs_ref(pairs) -> Optional[Substitution]:
    """terms.unify_pairs as it was before its binding walk was inlined:
    each side walked by a helper, a structural equality test on every pair,
    and an occurs check on every variable binding."""
    bindings: Substitution = {}
    stack = list(pairs)
    while stack:
        s, t = stack.pop()
        s = _walk_ref(s, bindings)
        t = _walk_ref(t, bindings)
        if s == t:
            continue
        if isinstance(s, Var):
            if _occurs_ref(s.vid, t, bindings):
                return None
            bindings[s.vid] = t
        elif isinstance(t, Var):
            if _occurs_ref(t.vid, s, bindings):
                return None
            bindings[t.vid] = s
        else:
            if s.sym != t.sym or len(s.args) != len(t.args):
                return None
            stack.extend(zip(s.args, t.args))
    return bindings


def match_pairs_ref(pairs, base: Optional[Substitution] = None) -> Optional[Substitution]:
    """terms.match_pairs as it was before its identity tests and type
    dispatch: isinstance tests and a structural comparison of every
    repeated binding."""
    bindings: Substitution = {} if base is None else dict(base)
    stack = list(pairs)
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = bindings.get(p.vid)
            if bound is None:
                bindings[p.vid] = t
            elif bound != t:
                return None
        elif p.ground:
            if p.weight != t.weight or p != t:
                return None
        else:
            if not isinstance(t, App) or p.sym != t.sym or len(p.args) != len(t.args):
                return None
            stack.extend(zip(p.args, t.args))
    return bindings
