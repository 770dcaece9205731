"""Multi-literal matching: the shared engine behind subsumption and
subsumption demodulation.

A solution instantiates the source clause so that part of it lands inside
the target clause: each matched source literal is assigned its own target
literal occurrence (pairwise distinct positions, multiset discipline), under
one consistent substitution that only instantiates source variables.

For subsumption every source literal must be matched.  For subsumption
demodulation exactly one positive equality of the source is left out of the
match and reserved as the rewriting equality; any positive equality may take
that role, so the enumeration branches between "reserve this equality" and
"match it like the rest".  Backtracking runs over source literals in order
of decreasing weight, and enumeration is exhaustive and duplicate-free, so
the generator resumes where the previous solution left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .clauses import Clause, Literal, _literal_pairings, rename_apart
from .terms import EMPTY_SUBST, Substitution, match_pairs


@dataclass(frozen=True)
class MLMatch:
    """One match of a source clause into a target clause.

    rewrite_eq_pos: source position of the reserved rewriting equality.
    subst: the partial substitution built from the matched literals.
    pairs: (source position, target position) for every matched literal.
    """

    rewrite_eq_pos: int
    subst: Substitution
    pairs: tuple[tuple[int, int], ...]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(j for _, j in self.pairs)


def _lits(clause_or_lits) -> tuple[Literal, ...]:
    if isinstance(clause_or_lits, Clause):
        return clause_or_lits.literals
    return tuple(clause_or_lits)


def literal_match_substs(pattern: Literal, target: Literal, base: Substitution) -> Iterator[Substitution]:
    """All ways to match one literal onto another, extending base.

    Equality atoms are tried in both argument orders; orientations that
    produce the same substitution are emitted once.
    """
    emitted = []
    for pairing in _literal_pairings(pattern, target):
        sub = match_pairs(pairing, base)
        if sub is not None and sub not in emitted:
            emitted.append(sub)
            yield sub


def match_solutions(
    source, target, *, reserve_equality: bool, limit: int = 0
) -> Iterator[MLMatch]:
    """Enumerate matches of source into target.

    With reserve_equality, each solution reserves exactly one positive
    equality of the source as the rewriting equality and matches everything
    else; otherwise all source literals are matched (plain subsumption).
    A positive limit caps the number of solutions enumerated.

    Source and target must not share variables; callers rename apart first.
    """
    src = _lits(source)
    dst = _lits(target)
    need = len(src) - (1 if reserve_equality else 0)
    if need > len(dst):
        return
    order = sorted(range(len(src)), key=lambda i: (-src[i].weight, i))
    # while no equality is reserved, the last positive equality in the order
    # must take that role: matching it instead cannot lead to a solution
    last_eq = -1
    if reserve_equality:
        last_eq = max((k for k, i in enumerate(order) if src[i].positive and src[i].is_equality), default=-1)
    compatible: dict[tuple[bool, Optional[int]], list[int]] = {}
    for j, dlit in enumerate(dst):
        compatible.setdefault((dlit.positive, dlit.pred), []).append(j)

    def search(k: int, subst: Substitution, used: frozenset[int], pairs, eq_pos: Optional[int]) -> Iterator[MLMatch]:
        if k == len(order):
            if not reserve_equality or eq_pos is not None:
                yield MLMatch(-1 if eq_pos is None else eq_pos, subst, tuple(sorted(pairs)))
            return
        i = order[k]
        lit = src[i]
        if reserve_equality and eq_pos is None and lit.positive and lit.is_equality:
            yield from search(k + 1, subst, used, pairs, i)
            if k == last_eq:
                return
        for j in compatible.get((lit.positive, lit.pred), ()):
            if j in used:
                continue
            for extended in literal_match_substs(lit, dst[j], subst):
                yield from search(k + 1, extended, used | {j}, pairs + [(i, j)], eq_pos)

    solutions = search(0, EMPTY_SUBST, frozenset(), [], None)
    yield from islice(solutions, limit) if limit else solutions


def subsumes(c, d) -> bool:
    """True when some instance of c is a sub-multiset of d."""
    src = _lits(c)
    dst = _lits(d)
    if len(src) > len(dst):
        return False
    src = rename_apart(src, dst)
    return next(match_solutions(src, dst, reserve_equality=False), None) is not None
