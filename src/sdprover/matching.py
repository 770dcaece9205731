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

Source and target are matched as stored, with no renaming: the target's
variables are rigid constants, and substitutions keep X -> X bindings, so a
source variable that shares an id with a target variable is still a
variable of its own.  The set-up each side needs (the source's literal order,
the target's table of compatible literals) is computed once per clause
object and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .clauses import Clause, Literal, _literal_pairings
from .clauses import rename_apart  # noqa: F401 - bound here for perfbench's tracer, which wraps it by name
from .terms import EMPTY_SUBST, Substitution, match_pairs


@dataclass(frozen=True)
class MLMatch:
    """One match of a source clause into a target clause.

    rewrite_eq_pos: source position of the reserved rewriting equality.
    subst: the partial substitution built from the matched literals; it
        binds source variables only and keeps X -> X bindings.
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


def _source_order(src: tuple[Literal, ...]) -> tuple[tuple[int, ...], int]:
    """Source positions by decreasing weight, leftmost on ties, and the
    place in that order of the last positive equality (-1 if none)."""
    order = tuple(sorted(range(len(src)), key=lambda i: (-src[i].weight, i)))
    last_eq = max((k for k, i in enumerate(order) if src[i].positive and src[i].is_equality), default=-1)
    return order, last_eq


def _target_table(dst: tuple[Literal, ...]) -> dict[tuple[bool, Optional[int]], tuple[int, ...]]:
    """Target positions by (polarity, predicate), ascending."""
    table: dict[tuple[bool, Optional[int]], list[int]] = {}
    for j, dlit in enumerate(dst):
        table.setdefault((dlit.positive, dlit.pred), []).append(j)
    return {key: tuple(js) for key, js in table.items()}


def _set_up(clause_or_lits, slot: str, build):
    """build(literals), kept in the clause's slot after the first call."""
    if not isinstance(clause_or_lits, Clause):
        return build(tuple(clause_or_lits))
    stored = getattr(clause_or_lits, slot)
    if stored is None:
        stored = build(clause_or_lits.literals)
        object.__setattr__(clause_or_lits, slot, stored)
    return stored


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

    Source and target may share variable ids.  Target variables are rigid,
    and each solution's substitution binds source variables only, keeping
    X -> X bindings; apply it to source terms, never to target terms.
    """
    src = _lits(source)
    dst = _lits(target)
    need = len(src) - (1 if reserve_equality else 0)
    if need > len(dst):
        return
    order, last_eq = _set_up(source, "_match_order", _source_order)
    compatible = _set_up(target, "_match_table", _target_table)

    def search(k: int, subst: Substitution, used: frozenset[int], pairs, eq_pos: Optional[int]) -> Iterator[MLMatch]:
        if k == len(order):
            if not reserve_equality or eq_pos is not None:
                yield MLMatch(-1 if eq_pos is None else eq_pos, subst, tuple(sorted(pairs)))
            return
        i = order[k]
        lit = src[i]
        if reserve_equality and eq_pos is None and lit.positive and lit.is_equality:
            yield from search(k + 1, subst, used, pairs, i)
            # while no equality is reserved, the last positive equality in
            # the order must take that role: matching it cannot succeed
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
    if len(c) > len(d):
        return False
    return next(match_solutions(c, d, reserve_equality=False), None) is not None
