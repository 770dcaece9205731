"""Simplification and deletion rules over the active clause set.

Subsumption demodulation rewrites with a side premise that is an equality
plus extra literals; the extra literals must match, instantiated, into the
main premise.  Demodulation is the same rule with a unit side premise: one
engine serves both.  The main premise L[t] | D is replaced by L[r sigma] | D
when

  - some solution of the multi-literal matcher covers every side literal
    except one positive equality l = r (partial substitution sigma'),
  - a term t in a literal of the main premise outside the matched image
    extends sigma' to sigma with l sigma = t (either orientation),
  - l sigma is greater than r sigma, and
  - the literals of the main premise outside the matched image are greater,
    as a multiset, than the instantiated equality.

The last check is the cheap equivalent of demanding that the main premise
exceed the instantiated side premise: the matched image and the side
literals it instantiates cancel, leaving exactly this comparison.  With a
unit side premise the image is empty and the whole main premise must exceed
the instantiated equality.

Unit equalities rewrite forward only: backward subsumption demodulation
skips unit sides, so a new unit equality does not rewrite active clauses.

Replacement rewrites one occurrence per application; the saturation loop
re-applies to fixpoint.  Scan order is deterministic: candidate side
premises by ascending clause id, matcher solutions in enumeration order,
main literals left to right, subterms outermost first, the equality as
stored before its flip, first full pass wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .clauses import Clause, ClauseFactory, Literal, eq, orientations
from .clauses import rename_apart  # noqa: F401 - bound here for perfbench's tracer, which wraps it by name
from .index import BackwardIndex, FsdIndex
from .matching import match_solutions, subsumes
from .ordering import OrderResult, compare_literal_multisets, compare_terms
from .terms import App, Substitution, Term, apply_term, match_pairs, preorder_subterms, replace_at, term_vars


@dataclass(frozen=True)
class RewriteStep:
    """One validated rewrite of a main premise by a side premise equality.

    lit_pos/path locate the rewritten occurrence; subst is the full matching
    substitution over the side premise's own variables (X -> X bindings
    kept, since the main premise's variables are rigid); rhs_image replaces
    the occurrence.
    """

    side_cid: int
    lit_pos: int
    path: tuple[int, ...]
    subst: Substitution
    rhs_image: Term


def literal_occurrences(lit: Literal) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Non-variable subterm occurrences of a literal, outermost first.

    Paths start with the argument index.  Variable occurrences are skipped:
    no term is smaller than a variable, so they can never be rewritten.
    """
    for i, arg in enumerate(lit.args):
        for path, sub in preorder_subterms(arg, (i,)):
            if isinstance(sub, App):
                yield path, sub


def replace_in_literal(lit: Literal, path: tuple[int, ...], new: Term) -> Literal:
    args = list(lit.args)
    args[path[0]] = replace_at(args[path[0]], path[1:], new)
    return Literal(lit.positive, lit.pred, tuple(args))


def check_ordering_conditions(
    main: Clause, lhs_image: Term, rhs_image: Term, matched_image: frozenset[int]
) -> bool:
    """Orientation and redundancy checks for one candidate rewrite.

    The instantiated equality must be oriented left to right, and the main
    literals outside the matched image must exceed it as a multiset.  The
    multiset comparison is kept exact: when the equality instance itself
    occurs outside the image it cancels, and the remainder decides.
    """
    if compare_terms(lhs_image, rhs_image) is not OrderResult.GREATER:
        return False
    outside = [lit for i, lit in enumerate(main.literals) if i not in matched_image]
    return compare_literal_multisets(outside, [eq(lhs_image, rhs_image)]) is OrderResult.GREATER


def sd_rewrite_steps(side: Clause, main: Clause, match_limit: int = 0) -> Iterator[RewriteStep]:
    """Every validated rewrite of main by side, in scan order.

    Side and main are matched as stored.  An orientation whose right-hand
    side has a variable that neither its left-hand side nor the matched
    literals bind is skipped: that variable would stay in the replacement,
    and no term exceeds one holding a variable it lacks.
    """
    for m in match_solutions(side, main, reserve_equality=True, limit=match_limit):
        bound = m.subst
        usable = [
            (lhs, rhs)
            for lhs, rhs in orientations(side.literals[m.rewrite_eq_pos])
            if all(bound.get(v) is not None for v in term_vars(rhs) - term_vars(lhs))
        ]
        if not usable:
            continue
        image = m.image
        for lit_pos, lit in enumerate(main.literals):
            if lit_pos in image:
                continue
            for path, t in literal_occurrences(lit):
                for lhs, rhs in usable:
                    sigma = match_pairs([(lhs, t)], bound)
                    if sigma is None:
                        continue
                    rhs_image = apply_term(rhs, sigma)
                    if not check_ordering_conditions(main, t, rhs_image, image):
                        continue
                    yield RewriteStep(side.cid, lit_pos, path, sigma, rhs_image)


def sd_simplifications(side: Clause, main: Clause, match_limit: int = 0) -> Iterator[RewriteStep]:
    """All subsumption demodulation steps with the given side and main premise."""
    if len(side.literals) - 1 > len(main.literals):
        return iter(())
    if not any(l.positive and l.is_equality for l in side.literals):
        return iter(())
    return sd_rewrite_steps(side, main, match_limit)


def build_simplified_clause(main: Clause, step: RewriteStep, factory: ClauseFactory, rule: str) -> Clause:
    """Main premise with the rewritten occurrence replaced, minted with provenance."""
    lits = list(main.literals)
    lits[step.lit_pos] = replace_in_literal(lits[step.lit_pos], step.path, step.rhs_image)
    return factory.make(lits, rule=rule, parents=(main.cid, step.side_cid))


def _rewrite_once(
    side: Clause, main: Clause, factory: ClauseFactory, rule: str, match_limit: int = 0
) -> Optional[Clause]:
    step = next(sd_simplifications(side, main, match_limit), None)
    return None if step is None else build_simplified_clause(main, step, factory, rule)


def demodulate(unit: Clause, main: Clause, factory: ClauseFactory) -> Optional[Clause]:
    """Rewrite one occurrence in main with a unit equality, or None.

    Subsumption demodulation with a unit side premise, labelled
    demodulation in proofs.
    """
    return _rewrite_once(unit, main, factory, "demodulation")


def forward_subsumption_demodulation(
    d: Clause, ix: FsdIndex, factory: ClauseFactory, match_limit: int = 0
) -> Optional[Clause]:
    """Simplify d with the first applicable indexed side premise, or None."""
    for c in sorted(ix.retrieve_fsd_candidates(d), key=lambda c: c.cid):
        out = _rewrite_once(c, d, factory, "fsd", match_limit)
        if out is not None:
            return out
    return None


def backward_subsumption_demodulation(
    c: Clause, active: BackwardIndex, factory: ClauseFactory, match_limit: int = 0
) -> list[tuple[Clause, Clause]]:
    """Rewrite active clauses with side premise c; (old, new) per replacement."""
    if len(c.literals) < 2:
        return []
    out: list[tuple[Clause, Clause]] = []
    for d in sorted(active.retrieve_bsd_candidates(c), key=lambda d: d.cid):
        new = _rewrite_once(c, d, factory, "bsd", match_limit)
        if new is not None:
            out.append((d, new))
    return out


def forward_subsumption_delete(d: Clause, active: BackwardIndex) -> Optional[int]:
    """Id of an active clause subsuming d, or None."""
    for c in sorted(active.forward_subsumption_candidates(d), key=lambda c: c.cid):
        if len(c.literals) <= len(d.literals) and subsumes(c, d):
            return c.cid
    return None


def backward_subsumption_deletions(g: Clause, active: BackwardIndex) -> list[Clause]:
    """Active clauses subsumed by g, in ascending id order."""
    out = []
    for d in sorted(active.backward_subsumption_candidates(g), key=lambda d: d.cid):
        if len(g.literals) <= len(d.literals) and subsumes(g, d):
            out.append(d)
    return out
