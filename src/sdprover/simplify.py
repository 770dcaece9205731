"""Simplification and deletion rules over the active clause set.

Subsumption demodulation rewrites with a side premise that is an equality
plus extra literals; the extra literals must match, instantiated, into the
main premise.  Demodulation is the same rule with a unit side premise: one
engine serves both, and a unit side's one match, with nothing to search
for, is made here rather than in the matcher.  The main premise L[t] | D
is replaced by L[r sigma] | D when

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

Screens in front of the matcher and the site scan leave out only work that
cannot yield a step, so the steps and their order are those of the full
scan:

  - each positive equality of a side premise is oriented once per clause
    object (matching.source_set_up).  KBO is stable under substitution, so
    an orientation whose sides compare LESS or EQUAL never rewrites and is
    dropped, and one that compares GREATER needs no comparison per instance;
  - the indexes retrieve a side premise for a main premise only when the
    main premise contains the top symbol of some left-hand side of the
    side that can rewrite (no screen when one of them is a variable):
    demodulators by a left-hand side that generalizes a subterm
    (index.FsdIndex.demodulators), the other side premises by their
    trigger symbols (index.FsdIndex.retrieve_fsd_candidates and
    index.BackwardIndex.retrieve_bsd_candidates), so the matcher starts
    on no other pair;
  - those retrievals check repeated variables, so a unit's left-hand side,
    or an active clause's literal for forward subsumption, comes back
    only when it matches the query as a term;
  - the main premise's non-variable occurrences are listed once per call,
    not once per matcher solution, and a non-variable left-hand side is
    matched only at occurrences of its own top symbol.

The redundancy check compares multisets only at an occurrence that is a
whole side of a positive equality.  Anywhere else the rewritten literal,
which is in the remainder, exceeds l sigma = r sigma by itself: a predicate
literal beats any equality, and a strict superterm of t, or the second t of
a negative equality's encoding {t, t, w, w}, dominates t and r sigma.
There only an INCOMPARABLE orientation is compared, t against r sigma.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .clauses import Clause, ClauseFactory, eq, literal_occurrences, replace_in_literal
from .clauses import rename_apart  # noqa: F401 - bound here for perfbench's tracer, which wraps it by name
from .index import BackwardIndex, FsdIndex
from .matching import MLMatch, match_solutions, source_set_up, subsumes
from .ordering import OrderResult, compare_literal_multisets, compare_terms
from .terms import App, Substitution, Term, apply_term, match_pairs


class RewriteStep(NamedTuple):
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


def remainder_exceeds(main: Clause, lhs_image: Term, rhs_image: Term, matched_image: frozenset[int]) -> bool:
    """The redundancy check alone: the main literals outside the matched image
    exceed the instantiated equality as a multiset.

    The comparison is kept exact: when the equality instance itself occurs
    outside the image it cancels, and the remainder decides.
    """
    outside = [lit for i, lit in enumerate(main.literals) if i not in matched_image]
    return compare_literal_multisets(outside, [eq(lhs_image, rhs_image)]) is OrderResult.GREATER


def sd_simplifications(side: Clause, main: Clause) -> Iterator[RewriteStep]:
    """Every subsumption demodulation step with the given side and main premise, in scan order.

    Side and main are matched as stored.  An orientation whose right-hand
    side has a variable that neither its left-hand side nor the matched
    literals bind is skipped: that variable would stay in the replacement,
    and no term exceeds one holding a variable it lacks.  A unit side has
    exactly one match, its equality reserved with nothing bound and no
    image, so that match is made here: the matcher starts only for a side
    of two or more literals.
    """
    _, last_eq, equations, _, _ = source_set_up(side)
    if last_eq < 0:
        return
    unit = len(side.literals) == 1
    matches = (MLMatch(0, {}, frozenset()),) if unit else match_solutions(side, main, reserve_equality=True)
    occurrences: Optional[list[list[tuple[tuple[int, ...], Term]]]] = None  # per main literal
    for m in matches:
        bound = m.subst
        usable = [
            o
            for o in equations[m.rewrite_eq_pos]
            if o.verdict is not OrderResult.EQUAL and all(bound.get(v) is not None for v in o.extra_vars)
        ]
        if not usable:
            continue
        if occurrences is None:
            occurrences = [list(literal_occurrences(lit)) for lit in main.literals]
        for lit_pos, occs in enumerate(occurrences):
            if lit_pos in m.image:
                continue
            positive_equality = main.literals[lit_pos].positive and main.literals[lit_pos].is_equality
            for path, t in occs:
                for o in usable:
                    if type(o.lhs) is App and o.lhs.sym != t.sym:
                        continue
                    sigma = match_pairs([(o.lhs, t)], bound)
                    if sigma is None:
                        continue
                    rhs_image = apply_term(o.rhs, sigma)
                    if o.verdict is not OrderResult.GREATER and compare_terms(t, rhs_image) is not OrderResult.GREATER:
                        continue
                    if positive_equality and len(path) == 1 and not remainder_exceeds(main, t, rhs_image, m.image):
                        continue
                    yield RewriteStep(side.cid, lit_pos, path, sigma, rhs_image)


def build_simplified_clause(main: Clause, step: RewriteStep, factory: ClauseFactory, rule: str) -> Clause:
    """Main premise with the rewritten occurrence replaced, minted with provenance."""
    lits = list(main.literals)
    lits[step.lit_pos] = replace_in_literal(lits[step.lit_pos], step.path, step.rhs_image)
    return factory.make(lits, rule=rule, parents=(main.cid, step.side_cid))


def _rewrite_once(side: Clause, main: Clause, factory: ClauseFactory, rule: str) -> Optional[Clause]:
    step = next(sd_simplifications(side, main), None)
    return None if step is None else build_simplified_clause(main, step, factory, rule)


def demodulate(unit: Clause, main: Clause, factory: ClauseFactory) -> Optional[Clause]:
    """Rewrite one occurrence in main with a unit equality, or None.

    Subsumption demodulation with a unit side premise, labelled
    demodulation in proofs.
    """
    return _rewrite_once(unit, main, factory, "demodulation")


def forward_subsumption_demodulation(d: Clause, ix: FsdIndex, factory: ClauseFactory) -> Optional[Clause]:
    """Simplify d with the first applicable indexed side premise, or None."""
    for c in sorted(ix.retrieve_fsd_candidates(d), key=lambda c: c.cid):
        out = _rewrite_once(c, d, factory, "fsd")
        if out is not None:
            return out
    return None


def backward_subsumption_demodulation(
    c: Clause, active: BackwardIndex, factory: ClauseFactory
) -> list[tuple[Clause, Clause]]:
    """Rewrite active clauses with side premise c; (old, new) per replacement."""
    if len(c.literals) < 2:
        return []
    out: list[tuple[Clause, Clause]] = []
    for d in sorted(active.retrieve_bsd_candidates(c), key=lambda d: d.cid):
        new = _rewrite_once(c, d, factory, "bsd")
        if new is not None:
            out.append((d, new))
    return out


def forward_subsumption_delete(d: Clause, active: BackwardIndex) -> Optional[int]:
    """Id of an active clause subsuming d, or None."""
    for c in sorted(active.forward_subsumption_candidates(d), key=lambda c: c.cid):
        if subsumes(c, d):
            return c.cid
    return None


def backward_subsumption_deletions(g: Clause, active: BackwardIndex) -> list[Clause]:
    """Active clauses subsumed by g, in ascending id order."""
    out = []
    for d in sorted(active.backward_subsumption_candidates(g), key=lambda d: d.cid):
        if subsumes(g, d):
            out.append(d)
    return out
