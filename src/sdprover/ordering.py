"""Simplification ordering on terms, literals, and clauses.

The term ordering is a Knuth-Bendix ordering with every symbol weight 1 and
variable weight 1.  Precedence puts higher-arity symbols first and breaks
ties by declaration order (earlier declared symbols are greater).  Because a
symbol's arity is visible at every application node and symbol ids grow in
declaration order, comparisons need no signature handle.

Literal and clause comparisons return a partial-order verdict; INCOMPARABLE
means the order could not be certified, and every ordering side condition in
the calculus treats INCOMPARABLE as passing a "not greater" check.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from .terms import Term, Var, term_vars, var_counts

if TYPE_CHECKING:  # pragma: no cover
    from .clauses import Clause, Literal


class OrderResult(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _prec_greater(sym_a: int, arity_a: int, sym_b: int, arity_b: int) -> bool:
    if arity_a != arity_b:
        return arity_a > arity_b
    return sym_a < sym_b


def _kbo_greater(s: Term, t: Term) -> bool:
    # a loop, not recursion: with equal weights and symbols the verdict is
    # that of the first differing arguments, so the descent is a tail call
    while True:
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return not s.ground and t.vid in term_vars(s)
        if not t.ground:
            # the variable condition can only fail against a non-ground right side
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


def compare_terms(s: Term, t: Term) -> OrderResult:
    if s == t:
        return OrderResult.EQUAL
    if _kbo_greater(s, t):
        return OrderResult.GREATER
    if _kbo_greater(t, s):
        return OrderResult.LESS
    return OrderResult.INCOMPARABLE


def multiset_extension(xs: Sequence, ys: Sequence, cmp: Callable) -> OrderResult:
    """Multiset extension of a partial order given by cmp.

    Shared occurrences cancel first.  GREATER is certified when every
    remaining right element is dominated by some remaining left element.
    """
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
    greater = all(
        any(table[i, j] is OrderResult.GREATER for i in range(len(left)))
        for j in range(len(right))
    )
    less = all(
        any(table[i, j] is OrderResult.LESS for j in range(len(right)))
        for i in range(len(left))
    )
    if greater and not less:
        return OrderResult.GREATER
    if less and not greater:
        return OrderResult.LESS
    return OrderResult.INCOMPARABLE


def _eq_encoding(lit: "Literal") -> list[Term]:
    # s = t is the multiset {s, t}; s != t is {s, s, t, t}, which makes a
    # negative equality greater than its positive counterpart.
    lhs, rhs = lit.args
    if lit.positive:
        return [lhs, rhs]
    return [lhs, lhs, rhs, rhs]


def compare_literals(a: "Literal", b: "Literal") -> OrderResult:
    if a.is_equality != b.is_equality:
        # Any predicate literal is greater than any equality literal.
        return OrderResult.LESS if a.is_equality else OrderResult.GREATER
    if a.is_equality:
        return multiset_extension(_eq_encoding(a), _eq_encoding(b), compare_terms)
    atom_cmp = compare_terms(a.atom(), b.atom())
    if atom_cmp is not OrderResult.EQUAL:
        return atom_cmp
    if a.positive == b.positive:
        return OrderResult.EQUAL
    return OrderResult.LESS if a.positive else OrderResult.GREATER


def compare_literal_multisets(a: Sequence["Literal"], b: Sequence["Literal"]) -> OrderResult:
    return multiset_extension(tuple(a), tuple(b), compare_literals)


def compare_clauses(c1, c2) -> OrderResult:
    """Compare two clauses (or literal sequences) as literal multisets."""
    lits1 = c1.literals if hasattr(c1, "literals") else tuple(c1)
    lits2 = c2.literals if hasattr(c2, "literals") else tuple(c2)
    return compare_literal_multisets(lits1, lits2)
