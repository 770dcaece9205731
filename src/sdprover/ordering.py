"""Simplification ordering on terms, literals, and clauses.

The term ordering is a Knuth-Bendix ordering with every symbol weight 1 and
variable weight 1.  Precedence puts higher-arity symbols first and breaks
ties by declaration order (earlier declared symbols are greater).  Because a
symbol's arity is visible at every application node and symbol ids grow in
declaration order, comparisons need no signature handle.  A comparison is
linear in the size of both terms (Loechner, "Things to know when
implementing KBO", JAR 2006): variables are counted once, not per level.

Literal and clause comparisons return a partial-order verdict; INCOMPARABLE
means the order could not be certified, and every ordering side condition in
the calculus treats INCOMPARABLE as passing a "not greater" check.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from .terms import Term, Var, check_time

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


def _count_vars(terms, balance: dict[int, int], step: int) -> int:
    """Add step to balance[v] per occurrence of v in terms; returns the change
    in the number of negative entries.

    The walk visits every occurrence, so it takes time linear in the terms'
    weights, which can be exponential in their stored size (the instance
    of a triangular unifier shares its subterms): the run's deadline is
    checked every 1,024 applications walked."""
    change = 0
    stack = [t for t in terms if not t.ground]
    walked = 0
    while stack:
        t = stack.pop()
        if type(t) is Var:
            before = balance.get(t.vid, 0)
            balance[t.vid] = before + step
            change += (before + step < 0) - (before < 0)
        else:
            walked += 1
            if not walked & 1023:
                check_time()
            stack.extend(a for a in t.args if not a.ground)
    return change


def _kbo_greater(s: Term, t: Term) -> bool:
    # balance holds occurrences in s minus those in t, and the variable
    # condition holds when none is negative; against a ground t it always does
    counted = not t.ground
    balance: dict[int, int] = {}
    negative = _count_vars((s,), balance, 1) + _count_vars((t,), balance, -1) if counted else 0
    while True:
        if type(s) is Var:
            return False
        if type(t) is Var or negative:
            # s != t, so a variable t is smaller exactly when it occurs in s
            return not negative
        if s.weight != t.weight:
            return s.weight > t.weight
        if s.sym != t.sym:
            return _prec_greater(s.sym, len(s.args), t.sym, len(t.args))
        for i, (sa, ta) in enumerate(zip(s.args, t.args)):
            if sa != ta:
                break
        else:
            return False
        # the verdict is that of the first differing arguments: the ones
        # before them are equal and cancel, the ones after leave the balance
        if counted:
            negative += _count_vars(s.args[i + 1 :], balance, -1) + _count_vars(t.args[i + 1 :], balance, 1)
        s, t = sa, ta


def compare_terms(s: Term, t: Term) -> OrderResult:
    if s == t:
        return OrderResult.EQUAL
    if _kbo_greater(s, t):
        return OrderResult.GREATER
    if _kbo_greater(t, s):
        return OrderResult.LESS
    return OrderResult.INCOMPARABLE


def multiset_extension(xs: Sequence, ys: Sequence, cmp: Callable) -> OrderResult:
    """Multiset extension of a strict partial order cmp, whose EQUAL must
    mean == (as with compare_terms and compare_literals).

    Shared occurrences cancel first, by ==.  GREATER is certified when every
    remaining right element is dominated by some remaining left element,
    LESS the other way round.  A strict order has no cycle, so both cannot
    hold: LESS is tested only when GREATER fails, and the pairs compared
    for GREATER are kept, so no pair is compared twice.
    """
    left, right = list(xs), []
    for y in ys:
        if y in left:
            left.remove(y)
        else:
            right.append(y)
    if not (left and right):
        return OrderResult.LESS if right else OrderResult.GREATER if left else OrderResult.EQUAL
    table: dict[tuple[int, int], OrderResult] = {}
    for j, y in enumerate(right):
        for i, x in enumerate(left):
            table[i, j] = verdict = cmp(x, y)
            if verdict is OrderResult.GREATER:
                break
        else:
            break
    else:
        return OrderResult.GREATER
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            verdict = table.get((i, j))
            if (cmp(x, y) if verdict is None else verdict) is OrderResult.LESS:
                break
        else:
            return OrderResult.INCOMPARABLE
    return OrderResult.LESS


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
