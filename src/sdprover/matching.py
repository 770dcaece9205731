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
"match it like the rest".  Matched literals land on distinct target
literals of their own polarity and predicate, so there is no solution when
the target has fewer literals than the source under some (polarity,
predicate) key, a reserved equality needing one positive equality fewer.
That count screen ends such a pair, a pigeonhole search otherwise, before
the search starts, for subsumption and subsumption demodulation alike.  So
does the ground screen: a ground source literal matches only a target
literal equal to it, so there is no solution when one has none, unless it
is a positive equality that a reserved equality may leave out.

Backtracking runs over source literals in order of decreasing weight, on
an explicit stack of per-level iterators rather than one recursive call
per literal, so a clause of any width gets an answer; enumeration is
exhaustive and duplicate-free, and the generator resumes where the
previous solution left off.  That stack is the one search path, for a
one-literal source as for any other.  A ground source literal matches
exactly the target literals equal to it, binding nothing, so it goes only
to their positions, read off the target's set-up.  Nothing caps the number
of solutions: the run's deadline, checked every few hundred search nodes,
is the one bound on a search, and it also stops one that finds nothing.

Source and target are matched as stored, with no renaming: the target's
variables are rigid constants, and substitutions keep X -> X bindings, so a
source variable that shares an id with a target variable is still a
variable of its own.  The set-up each side needs is computed once per
clause object and kept on it: as a source, the literal order, its distinct
ground literals, the literal count per key, and each positive equality
oriented as a rewrite rule together with the top symbols it can rewrite
(SourceSetUp, which superposition reads too); as a target, the table of
compatible literals, the symbols that occur, read off the clause's stored
literal walks (clauses.literal_walks), not off a walk of its own, and the
positions of each ground literal, filled when a ground source literal
first needs them (TargetSetUp).  Subsumption demodulation screens a pair
on those symbols before it starts the matcher.  Both set-ups go with the
search's clause object; the factory's registry keeps a copy without them.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from . import ordering  # compare_terms is looked up on the module, where perfbench's tracer counts it
from .clauses import Clause, Literal, literal_walks, orientations
from .clauses import rename_apart  # noqa: F401 - bound here for perfbench's tracer, which wraps it by name
from .ordering import OrderResult
from .terms import Substitution, Term, Var, check_time, match_pairs, term_vars


class MLMatch(NamedTuple):
    """One match of a source clause into a target clause.

    rewrite_eq_pos: source position of the reserved rewriting equality
        (-1 without one).
    subst: the partial substitution built from the matched literals; it
        binds source variables only and keeps X -> X bindings.
    image: the target positions the matched source literals landed on.
    """

    rewrite_eq_pos: int
    subst: Substitution
    image: frozenset[int]


class Orientation(NamedTuple):
    """A positive equality of a clause read as the rewrite rule lhs -> rhs.

    verdict is compare_terms(lhs, rhs).  KBO is stable under substitution,
    so GREATER, LESS and EQUAL hold for every instance as well; only
    INCOMPARABLE leaves an instance to be compared.
    """

    lhs: Term
    rhs: Term
    verdict: OrderResult
    extra_vars: tuple[int, ...]  # variables of rhs that lhs lacks


class SourceSetUp(NamedTuple):
    """What a clause needs as the source of a match, or as a rewriting side.

    order: source positions by decreasing weight, leftmost on ties.
    last_eq: the place in order of the last positive equality (-1 if none).
    equations: per literal position, a positive equality's orientations as
        orientations() gives them, less those whose verdict is LESS (no
        instance of them is oriented); () for any other literal.
    triggers: the top symbols of the left-hand sides that can rewrite
        (verdict GREATER or INCOMPARABLE), or None when one of them is a
        variable.  A rewrite needs one of them at a non-variable position
        of the main premise.
    ground: the distinct ground literals, in order of first occurrence
        (() when there are none); the matcher then reads the target's
        ground positions.
    counts: (key, number of literals) for each (polarity, predicate) key.
    """

    order: tuple[int, ...]
    last_eq: int
    equations: tuple[tuple[Orientation, ...], ...]
    triggers: Optional[tuple[int, ...]]
    ground: tuple[Literal, ...]
    counts: tuple[tuple[tuple[bool, Optional[int]], int], ...]


class TargetSetUp(NamedTuple):
    """What a clause needs as the target of a match.

    table: target positions by (polarity, predicate), ascending.
    symbols: the symbol of every non-variable subterm of the literals'
        arguments, each once (a tuple: it is short, and kept on every
        target clause).
    ground: target positions by ground literal, ascending, or None until
        a ground source literal first needs them (_ground_positions): many
        target set-ups serve only the trigger screens' symbols, or a count
        screen that ends the search at once.
    """

    table: dict[tuple[bool, Optional[int]], list[int]]
    symbols: tuple[int, ...]
    ground: Optional[dict[Literal, list[int]]]


_FLIPPED = {OrderResult.GREATER: OrderResult.LESS, OrderResult.LESS: OrderResult.GREATER}


def _orientations(lit: Literal) -> tuple[Orientation, ...]:
    verdict = ordering.compare_terms(lit.lhs, lit.rhs)
    verdicts = (verdict, _FLIPPED.get(verdict, verdict))
    out = []
    for (lhs, rhs), verdict in zip(orientations(lit), verdicts):
        if verdict is not OrderResult.LESS:
            out.append(Orientation(lhs, rhs, verdict, tuple(term_vars(rhs) - term_vars(lhs))))
    return tuple(out)


def _source_set_up(src: tuple[Literal, ...]) -> SourceSetUp:
    # heaviest first; the sort is stable, so ties go leftmost first
    order = tuple(sorted(range(len(src)), key=[-lit.weight for lit in src].__getitem__))
    last_eq = max((k for k, i in enumerate(order) if src[i].positive and src[i].is_equality), default=-1)
    equations = tuple(_orientations(lit) if lit.positive and lit.is_equality else () for lit in src)
    triggers: Optional[set[int]] = set()
    for o in chain.from_iterable(equations):
        if o.verdict is OrderResult.EQUAL:
            continue
        if type(o.lhs) is Var:
            triggers = None
            break
        triggers.add(o.lhs.sym)
    counts: dict[tuple[bool, Optional[int]], int] = {}
    for lit in src:
        key = lit.positive, lit.pred
        counts[key] = counts.get(key, 0) + 1
    return SourceSetUp(
        order,
        last_eq,
        equations,
        None if triggers is None else tuple(sorted(triggers)),
        tuple(dict.fromkeys(lit for lit in src if lit.ground)),
        tuple(counts.items()),
    )


def _target_set_up(clause: Clause) -> TargetSetUp:
    table: dict[tuple[bool, Optional[int]], list[int]] = {}
    for j, dlit in enumerate(clause.literals):
        table.setdefault((dlit.positive, dlit.pred), []).append(j)
    symbols: set[int] = set()
    for keys, _ in literal_walks(clause):
        symbols.update(keys)
    ordered = sorted(symbols)
    # a variable's key is negative, so the variables sort first
    return TargetSetUp(table, tuple(ordered[bisect_left(ordered, 0):]), None)


def source_set_up(clause: Clause) -> SourceSetUp:
    """The clause's set-up as a source, computed on the first call and kept on it."""
    stored = clause._match_order
    if stored is None:
        stored = clause._match_order = _source_set_up(clause.literals)
    return stored


def target_set_up(clause: Clause) -> TargetSetUp:
    """The clause's set-up as a target, computed on the first call and kept on it."""
    stored = clause._match_table
    if stored is None:
        stored = clause._match_table = _target_set_up(clause)
    return stored


def _ground_positions(clause: Clause) -> dict[Literal, list[int]]:
    """The clause's positions by ground literal, ascending: the ground field
    of its target set-up, which the first call fills by replacing the
    set-up kept on the clause."""
    stored = target_set_up(clause)
    if stored.ground is None:
        ground: dict[Literal, list[int]] = {}
        for j, lit in enumerate(clause.literals):
            if lit.ground:
                ground.setdefault(lit, []).append(j)
        stored = clause._match_table = stored._replace(ground=ground)
    return stored.ground


def literal_match_substs(pattern: Literal, target: Literal, base: Substitution) -> Iterator[Substitution]:
    """All ways to match one literal onto another, extending base.

    The two literals must have the same polarity and predicate, which is
    not tested here: the matcher passes only targets from the table of
    its target set-up under the pattern's (polarity, predicate) key.
    Equality atoms are tried in both argument orders, the swapped one only
    when the target's sides differ.  Then no substitution comes twice: it
    would have to send the pattern's one side to both of them.
    """
    sub = match_pairs(zip(pattern.args, target.args), base)
    if sub is not None:
        yield sub
    if pattern.pred is None and target.args[0] != target.args[1]:
        sub = match_pairs(((pattern.args[0], target.args[1]), (pattern.args[1], target.args[0])), base)
        if sub is not None:
            yield sub


def match_solutions(source: Clause, target: Clause, *, reserve_equality: bool) -> Iterator[MLMatch]:
    """Enumerate matches of source into target.

    With reserve_equality, each solution reserves exactly one positive
    equality of the source as the rewriting equality and matches everything
    else; otherwise all source literals are matched (plain subsumption).
    A pair that fails the count screen or the ground screen (see the module
    docstring) yields nothing before the search starts.  The run's
    deadline is the only bound on the search: it is checked every 256
    search nodes, so a search that finds nothing still stops there.

    Source and target may share variable ids.  Target variables are rigid,
    and each solution's substitution binds source variables only, keeping
    X -> X bindings; apply it to source terms, never to target terms.
    """
    src = source.literals
    dst = target.literals
    order, last_eq, _, _, ground_lits, counts = source_set_up(source)
    compatible = target_set_up(target).table
    # the count screen: the key a reserved equality leaves one literal short
    reserved = (True, None) if reserve_equality else None
    for key, n in counts:
        if len(compatible.get(key, ())) < n - (key == reserved):
            return
    ground = _ground_positions(target) if ground_lits else {}
    # the ground screen: a ground literal with no equal target literal
    for lit in ground_lits:
        if lit not in ground and (lit.positive, lit.pred) != reserved:
            return

    def children(k: int, subst: Substitution, eq_pos: Optional[int]):
        # the states of level k, in enumeration order: (subst, the target
        # position the state takes or -1, eq_pos)
        i = order[k]
        lit = src[i]
        if reserve_equality and eq_pos is None and lit.positive and lit.is_equality:
            yield subst, -1, i
            # while no equality is reserved, the last positive equality in
            # the order must take that role: matching it cannot succeed
            if k == last_eq:
                return
        if lit.ground:
            # matched exactly by an equal literal, binding nothing
            for j in ground.get(lit, ()):
                if j not in used:
                    yield subst, j, eq_pos
            return
        for j in compatible.get((lit.positive, lit.pred), ()):
            if j in used:
                continue
            for extended in literal_match_substs(lit, dst[j], subst):
                yield extended, j, eq_pos

    nodes = 0
    # the current path: stack[k] enumerates the states of level k, taken[k]
    # is the target position its current state took (-1: none), and used
    # holds those positions; the path starts empty, with nothing bound
    stack: list[Iterator[tuple[Substitution, int, Optional[int]]]] = []
    taken: list[int] = []
    used: set[int] = set()
    subst: Substitution = {}
    eq_pos: Optional[int] = None
    while True:
        # a full path is a solution; a shorter one goes a level down
        if len(stack) < len(order):
            stack.append(children(len(stack), subst, eq_pos))
            taken.append(-1)
        elif not reserve_equality or eq_pos is not None:
            yield MLMatch(-1 if eq_pos is None else eq_pos, subst, frozenset(used))
        # the next state comes from the deepest level that has one left; a
        # level that advances or is popped frees its last state's position
        while stack:
            used.discard(taken[-1])
            state = next(stack[-1], None)
            if state is not None:
                break
            stack.pop()
            taken.pop()
        else:
            return
        nodes += 1
        if nodes % 256 == 0:
            check_time()
        subst, j, eq_pos = state
        taken[-1] = j
        if j >= 0:
            used.add(j)


def subsumes(c: Clause, d: Clause) -> bool:
    """True when some instance of c is a sub-multiset of d."""
    return next(match_solutions(c, d, reserve_equality=False), None) is not None

