"""Literals, clauses, normalization, and literal selection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import App, Signature, SignatureError, Substitution, Term, Var, apply_term, shift_vars


@dataclass(frozen=True, slots=True, eq=False)
class Literal:
    """A literal: a possibly negated predicate atom or equality atom.

    Equality atoms (pred is None) are unordered pairs for identity purposes:
    s = t and t = s compare equal and hash alike.
    """

    positive: bool
    pred: Optional[int]
    args: tuple[Term, ...]
    weight: int = field(init=False, compare=False, repr=False)
    _atom: Optional[Term] = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", 1 + sum(a.weight for a in self.args))

    @property
    def is_equality(self) -> bool:
        return self.pred is None

    def atom(self) -> Term:
        """The predicate atom as a term, built once per literal object."""
        cached = self._atom
        if cached is None:
            cached = App(self.pred, self.args)
            object.__setattr__(self, "_atom", cached)
        return cached

    @property
    def lhs(self) -> Term:
        return self.args[0]

    @property
    def rhs(self) -> Term:
        return self.args[1]

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        if self.positive != other.positive or self.pred != other.pred:
            return False
        if self.pred is None:
            a, b = self.args
            c, d = other.args
            return (a == c and b == d) or (a == d and b == c)
        return self.args == other.args

    def __hash__(self) -> int:
        if self.pred is None:
            return hash((self.positive, hash(self.args[0]) ^ hash(self.args[1])))
        return hash((self.positive, self.pred, self.args))

    def __repr__(self) -> str:
        if self.pred is None:
            op = "=" if self.positive else "!="
            return f"{self.args[0]!r} {op} {self.args[1]!r}"
        sign = "" if self.positive else "~"
        if not self.args:
            return f"{sign}p{self.pred}"
        return f"{sign}p{self.pred}({', '.join(map(repr, self.args))})"


def eq(lhs: Term, rhs: Term) -> Literal:
    return Literal(True, None, (lhs, rhs))


def neq(lhs: Term, rhs: Term) -> Literal:
    return Literal(False, None, (lhs, rhs))


def orientations(lit: Literal) -> Iterator[tuple[Term, Term]]:
    """The sides of an equality as stored, then flipped unless they coincide."""
    lhs, rhs = lit.args
    yield lhs, rhs
    if lhs != rhs:
        yield rhs, lhs


@dataclass(frozen=True, slots=True)
class PredicateSymbol:
    """Interned predicate symbol; calling it builds a positive literal."""

    sid: int
    arity: int
    name: str

    def __call__(self, *args: Term) -> Literal:
        if len(args) != self.arity:
            raise SignatureError(
                f"predicate {self.name!r} takes {self.arity} arguments, got {len(args)}"
            )
        return Literal(True, self.sid, tuple(args))


def predicate(sig: Signature, name: str, arity: int) -> PredicateSymbol:
    sid = sig.intern(name, arity, "predicate")
    return PredicateSymbol(sid, arity, name)


@dataclass(frozen=True, slots=True, eq=False)
class Clause:
    """A multiset of literals with provenance.

    Clause objects compare by identity; use Counter(c.literals) or variant()
    for content comparisons.  Duplicate literals are preserved.

    nvars is one past the largest variable id; ClauseFactory numbers
    variables 0, 1, ..., so it is the clause's variable count.  The slots
    after it hold work done once per clause object: the literal selection
    and the multi-literal matcher's set-up as source and as target.
    """

    literals: tuple[Literal, ...]
    cid: int
    rule: str = "input"
    parents: tuple[int, ...] = ()
    nvars: int = 0
    _selected: Optional[tuple[int, ...]] = field(init=False, default=None, compare=False, repr=False)
    _match_order: Optional[tuple] = field(init=False, default=None, compare=False, repr=False)
    _match_table: Optional[dict] = field(init=False, default=None, compare=False, repr=False)

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def weight(self) -> int:
        return sum(lit.weight for lit in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        if not self.literals:
            return f"<{self.cid}: $false>"
        return f"<{self.cid}: {' | '.join(map(repr, self.literals))}>"


Expression = Union[Term, Literal, tuple]


def apply(expr: Expression, subst: Substitution):
    """Apply a substitution to a term, literal, or literal tuple."""
    if isinstance(expr, (Var, App)):
        return apply_term(expr, subst)
    if isinstance(expr, Literal):
        return Literal(expr.positive, expr.pred, tuple(apply_term(a, subst) for a in expr.args))
    return tuple(apply(lit, subst) for lit in expr)


def _literal_pairings(a: Literal, b: Literal):
    """Ways to align the argument tuples of two compatible literals."""
    if a.positive != b.positive or a.pred != b.pred or len(a.args) != len(b.args):
        return
    yield tuple(zip(a.args, b.args))
    if a.pred is None:
        swapped = tuple(zip(a.args, (b.args[1], b.args[0])))
        if swapped != tuple(zip(a.args, b.args)):
            yield swapped


def canonical_literals(literals: Sequence[Literal]) -> tuple[Literal, ...]:
    """Rename variables to 0, 1, ... in order of first occurrence."""
    return _canonical(literals)[0]


def _canonical(literals: Sequence[Literal]) -> tuple[tuple[Literal, ...], int]:
    """Canonical literals and their variable count."""
    mapping: dict[int, Term] = {}

    def walk(term: Term) -> None:
        if isinstance(term, Var):
            if term.vid not in mapping:
                mapping[term.vid] = Var(len(mapping))
        elif not term.ground:
            for a in term.args:
                walk(a)

    for lit in literals:
        for a in lit.args:
            walk(a)
    sub = Substitution(mapping)
    return tuple(apply(lit, sub) for lit in literals), len(mapping)


def rename_apart(clause: Clause, away_from: Clause) -> tuple[Literal, ...]:
    """clause's literals with its variables shifted past those of away_from.

    The shift is away_from's stored variable count, so no term is scanned
    to find it; ground literals come back as they are.
    """
    offset = away_from.nvars
    if not offset or not clause.nvars:
        return clause.literals
    return tuple(
        Literal(lit.positive, lit.pred, tuple(shift_vars(a, offset) for a in lit.args))
        for lit in clause.literals
    )


class ClauseFactory:
    """Mints normalized clauses with unique ids and keeps a registry.

    Every clause ever created stays in the registry so proofs can be
    reconstructed after simplification deletes clauses from the search state.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.registry: dict[int, Clause] = {}

    @property
    def created(self) -> int:
        return len(self.registry)

    def make(self, literals: Iterable[Literal], rule: str = "input", parents: tuple[int, ...] = ()) -> Clause:
        lits, nvars = _canonical(tuple(literals))
        clause = Clause(lits, next(self._counter), rule, parents, nvars)
        self.registry[clause.cid] = clause
        return clause


def select(clause: Clause) -> tuple[int, ...]:
    """Positions of the selected literals, computed once per clause object.

    If the clause has a negative literal, select exactly one: a negative
    literal of maximal weight, leftmost on ties.  Otherwise select all
    maximal literals under the literal ordering.
    """
    if clause._selected is None:
        object.__setattr__(clause, "_selected", _select(clause.literals))
    return clause._selected


def _select(lits: tuple[Literal, ...]) -> tuple[int, ...]:
    from .ordering import OrderResult, compare_literals

    negatives = [i for i, lit in enumerate(lits) if not lit.positive]
    if negatives:
        best = max(negatives, key=lambda i: (lits[i].weight, -i))
        return (best,)
    # scan likely dominators first so non-maximal literals fail fast
    by_rank = sorted(range(len(lits)), key=lambda j: (lits[j].is_equality, -lits[j].weight))
    maximal = []
    for i, lit in enumerate(lits):
        if any(
            compare_literals(lits[j], lit) is OrderResult.GREATER
            for j in by_rank
            if j != i
        ):
            continue
        maximal.append(i)
    return tuple(maximal)


def variant(lits_a: Sequence[Literal], lits_b: Sequence[Literal]) -> bool:
    """True if the literal multisets are equal up to variable renaming."""
    a, b = tuple(lits_a), tuple(lits_b)
    if len(a) != len(b):
        return False
    return _variant_search(a, b, 0, set(), {}, {})


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
    lit = a[i]
    for j, other in enumerate(b):
        if j in used:
            continue
        for pairs in _literal_pairings(lit, other):
            maps = (fwd, bwd)
            ok = True
            for p, t in pairs:
                res = _rename_match(p, t, maps[0], maps[1])
                if res is None:
                    ok = False
                    break
                maps = res
            if ok and _variant_search(a, b, i + 1, used | {j}, maps[0], maps[1]):
                return True
    return False
