"""Literals, clauses, normalization, and literal selection."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .ordering import OrderResult, compare_literals
from .terms import (
    App,
    Signature,
    SignatureError,
    Substitution,
    Term,
    Var,
    check_time,
    instantiate,
    make_app,
    make_var,
    preorder_subterms,
    replace_at,
)


class Literal:
    """A literal: a possibly negated predicate atom or equality atom.

    A slotted class, immutable by convention: only __init__ assigns its
    attributes, apart from the atom that atom() builds once and keeps.
    Equality atoms (pred is None) are unordered pairs for identity purposes:
    s = t and t = s compare equal and hash alike, on their sides' hashes
    smaller first, so s = s and t = t hash apart.  The hash, whether it is
    an equality, the weight and whether it is ground are computed at
    construction, the last two in one loop, as App's are: clauses, selection
    and the indexes read them far more often than they build literals.
    """

    __slots__ = ("positive", "pred", "args", "is_equality", "weight", "ground", "_hash", "_atom")

    def __init__(self, positive: bool, pred: Optional[int], args: tuple[Term, ...]) -> None:
        self.positive = positive
        self.pred = pred
        self.args = args
        self.is_equality = pred is None
        weight = 1
        ground = True
        for a in args:
            weight += a.weight
            if not a.ground:
                ground = False
        self.weight = weight
        self.ground = ground
        if pred is None:
            left, right = hash(args[0]), hash(args[1])
            self._hash = hash((positive, left, right) if left < right else (positive, right, left))
        else:
            self._hash = hash((positive, pred, args))
        self._atom: Optional[Term] = None

    def atom(self) -> Term:
        """The predicate atom as a term, built once per literal object
        (by make_app, so shared within a run)."""
        cached = self._atom
        if cached is None:
            cached = self._atom = make_app(self.pred, self.args)
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
        if self._hash != other._hash or self.positive != other.positive or self.pred != other.pred:
            return False
        if self.pred is None:
            a, b = self.args
            c, d = other.args
            return (a == c and b == d) or (a == d and b == c)
        return self.args == other.args

    def __hash__(self) -> int:
        return self._hash

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


class PredicateSymbol(NamedTuple):
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


class Clause:
    """A multiset of literals with provenance.

    Clause objects compare by identity; compare contents through the
    literals, Counter(c.literals) for multisets.  The factory mints them in
    canonical form, so two minted variants that list their literals in the
    same order have equal literal tuples.  Duplicate literals are preserved.

    A slotted class, immutable by convention: only __init__ assigns it,
    except the caches in the slots after parents.  They hold work done once
    per clause object, each set by the function that computes it on first
    use: its distinct literals (distinct_literals), the literal selection,
    the multi-literal matcher's set-up as source and as target, the copy
    renamed apart for generation (rename_apart), superposition's view of
    the clause as the premise it rewrites into, with a context literal for
    each occurrence it has rewritten, and the pre-order walk of each
    distinct literal (literal_walks).  The factory's registry keeps a copy
    of its own (ClauseFactory), so they go with the search's object.
    """

    __slots__ = ("literals", "cid", "rule", "parents", "_distinct", "_selected", "_match_order", "_match_table",
                 "_renamed", "_into", "_walks")

    def __init__(self, literals: tuple[Literal, ...], cid: int, rule: str = "input", parents: tuple[int, ...] = ()):
        self.literals = literals
        self.cid = cid
        self.rule = rule
        self.parents = parents
        self._distinct = self._selected = self._match_order = self._match_table = None
        self._renamed = self._into = self._walks = None

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


def _instantiate_literals(
    literals: Sequence[Literal], unifier: Substitution, unbound: Callable[[Var], Term]
) -> tuple[Literal, ...]:
    """literals under unifier, in one instantiate pass with one memo: each
    bound variable's image is built once, and each unbound variable becomes
    unbound(v), called once per variable.  A ground literal comes back as
    the same object, so the repeated literals of a clause and of its
    descendants share one object."""
    images: dict[int, Term] = {}
    return tuple(
        lit
        if lit.ground
        else Literal(lit.positive, lit.pred, tuple(instantiate(a, unifier, images, unbound) for a in lit.args))
        for lit in literals
    )


def canonical_instance(literals: Sequence[Literal], unifier: Substitution) -> tuple[Literal, ...]:
    """literals instantiated by unifier, a unify_pairs result in triangular
    form, variables renumbered 0, 1, ... in pre-order of first occurrence
    (by make_var, so shared within a run).

    Literals already numbered so, under an empty unifier, come back as
    they are: the parser numbers its clauses' variables that way, and so
    does many a rewrite, and neither pays for a rebuild."""
    if not unifier and _numbered(literals):
        return tuple(literals)
    fresh = itertools.count()
    return _instantiate_literals(literals, unifier, lambda v: make_var(next(fresh)))


def _numbered(literals: Sequence[Literal]) -> bool:
    """Whether the variables of literals are 0, 1, ... in pre-order of first
    occurrence.  A negative id, as rename_apart gives, is never numbered.
    The walk visits a shared subterm at each occurrence, as instantiate
    does, so it checks the run's deadline every 1,024 applications."""
    fresh = 0  # the id the next new variable must have
    walked = 0
    for lit in literals:
        if lit.ground:
            continue
        stack = list(reversed(lit.args))
        while stack:
            t = stack.pop()
            if type(t) is Var:
                if t.vid == fresh:
                    fresh += 1
                elif not 0 <= t.vid < fresh:
                    return False
            elif not t.ground:
                walked += 1
                if not walked & 1023:
                    check_time()
                stack.extend(reversed(t.args))
    return True


def rename_apart(clause: Clause) -> tuple[Literal, ...]:
    """clause's literals with every variable v replaced by the variable of id
    -1 - v (made by make_var, so shared within a run), kept on the clause.

    The factory numbers variables from 0, so the copy shares no variable
    with any first premise, the clause itself included.  Ground literals,
    and the literal tuple of a ground clause, come back as the same objects.
    """
    if clause._renamed is None:
        lits = clause.literals
        if not all(lit.ground for lit in lits):
            lits = _instantiate_literals(lits, {}, lambda v: make_var(-1 - v.vid))
        clause._renamed = lits
    return clause._renamed


def distinct_literals(clause: Clause) -> tuple[Literal, ...]:
    """clause's literals, each once, in order of first occurrence; kept on
    the clause, and clause.literals itself when no literal repeats."""
    if clause._distinct is None:
        distinct = tuple(dict.fromkeys(clause.literals))
        clause._distinct = clause.literals if len(distinct) == len(clause.literals) else distinct
    return clause._distinct


def _walk(args: tuple[Term, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pre-order keys of an argument tuple, -1 - vid for each variable,
    and the size of the subterm at each position, its weight, since a
    term's weight is its number of nodes.

    The walk of each ground argument is kept on it (App._walk), and a
    ground argument that has one is spliced in with one extend, or is the
    whole walk when it is the only argument.  A subterm of a ground
    argument walked afresh is read there too, so the tower p(f(t)) after
    p(t) costs one step and a copy: sizes do not depend on where a walk
    starts, so a kept walk splices in anywhere as it is.  Subterms of a
    non-ground argument are not read, and no walk of a subterm is kept on
    its own, which would be quadratic on a tower.

    The walk takes time and memory linear in the terms' weights, which can
    be exponential in their stored size, so the run's deadline is checked
    every 1,024 applications walked afresh."""
    keys: list[int] = []
    sizes: list[int] = []
    walked = 0
    for arg in args:
        ground = arg.ground
        if ground:
            hit = arg._walk
            if hit is not None:
                if len(args) == 1:
                    return hit
                keys += hit[0]
                sizes += hit[1]
                continue
            start = len(keys)
        stack = [arg]
        while stack:
            t = stack.pop()
            if type(t) is Var:
                keys.append(-1 - t.vid)
                sizes.append(1)
            elif ground and (hit := t._walk) is not None:
                keys += hit[0]
                sizes += hit[1]
            else:
                keys.append(t.sym)
                sizes.append(t.weight)
                stack.extend(reversed(t.args))
                walked += 1
                if not walked & 1023:
                    check_time()
        if ground:
            hit = arg._walk = (tuple(keys[start:]), tuple(sizes[start:]))
            if len(args) == 1:
                return hit
    return tuple(keys), tuple(sizes)


def literal_walks(clause: Clause) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The pre-order walk of each distinct literal's arguments, aligned with
    distinct_literals(clause), computed on the first call and kept on it.

    A walk is (keys, sizes): keys holds the symbol of each subterm in
    pre-order and -1 - vid for each variable, so a key is negative exactly
    at a variable, and equal keys mean the same variable; sizes[i] is the
    number of keys of the subterm that starts at i, so i + sizes[i] is the
    position just past it, and sizes[0] is where the second argument
    starts.  The walk of a subterm is a slice of both, whatever its
    position, so the walk of a ground literal argument is kept on the term
    and spliced into every later walk that holds it (_walk); a literal with
    one ground argument shares the term's tuples.  Every term index and
    screen reads a literal's terms from here, so each literal is walked
    once per clause.
    """
    if clause._walks is None:
        clause._walks = tuple(_walk(lit.args) for lit in distinct_literals(clause))
    return clause._walks


class ClauseFactory:
    """Mints normalized clauses with unique ids and keeps a registry.

    The factory is the one place that canonicalizes: each conclusion comes
    in as its literals and the unifier of its inference, in unify_pairs's
    triangular form, and one pass (canonical_instance) instantiates the
    literals and numbers their variables 0, 1, ... in pre-order of first
    occurrence.  Literals already numbered so, under an empty unifier, are
    kept as they are: the parser's and many a rewrite's.

    Every clause ever created stays in the registry so proofs can be
    reconstructed after simplification deletes clauses from the search
    state.  The registry holds a copy of its own, with the same literals
    and provenance and no cached search data, so what the search computes
    for a clause goes when the search drops the clause.  Minting checks the
    run's deadline (terms.check_time) before every conclusion, so no single
    call, however many or large its conclusions, runs far past it.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.registry: dict[int, Clause] = {}

    @property
    def created(self) -> int:
        return len(self.registry)

    def make(self, literals: Iterable[Literal], rule: str = "input", parents: tuple[int, ...] = ()) -> Clause:
        return self.make_all([(tuple(literals), {})], rule, parents)[0]

    def make_all(
        self, conclusions: Iterable[tuple[Sequence[Literal], Substitution]], rule: str, parents: tuple[int, ...]
    ) -> list[Clause]:
        """Mint the (literals, unifier) conclusions of one inference call, in order.

        A conclusion that is a variant of an earlier one of the same call
        (equal once canonical) is dropped before it is minted, so it spends
        no id and no registry entry: created is what the clause limit reads.
        Each tuple is hashed once (an add that does not grow seen found it),
        the first only when a second conclusion comes.
        """
        out: list[Clause] = []
        seen: set[tuple[Literal, ...]] = set()
        for literals, unifier in conclusions:
            check_time()
            lits = canonical_instance(literals, unifier)
            if out:
                if not seen:
                    seen.add(out[0].literals)
                size = len(seen)
                seen.add(lits)
                if len(seen) == size:
                    continue
            cid = next(self._counter)
            self.registry[cid] = Clause(lits, cid, rule, parents)
            out.append(Clause(lits, cid, rule, parents))
        return out


def literal_occurrences(lit: Literal) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Non-variable subterm occurrences of a literal, outermost first.

    Paths start with the argument index.  Variable occurrences are skipped:
    superposition never rewrites at a variable position, and no term is
    smaller than a variable, so simplification cannot rewrite one either.
    """
    for i, arg in enumerate(lit.args):
        for path, sub in preorder_subterms(arg, (i,)):
            if isinstance(sub, App):
                yield path, sub


def replace_in_literal(
    lit: Literal, path: tuple[int, ...], new: Term, build: Optional[Callable[[int, tuple], App]] = None
) -> Literal:
    """lit with the occurrence at path (as literal_occurrences gives it)
    replaced by new, the applications on the path rebuilt with build."""
    args = list(lit.args)
    args[path[0]] = replace_at(args[path[0]], path[1:], new, build)
    return Literal(lit.positive, lit.pred, tuple(args))


def select(clause: Clause) -> tuple[int, ...]:
    """Positions of the selected literals, computed once per clause object.

    If the clause has a negative literal, select exactly one: a negative
    literal of maximal weight, leftmost on ties.  Otherwise select all
    maximal literals under the literal ordering, checking the run's
    deadline every 256 literal comparisons.
    """
    if clause._selected is None:
        clause._selected = _select(clause)
    return clause._selected


def _select(clause: Clause) -> tuple[int, ...]:
    lits = clause.literals
    negatives = [i for i, lit in enumerate(lits) if not lit.positive]
    if negatives:
        best = max(negatives, key=lambda i: (lits[i].weight, -i))
        return (best,)
    # duplicates compare EQUAL, so maximality is decided once per distinct
    # literal; likely dominators come first so non-maximal literals fail fast
    distinct = sorted(distinct_literals(clause), key=lambda lit: (lit.is_equality, -lit.weight))
    maximal = set()
    compared = 0
    for lit in distinct:
        for other in distinct:
            if other is not lit:
                compared += 1
                if compared % 256 == 0:
                    check_time()
                if compare_literals(other, lit) is OrderResult.GREATER:
                    break
        else:
            maximal.add(lit)
    return tuple(i for i, lit in enumerate(lits) if lit in maximal)

