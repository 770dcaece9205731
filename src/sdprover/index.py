"""Literal-keyed clause indexes for simplification and generation retrieval.

Keys record only the top predicate symbol and polarity (equalities get a
dedicated tag), so a literal and all of its instances share one key.  That
makes retrieval an imperfect filter: it may return clauses the matcher later
rejects, but it never misses a clause whose match exists.

The forward index stores candidate side premises for subsumption
demodulation under their best literal, second-best literal, or both:
reserving the rewriting equality leaves the rest of the clause to be
matched, so whichever of the two top literals is not reserved must occur,
instantiated, in any main premise the clause simplifies.  The backward
index stores every active clause under the key of each of its literals and
serves both backward retrieval and subsumption queries.

Subsumption candidates are screened before the matcher runs.  A subsumer c
of d maps its literals one to one onto literals of d with the same polarity
and predicate, so c has no more literals under any (polarity, predicate)
key than d, and every function symbol of c occurs in d.  Both are read off
the matcher's target set-up of the two clauses (matching.target_set_up),
and a clause that fails either cannot subsume.

The backward index also holds each clause under generation keys, taken
from its selected literals only, since the generating rules use no other:

  - (RESOLVES, p, polarity) for a selected predicate literal.  Resolution
    of c1 with c2 needs a selected positive p-literal in c1 and a selected
    negative p-literal in c2;
  - (REWRITES, f) for each orientation s -> t of a selected positive
    equality that superposition uses (matching.source_set_up's
    equations), with f the top symbol of s, or None when s is a variable;
  - (REWRITABLE, f) for each symbol f at a non-variable position of a
    selected literal's arguments, plus (REWRITABLE, None) when there is
    any.  Superposition of c1 into c2 rewrites only there, and a
    non-variable s unifies only with a term of its own top symbol.

So resolution(c1, c2) can give a conclusion only when c1's key
(RESOLVES, p, True) meets c2's key (RESOLVES, p, False), and
superposition(c1, c2) only when c1's (REWRITES, f) meets c2's
(REWRITABLE, f).  Renaming apart changes no symbol, so the conditions are
exact necessary conditions: a pair that fails them gets no conclusion from
that call, and generation_partners leaves out only such pairs.
"""

from __future__ import annotations

from typing import Optional

from .clauses import Clause, Literal, select
from .matching import TargetSetUp, source_set_up, target_set_up
from .terms import App, Var

LiteralKey = tuple

EQ_TAG = "e"
PRED_TAG = "p"
RESOLVES = "r"
REWRITES = "l"
REWRITABLE = "s"


def literal_key(lit: Literal) -> LiteralKey:
    """Substitution-stable fingerprint of a literal."""
    if lit.is_equality:
        return (EQ_TAG, lit.positive)
    return (PRED_TAG, lit.pred, lit.positive)


def _distinct_keys(c: Clause) -> set[LiteralKey]:
    # a bucket is read once however many literals share its key
    return {literal_key(lit) for lit in c.literals}


def _generation_keys(c: Clause) -> set[tuple]:
    """The generation keys of c's selected literals (see the module docstring)."""
    equations = source_set_up(c).equations
    keys: set[tuple] = set()
    stack = []
    for i in select(c):
        lit = c.literals[i]
        if lit.is_equality:
            for o in equations[i]:
                keys.add((REWRITES, None if type(o.lhs) is Var else o.lhs.sym))
        else:
            keys.add((RESOLVES, lit.pred, lit.positive))
        stack.extend(lit.args)
    symbols: set[Optional[int]] = set()
    while stack:
        t = stack.pop()
        if type(t) is App:
            symbols.add(t.sym)
            stack.extend(t.args)
    if symbols:
        symbols.add(None)
    keys.update((REWRITABLE, f) for f in symbols)
    return keys


def _fits(small: TargetSetUp, big: TargetSetUp) -> bool:
    """small has no more literals than big under any (polarity, predicate) key."""
    table = big.table
    for key, positions in small.table.items():
        if len(positions) > len(table.get(key, ())):
            return False
    return True


def best_literal_keys(c: Clause) -> list[LiteralKey]:
    """Keys the clause is indexed under; [] when it is not indexable.

    That is the key of its heaviest literal (leftmost on ties), or of the
    second heaviest when the heaviest is a positive equality, or of both
    when both are.  A clause with no positive equality, or too small to
    have both a rewriting equality and an indexed literal, is not indexable.
    """
    lits = c.literals
    if len(lits) < 2 or not any(l.positive and l.is_equality for l in lits):
        return []
    best, second = sorted(range(len(lits)), key=lambda i: (-lits[i].weight, i))[:2]
    chosen = [best]
    if lits[best].positive and lits[best].is_equality:
        second_is_eq = lits[second].positive and lits[second].is_equality
        chosen = [best, second] if second_is_eq else [second]
    return [literal_key(lits[i]) for i in chosen]


class FsdIndex:
    """Forward index of potential side premises for subsumption demodulation.

    Holds only clauses with at least one positive equality and at least two
    literals; demodulation tries unit equalities directly.
    """

    def __init__(self) -> None:
        self._buckets: dict[LiteralKey, set[int]] = {}
        self._members: dict[int, Clause] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, c: Clause) -> bool:
        return c.cid in self._members

    def insert(self, c: Clause) -> None:
        if c.cid in self._members:
            return
        keys = best_literal_keys(c)
        if not keys:
            return
        self._members[c.cid] = c
        for key in keys:
            self._buckets.setdefault(key, set()).add(c.cid)

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        for key in best_literal_keys(c):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(c.cid)
                if not bucket:
                    del self._buckets[key]

    def retrieve_fsd_candidates(self, d: Clause) -> set[Clause]:
        """Stored clauses whose indexed literal could match a literal of d."""
        out: set[Clause] = set()
        for key in _distinct_keys(d):
            for cid in self._buckets.get(key, ()):
                out.add(self._members[cid])
        return out


class BackwardIndex:
    """Index of all active clauses.

    Every clause is stored under the key of each of its literals, for
    backward retrieval and subsumption, and under the generation keys of its
    selected literals, for generating inferences.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, set[int]] = {}
        self._members: dict[int, Clause] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, c: Clause) -> bool:
        return c.cid in self._members

    def insert(self, c: Clause) -> None:
        if c.cid in self._members:
            return
        self._members[c.cid] = c
        for key in _distinct_keys(c) | _generation_keys(c):
            self._buckets.setdefault(key, set()).add(c.cid)

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        for key in _distinct_keys(c) | _generation_keys(c):
            bucket = self._buckets[key]
            bucket.discard(c.cid)
            if not bucket:
                del self._buckets[key]

    def _bucket(self, key: tuple) -> set[int]:
        return self._buckets.get(key, set())

    def retrieve_bsd_candidates(self, c: Clause) -> set[Clause]:
        """Active clauses that side premise c might rewrite.

        Queried under c's own index keys: whichever indexed literal is not
        reserved as the rewriting equality must match into the main premise.
        """
        keys = best_literal_keys(c)
        out: set[Clause] = set()
        for key in keys:
            for cid in self._bucket(key):
                if cid != c.cid:
                    out.add(self._members[cid])
        return out

    def forward_subsumption_candidates(self, d: Clause) -> set[Clause]:
        """Active clauses that might subsume d.

        A subsumer puts every literal into d, so each of its keys occurs
        among d's keys; the clauses sharing one key with d are screened.
        """
        ids: set[int] = set()
        for key in _distinct_keys(d):
            ids |= self._bucket(key)
        ids.discard(d.cid)
        target = target_set_up(d)
        symbols = set(target.symbols)
        out: set[Clause] = set()
        for cid in ids:
            c = self._members[cid]
            source = target_set_up(c)
            if symbols.issuperset(source.symbols) and _fits(source, target):
                out.add(c)
        return out

    def backward_subsumption_candidates(self, g: Clause) -> set[Clause]:
        """Active clauses that g might subsume.

        Any clause subsumed by g contains an instance of every g literal,
        so it lies in the bucket of each of g's keys; the intersection of
        those buckets is screened.
        """
        if not g.literals:
            return set()
        ids: Optional[set[int]] = None
        for key in _distinct_keys(g):
            bucket = self._bucket(key)
            ids = set(bucket) if ids is None else ids & bucket
            if not ids:
                return set()
        assert ids is not None
        ids.discard(g.cid)
        source = target_set_up(g)
        symbols = set(source.symbols)
        out: set[Clause] = set()
        for cid in ids:
            d = self._members[cid]
            target = target_set_up(d)
            if symbols.issubset(target.symbols) and _fits(source, target):
                out.add(d)
        return out

    def generation_partners(self, g: Clause) -> tuple[set[int], set[int], set[int], set[int]]:
        """Ids of the indexed clauses a on which a generating inference with g may fire.

        One set per call, in this order: resolution(g, a),
        superposition(g, a), superposition(a, g), resolution(a, g).  A
        clause left out of a set gives no conclusion in that call; g itself
        is among them when it is indexed and can infer with itself.
        """
        first_res: set[int] = set()
        first_sup: set[int] = set()
        second_sup: set[int] = set()
        second_res: set[int] = set()
        get = self._buckets.get
        for key in _generation_keys(g):
            if key[0] == RESOLVES:
                _, pred, positive = key
                (first_res if positive else second_res).update(get((RESOLVES, pred, not positive), ()))
            elif key[0] == REWRITES:
                first_sup.update(get((REWRITABLE, key[1]), ()))
            else:
                second_sup.update(get((REWRITES, key[1]), ()))
        return first_res, first_sup, second_sup, second_res
