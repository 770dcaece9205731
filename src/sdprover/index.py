"""Literal-keyed clause indexes for simplification retrieval.

Keys record only the top predicate symbol and polarity (equalities get a
dedicated tag), so a literal and all of its instances share one key.  That
makes retrieval an imperfect filter: it may return clauses the matcher later
rejects, but it never misses a clause whose match exists.

The forward index stores candidate side premises for subsumption
demodulation under their best literal, second-best literal, or both:
reserving the rewriting equality leaves the rest of the clause to be
matched, so whichever of the two top literals is not reserved must occur,
instantiated, in any main premise the clause simplifies.  The backward
index simply stores every active clause under the key of each of its
literals and serves both backward retrieval and subsumption queries.
"""

from __future__ import annotations

from typing import Optional

from .clauses import Clause, Literal

LiteralKey = tuple

EQ_TAG = "e"
PRED_TAG = "p"


def literal_key(lit: Literal) -> LiteralKey:
    """Substitution-stable fingerprint of a literal."""
    if lit.is_equality:
        return (EQ_TAG, lit.positive)
    return (PRED_TAG, lit.pred, lit.positive)


def _distinct_keys(c: Clause) -> set[LiteralKey]:
    # a bucket is read once however many literals share its key
    return {literal_key(lit) for lit in c.literals}


def _ranked_positions(c: Clause) -> list[int]:
    # heaviest first, leftmost on ties
    return sorted(range(len(c.literals)), key=lambda i: (-c.literals[i].weight, i))


def _indexed_entries(c: Clause) -> list[tuple[int, LiteralKey]]:
    """(literal position, key) pairs the clause is indexed under.

    Empty when the clause has no positive equality or is too small to have
    both a rewriting equality and an indexed literal.
    """
    if len(c.literals) < 2:
        return []
    if not any(l.positive and l.is_equality for l in c.literals):
        return []
    ranked = _ranked_positions(c)
    best, second = ranked[0], ranked[1]

    def is_pos_eq(i: int) -> bool:
        lit = c.literals[i]
        return lit.positive and lit.is_equality

    if not is_pos_eq(best):
        chosen = [best]
    elif not is_pos_eq(second):
        chosen = [second]
    else:
        chosen = [best, second]
    return [(i, literal_key(c.literals[i])) for i in chosen]


def best_literal_keys(c: Clause) -> list[LiteralKey]:
    """Keys the clause is indexed under; [] when it is not indexable."""
    return [key for _, key in _indexed_entries(c)]


class FsdIndex:
    """Forward index of potential side premises for subsumption demodulation.

    Holds only clauses with at least one positive equality and at least two
    literals; demodulation tries unit equalities directly.
    """

    def __init__(self) -> None:
        self._buckets: dict[LiteralKey, set[tuple[int, int]]] = {}
        self._members: dict[int, Clause] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, c: Clause) -> bool:
        return c.cid in self._members

    def insert(self, c: Clause) -> None:
        if c.cid in self._members:
            return
        entries = _indexed_entries(c)
        if not entries:
            return
        self._members[c.cid] = c
        for pos, key in entries:
            self._buckets.setdefault(key, set()).add((c.cid, pos))

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        for pos, key in _indexed_entries(c):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard((c.cid, pos))
                if not bucket:
                    del self._buckets[key]

    def retrieve_fsd_candidates(self, d: Clause) -> set[Clause]:
        """Stored clauses whose indexed literal could match a literal of d."""
        out: set[Clause] = set()
        for key in _distinct_keys(d):
            for cid, _ in self._buckets.get(key, ()):
                out.add(self._members[cid])
        return out


class BackwardIndex:
    """Index of all active clauses under every literal's key."""

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
        self._members[c.cid] = c
        for lit in c.literals:
            self._buckets.setdefault(literal_key(lit), set()).add(c.cid)

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        for lit in c.literals:
            bucket = self._buckets.get(literal_key(lit))
            if bucket is not None:
                bucket.discard(c.cid)
                if not bucket:
                    del self._buckets[literal_key(lit)]

    def _bucket(self, key: LiteralKey) -> set[int]:
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
        among d's keys; one shared key is the cheapest complete filter.
        """
        out: set[Clause] = set()
        for key in _distinct_keys(d):
            for cid in self._bucket(key):
                if cid != d.cid:
                    out.add(self._members[cid])
        return out

    def backward_subsumption_candidates(self, g: Clause) -> set[Clause]:
        """Active clauses that g might subsume.

        Any clause subsumed by g contains an instance of every g literal,
        so it lies in the bucket of each of g's keys; intersecting the
        buckets keeps the filter complete and cheap.
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
        return {self._members[cid] for cid in ids}
