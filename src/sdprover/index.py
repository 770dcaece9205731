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
serves backward retrieval and backward subsumption.

Subsumption candidates are screened before the matcher runs.  A subsumer c
of d maps its literals one to one onto literals of d with the same polarity
and predicate, so c has no more literals under any (polarity, predicate)
key than d (the count screen), and every function symbol of c occurs in d
(the symbol screen).  Both are read off the matcher's target set-up of the
two clauses (matching.target_set_up), and a clause that fails either cannot
subsume.

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

Forward subsumption and demodulation retrieve partners by generalization,
from a perfect discrimination tree (McCune, JAR 1992) that the backward
index keeps next to its buckets.  A path is a tag followed by the
pre-order symbols of a term sequence, with STAR for every variable.  The
tree holds

  - each distinct literal of every active clause, tagged (polarity,
    predicate) and keyed on its arguments, and
  - the left-hand side of every orientation of an active unit equality
    that can rewrite (matching.source_set_up's equations with a verdict
    other than EQUAL and no right-hand variable the left lacks), tagged
    REWRITE_LHS.

Every path and every query is read off the clause's stored literal walks
(clauses.literal_walks): each distinct literal is walked once per clause,
on first use, and the walk serves its tree path, both argument orders of a
forward-subsumption query (the swapped order reads the walk's second
argument, then its first), the demodulator query, the REWRITABLE symbols
and the matcher's target symbols.  The walk is search-only data, dropped
with the rest when the clause leaves the search; the index keeps the keys
it filed a clause under until the clause is removed.

Retrieval follows a STAR edge by skipping the query's whole subterm at that
point and a symbol edge only on the same symbol; a query variable follows
only STAR edges, since the matcher treats it as a rigid constant.  A path
that matches the query term by term, repeated variables ignored, is
returned: every generalization of the query, and possibly more, so the
matcher still decides.  A subsumer maps each of its literals onto a
literal of d (an equality in either argument order), so each of its
literal paths generalizes a literal of d; forward_subsumption_candidates
keeps the clauses all of whose paths are hit, which implies the symbol
screen, and applies the count screen to them.  A unit equality
rewrites a clause only at a non-variable occurrence that an instance of one
of its left-hand sides equals, so demodulators retrieves, at each such
occurrence, every unit equality that can rewrite there.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .clauses import Clause, Literal, distinct_literals, literal_walks, select
from .matching import TargetSetUp, source_set_up, target_set_up
from .ordering import OrderResult
from .terms import Var

LiteralKey = tuple

EQ_TAG = "e"
PRED_TAG = "p"
RESOLVES = "r"
REWRITES = "l"
REWRITABLE = "s"
REWRITE_LHS = "lhs"
STAR = None  # the key of a variable in a literal walk


def literal_key(lit: Literal) -> LiteralKey:
    """Substitution-stable fingerprint of a literal."""
    if lit.is_equality:
        return (EQ_TAG, lit.positive)
    return (PRED_TAG, lit.pred, lit.positive)


def _distinct_keys(c: Clause) -> set[LiteralKey]:
    # a bucket is read once however many literals share its key
    return {literal_key(lit) for lit in distinct_literals(c)}


def _generation_keys(c: Clause) -> set[tuple]:
    """The generation keys of c's selected literals (see the module docstring)."""
    equations = source_set_up(c).equations
    keys: set[tuple] = set()
    selected = set()
    for i in select(c):
        lit = c.literals[i]
        if lit.is_equality:
            for o in equations[i]:
                keys.add((REWRITES, None if type(o.lhs) is Var else o.lhs.sym))
        else:
            keys.add((RESOLVES, lit.pred, lit.positive))
        selected.add(lit)
    symbols: set[Optional[int]] = set()
    for lit, (lit_keys, _) in zip(distinct_literals(c), literal_walks(c)):
        if lit in selected:
            symbols.update(lit_keys)
    symbols.discard(STAR)
    if symbols:
        symbols.add(None)
    keys.update((REWRITABLE, f) for f in symbols)
    return keys


def _tree_paths(c: Clause) -> tuple[list[tuple], list[tuple]]:
    """c's distinct literal paths, and the paths of the left-hand sides it
    can rewrite with when it is a unit equality, each as (tag, keys)."""
    walks = literal_walks(c)
    literal_paths = list(
        dict.fromkeys(((lit.positive, lit.pred), keys) for lit, (keys, _) in zip(distinct_literals(c), walks))
    )
    lhs_paths = []
    if len(c.literals) == 1 and c.literals[0].positive and c.literals[0].is_equality:
        (keys, ends), lhs = walks[0], c.literals[0].lhs
        for o in source_set_up(c).equations[0]:
            if o.verdict is not OrderResult.EQUAL and not o.extra_vars:
                lhs_paths.append((REWRITE_LHS, keys[: ends[0]] if o.lhs is lhs else keys[ends[0] :]))
    # both sides of a permutative unit such as h(X,Y) = h(Y,X) give one path,
    # and a path is removed once, so it is stored once
    return literal_paths, list(dict.fromkeys(lhs_paths))


class _Stored(NamedTuple):
    """What the backward index filed a clause under, kept for its removal."""

    literal_keys: set[LiteralKey]
    generation_keys: set[tuple]
    literal_paths: list[tuple]
    lhs_paths: list[tuple]


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


class GeneralizationTree:
    """Perfect discrimination tree of clause ids for generalization retrieval.

    A path is a tag followed by pre-order symbol keys, STAR for a variable
    (see the module docstring).  Inner nodes are dicts from key to child;
    the child after a path's last key is the set of ids stored under it.
    Paths of one tag are complete term sequences over fixed arities, so no
    path is a prefix of another.
    """

    def __init__(self) -> None:
        self._root: dict = {}

    def insert(self, tag, keys: tuple, cid: int) -> None:
        node, last = self._root, tag
        for key in keys:
            node = node.setdefault(last, {})
            last = key
        node.setdefault(last, set()).add(cid)

    def remove(self, tag, keys: tuple, cid: int) -> None:
        trail = []
        node, last = self._root, tag
        for key in keys:
            trail.append((node, last))
            node = node[last]
            last = key
        leaf = node[last]
        leaf.discard(cid)
        if not leaf:
            del node[last]
            while not node and trail:
                node, key = trail.pop()
                del node[key]

    def generalizations(self, tag, walk: tuple, swapped: bool = False) -> list[set[int]]:
        """The id set of every path under tag whose keys generalize the
        walked argument tuple (clauses.literal_walks), repeated variables
        ignored; with swapped, a two-argument tuple in the other order.

        The swapped order reads the walk's second argument, then its first.
        """
        node = self._root.get(tag)
        if node is None:
            return []
        keys, ends = walk
        if not keys:
            # a tag with no keys leads straight to its id set
            return [node]
        out: list[set[int]] = []
        if swapped:
            middles: list[dict] = []
            self._collect(node, keys, ends, ends[0], len(keys), middles)
            for middle in middles:
                self._collect(middle, keys, ends, 0, ends[0], out)
        else:
            self._collect(node, keys, ends, 0, len(keys), out)
        return out

    def subterm_generalizations(self, tag, walks: Sequence[tuple]) -> list[set[int]]:
        """The id set of every path under tag, each a single term, that
        generalizes some non-variable subterm of the walked argument tuples."""
        node = self._root.get(tag)
        if node is None:
            return []
        out: list[set[int]] = []
        star = STAR in node
        for keys, ends in walks:
            for i, key in enumerate(keys):
                if key is not STAR and (star or key in node):
                    self._collect(node, keys, ends, i, ends[i], out)
        return out

    @staticmethod
    def _collect(node: dict, keys: tuple, ends: list[int], start: int, stop: int, out: list) -> None:
        """Append to out what every path below node leads to once its keys
        generalize the query keys[start:stop], repeated variables ignored:
        an id set at a path's end, an inner node before it."""
        stack = [(node, start)]
        while stack:
            node, i = stack.pop()
            child = node.get(STAR)
            if child is not None:
                end = ends[i]
                if end == stop:
                    out.append(child)
                else:
                    stack.append((child, end))
            key = keys[i]
            if key is not STAR:
                child = node.get(key)
                if child is not None:
                    if i + 1 == stop:
                        out.append(child)
                    else:
                        stack.append((child, i + 1))


class FsdIndex:
    """Forward index of potential side premises for subsumption demodulation.

    Holds only clauses with at least one positive equality and at least two
    literals; demodulation retrieves unit equalities from the backward
    index's tree.
    """

    def __init__(self) -> None:
        self._buckets: dict[LiteralKey, set[int]] = {}
        self._members: dict[int, Clause] = {}
        self._keys: dict[int, list[LiteralKey]] = {}

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
        self._keys[c.cid] = keys
        for key in keys:
            self._buckets.setdefault(key, set()).add(c.cid)

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        for key in self._keys.pop(c.cid):
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
    backward retrieval and backward subsumption, and under the generation
    keys of its selected literals, for generating inferences.  Its
    distinct literals, and a unit equality's rewriting left-hand sides, go
    into a generalization tree, for forward subsumption and demodulation.
    The keys and paths of each clause are computed once, on insert, the
    paths from its stored literal walks.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, set[int]] = {}
        self._members: dict[int, Clause] = {}
        self._tree = GeneralizationTree()
        self._stored: dict[int, _Stored] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, c: Clause) -> bool:
        return c.cid in self._members

    def insert(self, c: Clause) -> None:
        if c.cid in self._members:
            return
        self._members[c.cid] = c
        stored = self._stored[c.cid] = _Stored(_distinct_keys(c), _generation_keys(c), *_tree_paths(c))
        for key in stored.literal_keys | stored.generation_keys:
            self._buckets.setdefault(key, set()).add(c.cid)
        for tag, keys in stored.literal_paths + stored.lhs_paths:
            self._tree.insert(tag, keys, c.cid)

    def remove(self, c: Clause) -> None:
        if c.cid not in self._members:
            return
        del self._members[c.cid]
        stored = self._stored.pop(c.cid)
        for key in stored.literal_keys | stored.generation_keys:
            bucket = self._buckets[key]
            bucket.discard(c.cid)
            if not bucket:
                del self._buckets[key]
        for tag, keys in stored.literal_paths + stored.lhs_paths:
            self._tree.remove(tag, keys, c.cid)

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

        A subsumer puts every literal into d, so each of its literal paths
        generalizes a literal of d, an equality in either argument order;
        the clauses whose every path is hit go through the count screen.
        """
        tree = self._tree
        # one entry per leaf, that is per path, however many queries reach it
        hit: dict[int, set[int]] = {}
        for lit, walk in zip(distinct_literals(d), literal_walks(d)):
            tag = (lit.positive, lit.pred)
            leaves = tree.generalizations(tag, walk)
            if lit.pred is None and lit.args[0] != lit.args[1]:
                leaves += tree.generalizations(tag, walk, swapped=True)
            for leaf in leaves:
                hit[id(leaf)] = leaf
        counts: Counter = Counter()
        for leaf in hit.values():
            counts.update(leaf)
        counts.pop(d.cid, None)
        target = target_set_up(d)
        members, stored = self._members, self._stored
        out: set[Clause] = set()
        for cid, n in counts.items():
            if n == len(stored[cid].literal_paths):
                c = members[cid]
                if _fits(target_set_up(c), target):
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

    def demodulators(self, g: Clause) -> set[int]:
        """Ids of the active unit equalities that may rewrite g.

        Those with a rewriting left-hand side that generalizes some
        non-variable occurrence in g's literals; g itself is among them
        when it is such a unit and can rewrite its own literal.
        """
        leaves = self._tree.subterm_generalizations(REWRITE_LHS, literal_walks(g))
        return set().union(*leaves)

    def generation_partners(self, g: Clause) -> tuple[set[int], set[int], set[int], set[int]]:
        """Ids of the indexed clauses a on which a generating inference with g may fire.

        One set per call, in this order: resolution(g, a),
        superposition(g, a), superposition(a, g), resolution(a, g).  A
        clause left out of a set gives no conclusion in that call.  g must
        be indexed, and is among them when it can infer with itself.
        """
        first_res: set[int] = set()
        first_sup: set[int] = set()
        second_sup: set[int] = set()
        second_res: set[int] = set()
        get = self._buckets.get
        for key in self._stored[g.cid].generation_keys:
            if key[0] == RESOLVES:
                _, pred, positive = key
                (first_res if positive else second_res).update(get((RESOLVES, pred, not positive), ()))
            elif key[0] == REWRITES:
                first_sup.update(get((REWRITABLE, key[1]), ()))
            else:
                second_sup.update(get((REWRITES, key[1]), ()))
        return first_res, first_sup, second_sup, second_res
