"""Clause indexes for simplification and generation retrieval.

Two perfect discrimination trees (McCune, JAR 1992) answer every literal
retrieval, each with one role.  A path is a tag followed by the pre-order
symbols of a term sequence, STAR for every variable, read off the clause's
stored literal walks (clauses.literal_walks), and a check on the variables
that occur more than once in it (_tree_path).  The backward index's tree
holds each distinct literal of every active clause, tagged (polarity,
predicate), for subsumption both ways and backward subsumption
demodulation.  The forward rewriting index's tree (FsdIndex) holds the
side premises that may rewrite a given clause: a unit equality under the
left-hand side of each orientation that can rewrite (matching.source_set_up's
equations with a verdict other than EQUAL and no right-hand variable the
left lacks), tagged REWRITE_LHS, and any other under its best literals
(best_literals): whichever of its two top literals is not the rewriting
equality occurs, instantiated, in any main premise it simplifies.  A
path's check is its last edge, and every leaf is the set of clauses filed
under its path, so a retrieval returns clauses; the tree keeps the paths
it filed each clause under, by clause id, until the clause is removed.

Generalization retrieval follows a STAR edge by skipping the query's whole
subterm at that point (the walk's ends say where it stops) and a symbol
edge only on the same symbol; a query variable follows only STAR edges,
since the matcher treats it as a rigid constant.  It checks repeated
variables: a path in which a variable occurs twice is returned only when
the query subterms at its occurrences are equal, a query variable being
equal only to itself (_admit).  The check is tested on the check edges at
the end of a walk, so the descent does not pay for it, a path without one
passes at once, and generalization retrieval returns exactly the paths
that match the query.  Instance retrieval follows a query symbol only along
its own edge, and a query variable past one whole stored term, whose
extent the tree reads from a symbol-to-arity table it learns from the
walks' ends on insert (bounded by the signature).  It ignores repeated
variables, of the query and of the stored paths, so it returns every
instance of the query, and possibly more.  An equality matches in either
argument order, so an equality query also runs on the walk of its other
order: the second argument's keys, then the first's.  Forward subsumption,
demodulation and forward subsumption demodulation retrieve generalizations
of a clause's literals or subterms; backward subsumption and backward
subsumption demodulation retrieve instances of g's literals or of c's best
literals.

Subsumption candidates also pass the count screen: a subsumer maps its
literals one to one onto literals with the same polarity and predicate, so
it has no more literals under any (polarity, predicate) key than the
clause it subsumes (read off matching.target_set_up).  Subsumption
demodulation candidates pass the trigger screen: a side premise rewrites
only at an occurrence of one of its triggers (matching.source_set_up), the
top symbols of its rewriting left-hand sides, so a pair whose main premise
holds none of them is left out (no screen when a left-hand side is a
variable).  Demodulators need no such screen, since their left-hand side
generalizes a subterm of the query.  Every screen leaves out only pairs
that cannot fire, and the matcher decides the rest.

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

So resolution(c1, c2) can give a conclusion only when c1's (RESOLVES, p,
True) meets c2's (RESOLVES, p, False), and superposition(c1, c2) only when
c1's (REWRITES, f) meets c2's (REWRITABLE, f).  Renaming apart changes no
symbol, so generation_partners leaves out only pairs without a conclusion.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

from .clauses import Clause, Literal, distinct_literals, literal_walks, select
from .matching import TargetSetUp, source_set_up, target_set_up
from .ordering import OrderResult
from .terms import Var

RESOLVES = "r"
REWRITES = "l"
REWRITABLE = "s"
REWRITE_LHS = "lhs"
STAR = None  # the tree key of a variable; its walk key is negative


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
    symbols: set[int] = set()
    for lit, (lit_keys, _) in zip(distinct_literals(c), literal_walks(c)):
        if lit in selected:
            symbols.update(lit_keys)
    rewritable = {(REWRITABLE, f) for f in symbols if f >= 0}
    if rewritable:
        rewritable.add((REWRITABLE, None))
    keys.update(rewritable)
    return keys


def _tree_path(tag, keys: tuple, ground: bool) -> tuple:
    """The tree path (tag, keys, check) of a walked term sequence: its walk
    keys with STAR for each variable, and the check of its repeated
    variables, or None when no variable occurs twice.

    The check holds (gap, same) for each variable occurrence up to the
    last repeated one: gap symbol keys precede it since the previous
    occurrence (or the start), and same is the place in the check of the
    variable's first occurrence, or -1 at a first occurrence.  It names no
    variable, so paths that differ only by a renaming share it.
    """
    if ground:
        return tag, keys, None
    stored = tuple([STAR if k < 0 else k for k in keys])
    seen = [k for k in keys if k < 0]
    if len(set(seen)) == len(seen):
        return tag, stored, None
    check: list[tuple[int, int]] = []
    first: dict[int, int] = {}
    gap = cut = 0
    for k in keys:
        if k >= 0:
            gap += 1
        elif k in first:
            check.append((gap, first[k]))
            cut, gap = len(check), 0
        else:
            first[k] = len(check)
            check.append((gap, -1))
            gap = 0
    return tag, stored, tuple(check[:cut])


def _admit(node: dict, keys: tuple, ends: list[int], start: int, out: list) -> None:
    """Append to out each item set below the end node of a walk (see
    DiscriminationTree) whose check edge the query walk (keys, ends)
    passes, read from start along the path: each repeated variable of the
    path meets equal subterms, that is equal keys, so a query variable is
    equal only to itself; the edge None passes every walk."""
    for check, items in node.items():
        if check is None:
            out.append(items)
            continue
        starts = []
        q = start
        for gap, same in check:
            q += gap
            if same >= 0:
                # spans of unequal length differ without a look at their
                # keys, so a check costs no more than the subterms it
                # compares, which are disjoint and of one size
                p, end = starts[same], ends[q]
                if ends[p] - p != end - q or keys[p:ends[p]] != keys[q:end]:
                    break
            starts.append(q)
            q = ends[q]
        else:
            out.append(items)


def _paths(walked: Iterable[tuple[Literal, tuple]]) -> dict[tuple, list[int]]:
    """The tree path (tag, keys, check) of each walked literal, each path
    once, mapped to the ends of its walk."""
    return {_tree_path((lit.positive, lit.pred), keys, lit.ground): ends for lit, (keys, ends) in walked}


def _lhs_paths(c: Clause) -> dict[tuple, list[int]]:
    """The paths of the left-hand sides the unit clause c can rewrite with,
    each mapped to its ends; {} unless c is a positive equality."""
    lit = c.literals[0]
    if not (lit.positive and lit.is_equality):
        return {}
    keys, ends = literal_walks(c)[0]
    m = ends[0]
    # both sides of a permutative unit such as h(X,Y) = h(Y,X) give one
    # path, and a path is removed once, so it is stored once
    paths = {}
    for o in source_set_up(c).equations[0]:
        if o.verdict is not OrderResult.EQUAL and not o.extra_vars:
            if o.lhs is lit.lhs:
                paths[_tree_path(REWRITE_LHS, keys[:m], o.lhs.ground)] = ends[:m]
            else:
                paths[_tree_path(REWRITE_LHS, keys[m:], o.lhs.ground)] = [e - m for e in ends[m:]]
    return paths


def _other_order(walk: tuple) -> tuple:
    """The walk of an equality's arguments in the other order: the second
    argument's keys, then the first's, with the ends shifted to match."""
    keys, ends = walk
    m, n = ends[0], len(keys)
    return keys[m:] + keys[:m], [e - m for e in ends[m:]] + [e + n - m for e in ends[:m]]


def _leaves(retrieve: Callable, lit: Literal, walk: tuple) -> list[set[int]]:
    """The leaves that retrieve (a tree's generalizations or instances)
    reaches from lit's walk under lit's tag, and for an equality with two
    different sides from the walk of its other order too."""
    tag = (lit.positive, lit.pred)
    leaves = retrieve(tag, walk)
    if lit.pred is None and lit.args[0] != lit.args[1]:
        leaves += retrieve(tag, _other_order(walk))
    return leaves


def _fits(small: TargetSetUp, big: TargetSetUp) -> bool:
    """small has no more literals than big under any (polarity, predicate) key."""
    table = big.table
    for key, positions in small.table.items():
        if len(positions) > len(table.get(key, ())):
            return False
    return True


def best_literals(c: Clause) -> list[Literal]:
    """The literals the clause is indexed under; [] when it is not indexable.

    That is its heaviest literal (leftmost on ties), or the second heaviest
    when the heaviest is a positive equality, or both when both are: the
    first two positions of its source set-up's order.  A clause with no
    positive equality, or too small to have both a rewriting equality and
    an indexed literal, is not indexable.
    """
    lits = c.literals
    if len(lits) < 2 or not any(l.positive and l.is_equality for l in lits):
        return []
    best, second = source_set_up(c).order[:2]
    chosen = [best]
    if lits[best].positive and lits[best].is_equality:
        second_is_eq = lits[second].positive and lits[second].is_equality
        chosen = [best, second] if second_is_eq else [second]
    return [lits[i] for i in chosen]


def _best_walked(c: Clause) -> list[tuple[Literal, tuple]]:
    """c's best literals, each with its walk."""
    best = best_literals(c)
    if not best:
        return []
    walks = dict(zip(distinct_literals(c), literal_walks(c)))
    return [(lit, walks[lit]) for lit in best]


class DiscriminationTree:
    """Perfect discrimination tree of clauses, for generalization and
    instance retrieval; it keeps the paths each clause is filed under.

    A path (tag, keys, check) is a tag followed by pre-order symbol keys,
    STAR for a variable, and the check of its repeated variables, None when
    it has none (see _tree_path); the tree descends its edges in that order.
    Inner nodes are dicts from edge to child, and every leaf is the set of
    clauses filed under its path.  The node after a path's last key is the
    end node of its walk, and maps checks to leaves: generalization
    retrieval returns a leaf only when the query passes its check, and
    instance retrieval returns them all.  Paths of one tag are complete
    term sequences over fixed arities, so no path is a prefix of another,
    and an end node holds check edges only.  _arity holds the arity of
    every symbol ever inserted, and _paths each filed clause's paths by
    its id.
    """

    def __init__(self) -> None:
        self._root: dict = {}
        self._arity: dict[int, int] = {}
        self._paths: dict[int, tuple[tuple, ...]] = {}

    def insert(self, c: Clause, paths: dict[tuple, list[int]]) -> None:
        """File c under every path (tag, keys, check) of paths, which maps
        each to its walk's ends; a filed clause, or one with no path, is
        left out."""
        if not paths or c.cid in self._paths:
            return
        self._paths[c.cid] = tuple(paths)
        arity = self._arity
        for (tag, keys, check), ends in paths.items():
            node = self._root.setdefault(tag, {})
            for i, key in enumerate(keys):
                if key is not STAR and key not in arity:
                    count, j = 0, i + 1
                    while j < ends[i]:
                        count, j = count + 1, ends[j]
                    arity[key] = count
                node = node.setdefault(key, {})
            node.setdefault(check, set()).add(c)

    def remove(self, c: Clause) -> None:
        """Take c off every path it is filed under, and drop the item sets
        and nodes left empty."""
        for tag, keys, check in self._paths.pop(c.cid, ()):
            trail = []
            node = self._root
            for key in (tag, *keys, check):
                trail.append((node, key))
                node = node[key]
            node.discard(c)
            while not node and trail:
                node, key = trail.pop()
                del node[key]

    def paths(self, c: Clause) -> tuple[tuple, ...]:
        """The paths (tag, keys, check) c is filed under; () when it is not filed."""
        return self._paths.get(c.cid, ())

    def generalizations(self, tag, walk: tuple) -> list[set]:
        """The item set of every path under tag that generalizes the walked
        argument tuple (clauses.literal_walks), its repeated variables
        bound to equal subterms."""
        node = self._root.get(tag)
        if node is None:
            return []
        keys, ends = walk
        if not keys:
            # a tag with no keys leads straight to its check edges
            return list(node.values())
        out: list[set] = []
        self._collect(node, keys, ends, 0, len(keys), out)
        return out

    def instances(self, tag, walk: tuple) -> list[set]:
        """The item set of every path under tag whose keys are an instance of
        the walked argument tuple, repeated variables ignored."""
        node = self._root.get(tag)
        if node is None:
            return []
        arity = self._arity
        nodes = [node]
        for key in walk[0]:
            if key < 0:
                # every node one whole stored term further down
                stack = [(node, 1) for node in nodes]
                nodes = []
                while stack:
                    node, pending = stack.pop()
                    for edge, child in node.items():
                        left = pending - 1 if edge is STAR else pending - 1 + arity[edge]
                        if left:
                            stack.append((child, left))
                        else:
                            nodes.append(child)
            else:
                nodes = [child for node in nodes if (child := node.get(key)) is not None]
            if not nodes:
                break
        return [items for node in nodes for items in node.values()]

    def subterm_generalizations(self, tag, walks: Sequence[tuple]) -> list[set]:
        """The item set of every path under tag, each a single term, that
        generalizes some non-variable subterm of the walked argument tuples,
        its repeated variables bound to equal subterms."""
        node = self._root.get(tag)
        if node is None:
            return []
        out: list[set] = []
        star = STAR in node
        for keys, ends in walks:
            for i, key in enumerate(keys):
                if key >= 0 and (star or key in node):
                    self._collect(node, keys, ends, i, ends[i], out)
        return out

    @staticmethod
    def _collect(node: dict, keys: tuple, ends: list[int], start: int, stop: int, out: list) -> None:
        """Append to out the item set of every path below node that
        generalizes the query keys[start:stop], its repeated variables bound
        to equal subterms.  A query variable's key is negative, so it
        follows no symbol edge."""
        stack = [(node, start)]
        while stack:
            node, i = stack.pop()
            child = node.get(STAR)
            if child is not None:
                end = ends[i]
                if end == stop:
                    _admit(child, keys, ends, start, out)
                else:
                    stack.append((child, end))
            child = node.get(keys[i])
            if child is not None:
                if i + 1 == stop:
                    _admit(child, keys, ends, start, out)
                else:
                    stack.append((child, i + 1))


class FsdIndex:
    """Forward rewriting index: the side premises that may rewrite a given
    clause (see the module docstring).  A unit equality is filed for
    demodulation, a clause with a positive equality and at least two
    literals for forward subsumption demodulation, and no other clause.
    """

    def __init__(self) -> None:
        self._tree = DiscriminationTree()

    def insert(self, c: Clause) -> None:
        self._tree.insert(c, _lhs_paths(c) if len(c.literals) == 1 else _paths(_best_walked(c)))

    def remove(self, c: Clause) -> None:
        self._tree.remove(c)

    def retrieve_fsd_candidates(self, d: Clause) -> set[Clause]:
        """Stored clauses with an indexed literal that generalizes a literal
        of d, and with a trigger (matching.source_set_up) among d's symbols
        unless their triggers are None."""
        found: set[Clause] = set()
        for lit, walk in zip(distinct_literals(d), literal_walks(d)):
            found.update(*_leaves(self._tree.generalizations, lit, walk))
        if not found:
            return found
        symbols = set(target_set_up(d).symbols)
        return {c for c in found if (t := source_set_up(c).triggers) is None or not symbols.isdisjoint(t)}

    def demodulators(self, g: Clause) -> set[Clause]:
        """The filed unit equalities that may rewrite g.

        Those with a rewriting left-hand side that generalizes some
        non-variable occurrence in g's literals; g itself is among them
        when it is such a unit and can rewrite its own literal.
        """
        leaves = self._tree.subterm_generalizations(REWRITE_LHS, literal_walks(g))
        return set().union(*leaves)


class BackwardIndex:
    """Index of all active clauses.

    Every clause's distinct literals go into a discrimination tree, for
    subsumption both ways and backward subsumption demodulation; every
    clause is also filed under the generation keys of its selected
    literals, for generating inferences.  The keys and paths of each
    clause are computed once, on insert, the paths from its stored literal
    walks; the tree keeps the paths, and _keys the generation keys.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, set[int]] = {}
        self._tree = DiscriminationTree()
        self._keys: dict[int, set[tuple]] = {}

    def insert(self, c: Clause) -> None:
        keys = self._keys[c.cid] = _generation_keys(c)
        for key in keys:
            self._buckets.setdefault(key, set()).add(c.cid)
        self._tree.insert(c, _paths(zip(distinct_literals(c), literal_walks(c))))

    def remove(self, c: Clause) -> None:
        for key in self._keys.pop(c.cid, ()):
            bucket = self._buckets[key]
            bucket.discard(c.cid)
            if not bucket:
                del self._buckets[key]
        self._tree.remove(c)

    def retrieve_bsd_candidates(self, c: Clause) -> set[Clause]:
        """Active clauses that side premise c might rewrite.

        Those holding an instance of one of c's best literals (whichever
        indexed literal is not reserved as the rewriting equality must
        match into the main premise), and one of c's triggers
        (matching.source_set_up) among their symbols unless those are None.
        """
        found: set[Clause] = set()
        for lit, walk in _best_walked(c):
            found.update(*_leaves(self._tree.instances, lit, walk))
        found.discard(c)
        if not found:
            return found
        triggers = source_set_up(c).triggers
        if triggers is None:
            return found
        wanted = set(triggers)
        return {d for d in found if not wanted.isdisjoint(target_set_up(d).symbols)}

    def forward_subsumption_candidates(self, d: Clause) -> set[Clause]:
        """Active clauses that might subsume d.

        A subsumer puts every literal into d, so each of its literal paths
        generalizes a literal of d, an equality in either argument order;
        the clauses whose every path is hit go through the count screen.
        """
        # one entry per leaf, that is per path, however many queries reach it
        hit: dict[int, set[Clause]] = {}
        for lit, walk in zip(distinct_literals(d), literal_walks(d)):
            for leaf in _leaves(self._tree.generalizations, lit, walk):
                hit[id(leaf)] = leaf
        counts: Counter = Counter()
        for leaf in hit.values():
            counts.update(leaf)
        counts.pop(d, None)
        target = target_set_up(d)
        full = [c for c, n in counts.items() if n == len(self._tree.paths(c))]
        return {c for c in full if _fits(target_set_up(c), target)}

    def backward_subsumption_candidates(self, g: Clause) -> set[Clause]:
        """Active clauses that g might subsume.

        Any clause subsumed by g holds an instance of every literal of g,
        an equality in either argument order; the clauses that do go
        through the count screen.
        """
        if not g.literals:
            return set()
        found: Optional[set[Clause]] = None
        for lit, walk in zip(distinct_literals(g), literal_walks(g)):
            hits = set().union(*_leaves(self._tree.instances, lit, walk))
            found = hits if found is None else found & hits
            if not found:
                return set()
        found.discard(g)
        source = target_set_up(g)
        return {c for c in found if _fits(source, target_set_up(c))}

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
        for key in self._keys[g.cid]:
            if key[0] == RESOLVES:
                _, pred, positive = key
                (first_res if positive else second_res).update(get((RESOLVES, pred, not positive), ()))
            elif key[0] == REWRITES:
                first_sup.update(get((REWRITABLE, key[1]), ()))
            else:
                second_sup.update(get((REWRITES, key[1]), ()))
        return first_res, first_sup, second_sup, second_res
