"""Clause indexes for simplification and generation retrieval.

Two perfect discrimination trees (McCune, JAR 1992) answer every literal
retrieval, each with one role.  A path is a tag followed by the pre-order
symbols of a term sequence, read off the clause's stored literal walks
(clauses.literal_walks), with its variables numbered by first occurrence:
STAR at a variable's first occurrence and a repeat edge naming the variable
at each later one (_tree_path).  The backward index's tree holds each
distinct literal of every active clause, tagged (polarity, predicate), for
subsumption both ways and backward subsumption demodulation.  The forward
rewriting index's tree (FsdIndex) holds the side premises that may rewrite
a given clause: a unit equality under the left-hand side of each
orientation that can rewrite (matching.source_set_up's equations with a
verdict other than EQUAL and no right-hand variable the left lacks), tagged
REWRITE_LHS, and any other under its best literals (best_literals):
whichever of its two top literals is not the rewriting equality occurs,
instantiated, in any main premise it simplifies.  Every leaf is the set of
clauses filed under its path, so a retrieval returns clauses; the tree
keeps the paths it filed each clause under, and the leaves they end at, by
clause id, until the clause is removed.

Generalization retrieval follows a STAR edge by skipping the query's whole
subterm at that point (the walk's sizes say where it stops), which binds the
variable to it; a repeat edge only when the query subterm there equals the
one its variable is bound to, a query variable being equal only to itself;
and a symbol edge only on the same symbol.  A query variable follows no
symbol edge, since the matcher treats it as a rigid constant.  So
generalization retrieval returns exactly the paths that match the query.
Instance retrieval follows a query symbol only along its own edge, and a
query variable past one whole stored term, whose extent the tree reads from
a symbol-to-arity table it learns from the walks' sizes on insert (bounded
by the signature).  It ignores repeated variables, of the query and of the
stored paths, whose repeat edges it takes as it takes STAR, so it returns
every instance of the query, and possibly more.

A ground path generalizes only a query equal to it, and a ground query's
only instance is itself.  So a tree files its ground paths, such as the
deep ground literals of a run without subsumption demodulation, in a trie
of their own, and maps each to its leaf in a ground table (exact
retrieval by hashing, as in Sekar et al., "Term Indexing", 2001).  A
ground query finds its ground paths with one lookup there, and
generalization retrieval walks only the trie of paths with a variable; an
instance query with a variable, and subterm retrieval (demodulators), walk
both tries.  The caller passes whether the query is ground (lit.ground),
so no retrieval scans its keys to learn it.

An equality matches in either argument order, so an equality query also
runs on the walk of its other order: the second argument's keys, then the
first's.  Forward subsumption, demodulation and forward subsumption
demodulation retrieve generalizations of a clause's literals or subterms;
backward subsumption and backward subsumption demodulation retrieve
instances of g's literals or of c's best literals.

Forward subsumption visits a clause only at its designated leaf, that of
its longest path, and keeps it if the query reaches all its leaves, so a
leaf that nearly every clause shares (a ground literal they all repeat)
costs nothing.  A unit clause it keeps subsumes the query, since
generalization retrieval is exact, so it skips the matcher.  Subsumption
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

from typing import Callable, Iterable, Optional, Sequence

from .clauses import Clause, Literal, distinct_literals, literal_walks, select
from .matching import source_set_up, target_set_up
from .ordering import OrderResult
from .terms import Var

RESOLVES = "r"
REWRITES = "l"
REWRITABLE = "s"
REWRITE_LHS = "lhs"
STAR = None  # the tree key of a variable's first occurrence; its walk key is negative
REPEAT = "="  # a node's entry for its repeat edges, a dict from variable number to child


def _generation_keys(c: Clause) -> set[tuple]:
    """The generation keys of c's selected literals (see the module docstring);
    only a selected positive equality builds c's source set-up."""
    keys: set[tuple] = set()
    selected = set()
    for i in select(c):
        lit = c.literals[i]
        if not lit.is_equality:
            keys.add((RESOLVES, lit.pred, lit.positive))
        elif lit.positive:
            for o in source_set_up(c).equations[i]:
                keys.add((REWRITES, None if type(o.lhs) is Var else o.lhs.sym))
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
    """The tree path (tag, keys) of a walked term sequence: its walk keys
    with its variables numbered 0, 1, ... by first occurrence, each first
    occurrence STAR and each later occurrence of the n-th variable ~n (that
    is -1 - n), the key of its repeat edge.  It names no variable of the
    walk, so paths that differ only by a renaming are equal.
    """
    if ground:
        return tag, keys
    number: dict[int, int] = {}
    path = []
    for k in keys:
        if k >= 0:
            path.append(k)
        elif k in number:
            path.append(~number[k])
        else:
            number[k] = len(number)
            path.append(STAR)
    return tag, tuple(path)


def _paths(walked: Iterable[tuple[Literal, tuple]]) -> dict[tuple, tuple[tuple[int, ...], bool]]:
    """The tree path (tag, keys) of each walked literal, each path once,
    mapped to the sizes of its walk and whether it is ground."""
    return {
        _tree_path((lit.positive, lit.pred), keys, lit.ground): (sizes, lit.ground) for lit, (keys, sizes) in walked
    }


def _lhs_paths(c: Clause) -> dict[tuple, tuple[tuple[int, ...], bool]]:
    """The paths of the left-hand sides the unit clause c can rewrite with,
    each mapped to its sizes and whether it is ground; {} unless c is a
    positive equality."""
    lit = c.literals[0]
    if not (lit.positive and lit.is_equality):
        return {}
    keys, sizes = literal_walks(c)[0]
    m = sizes[0]
    # both sides of a permutative unit such as h(X,Y) = h(Y,X) give one
    # path, and a path is removed once, so it is stored once
    paths = {}
    for o in source_set_up(c).equations[0]:
        if o.verdict is not OrderResult.EQUAL and not o.extra_vars:
            side = slice(None, m) if o.lhs is lit.lhs else slice(m, None)
            paths[_tree_path(REWRITE_LHS, keys[side], o.lhs.ground)] = (sizes[side], o.lhs.ground)
    return paths


def _other_order(walk: tuple) -> tuple:
    """The walk of an equality's arguments in the other order: the second
    argument's keys and sizes, then the first's."""
    keys, sizes = walk
    m = sizes[0]
    return keys[m:] + keys[:m], sizes[m:] + sizes[:m]


def _leaves(retrieve: Callable, lit: Literal, walk: tuple) -> list[set[int]]:
    """The leaves that retrieve (a tree's generalizations or instances)
    reaches from lit's walk under lit's tag, and for an equality with two
    different sides from the walk of its other order too."""
    tag, ground = (lit.positive, lit.pred), lit.ground
    leaves = retrieve(tag, walk, ground)
    if lit.pred is None and lit.args[0] != lit.args[1]:
        leaves += retrieve(tag, _other_order(walk), ground)
    return leaves


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
    instance retrieval; it keeps the paths and leaves of each clause.

    A path (tag, keys) is a tag followed by pre-order symbol keys, STAR at
    a variable's first occurrence and ~n at each later occurrence of the
    n-th variable (see _tree_path); a trie descends its edges in that
    order.  Inner nodes are dicts from edge to child, with a node's repeat
    edges under its one REPEAT entry, a dict from n to child, so a descent
    looks them up at once and a query variable's negative key meets none.
    Every leaf is the set of clauses filed under its path, the node after
    its last key, or root[tag] itself for a tag with no keys.  Paths of one
    tag are complete term sequences over fixed arities, so no path is a
    prefix of another.  _arity holds the arity of every symbol ever
    inserted, _paths each filed clause's paths by its id, and _leaves its
    leaves in that order, so removal walks a path only to drop its leaf.

    _root holds the paths with a variable, and the ground paths are in a
    trie of their own at _ground_root, each also mapped by _ground, the
    ground-path table, from the tuple kept in _paths to its leaf, that
    trie's own set.  A ground query finds its ground paths with one lookup
    in the table (see the module docstring), and a filed ground path takes
    a new clause by that lookup too.
    """

    def __init__(self) -> None:
        self._root: dict = {}
        self._ground_root: dict = {}
        self._arity: dict[int, int] = {}
        self._paths: dict[int, tuple[tuple, ...]] = {}
        self._leaves: dict[int, list[set]] = {}
        self._ground: dict[tuple, set] = {}

    def insert(self, c: Clause, paths: dict[tuple, tuple[tuple[int, ...], bool]]) -> list[set]:
        """File c under every path (tag, keys) of paths, which maps each to
        its walk's sizes and whether it is ground, and return its leaves in
        that order; [] for a filed clause or no path."""
        if not paths or c.cid in self._paths:
            return []
        self._paths[c.cid] = tuple(paths)
        arity, table = self._arity, self._ground
        leaves = self._leaves[c.cid] = []
        for path, (sizes, ground) in paths.items():
            if ground and (leaf := table.get(path)) is not None:
                leaf.add(c)
                leaves.append(leaf)
                continue
            tag, keys = path
            # node[edge] is the slot the next node or the leaf goes in
            node, edge = self._ground_root if ground else self._root, tag
            for i, key in enumerate(keys):
                node = node.setdefault(edge, {})
                if key is STAR:
                    edge = key
                elif key < 0:
                    node, edge = node.setdefault(REPEAT, {}), ~key
                else:
                    if key not in arity:
                        count, j, stop = 0, i + 1, i + sizes[i]
                        while j < stop:
                            count, j = count + 1, j + sizes[j]
                        arity[key] = count
                    edge = key
            leaf = node.setdefault(edge, set())
            if ground:
                table[path] = leaf
            leaf.add(c)
            leaves.append(leaf)
        return leaves

    def remove(self, c: Clause) -> None:
        """Take c off every path it is filed under, and drop the item sets,
        nodes, REPEAT entries and ground-table entries left empty."""
        paths, leaves = self._paths.pop(c.cid, ()), self._leaves.pop(c.cid, [])
        for path, leaf in zip(paths, leaves):
            leaf.discard(c)
            if leaf:
                continue
            ground = self._ground.pop(path, None) is not None
            slots = []
            node, edge = self._ground_root if ground else self._root, path[0]
            for key in path[1]:
                slots.append((node, edge))
                node = node[edge]
                if key is not STAR and key < 0:
                    slots.append((node, REPEAT))
                    node, edge = node[REPEAT], ~key
                else:
                    edge = key
            slots.append((node, edge))
            while slots:
                node, edge = slots.pop()
                if node[edge]:
                    break
                del node[edge]

    def generalizations(self, tag, walk: tuple, ground: bool) -> list[set]:
        """The item set of every path under tag that generalizes the walked
        argument tuple (clauses.literal_walks), ground when ground says so,
        its repeated variables bound to equal subterms."""
        out: list[set] = []
        keys, sizes = walk
        if ground and self._ground:
            leaf = self._ground.get((tag, keys))
            if leaf is not None:
                out.append(leaf)
        node = self._root.get(tag)
        if node is not None:
            # _root holds no path without keys, since such a path is ground
            self._collect(node, keys, sizes, 0, len(keys), out)
        return out

    def instances(self, tag, walk: tuple, ground: bool) -> list[set]:
        """The item set of every path under tag whose keys are an instance of
        the walked argument tuple, ground when ground says so, repeated
        variables ignored."""
        keys = walk[0]
        if ground:
            # a ground query's only instance is itself
            return [] if (leaf := self._ground.get((tag, keys))) is None else [leaf]
        nodes = [node for node in (self._root.get(tag), self._ground_root.get(tag)) if node is not None]
        arity = self._arity
        for key in keys:
            if not nodes:
                break
            if key < 0:
                # every node one whole stored term further down, a repeat
                # child being one stored variable, as a STAR child is
                stack = [(node, 1) for node in nodes]
                nodes = []
                while stack:
                    node, pending = stack.pop()
                    for edge, child in node.items():
                        if edge is REPEAT:
                            children, left = child.values(), pending - 1
                        else:
                            children = (child,)
                            left = pending - 1 if edge is STAR else pending - 1 + arity[edge]
                        if left:
                            stack.extend([(child, left) for child in children])
                        else:
                            nodes.extend(children)
            else:
                nodes = [child for node in nodes if (child := node.get(key)) is not None]
        return nodes

    def subterm_generalizations(self, tag, walks: Sequence[tuple]) -> list[set]:
        """The item set of every path under tag, each a single term, that
        generalizes some non-variable subterm of the walked argument tuples,
        its repeated variables bound to equal subterms.  It walks both
        tries, since a literal with a variable holds ground subterms too."""
        out: list[set] = []
        for root in (self._root, self._ground_root):
            node = root.get(tag)
            if node is None:
                continue
            star = STAR in node
            for keys, sizes in walks:
                for i, key in enumerate(keys):
                    if key >= 0 and (star or key in node):
                        self._collect(node, keys, sizes, i, i + sizes[i], out)
        return out

    @staticmethod
    def _collect(node: dict, keys: tuple, sizes: tuple[int, ...], start: int, stop: int, out: list) -> None:
        """Append to out the item set of every path below node that
        generalizes the query keys[start:stop], its repeated variables bound
        to equal subterms; a leaf goes to out as its edge is taken.  Each
        stack entry links the query positions its path's variables are bound
        to as pairs (last position, pairs before), which a STAR edge extends
        in O(1) and only a repeat edge walks.  A query variable's key is
        negative, so it follows no symbol edge."""
        stack = [(node, start, ())]
        while stack:
            node, i, bound = stack.pop()
            child = node.get(STAR)
            if child is not None:
                end = i + sizes[i]
                if end == stop:
                    out.append(child)
                else:
                    stack.append((child, end, (i, bound)))
            repeats = node.get(REPEAT) if bound else None
            if repeats is not None:
                # the positions, last variable first, so variable n's is at ~n
                starts, pair = [], bound
                while pair:
                    starts.append(pair[0])
                    pair = pair[1]
                size = sizes[i]
                end = i + size
                for n, child in repeats.items():
                    # spans of unequal size differ without a look at their
                    # keys, so a repeat edge costs no more than the
                    # subterms it compares, which are disjoint and of one size
                    p = starts[~n]
                    if sizes[p] == size and keys[p:p + size] == keys[i:end]:
                        if end == stop:
                            out.append(child)
                        else:
                            stack.append((child, end, bound))
            child = node.get(keys[i])
            if child is not None:
                if i + 1 == stop:
                    out.append(child)
                else:
                    stack.append((child, i + 1, bound))


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


def _copy_key(literals: tuple[Literal, ...]) -> tuple:
    """The key under which clauses with these literals are filed for the
    exact-copy screen: equal literal tuples have equal keys."""
    return (len(literals), literals[0], literals[-1]) if literals else ()


class BackwardIndex:
    """Index of all active clauses.

    Every clause's distinct literals go into a discrimination tree, for
    subsumption both ways and backward subsumption demodulation; every
    clause is also filed under the generation keys of its selected
    literals, for generating inferences, and under its length and first
    and last literals (_copy_key), for the exact-copy screen in front of
    forward subsumption (copy_of).  The keys and paths of each clause are
    computed once, on insert, the paths from its stored literal walks; the
    tree keeps the paths and leaves, _keys the generation keys, _copies the
    clauses by copy key and id, _designated the clauses by the id of their
    designated leaf and _designated_at that id by clause id.  insert and
    remove keep all five, so however a clause leaves the active set, it
    leaves every table.

    The copy key hashes two literals, not the whole tuple: Literal's hash
    is a Python call per literal, and keyed on whole tuples the screen
    cost the benchmark's corpus4 workload, whose clauses reach 197
    literals, 2% of its CPU time (2 cores, CPython 3.11).
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, set[int]] = {}
        self._tree = DiscriminationTree()
        self._designated: dict[int, set[Clause]] = {}
        self._designated_at: dict[int, int] = {}
        self._keys: dict[int, set[tuple]] = {}
        self._copies: dict[tuple, dict[int, Clause]] = {}

    def insert(self, c: Clause) -> None:
        keys = self._keys[c.cid] = _generation_keys(c)
        for key in keys:
            self._buckets.setdefault(key, set()).add(c.cid)
        paths = _paths(zip(distinct_literals(c), literal_walks(c)))
        leaves = self._tree.insert(c, paths)
        if leaves:
            # the designated leaf is that of the path with the most keys, first on ties
            lengths = [len(keys) for _, keys in paths]
            key = self._designated_at[c.cid] = id(leaves[lengths.index(max(lengths))])
            self._designated.setdefault(key, set()).add(c)
        self._copies.setdefault(_copy_key(c.literals), {})[c.cid] = c

    def remove(self, c: Clause) -> None:
        for key in self._keys.pop(c.cid, ()):
            bucket = self._buckets[key]
            bucket.discard(c.cid)
            if not bucket:
                del self._buckets[key]
        self._tree.remove(c)
        key = self._designated_at.pop(c.cid, None)
        if key is not None:
            self._designated[key].discard(c)
            if not self._designated[key]:
                del self._designated[key]
        key = _copy_key(c.literals)
        copies = self._copies.get(key)
        if copies is not None and copies.pop(c.cid, None) is not None and not copies:
            del self._copies[key]

    def copy_of(self, d: Clause) -> Optional[Clause]:
        """An indexed clause other than d with d's literal tuple, or None.

        Such a clause subsumes d: the identity substitution maps each of
        its literals onto the literal at the same position of d."""
        copies = self._copies.get(_copy_key(d.literals))
        if copies is not None:
            for c in copies.values():
                if c is not d and c.literals == d.literals:
                    return c
        return None

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
        """Active clauses that might subsume d; each unit among them does.

        A subsumer puts every literal into d, so each of its literal paths
        generalizes a literal of d, an equality in either argument order;
        the clauses designated at a reached leaf whose every leaf is
        reached are kept.
        """
        walked = zip(distinct_literals(d), literal_walks(d))
        reached = {id(leaf) for lit, walk in walked for leaf in _leaves(self._tree.generalizations, lit, walk)}
        leaves, designated = self._tree._leaves, self._designated
        return {c for key in reached for c in designated.get(key, ())
                if c is not d and all(id(leaf) in reached for leaf in leaves[c.cid])}

    def backward_subsumption_candidates(self, g: Clause) -> set[Clause]:
        """Active clauses that g might subsume.

        Any clause subsumed by g holds an instance of every literal of g,
        an equality in either argument order.
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
        return found

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
