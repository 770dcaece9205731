"""Index tests: indexed literals, tree retrieval against brute force, and retrieval completeness."""

import itertools
import time

from oracles import (
    apply,
    filed_paths,
    forward_subsumption_candidates_ref,
    generation_keys_ref,
    linearized,
    naive_literal_matches,
    naive_match_args,
    naive_sd_applicable,
    naive_subsumes,
    preorder,
    rename_apart,
    subterm_symbols,
    top_symbol_key,
    tree_path,
)
from randgen import Gen

from sdprover import calculus, simplify
from sdprover.clauses import ClauseFactory, Literal, distinct_literals, eq, literal_walks, neq, predicate, select
from sdprover.index import (
    REPEAT,
    REWRITABLE,
    REWRITE_LHS,
    STAR,
    BackwardIndex,
    DiscriminationTree,
    FsdIndex,
    _generation_keys,
    _leaves,
    _lhs_paths,
    _other_order,
    _paths,
    best_literals,
)
from sdprover.matching import literal_match_substs, source_set_up, target_set_up
from sdprover.ordering import OrderResult
from sdprover.terms import App, Signature, Var, preorder_subterms

# the fixed symbols only: a test that draws random inputs makes a generator
# of its own, so its inputs do not depend on which tests ran before it
env = Gen(seed=31)
x, y = Var(0), Var(1)


def _clauses(gen, factory, count, max_len):
    out = []
    for _ in range(count):
        out.append(factory.make(gen.lits(gen.rng.randrange(1, max_len + 1))))
    return out


def _applicable_pair(gen, factory):
    """A (side, main) clause pair where one rewrite step fires."""
    t = gen.term(2, ground=True)
    u = gen.term(1, ground=True)
    if gen.rng.random() < 0.5:
        side = factory.make([eq(gen.f(x), x), gen.p(x)])
        main = factory.make([gen.p(t), gen.q(gen.f(t))])
    else:
        side = factory.make([eq(gen.h(x, y), y), gen.q(x)])
        main = factory.make([gen.q(t), gen.p(gen.h(t, u))])
    return side, main


def test_index_keys_skip_best_positive_equality():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(env.g(x)), env.g(x)), env.q(x), env.r(y, y)])
    # the equality outweighs both others, so the heaviest remaining literal
    # (the binary atom) is the indexed literal
    assert best_literals(c) == [c.literals[2]]


def test_index_keys_use_top_two_when_both_are_equalities():
    factory = ClauseFactory()
    c = factory.make([eq(env.f(x), x), eq(env.g(y), y)])
    assert best_literals(c) == list(c.literals)


def test_index_keys_use_best_literal_when_not_an_equality():
    factory = ClauseFactory()
    c = factory.make([env.p(env.f(env.f(x))), eq(x, y)])
    assert best_literals(c) == [c.literals[0]]


def test_unindexable_clauses_have_no_keys():
    factory = ClauseFactory()
    assert best_literals(factory.make([env.p(x), env.q(x)])) == []
    assert best_literals(factory.make([eq(env.f(x), x)])) == []
    assert best_literals(factory.make([])) == []


def _edges_to_sets(tree):
    """Each set in the tree, keyed by the edges that lead to it from the root."""
    out, stack = {}, [((), tree._root)]
    while stack:
        edges, node = stack.pop()
        if isinstance(node, set):
            out[edges] = node
        else:
            stack.extend((edges + (edge,), child) for edge, child in node.items())
    return out


def _tree_items(tree):
    """Every item stored in the tree, once per path it is stored under."""
    return [c for items in _edges_to_sets(tree).values() for c in items]


def _rewrites(c):
    """Whether the forward index files c: a side premise with best literals,
    or a unit equality with a left-hand side it can rewrite with."""
    return bool(best_literals(c) or (len(c.literals) == 1 and _lhs_paths(c)))


def test_fsd_index_insert_remove_round_trip():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = FsdIndex()
    # units that can rewrite, and ones that cannot: EQUAL sides, no equality
    f, g, h = gen.f, gen.g, gen.h
    units = [eq(f(g(x)), g(x)), eq(h(x, y), h(y, x)), eq(f(x), f(x)), gen.p(x)]
    kept = []
    for c in _clauses(gen, factory, 40, 4) + [factory.make([lit]) for lit in units]:
        ix.insert(c)
        if _rewrites(c):
            kept.append(c)
    assert any(len(c.literals) == 1 for c in kept) and any(len(c.literals) > 1 for c in kept)
    assert set(ix._tree._paths) == {c.cid for c in kept}
    # each clause is in the tree once under each of its paths
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [c for c in kept for _ in filed_paths(ix._tree, c)]
    for c in kept:
        assert filed_paths(ix._tree, c)
        ix.remove(c)
        assert filed_paths(ix._tree, c) == ()
    # removal drops every path and tree node it made
    assert ix._tree._paths == {} and ix._tree._root == {}
    probe = factory.make([gen.p(gen.a)])
    assert ix.retrieve_fsd_candidates(probe) == set()


def test_fsd_index_double_insert_and_remove_are_idempotent():
    factory = ClauseFactory()
    ix = FsdIndex()
    side, unit = factory.make([eq(env.f(x), x), env.p(x)]), factory.make([eq(env.f(x), x)])
    for c in (side, unit):
        ix.insert(c)
        ix.insert(c)
    assert len(ix._tree._paths) == 2
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [side] * len(filed_paths(ix._tree, side)) + [unit]
    for c in (side, unit):
        ix.remove(c)
        ix.remove(c)
    assert ix._tree._paths == {} and ix._tree._root == {}


def test_fsd_retrieval_by_residual_literal():
    factory = ClauseFactory()
    ix = FsdIndex()
    c = factory.make([eq(env.h(x, y), y), env.q(x)])
    ix.insert(c)
    d = factory.make([env.p(env.h(env.a, env.b)), env.q(env.a)])
    assert c in ix.retrieve_fsd_candidates(d)


def test_fsd_retrieval_never_misses_an_applicable_side():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = FsdIndex()
    stored = _clauses(gen, factory, 25, 3)
    mains = []
    for _ in range(15):
        side, main = _applicable_pair(gen, factory)
        stored.append(side)
        mains.append(main)
    for c in stored:
        ix.insert(c)
    queries = mains + [factory.make(gen.lits(gen.rng.randrange(1, 4))) for _ in range(40)]
    hits = 0
    for d in queries:
        found = ix.retrieve_fsd_candidates(d)
        for c in stored:
            # unit equalities are out of scope for the index by contract
            if best_literals(c) and naive_sd_applicable(c.literals, d.literals):
                assert c in found
                hits += 1
    assert hits >= 15


def test_backward_index_round_trip():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = BackwardIndex()
    stored = _clauses(gen, factory, 30, 4)
    for c in stored:
        ix.insert(c)
        ix.insert(c)
    assert set(ix._keys) == set(ix._tree._paths) == {c.cid for c in stored}
    # each clause is in the tree once under each of its distinct literals
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [c for c in stored for _ in filed_paths(ix._tree, c)]
    assert all(len(filed_paths(ix._tree, c)) == len(set(c.literals)) for c in stored)
    for c in stored:
        ix.remove(c)
        ix.remove(c)
    # removal drops every bucket, generation key, path, tree node and
    # ground-path entry it made
    assert ix._buckets == {} and ix._keys == {} and ix._tree._paths == {} and ix._tree._root == {}
    assert ix._tree._ground == {}
    # a permutative unit rewrites left to right and right to left from one
    # left-hand side path, stored once and removed once
    fx = FsdIndex()
    h, f, a, b = gen.h, gen.f, gen.a, gen.b
    query = factory.make([gen.p(h(f(a), f(b)))])
    for lhs, rhs in [(h(x, y), h(y, x)), (h(f(x), f(y)), h(f(y), f(x)))]:
        unit = factory.make([eq(lhs, rhs)])
        fx.insert(unit)
        assert fx.demodulators(query) == {unit}
        assert len(filed_paths(fx._tree, unit)) == 1
        fx.remove(unit)
        assert fx._tree._paths == {} and fx._tree._root == {}


def test_unit_left_hand_sides_are_filed_in_the_forward_tree_only():
    """Demodulation reads a unit's left-hand sides from the forward index;
    the backward tree files the unit's literal alone."""
    factory = ClauseFactory()
    f, g, a = env.f, env.g, env.a
    unit = factory.make([eq(f(g(x)), g(x))])
    query = factory.make([env.p(f(g(a)))])
    forward, backward = FsdIndex(), BackwardIndex()
    forward.insert(unit)
    backward.insert(unit)
    # f(g(X)) is the one left-hand side, and X occurs once in it; in the
    # literal's path f(g(X)) = g(X), X is variable 0, and its second
    # occurrence is the repeat edge ~0
    assert filed_paths(forward._tree, unit) == ((REWRITE_LHS, (f.sid, g.sid, STAR)),)
    assert forward.demodulators(query) == {unit}
    lit_keys = (f.sid, g.sid, STAR, g.sid, ~0)
    assert filed_paths(backward._tree, unit) == (((True, None), lit_keys),)
    assert REWRITE_LHS not in backward._tree._root
    # only the backward tree answers instance queries, so only it keeps
    # the ground-path table
    assert forward._tree._ground is None and backward._tree._ground == {}


def test_bsd_retrieval_never_misses_a_rewritable_main():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(gen, factory, 25, 3)
    sides = []
    for _ in range(15):
        side, main = _applicable_pair(gen, factory)
        active.append(main)
        sides.append(side)
    for d in active:
        ix.insert(d)
    queries = sides + [factory.make(gen.lits(gen.rng.randrange(2, 4))) for _ in range(25)]
    hits = 0
    for c in queries:
        found = ix.retrieve_bsd_candidates(c)
        for d in active:
            if naive_sd_applicable(c.literals, d.literals):
                assert d in found
                hits += 1
    assert hits >= 15


def test_rewriting_retrieval_reads_an_indexed_equality_in_either_order():
    """A side premise indexed under its two equalities finds, forward and
    backward, a main premise that holds an instance of one of them with
    its sides swapped."""
    factory = ClauseFactory()
    h, f, g, a, b = env.h, env.f, env.g, env.a, env.b
    side = factory.make([eq(f(x), x), eq(h(x, a), g(x))])
    main = factory.make([eq(g(b), h(b, a)), env.p(f(b))])
    assert best_literals(side) == [side.literals[1], side.literals[0]]
    assert naive_sd_applicable(side.literals, main.literals)
    forward = FsdIndex()
    forward.insert(side)
    assert forward.retrieve_fsd_candidates(main) == {side}
    backward = BackwardIndex()
    backward.insert(main)
    assert backward.retrieve_bsd_candidates(side) == {main}


def _shares_a_key(c, d):
    return any(top_symbol_key(a) == top_symbol_key(b) for a in c.literals for b in d.literals)


def _has_every_key(c, d):
    return all(any(top_symbol_key(a) == top_symbol_key(b) for b in d.literals) for a in c.literals)


def test_forward_subsumption_retrieval_complete():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(gen, factory, 25, 3)
    for c in active:
        ix.insert(c)
    hits = 0
    screened = 0
    for _ in range(40):
        d = factory.make(gen.lits(gen.rng.randrange(1, 4)))
        found = ix.forward_subsumption_candidates(d)
        for c in active:
            src = rename_apart(c.literals, d.literals)
            if naive_subsumes(src, d.literals):
                assert c in found
                hits += 1
            elif _shares_a_key(c, d) and c not in found:
                screened += 1
    assert hits > 0
    # the tree drops clauses a top-symbol lookup returns
    assert screened > 0


def test_backward_subsumption_retrieval_complete():
    gen = Gen(seed=31)
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(gen, factory, 25, 3)
    for d in active:
        ix.insert(d)
    hits = 0
    screened = 0
    for _ in range(40):
        g = factory.make(gen.lits(gen.rng.randrange(1, 3)))
        found = ix.backward_subsumption_candidates(g)
        for d in active:
            src = rename_apart(g.literals, d.literals)
            if naive_subsumes(src, d.literals):
                assert d in found
                hits += 1
            elif _has_every_key(g, d) and d not in found:
                screened += 1
    assert hits > 0
    assert screened > 0


def test_generation_keys_build_the_source_set_up_only_for_a_selected_positive_equality():
    """Filing a clause reads its source set-up only when a selected literal
    is a positive equality, and the keys equal those read off the eager
    set-up, for clauses that select positive and negative equalities."""
    factory = ClauseFactory()
    side = factory.make([env.p(x).negated(), eq(env.f(x), x)])
    ix = BackwardIndex()
    ix.insert(side)
    assert select(side) == (0,) and side._match_order is None
    ix.remove(side)
    gen = Gen(seed=71)
    kinds = {True: 0, False: 0}
    for k in range(400):
        lits = gen.lits(gen.rng.randrange(1, 5))
        # every other clause all positive, so that it selects its maximal literals
        c = factory.make(lits if k % 2 else [lit if lit.positive else lit.negated() for lit in lits])
        keys = _generation_keys(c)
        selected_eqs = [c.literals[i].positive for i in select(c) if c.literals[i].is_equality]
        assert (c._match_order is None) is not any(selected_eqs)
        assert keys == generation_keys_ref(c), c
        for positive in set(selected_eqs):
            kinds[positive] += 1
    assert min(kinds.values()) >= 30, kinds


def test_generation_partners_cover_every_pair_with_a_conclusion():
    """Every pair on which resolution or superposition gives a conclusion,
    either way round and a clause with itself, is among the partners the
    index returns for that call."""
    gen = Gen(seed=57)
    factory = ClauseFactory()
    ix = BackwardIndex()
    stored = []
    for k in range(70):
        lits = gen.lits(gen.rng.randrange(1, 4))
        if k % 4 == 0:
            lits += (gen.pos_eq(),)
        stored.append(factory.make(lits))
    for c in stored:
        ix.insert(c)
    scratch = ClauseFactory()
    rules = (
        lambda g, a: calculus.resolution(g, a, scratch),
        lambda g, a: calculus.superposition(g, a, scratch),
        lambda g, a: calculus.superposition(a, g, scratch),
        lambda g, a: calculus.resolution(a, g, scratch),
    )
    fired = [0, 0, 0, 0]
    retrieved = 0
    for g in stored:
        partners = ix.generation_partners(g)
        retrieved += sum(map(len, partners))
        for a in stored:
            for k, (rule, ids) in enumerate(zip(rules, partners)):
                if rule(g, a):
                    assert a.cid in ids, (k, g, a)
                    fired[k] += 1
    assert min(fired) >= 20, fired
    # an indexed clause that superposes into itself is its own partner
    assert any(g.cid in ix.generation_partners(g)[1] for g in stored)
    # the filter leaves out most of the pairs
    assert retrieved < 4 * len(stored) ** 2 // 2


def _tree_hits(tree, query):
    """Ids of the clauses under every tree path that generalizes the unit
    clause query's literal, an equality in either argument order."""
    (lit,) = query.literals
    (walk,) = literal_walks(query)
    return {c.cid for c in set().union(*_leaves(tree.generalizations, lit, walk))}


def test_generalization_tree_retrieves_every_matching_literal():
    """Every stored literal that matches a query literal, under the
    matcher's literal_match_substs, is retrieved; most others are not."""
    gen = Gen(seed=61)
    factory = ClauseFactory()
    tree = DiscriminationTree()
    stored = [factory.make([gen.literal(depth=2)]) for _ in range(200)]
    for c in stored:
        tree.insert(c, _paths(zip(c.literals, literal_walks(c))))
    matched = retrieved = same_key = 0
    for _ in range(200):
        query = gen.literal(depth=3)
        found = _tree_hits(tree, factory.make([query]))
        retrieved += len(found)
        same_key += sum(top_symbol_key(c.literals[0]) == top_symbol_key(query) for c in stored)
        for c in stored:
            lit = c.literals[0]
            # the matcher pairs only literals of one polarity and predicate
            if (lit.positive, lit.pred) != (query.positive, query.pred):
                continue
            if next(literal_match_substs(lit, query, {}), None) is not None:
                assert c.cid in found, (c, query)
                matched += 1
    assert matched >= 300, matched
    # the tree filters: far fewer ids come back than a key lookup gives
    assert retrieved < same_key // 2, (retrieved, same_key)
    for c in stored:
        tree.remove(c)
    assert tree._paths == {} and tree._root == {}


def _instance_ids(stored, query, args):
    """The ids of the stored unit clauses whose literal the query literal,
    with the argument tuple args, matches one way onto in the stored
    argument order; and the same with the query's repeated variables
    ignored, which is what the tree retrieves."""
    exact, linear = set(), set()
    for c in stored:
        (lit,) = c.literals
        if top_symbol_key(lit) == top_symbol_key(query):
            if naive_match_args(args, lit.args):
                exact.add(c.cid)
            if naive_match_args(linearized(args), lit.args):
                linear.add(c.cid)
    return exact, linear


def _instance_queries(gen, tower):
    """Seeded query literals: random ones, with repeated variables, with a
    variable at the top, ground, propositional, and 400-deep towers."""
    h, f = gen.h, gen.f
    out = [gen.literal(depth=gen.rng.randrange(4)) for _ in range(150)]
    out += [gen.literal(depth=2, ground=True) for _ in range(30)]
    out += [gen.r(x, x), gen.r(h(x, y), x), eq(x, y), eq(x, x), eq(h(x, y), f(x)), gen.p(x), gen.r(x, gen.a)]
    out += [gen.s(), gen.s().negated(), gen.p(tower), eq(tower, y), eq(f(x), tower), gen.r(x, tower)]
    return out


def test_instance_retrieval_agrees_with_brute_force():
    """The tree's instances, for a query walk and the walk of its other
    order, are the stored literals the query matches one way onto in that
    argument order, repeated variables ignored; so they include every true
    instance."""
    gen = Gen(seed=71)
    gen.s = predicate(gen.sig, "s", 0)
    factory = ClauseFactory()
    tower, ground_tower = x, gen.a
    for _ in range(400):
        tower, ground_tower = gen.f(tower), gen.f(ground_tower)
    lits = [gen.literal(depth=3) for _ in range(300)]
    lits += [gen.literal(depth=2, ground=True) for _ in range(60)]
    lits += [gen.s(), gen.s().negated(), gen.p(ground_tower), gen.p(tower), eq(ground_tower, gen.b)]
    lits += [eq(gen.f(gen.b), ground_tower), gen.r(gen.a, ground_tower), gen.r(x, x), eq(x, x)]
    stored = [factory.make([lit]) for lit in lits]
    tree = DiscriminationTree(ground_lookup=True)
    for c in stored:
        tree.insert(c, _paths(zip(c.literals, literal_walks(c))))
    assert len(tree._ground) >= 60
    found_total = exact_total = swapped_differs = 0
    for query in _instance_queries(gen, tower):
        (walk,) = literal_walks(factory.make([query]))
        walks = [(walk, query.args)]
        if query.is_equality:
            walks.append((_other_order(walk), query.args[::-1]))
        founds = []
        for w, args in walks:
            found = {c.cid for c in set().union(*tree.instances(top_symbol_key(query), w))}
            exact, linear = _instance_ids(stored, query, args)
            assert found == linear, (query, args)
            assert exact <= found
            found_total += len(found)
            exact_total += len(exact)
            founds.append(found)
        swapped_differs += founds[0] != founds[-1]
    assert exact_total >= 300 and found_total > exact_total, (exact_total, found_total)
    assert swapped_differs >= 15, swapped_differs
    for c in stored:
        tree.remove(c)
    assert tree._paths == {} and tree._root == {} and tree._ground == {}


def test_ground_table_maps_each_ground_path_to_its_leaf():
    """Through seeded inserts and removals, the ground-path table maps
    exactly the ground paths of the filed clauses, each to the trie's own
    leaf at root, tag, keys (the same object); and a ground query's
    instances, one lookup there, are the ones a tree without the table
    finds by walking.  After the removals the table is empty."""
    gen = Gen(seed=73)
    gen.s = predicate(gen.sig, "s", 0)
    factory = ClauseFactory()
    ground = [gen.literal(depth=2, ground=True) for _ in range(40)] + [gen.s(), gen.s().negated()]
    lits = ground + [gen.literal(depth=2) for _ in range(40)]
    pool = [factory.make([gen.rng.choice(lits) for _ in range(gen.rng.randrange(1, 4))]) for _ in range(60)]
    tree, plain = DiscriminationTree(ground_lookup=True), DiscriminationTree()
    filed: dict[int, object] = {}
    hits = 0
    for step in range(600):
        c = gen.rng.choice(pool)
        if c.cid in filed:
            del filed[c.cid]
            tree.remove(c)
            plain.remove(c)
        else:
            filed[c.cid] = c
            paths = _paths(zip(distinct_literals(c), literal_walks(c)))
            tree.insert(c, paths)
            plain.insert(c, paths)
        # a ground path has no STAR, since a variable's first occurrence is one
        assert set(tree._ground) == {path for c in filed.values() for path in filed_paths(tree, c) if STAR not in path[1]}
        sets = _edges_to_sets(tree)
        assert all(leaf is sets[(tag,) + keys] for (tag, keys), leaf in tree._ground.items())
        if step % 10 == 0:
            for lit in ground:
                (walk,) = literal_walks(factory.make([lit]))
                tag = (lit.positive, lit.pred)
                found = tree.instances(tag, walk)
                walked = plain.instances(tag, walk)
                assert len(found) <= 1 and set().union(*found) == set().union(*walked), lit
                hits += bool(found)
    assert hits >= 1000 and len(filed) >= 20, (hits, len(filed))
    for c in filed.values():
        tree.remove(c)
    assert tree._paths == {} and tree._root == {} and tree._ground == {}


def test_demodulators_cover_every_rewriting_unit():
    """Every active unit equality that rewrites a clause is among the
    demodulators the index retrieves for it, and a unit whose left-hand
    sides cannot rewrite is never retrieved."""
    gen = Gen(seed=67)
    factory = ClauseFactory()
    ix = FsdIndex()
    units = [factory.make([gen.pos_eq()]) for _ in range(40)]
    # a variable left-hand side; then units that can never rewrite: EQUAL
    # sides, and a right-hand variable each left-hand side lacks
    for lit in (eq(x, gen.a), eq(gen.f(x), gen.f(x)), eq(gen.f(x), gen.g(y))):
        units.append(factory.make([lit]))
    for c in units:
        ix.insert(c)
    scratch = ClauseFactory()
    rewrites = retrieved = 0
    for _ in range(150):
        g = factory.make(gen.lits(gen.rng.randrange(1, 4), depth=3))
        found = ix.demodulators(g)
        retrieved += len(found)
        assert units[-1] not in found and units[-2] not in found
        for c in units:
            if simplify.demodulate(c, g, scratch) is not None:
                assert c in found, (c, g)
                rewrites += 1
    assert rewrites >= 300, rewrites
    assert retrieved < 150 * len(units) // 2, retrieved


def _walk_clauses(factory):
    """Seeded clauses for the walk checks: random and ground ones, unit
    equalities, deep towers, a repeated literal, and the permutative units
    h(X,Y) = h(Y,X) and h(f(X),f(Y)) = h(f(Y),f(X))."""
    gen = Gen(seed=89)
    h, f, g, a = gen.h, gen.f, gen.g, gen.a
    out = [factory.make(gen.lits(gen.rng.randrange(1, 5), depth=3)) for _ in range(150)]
    out += [factory.make(gen.lits(gen.rng.randrange(1, 4), ground=True)) for _ in range(30)]
    out += [factory.make([gen.pos_eq(depth=3)]) for _ in range(60)]
    tower, ground_tower = x, a
    for _ in range(400):
        tower, ground_tower = f(tower), g(ground_tower)
    out += [
        factory.make([eq(tower, g(x))]),
        factory.make([eq(h(ground_tower, x), x), gen.p(tower)]),
        factory.make([neq(ground_tower, h(tower, a)), eq(h(x, tower), ground_tower)]),
    ]
    repeated = gen.literal(depth=2)
    out.append(factory.make([repeated, gen.literal(), repeated]))
    out += [factory.make([eq(h(x, y), h(y, x))]), factory.make([eq(h(f(x), f(y)), h(f(y), f(x)))])]
    return out


def _ids(leaves):
    return {id(leaf) for leaf in leaves}


def test_stored_walks_agree_with_fresh_walks():
    """Each clause's stored literal walks give the tree paths, generation
    keys, target symbols and query leaves, both generalizations and
    instances, an equality in both argument orders (the swapped walk), that
    walking the terms afresh gives."""
    factory = ClauseFactory()
    clauses = _walk_clauses(factory)
    ix, fx = BackwardIndex(), FsdIndex()
    for c in clauses:
        ix.insert(c)
        fx.insert(c)
    tree = ix._tree
    swapped_differs = subterm_hits = 0
    for c in clauses:
        distinct = list(dict.fromkeys(c.literals))
        walks = literal_walks(c)
        assert list(walks) == [preorder(lit.args) for lit in distinct]
        lhs_paths = {}
        if len(c.literals) == 1 and c.literals[0].positive and c.literals[0].is_equality:
            for o in source_set_up(c).equations[0]:
                if o.verdict is not OrderResult.EQUAL and not o.extra_vars:
                    lhs_paths[tree_path(REWRITE_LHS, (o.lhs,))] = preorder((o.lhs,))[1]
        literal_paths = {}
        for lit in distinct:
            literal_paths[tree_path((lit.positive, lit.pred), lit.args)] = preorder(lit.args)[1]
        assert filed_paths(ix._tree, c) == tuple(literal_paths)
        if len(c.literals) == 1:
            assert _lhs_paths(c) == lhs_paths
            assert filed_paths(fx._tree, c) == tuple(lhs_paths)
        symbols = subterm_symbols(c.literals[i] for i in select(c))
        assert {key[1] for key in _generation_keys(c) if key[0] == REWRITABLE} == (symbols | {None} if symbols else set())
        assert target_set_up(c).symbols == tuple(sorted(subterm_symbols(c.literals)))
        for lit, walk in zip(distinct, walks):
            tag = (lit.positive, lit.pred)
            for retrieve in (tree.generalizations, tree.instances):
                leaves = _ids(retrieve(tag, walk))
                assert leaves == _ids(retrieve(tag, preorder(lit.args)))
                if lit.is_equality:
                    keys, ends = _other_order(walk)
                    assert (keys, ends) == preorder(lit.args[::-1])
                    swapped = _ids(retrieve(tag, (keys, ends)))
                    assert swapped == _ids(retrieve(tag, preorder(lit.args[::-1]))), lit
                    assert _ids(_leaves(retrieve, lit, walk)) == (leaves | swapped if lit.lhs != lit.rhs else leaves)
                    swapped_differs += swapped != leaves
        demodulators = _ids(fx._tree.subterm_generalizations(REWRITE_LHS, walks))
        args = [a for lit in c.literals for a in lit.args]
        assert demodulators == _ids(fx._tree.subterm_generalizations(REWRITE_LHS, [preorder(args)]))
        subterm_hits += bool(demodulators)
    assert swapped_differs >= 150 and subterm_hits >= 150, (swapped_differs, subterm_hits)


def _repeats(path):
    """Whether the tree path (tag, keys) has a repeat edge: a variable that
    occurs twice."""
    return any(key is not STAR and key < 0 for key in path[1])


def _linear(lit):
    """lit with each variable occurrence replaced by a variable of its own."""
    return Literal(lit.positive, lit.pred, linearized(lit.args))


def _repeating_literals(gen, count, depth):
    """count seeded literals over two variables, so most non-ground ones
    repeat a variable, plus fixed ones that repeat it across an equality's
    sides or inside one argument."""
    h, f, g, a, b = gen.h, gen.f, gen.g, gen.a, gen.b
    out = [gen.literal(depth=depth) for _ in range(count)]
    out += [eq(f(x), x), eq(h(g(x), x), a), eq(h(x, y), h(y, x)), eq(h(x, x), f(y)), neq(g(x), x)]
    out += [gen.r(x, x), gen.r(h(x, f(x)), y), gen.r(h(x, y), h(y, x)), gen.p(h(f(x), f(x))), gen.r(x, y)]
    out += [gen.r(h(a, b), b), eq(f(a), b), gen.p(h(g(b), g(b)))]
    return out


def test_generalizations_check_repeated_variables():
    """The tree's generalizations of a query literal, in both argument
    orders of an equality, are exactly the stored literals that match it:
    every match comes back, and no literal whose repeated variables would
    bind unequal subterms does."""
    gen = Gen(seed=43, n_vars=2)
    factory = ClauseFactory()
    stored = [factory.make([lit]) for lit in _repeating_literals(gen, 250, 2)]
    tree = DiscriminationTree()
    for c in stored:
        tree.insert(c, _paths(zip(c.literals, literal_walks(c))))
    assert any(_repeats(path) for c in stored for path in filed_paths(tree, c))
    queries = [gen.literal(depth=3) for _ in range(150)] + [gen.literal(depth=3, ground=True) for _ in range(150)]
    # instances of stored literals, so that many queries have matches
    for c in stored[::3]:
        (lit,) = c.literals
        queries.append(apply(lit, {0: gen.term(1), 1: gen.term(1)}))
    matched = pruned = 0
    for query in queries:
        found = _tree_hits(tree, factory.make([query]))
        exact = {c.cid for c in stored if naive_literal_matches(c.literals[0], query, {})}
        linear = {c.cid for c in stored if naive_literal_matches(_linear(c.literals[0]), query, {})}
        assert found == exact, query
        matched += len(exact)
        pruned += len(linear - exact)
    assert matched >= 1000 and pruned >= 200, (matched, pruned)
    for c in stored:
        tree.remove(c)
    assert tree._paths == {} and tree._root == {}


def test_demodulators_check_repeated_variables():
    """The filed unit equalities the forward index returns for a clause are
    exactly those with a rewriting left-hand side that matches one of the
    clause's non-variable subterms."""
    gen = Gen(seed=47, n_vars=2)
    factory = ClauseFactory()
    h, f, g, a = gen.h, gen.f, gen.g, gen.a
    lits = [gen.pos_eq() for _ in range(60)]
    lits += [eq(h(g(x), x), a), eq(h(x, x), x), eq(f(h(x, x)), g(x)), eq(h(x, f(x)), f(x)), eq(h(x, y), h(y, x))]
    units = [factory.make([lit]) for lit in lits]
    ix = FsdIndex()
    for c in units:
        ix.insert(c)
    lhs = {}
    for c in units:
        orientations = source_set_up(c).equations[0]
        lhs[c.cid] = [o.lhs for o in orientations if o.verdict is not OrderResult.EQUAL and not o.extra_vars]
    assert any(_repeats(path) for c in units for path in filed_paths(ix._tree, c))
    rewriting = pruned = 0
    for k in range(200):
        g_lits = gen.lits(gen.rng.randrange(1, 4), depth=3, ground=k % 2 == 0)
        subterms = [t for lit in g_lits for arg in lit.args for _, t in preorder_subterms(arg) if isinstance(t, App)]
        query = factory.make(g_lits)
        found = {c.cid for c in ix.demodulators(query)}
        exact = {
            cid for cid, sides in lhs.items() if any(naive_match_args((s,), (t,)) for s in sides for t in subterms)
        }
        linear = {
            cid
            for cid, sides in lhs.items()
            if any(naive_match_args(linearized((s,)), (t,)) for s in sides for t in subterms)
        }
        assert found == exact, g_lits
        rewriting += len(exact)
        pruned += len(linear - exact)
    assert rewriting >= 2000 and pruned >= 250, (rewriting, pruned)
    for c in units:
        ix.remove(c)
    assert ix._tree._paths == {} and ix._tree._root == {}


def test_forward_subsumption_candidates_check_repeated_variables():
    """Every active clause that subsumes a query is a candidate, and every
    candidate's literals each match some literal of the query: none comes
    back whose repeated variables would bind unequal subterms."""
    gen = Gen(seed=53, n_vars=2)
    factory = ClauseFactory()
    lits = _repeating_literals(gen, 120, 2)
    active = [factory.make(lits[i : i + 1 + i % 2]) for i in range(0, len(lits), 2)]
    ix = BackwardIndex()
    for c in active:
        ix.insert(c)
    queries = [factory.make(gen.lits(gen.rng.randrange(1, 4), ground=k % 2 == 0)) for k in range(120)]
    for c in active[::2]:
        inst = {0: gen.term(1, ground=True), 1: gen.term(1)}
        extra = gen.lits(gen.rng.randrange(0, 2), ground=True)
        queries.append(factory.make(tuple(apply(lit, inst) for lit in c.literals) + extra))
    hits = pruned = 0
    for d in queries:
        found = ix.forward_subsumption_candidates(d)
        for c in active:
            if naive_subsumes(rename_apart(c.literals, d.literals), d.literals):
                assert c in found, (c, d)
                hits += 1
            literalwise = all(any(naive_literal_matches(l, m, {}) for m in d.literals) for l in c.literals)
            if c in found:
                assert literalwise, (c, d)
            elif all(any(naive_literal_matches(_linear(l), m, {}) for m in d.literals) for l in c.literals):
                pruned += 1
    assert hits >= 120 and pruned >= 50, (hits, pruned)
    for c in active:
        ix.remove(c)
    assert ix._tree._paths == {} and ix._tree._root == {}


def test_forward_subsumption_candidates_are_exactly_the_brute_force_set():
    """Over seeded inserts with interleaved removals, forward-subsumption
    retrieval returns exactly the clauses whose every literal matches some
    literal of the query: no superset, so a clause is found through its
    designated leaf or not at all.  Clauses repeat variables, and some
    repeat one ground literal many times beside a deep term, so most
    clauses share that literal's leaf.  Some queries hold each literal of
    such a clause once, so it comes back with more literals than the
    query: the index leaves literal counts to the matcher."""
    gen = Gen(seed=67, n_vars=2)
    factory = ClauseFactory()
    lits = _repeating_literals(gen, 100, 2)
    ground = gen.r(gen.a, gen.b)
    tower = gen.a
    pool = []
    for i in range(60):
        pool.append(factory.make(gen.rng.sample(lits, gen.rng.randrange(1, 4))))
        tower = gen.f(tower) if i % 2 else gen.g(tower)
        wide = [ground] * gen.rng.randrange(1, 40) + [gen.p(tower)]
        pool.append(factory.make(wide if i % 3 else [gen.q(x)] + wide))
    queries = [factory.make(gen.lits(gen.rng.randrange(1, 4), ground=k % 2 == 0)) for k in range(40)]
    for c in pool[::4]:
        inst = {0: gen.term(1, ground=True), 1: gen.term(1)}
        extra = gen.lits(gen.rng.randrange(0, 2), ground=True)
        queries.append(factory.make(tuple(apply(lit, inst) for lit in c.literals) + extra))
    queries += [c for c in pool if ground in c.literals][::3]
    queries += [factory.make(tuple(dict.fromkeys(c.literals))) for c in pool if ground in c.literals][1::3]
    ix = BackwardIndex()
    active: dict[int, object] = {}
    found_total = wider = 0
    for step, c in enumerate(pool):
        ix.insert(c)
        active[c.cid] = c
        if step % 3 == 2:
            gone = gen.rng.choice(sorted(active))
            ix.remove(active.pop(gone))
        if step % 10 == 9:
            for d in queries:
                exact = forward_subsumption_candidates_ref(active.values(), d)
                assert ix.forward_subsumption_candidates(d) == exact, d
                found_total += len(exact)
                wider += sum(len(c.literals) > len(d.literals) for c in exact)
    assert found_total >= 250 and wider >= 40, (found_total, wider)
    for c in active.values():
        ix.remove(c)
    assert ix._tree._leaves == {} and ix._tree._paths == {} and ix._designated == {}


def test_renamed_paths_share_a_leaf():
    """r(X, X) and r(Y, Y) end at one leaf, after a repeat edge, and r(X, Y)
    at its own: r(a, a) reaches both leaves, r(a, b) only the linear one,
    and removal in any order leaves no node behind."""
    gen = Gen(seed=59)
    r, a, b = gen.r, gen.a, gen.b
    factory = ClauseFactory()
    pair, same, renamed = (factory.make([lit]) for lit in (r(x, y), r(x, x), r(y, y)))
    tree = DiscriminationTree()
    tag = (True, r.sid)
    for order in ((pair, same, renamed), (same, pair, renamed), (renamed, same, pair)):
        for c in order:
            tree.insert(c, _paths(zip(c.literals, literal_walks(c))))
        assert filed_paths(tree, pair) == ((tag, (STAR, STAR)),)
        assert filed_paths(tree, same) == filed_paths(tree, renamed) == ((tag, (STAR, ~0)),)
        linear, repeated = tree._root[tag][STAR][STAR], tree._root[tag][STAR][REPEAT][0]
        assert linear == {pair} and repeated == {same, renamed}
        (walk,) = literal_walks(factory.make([r(a, a)]))
        assert _ids(tree.generalizations(tag, walk)) == _ids([linear, repeated])
        (walk,) = literal_walks(factory.make([r(a, b)]))
        assert _ids(tree.generalizations(tag, walk)) == _ids([linear])
        every = {pair, same, renamed}
        for query, want in ((r(a, b), {pair}), (r(a, a), every), (r(x, y), {pair}), (r(y, y), every)):
            assert _tree_hits(tree, factory.make([query])) == {c.cid for c in want}, query
        for c in order:
            tree.remove(c)
        assert tree._paths == {} and tree._root == {}


def test_every_leaf_is_a_set_after_its_last_key():
    """Every set in the tree is reached as root, tag, keys, through REPEAT
    at each repeat edge, the set of a tag with no keys being root[tag]
    itself, and no other node is a set, whatever order the clauses come and
    go in; after the removals the tree is empty."""
    sig = env.sig
    r, h, a = env.r, env.h, env.a
    s = predicate(sig, "s", 0)
    factory = ClauseFactory()
    lits = [r(x, y), r(x, x), r(y, y), s()]
    filed = [(c, _paths(zip(c.literals, literal_walks(c)))) for c in (factory.make([lit]) for lit in lits)]
    unit = factory.make([eq(h(x, x), a)])
    filed.append((unit, _lhs_paths(unit)))
    tree = DiscriminationTree()

    def expected(present):
        out = {}
        for c, paths in present:
            for tag, keys in paths:
                edges = [tag]
                for key in keys:
                    edges += [REPEAT, ~key] if key is not STAR and key < 0 else [key]
                out.setdefault(tuple(edges), set()).add(c)
        return out

    # r(X, X) and r(Y, Y) share a path; h(X, X) repeats its variable too
    assert {keys for _, paths in filed for _, keys in paths} == {(STAR, STAR), (STAR, ~0), (), (h.sid, STAR, ~0)}
    for order in itertools.permutations(filed):
        for k, (c, paths) in enumerate(order):
            tree.insert(c, paths)
            assert _edges_to_sets(tree) == expected(order[: k + 1])
        for k, (c, _) in enumerate(order):
            tree.remove(c)
            assert _edges_to_sets(tree) == expected(order[k + 1 :])
        assert tree._root == {} and tree._paths == {}


def test_repeated_variable_checks_are_linear_in_the_query():
    """A repeat edge compares the keys of two spans only when their lengths
    agree, so on the chain h(...h(h(b, b), b)..., b) of depth 40,000 the
    left-hand side h(X, X), reached at every level, costs no more than the
    walk: 0.02 s of CPU on a 2-core host under CPython 3.11, where slicing
    every span took 0.77 s, and four times that at twice the depth."""
    ts = Signature()
    h, a, b = ts.function("h", 2), ts.constant("a"), ts.constant("b")
    p = predicate(ts, "p", 1)
    factory = ClauseFactory()
    unit = factory.make([eq(h(x, x), a)])
    ix = FsdIndex()
    ix.insert(unit)
    t = b
    for _ in range(40000):
        t = h(t, b)
    g = factory.make([p(t)])
    start = time.process_time()
    assert ix.demodulators(g) == {unit}
    assert time.process_time() - start < 0.25
