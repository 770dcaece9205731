"""Index tests: indexed literals, tree retrieval against brute force, and retrieval completeness."""

from oracles import (
    linearized,
    naive_match_args,
    naive_sd_applicable,
    naive_subsumes,
    preorder,
    rename_apart,
    subterm_symbols,
    top_symbol_key,
)
from randgen import Gen

from sdprover import calculus, simplify
from sdprover.clauses import ClauseFactory, eq, literal_walks, neq, predicate, select
from sdprover.index import (
    REWRITABLE,
    REWRITE_LHS,
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
from sdprover.terms import Var

env = Gen(seed=31)
x, y = Var(0), Var(1)


def _clauses(factory, count, max_len):
    out = []
    for _ in range(count):
        out.append(factory.make(env.lits(env.rng.randrange(1, max_len + 1))))
    return out


def _applicable_pair(factory):
    """A (side, main) clause pair where one rewrite step fires."""
    t = env.term(2, ground=True)
    u = env.term(1, ground=True)
    if env.rng.random() < 0.5:
        side = factory.make([eq(env.f(x), x), env.p(x)])
        main = factory.make([env.p(t), env.q(env.f(t))])
    else:
        side = factory.make([eq(env.h(x, y), y), env.q(x)])
        main = factory.make([env.q(t), env.p(env.h(t, u))])
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


def _tree_items(tree):
    """Every item stored in the tree, once per path it is stored under."""
    out, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, set):
            out.extend(node)
        else:
            stack.extend(node.values())
    return out


def _rewrites(c):
    """Whether the forward index files c: a side premise with best literals,
    or a unit equality with a left-hand side it can rewrite with."""
    return bool(best_literals(c) or (len(c.literals) == 1 and _lhs_paths(c)))


def test_fsd_index_insert_remove_round_trip():
    factory = ClauseFactory()
    ix = FsdIndex()
    # units that can rewrite, and ones that cannot: EQUAL sides, no equality
    f, g, h = env.f, env.g, env.h
    units = [eq(f(g(x)), g(x)), eq(h(x, y), h(y, x)), eq(f(x), f(x)), env.p(x)]
    kept = []
    for c in _clauses(factory, 40, 4) + [factory.make([lit]) for lit in units]:
        ix.insert(c)
        if _rewrites(c):
            kept.append(c)
    assert any(len(c.literals) == 1 for c in kept) and any(len(c.literals) > 1 for c in kept)
    assert set(ix._tree._paths) == {c.cid for c in kept}
    # each clause is in the tree once under each of its paths
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [c for c in kept for _ in ix._tree.paths(c)]
    for c in kept:
        assert ix._tree.paths(c)
        ix.remove(c)
        assert ix._tree.paths(c) == ()
    # removal drops every path and tree node it made
    assert ix._tree._paths == {} and ix._tree._root == {}
    probe = factory.make([env.p(env.a)])
    assert ix.retrieve_fsd_candidates(probe) == set()


def test_fsd_index_double_insert_and_remove_are_idempotent():
    factory = ClauseFactory()
    ix = FsdIndex()
    side, unit = factory.make([eq(env.f(x), x), env.p(x)]), factory.make([eq(env.f(x), x)])
    for c in (side, unit):
        ix.insert(c)
        ix.insert(c)
    assert len(ix._tree._paths) == 2
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [side] * len(ix._tree.paths(side)) + [unit]
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
    factory = ClauseFactory()
    ix = FsdIndex()
    stored = _clauses(factory, 25, 3)
    mains = []
    for _ in range(15):
        side, main = _applicable_pair(factory)
        stored.append(side)
        mains.append(main)
    for c in stored:
        ix.insert(c)
    queries = mains + [factory.make(env.lits(env.rng.randrange(1, 4))) for _ in range(40)]
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
    factory = ClauseFactory()
    ix = BackwardIndex()
    stored = _clauses(factory, 30, 4)
    for c in stored:
        ix.insert(c)
        ix.insert(c)
    assert set(ix._keys) == set(ix._tree._paths) == {c.cid for c in stored}
    # each clause is in the tree once under each of its distinct literals
    assert sorted(_tree_items(ix._tree), key=lambda c: c.cid) == [c for c in stored for _ in ix._tree.paths(c)]
    assert all(len(ix._tree.paths(c)) == len(set(c.literals)) for c in stored)
    for c in stored:
        ix.remove(c)
        ix.remove(c)
    # removal drops every bucket, generation key, path and tree node it made
    assert ix._buckets == {} and ix._keys == {} and ix._tree._paths == {} and ix._tree._root == {}
    # a permutative unit rewrites left to right and right to left from one
    # left-hand side path, stored once and removed once
    fx = FsdIndex()
    h, f, a, b = env.h, env.f, env.a, env.b
    query = factory.make([env.p(h(f(a), f(b)))])
    for lhs, rhs in [(h(x, y), h(y, x)), (h(f(x), f(y)), h(f(y), f(x)))]:
        unit = factory.make([eq(lhs, rhs)])
        fx.insert(unit)
        assert fx.demodulators(query) == {unit}
        assert len(fx._tree.paths(unit)) == 1
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
    keys = literal_walks(unit)[0][0]
    # f(g(X)) is the one left-hand side: the first three keys
    assert forward._tree.paths(unit) == ((REWRITE_LHS, keys[:3]),)
    assert forward.demodulators(query) == {unit}
    assert backward._tree.paths(unit) == (((True, None), keys),)
    assert REWRITE_LHS not in backward._tree._root


def test_bsd_retrieval_never_misses_a_rewritable_main():
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    sides = []
    for _ in range(15):
        side, main = _applicable_pair(factory)
        active.append(main)
        sides.append(side)
    for d in active:
        ix.insert(d)
    queries = sides + [factory.make(env.lits(env.rng.randrange(2, 4))) for _ in range(25)]
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
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    for c in active:
        ix.insert(c)
    hits = 0
    screened = 0
    for _ in range(40):
        d = factory.make(env.lits(env.rng.randrange(1, 4)))
        found = ix.forward_subsumption_candidates(d)
        for c in active:
            src = rename_apart(c.literals, d.literals)
            if naive_subsumes(src, d.literals):
                assert c in found
                hits += 1
            elif _shares_a_key(c, d) and c not in found:
                screened += 1
    assert hits > 0
    # the tree and the count screen drop clauses a top-symbol lookup returns
    assert screened > 0


def test_backward_subsumption_retrieval_complete():
    factory = ClauseFactory()
    ix = BackwardIndex()
    active = _clauses(factory, 25, 3)
    for d in active:
        ix.insert(d)
    hits = 0
    screened = 0
    for _ in range(40):
        g = factory.make(env.lits(env.rng.randrange(1, 3)))
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
            if next(literal_match_substs(c.literals[0], query, {}), None) is not None:
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
    tree = DiscriminationTree()
    for c in stored:
        tree.insert(c, _paths(zip(c.literals, literal_walks(c))))
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
    assert tree._paths == {} and tree._root == {}


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
        assert [(list(keys), ends) for keys, ends in walks] == [preorder(lit.args) for lit in distinct]
        lhs_paths = {}
        if len(c.literals) == 1 and c.literals[0].positive and c.literals[0].is_equality:
            for o in source_set_up(c).equations[0]:
                if o.verdict is not OrderResult.EQUAL and not o.extra_vars:
                    keys, ends = preorder((o.lhs,))
                    lhs_paths[REWRITE_LHS, tuple(keys)] = ends
        literal_paths = {}
        for lit in distinct:
            keys, ends = preorder(lit.args)
            literal_paths[(lit.positive, lit.pred), tuple(keys)] = ends
        assert ix._tree.paths(c) == tuple(literal_paths)
        if len(c.literals) == 1:
            assert _lhs_paths(c) == lhs_paths
            assert fx._tree.paths(c) == tuple(lhs_paths)
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
                    assert (list(keys), ends) == preorder(lit.args[::-1])
                    swapped = _ids(retrieve(tag, (keys, ends)))
                    assert swapped == _ids(retrieve(tag, preorder(lit.args[::-1]))), lit
                    assert _ids(_leaves(retrieve, lit, walk)) == (leaves | swapped if lit.lhs != lit.rhs else leaves)
                    swapped_differs += swapped != leaves
        demodulators = _ids(fx._tree.subterm_generalizations(REWRITE_LHS, walks))
        args = [a for lit in c.literals for a in lit.args]
        assert demodulators == _ids(fx._tree.subterm_generalizations(REWRITE_LHS, [preorder(args)]))
        subterm_hits += bool(demodulators)
    assert swapped_differs >= 150 and subterm_hits >= 150, (swapped_differs, subterm_hits)
