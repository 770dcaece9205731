"""First-order terms, signatures, substitutions, unification, and matching.

A saturation run holds one run scope (run_scope, entered by saturate for
the length of its loop) that installs two things together and puts back
whatever was in force before when it exits, however it exits:

  - the run's term table: every application that make_app builds, which
    is every one that FunctionSymbol.__call__, instantiate, replace_at and
    Literal.atom build, is the run's one App equal to it, and every
    variable that make_var makes, which is every one that minting
    (clauses.canonical_instance) and renaming apart (clauses.rename_apart)
    make, is the run's one Var of its id.  So the keys make_app looks up
    compare at the identity test, variables too.  The table holds only
    terms that run built and never outlives it.  Outside a run, and for
    terms built before one (the parser's, a test's), construction makes a
    new object each time.  Equality and hashing stay structural either
    way, so sharing changes which objects exist, never what compares equal
    or how sets and dicts order them;
  - the run's deadline: check_time raises ResourceLimit("time") once it
    has passed, and does nothing outside a run or in a run with no time
    limit.  Every long step calls it, so no search function takes a
    deadline argument.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from operator import is_
from typing import Callable, Iterator, NamedTuple, Optional, Union


class SignatureError(Exception):
    """A symbol was declared or used with conflicting arities."""


class ResourceLimit(Exception):
    """A search limit was hit; reason names it ("time", "clauses" or
    "memory")."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Var:
    """A variable, identified by a clause-local integer id.

    A slotted class, immutable by convention: only __init__ assigns its
    attributes.  Its hash, hash((vid,)), is computed there and kept: every
    App hash over it and every dict keyed by it reads the hash.  The value
    does not depend on PYTHONHASHSEED, so neither do set and dict order
    nor the search.  Within a run the prover makes variables with
    make_var, which shares them: one Var per id (see the module
    docstring)."""

    __slots__ = ("vid", "_hash")

    weight = 1
    ground = False

    def __init__(self, vid: int) -> None:
        self.vid = vid
        self._hash = hash((vid,))

    def __eq__(self, other) -> bool:
        return self.vid == other.vid if type(other) is Var else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"X{self.vid}"


class App:
    """A function application; constants are applications with no arguments.

    A slotted class, immutable by convention: only __init__ assigns its
    attributes, except the cache _walk, which clauses.literal_walks sets
    (below).  weight, ground, and the hash are computed there, weight
    and ground in one loop over the arguments: the term ordering reads
    them on every comparison, and recomputing them is quadratic on the
    deep towers that saturation builds.  Equality and hashing are
    iterative so such towers cannot exhaust the stack.  The prover builds
    applications with make_app, which shares them within a run (see the
    module docstring); equal shared terms compare equal at the identity
    test.

    _walk is None until clauses.literal_walks walks the term as a ground
    literal argument and keeps its walk (keys, sizes) there, so every later
    walk of a literal that holds the term, whole or inside a larger ground
    argument, splices it in.  A walk depends only on the term, so it is
    kept for as long as the term lives, in a run or outside one.
    """

    __slots__ = ("sym", "args", "weight", "ground", "_hash", "_walk")

    def __init__(self, sym: int, args: tuple["Term", ...] = ()) -> None:
        self.sym = sym
        self.args = args
        weight = 1
        ground = True
        for a in args:
            weight += a.weight
            if not a.ground:
                ground = False
        self.weight = weight
        self.ground = ground
        self._hash = hash((sym, args))
        self._walk: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        if self._hash != other._hash or self.weight != other.weight:
            return False
        stack = [(self, other)]
        while stack:
            s, t = stack.pop()
            if s is t:
                continue
            if isinstance(s, Var):
                if not isinstance(t, Var) or s.vid != t.vid:
                    return False
            else:
                if (
                    isinstance(t, Var)
                    or s.sym != t.sym
                    or len(s.args) != len(t.args)
                ):
                    return False
                stack.extend(zip(s.args, t.args))
        return True

    def __repr__(self) -> str:
        return render(self, lambda sym: f"#{sym}", ", ")


Term = Union[Var, App]

# the run's term table, (sym, args) -> App and vid -> Var, and its
# deadline, a time.monotonic() value; both None outside run_scope
_shared: Optional[dict[Union[tuple[int, tuple[Term, ...]], int], Term]] = None
_deadline: Optional[float] = None


def make_app(sym: int, args: tuple[Term, ...]) -> App:
    """The application sym(args): inside run_scope the one App of the
    run equal to it, built on first request; outside, a new App."""
    table = _shared
    if table is None:
        return App(sym, args)
    key = (sym, args)
    app = table.get(key)
    if app is None:
        app = table[key] = App(sym, args)
    return app


def make_var(vid: int) -> Var:
    """The variable of id vid: inside run_scope the one Var of the run
    with that id, made on first request; outside, a new Var."""
    table = _shared
    if table is None:
        return Var(vid)
    var = table.get(vid)
    if var is None:
        var = table[vid] = Var(vid)
    return var


def check_time() -> None:
    """Raise ResourceLimit("time") once the run's deadline has passed."""
    if _deadline is not None and time.monotonic() > _deadline:
        raise ResourceLimit("time")


@contextmanager
def run_scope(deadline: Optional[float]) -> Iterator[None]:
    """One saturation run: while the block runs, make_app and make_var
    share the applications and variables they make in a table that starts
    empty, and check_time enforces deadline (None: no time limit).
    However the block exits, the table and deadline in force before are
    put back."""
    global _shared, _deadline
    saved = _shared, _deadline
    _shared, _deadline = {}, deadline
    try:
        yield
    finally:
        _shared, _deadline = saved


def render(t: Term, name: Callable[[int], str], sep: str) -> str:
    """t as text: name(sym) for each symbol, its arguments in parentheses
    joined by sep, variables as X<id>.  Runs on an explicit stack."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is Var:
            out.append(f"X{item.vid}")
        else:
            out.append(name(item.sym))
            if item.args:
                out.append("(")
                stack.append(")")
                for arg in reversed(item.args[1:]):
                    stack.append(arg)
                    stack.append(sep)
                stack.append(item.args[0])
    return "".join(out)


class FunctionSymbol(NamedTuple):
    """Interned function symbol; calling it builds an application."""

    sid: int
    arity: int
    name: str

    def __call__(self, *args: Term) -> App:
        if len(args) != self.arity:
            raise SignatureError(
                f"symbol {self.name!r} takes {self.arity} arguments, got {len(args)}"
            )
        return make_app(self.sid, tuple(args))


class Signature:
    """Interning table for function and predicate symbols.

    Symbol ids are handed out in declaration order; the term ordering uses
    that order as its precedence tie-break, so interning order matters.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str], int] = {}
        self._info: list[tuple[str, int]] = []

    def intern(self, name: str, arity: int, kind: str = "function") -> int:
        key = (name, kind)
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._info)
            self._ids[key] = sid
            self._info.append((name, arity))
            return sid
        declared = self._info[sid][1]
        if declared != arity:
            raise SignatureError(
                f"{kind} symbol {name!r} used with arity {arity}, "
                f"previously declared with arity {declared}"
            )
        return sid

    def name(self, sid: int) -> str:
        return self._info[sid][0]

    def __len__(self) -> int:
        return len(self._info)

    def function(self, name: str, arity: int) -> FunctionSymbol:
        sid = self.intern(name, arity, "function")
        return FunctionSymbol(sid, arity, name)

    def constant(self, name: str) -> App:
        return self.function(name, 0)()


# A substitution is a plain dict from variable ids to terms.  match_pairs
# and unify_pairs build each one, and nothing changes it afterwards.  A
# match result keeps X -> X bindings: match_pairs binds a pattern variable
# to the target's rigid variable of the same id, and a later extension must
# see that binding, so apply_term replaces its bound variables
# simultaneously, in one pass.  A unification result is in triangular
# form: a term it binds may hold variables it binds too, but no chain of
# bindings leads back to its own variable, so instantiate chases them.
Substitution = dict[int, Term]


def apply_term(term: Term, subst: Substitution) -> Term:
    """term with its variables replaced simultaneously by their images under
    subst, in one pass: no image is instantiated in turn."""
    get = subst.get
    return instantiate(term, {}, {}, lambda v: get(v.vid, v))


def instantiate(
    term: Term, unifier: Substitution, images: dict[int, Term], unbound: Optional[Callable[[Var], Term]] = None
) -> Term:
    """term under unifier, a unify_pairs result in triangular form: each
    bound variable is replaced by its binding, instantiated in turn.

    The one term rebuilder.  images memoizes the image of every variable
    met, so one dict passed for every term instantiated under one unifier
    builds each bound variable's image once, however often it recurs: the
    pass costs what the triangular bindings hold, not what their fully
    applied trees would.  A variable unifier does not bind becomes
    unbound(v), itself by default, called once per variable in pre-order
    of first occurrence; with an empty unifier that is a one-pass
    substitution (apply_term, clauses.rename_apart).  A match substitution
    is not triangular, since its X -> X bindings would loop, so apply_term
    applies it that way.

    Bottom-up from an explicit stack, so deep terms cannot exhaust the
    interpreter's.  Ground subterms, and every application none of whose
    arguments changed, are shared, not copied, so instantiate(t, {}, {}) is
    t.  Every other application is built by make_app, so during a run an
    equal one built before is reused.  A shared subterm that holds no bound
    variable is walked at each occurrence, which can take time exponential
    in the term's stored size: the run's deadline is checked every 1,024
    applications walked.
    """
    if term.ground:
        return term
    done: list[Term] = []
    todo: list = [term]
    walked = 0
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is tuple:
            # (application,): its arguments are the last len(args) results
            (node,) = t
            n = len(node.args)
            args = tuple(done[-n:])
            del done[-n:]
            done.append(node if all(map(is_, args, node.args)) else make_app(node.sym, args))
        elif kind is int:
            # the variable of this id has its image last in done
            images[t] = done[-1]
        elif kind is Var:
            vid = t.vid
            image = images.get(vid)
            if image is None:
                bound = unifier.get(vid)
                if bound is None:
                    image = t if unbound is None else unbound(t)
                elif not bound.ground:
                    todo.append(vid)
                    todo.append(bound)
                    continue
                else:
                    image = bound
                images[vid] = image
            done.append(image)
        elif t.ground:
            done.append(t)
        else:
            walked += 1
            if not walked & 1023:
                check_time()
            todo.append((t,))
            todo.extend(reversed(t.args))
    return done[0]


def term_vars(term: Term) -> set[int]:
    out: set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.vid)
        elif not t.ground:
            stack.extend(t.args)
    return out


def preorder_subterms(term: Term, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Yield (path, subterm) pairs, outermost first, left to right."""
    stack = [(prefix, term)]
    while stack:
        path, t = stack.pop()
        yield path, t
        if type(t) is App:
            stack.extend((path + (i,), t.args[i]) for i in range(len(t.args) - 1, -1, -1))


def replace_at(
    term: Term, path: tuple[int, ...], new: Term, build: Optional[Callable[[int, tuple], App]] = None
) -> Term:
    """term with the subterm at path replaced by new; the applications on
    the path are rebuilt with build, make_app unless the caller keeps them
    out of the run's table (App)."""
    if build is None:
        build = make_app
    spine = []
    for i in path:
        spine.append(term)
        term = term.args[i]
    for node, i in zip(reversed(spine), reversed(path)):
        new = build(node.sym, node.args[:i] + (new,) + node.args[i + 1 :])
    return new


def _occurs(vid: int, term: Term, bindings: dict[int, Term]) -> bool:
    # Occurs check that chases bindings already on the work map; a ground
    # subterm holds no variable, so it is not walked.  Each binding is
    # chased once: a triangular chain that binds a variable to a term with
    # two occurrences of the next one would otherwise be walked 2^n times.
    stack = [term]
    chased: set[int] = set()
    while stack:
        t = stack.pop()
        if type(t) is Var:
            if t.vid == vid:
                return True
            bound = bindings.get(t.vid)
            if bound is not None and t.vid not in chased:
                chased.add(t.vid)
                stack.append(bound)
        elif not t.ground:
            stack.extend(t.args)
    return False


def unify_pairs(pairs) -> Optional[Substitution]:
    """Unify a sequence of term pairs simultaneously.

    Uses an explicit work stack with an eager occurs check.  The result is
    the solved bindings in triangular form, and builds no term: a term it
    binds may hold variables it binds too, no chain of bindings leads back
    to the variable it starts from, and no variable is bound to itself.
    instantiate applies it; fully applied, it could be exponentially
    larger.  The run's deadline is checked first, so a rule that unifies
    deep terms many times stops near the time limit even when no
    unification succeeds and nothing is minted.

    Each side of a pair is first walked through the bindings made so far.
    Identical sides need nothing.  Two variables of different ids are bound
    without an occurs check (an unbound variable holds no other), and a
    variable is bound to a ground term without one.  Two applications are
    compared whole only when both are ground; otherwise they are split
    into their argument pairs, which an equal pair passes without binding
    anything.
    """
    check_time()
    bindings: Substitution = {}
    get = bindings.get
    stack = list(pairs)
    pop = stack.pop
    while stack:
        s, t = pop()
        while type(s) is Var:
            bound = get(s.vid)
            if bound is None:
                break
            s = bound
        while type(t) is Var:
            bound = get(t.vid)
            if bound is None:
                break
            t = bound
        if s is t:
            continue
        if type(s) is Var:
            if type(t) is Var:
                if s.vid != t.vid:
                    bindings[s.vid] = t
            elif t.ground or not _occurs(s.vid, t, bindings):
                bindings[s.vid] = t
            else:
                return None
        elif type(t) is Var:
            if s.ground or not _occurs(t.vid, s, bindings):
                bindings[t.vid] = s
            else:
                return None
        elif s.ground and t.ground:
            if s != t:
                return None
        elif s.sym != t.sym or len(s.args) != len(t.args):
            return None
        else:
            stack.extend(zip(s.args, t.args))
    return bindings


def match_pairs(pairs, base: Optional[Substitution] = None) -> Optional[Substitution]:
    """One-way match of pattern/target term pairs extending base, or None.

    Variables of the targets are rigid constants; only pattern variables not
    already bound acquire bindings.  Pattern and target may share variable
    ids: the result keeps X -> X bindings, so a pattern variable bound to the
    target variable of its own id stays bound.  All pairs share one binding
    map, so repeated pattern variables stay consistent across the sequence.
    """
    bindings: Substitution = {} if base is None else dict(base)
    get = bindings.get
    stack = list(pairs)
    pop = stack.pop
    while stack:
        p, t = pop()
        if type(p) is Var:
            bound = get(p.vid)
            if bound is None:
                bindings[p.vid] = t
            elif bound is not t and bound != t:
                return None
        elif p.ground:
            # a ground pattern matches exactly itself; weight screens mismatches
            if p is not t and (p.weight != t.weight or p != t):
                return None
        elif type(t) is not App or p.sym != t.sym or len(p.args) != len(t.args):
            return None
        else:
            stack.extend(zip(p.args, t.args))
    return bindings
