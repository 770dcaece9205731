"""First-order terms, signatures, substitutions, unification, and matching."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union


class SignatureError(Exception):
    """A symbol was declared or used with conflicting arities."""


@dataclass(frozen=True, slots=True)
class Var:
    """A variable, identified by a clause-local integer id."""

    vid: int

    def __repr__(self) -> str:
        return f"X{self.vid}"

    @property
    def weight(self) -> int:
        return 1

    @property
    def ground(self) -> bool:
        return False


@dataclass(frozen=True, slots=True, eq=False)
class App:
    """A function application; constants are applications with no arguments.

    weight, ground, and the hash are cached at construction: the term
    ordering reads them on every comparison, and recomputing them is
    quadratic on the deep towers that saturation builds.  Equality and
    hashing are iterative so such towers cannot exhaust the stack.
    """

    sym: int
    args: tuple["Term", ...] = ()
    weight: int = field(init=False, compare=False)
    ground: bool = field(init=False, compare=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", 1 + sum(a.weight for a in self.args))
        object.__setattr__(self, "ground", all(a.ground for a in self.args))
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))

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
        if not self.args:
            return f"#{self.sym}"
        return f"#{self.sym}({', '.join(map(repr, self.args))})"


Term = Union[Var, App]


@dataclass(frozen=True, slots=True)
class FunctionSymbol:
    """Interned function symbol; calling it builds an application."""

    sid: int
    arity: int
    name: str

    def __call__(self, *args: Term) -> App:
        if len(args) != self.arity:
            raise SignatureError(
                f"symbol {self.name!r} takes {self.arity} arguments, got {len(args)}"
            )
        return App(self.sid, tuple(args))


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


class Substitution:
    """An immutable finite map from variable ids to terms.

    Identity bindings are dropped on construction.  Match results are the
    exception: match_pairs keeps X -> X, because it binds a pattern variable
    to the target's rigid variable of the same id, and a later extension must
    see that binding.  Application replaces all bound variables
    simultaneously; extension returns a new value.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Optional[Mapping] = None) -> None:
        mapping: dict[int, Term] = {}
        for key, value in (bindings or {}).items():
            vid = key.vid if isinstance(key, Var) else key
            if isinstance(value, Var) and value.vid == vid:
                continue
            mapping[vid] = value
        object.__setattr__(self, "_map", mapping)

    @classmethod
    def _adopt(cls, mapping: dict[int, Term]) -> "Substitution":
        """Wrap mapping as it is, identity bindings included; the caller must not change it afterwards."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "_map", mapping)
        return sub

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Substitution is immutable")

    def get(self, vid: int) -> Optional[Term]:
        return self._map.get(vid)

    def items(self):
        return self._map.items()

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"X{v} -> {t!r}" for v, t in sorted(self._map.items()))
        return "{" + inner + "}"


EMPTY_SUBST = Substitution()


def apply_term(term: Term, subst: Substitution) -> Term:
    if isinstance(term, Var):
        bound = subst.get(term.vid)
        return bound if bound is not None else term
    if term.ground:
        return term
    return App(term.sym, tuple(apply_term(a, subst) for a in term.args))


def shift_vars(term: Term, offset: int) -> Term:
    """term with every variable id raised by offset.

    Rebuilt bottom-up from an explicit stack, so deep terms cannot exhaust
    the interpreter's; ground subterms are shared, not copied.
    """
    if term.ground:
        return term
    if isinstance(term, Var):
        return Var(term.vid + offset)
    done: list[Term] = []
    todo: list = [term]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            # (symbol, arity): its arguments are the last arity results
            sym, n = t
            args = tuple(done[-n:])
            del done[-n:]
            done.append(App(sym, args))
        elif t.ground:
            done.append(t)
        elif isinstance(t, Var):
            done.append(Var(t.vid + offset))
        else:
            todo.append((t.sym, len(t.args)))
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


def var_counts(term: Term) -> Counter:
    counts: Counter = Counter()
    if term.ground:
        return counts
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t.vid] += 1
        elif not t.ground:
            stack.extend(t.args)
    return counts


def preorder_subterms(term: Term, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Yield (path, subterm) pairs, outermost first, left to right."""
    yield prefix, term
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            yield from preorder_subterms(arg, prefix + (i,))


def replace_at(term: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(term, App)
    i = path[0]
    args = list(term.args)
    args[i] = replace_at(args[i], path[1:], new)
    return App(term.sym, tuple(args))


def _occurs(vid: int, term: Term, bindings: dict[int, Term]) -> bool:
    # Occurs check that chases bindings already on the work map.
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t.vid == vid:
                return True
            bound = bindings.get(t.vid)
            if bound is not None:
                stack.append(bound)
        else:
            stack.extend(t.args)
    return False


def _walk(term: Term, bindings: dict[int, Term]) -> Term:
    while isinstance(term, Var):
        bound = bindings.get(term.vid)
        if bound is None:
            return term
        term = bound
    return term


def _deep_apply(term: Term, bindings: dict[int, Term]) -> Term:
    term = _walk(term, bindings)
    if isinstance(term, Var):
        return term
    if term.ground or not term.args:
        return term
    return App(term.sym, tuple(_deep_apply(a, bindings) for a in term.args))


def unify_pairs(pairs, base: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify a sequence of term pairs simultaneously.

    Uses an explicit work stack with an eager occurs check.  The result is in
    fully applied form: no bound variable appears in any range term.
    """
    bindings: dict[int, Term] = dict(base.items()) if base is not None else {}
    stack = list(pairs)
    while stack:
        s, t = stack.pop()
        s = _walk(s, bindings)
        t = _walk(t, bindings)
        if s == t:
            continue
        if isinstance(s, Var):
            if _occurs(s.vid, t, bindings):
                return None
            bindings[s.vid] = t
        elif isinstance(t, Var):
            if _occurs(t.vid, s, bindings):
                return None
            bindings[t.vid] = s
        else:
            if s.sym != t.sym or len(s.args) != len(t.args):
                return None
            stack.extend(zip(s.args, t.args))
    return Substitution({v: _deep_apply(t, bindings) for v, t in bindings.items()})


def match_pairs(pairs, base: Optional[Substitution] = None) -> Optional[Substitution]:
    """One-way match of pattern/target term pairs extending base, or None.

    Variables of the targets are rigid constants; only pattern variables not
    already bound acquire bindings.  Pattern and target may share variable
    ids: the result keeps X -> X bindings, so a pattern variable bound to the
    target variable of its own id stays bound.  All pairs share one binding
    map, so repeated pattern variables stay consistent across the sequence.
    """
    bindings: dict[int, Term] = dict(base._map) if base is not None else {}
    stack = list(pairs)
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = bindings.get(p.vid)
            if bound is None:
                bindings[p.vid] = t
            elif bound != t:
                return None
        elif p.ground:
            # a ground pattern matches exactly itself; weight screens mismatches
            if p.weight != t.weight or p != t:
                return None
        else:
            if not isinstance(t, App) or p.sym != t.sym or len(p.args) != len(t.args):
                return None
            stack.extend(zip(p.args, t.args))
    return Substitution._adopt(bindings)
