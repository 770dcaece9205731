"""Seeded random generators for terms, literals, and clauses.

Not a test module.  Property and differential tests drive these with fixed
seeds so failures replay exactly.
"""

from __future__ import annotations

import random
from typing import Optional

from sdprover.clauses import Literal, eq, neq, predicate
from sdprover.terms import App, Signature, Term, Var


class Gen:
    """Random clause material over one fixed small signature.

    Interning order deliberately puts the binary function first and the
    unary pair before the constants, so the precedence is h > f > g > a > b > c.
    """

    def __init__(self, seed: int = 0, n_vars: int = 3) -> None:
        self.rng = random.Random(seed)
        self.sig = Signature()
        self.h = self.sig.function("h", 2)
        self.f = self.sig.function("f", 1)
        self.g = self.sig.function("g", 1)
        self.a = self.sig.constant("a")
        self.b = self.sig.constant("b")
        self.c = self.sig.constant("c")
        self.p = predicate(self.sig, "p", 1)
        self.q = predicate(self.sig, "q", 1)
        self.r = predicate(self.sig, "r", 2)
        self.consts = [self.a, self.b, self.c]
        self.unary = [self.f, self.g]
        self.preds = [self.p, self.q, self.r]
        self.n_vars = n_vars

    def term(self, depth: int = 2, ground: bool = False) -> Term:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.35:
            if not ground and self.rng.random() < 0.5:
                return Var(self.rng.randrange(self.n_vars))
            return self.rng.choice(self.consts)
        if roll < 0.8:
            return self.rng.choice(self.unary)(self.term(depth - 1, ground))
        return self.h(self.term(depth - 1, ground), self.term(depth - 1, ground))

    def literal(self, depth: int = 2, ground: bool = False) -> Literal:
        positive = self.rng.random() < 0.5
        if self.rng.random() < 0.4:
            make = eq if positive else neq
            return make(self.term(depth, ground), self.term(depth, ground))
        sym = self.rng.choice(self.preds)
        args = tuple(self.term(depth, ground) for _ in range(sym.arity))
        atom = sym(*args)
        return atom if positive else atom.negated()

    def lits(self, size: int, depth: int = 2, ground: bool = False) -> tuple[Literal, ...]:
        return tuple(self.literal(depth, ground) for _ in range(size))

    def pos_eq(self, depth: int = 2, ground: bool = False) -> Literal:
        return eq(self.term(depth, ground), self.term(depth, ground))


class GroundGen:
    """Ground generator on the soundness-check signature.

    Two constants, two unary functions, two predicates, term depth at
    most two; small enough for model enumeration to stay exhaustive.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.sig = Signature()
        self.f = self.sig.function("f", 1)
        self.g = self.sig.function("g", 1)
        self.a = self.sig.constant("a")
        self.b = self.sig.constant("b")
        self.p = predicate(self.sig, "p", 1)
        self.q = predicate(self.sig, "q", 1)

    def term(self, depth: Optional[int] = None) -> Term:
        if depth is None:
            depth = self.rng.randrange(3)
        t: Term = self.rng.choice([self.a, self.b])
        for _ in range(depth):
            t = self.rng.choice([self.f, self.g])(t)
        return t

    def literal(self) -> Literal:
        positive = self.rng.random() < 0.5
        if self.rng.random() < 0.5:
            make = eq if positive else neq
            return make(self.term(), self.term())
        atom = self.rng.choice([self.p, self.q])(self.term())
        return atom if positive else atom.negated()

    def lits(self, size: int) -> tuple[Literal, ...]:
        return tuple(self.literal() for _ in range(size))


class ConstantGen:
    """Non-ground generator whose only function symbols are constants.

    Two constants, two variables, predicates p/1, q/1 and r/2, and
    equalities between variables and constants.  A problem over it is
    unsatisfiable exactly when its grounding over the two constants is
    (Herbrand's theorem), and that grounding is small enough for model
    enumeration.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.sig = Signature()
        self.a = self.sig.constant("a")
        self.b = self.sig.constant("b")
        self.p = predicate(self.sig, "p", 1)
        self.q = predicate(self.sig, "q", 1)
        self.r = predicate(self.sig, "r", 2)
        self.consts = [self.a, self.b]

    def term(self) -> Term:
        if self.rng.random() < 0.5:
            return Var(self.rng.randrange(2))
        return self.rng.choice(self.consts)

    def literal(self) -> Literal:
        positive = self.rng.random() < 0.5
        if self.rng.random() < 0.3:
            make = eq if positive else neq
            return make(self.term(), self.term())
        sym = self.rng.choice([self.p, self.q, self.r])
        atom = sym(*(self.term() for _ in range(sym.arity)))
        return atom if positive else atom.negated()

    def lits(self, size: int) -> tuple[Literal, ...]:
        return tuple(self.literal() for _ in range(size))
