"""TPTP CNF reading, clause formatting, and SZS result text.

Accepted input: `cnf(name, role, formula).` annotated formulas with `|`
disjunction, `~` negation, `=` and `!=` equality, `%` line comments, and
`include('file').` directives resolved relative to the including file.
Uppercase identifiers are clause-scoped variables; numbers are constants;
`$false` disjuncts are dropped.  Function and predicate symbols intern in
order of first occurrence, which fixes the ordering precedence.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional

from .clauses import Clause, ClauseFactory, Literal, eq, neq, predicate
from .saturation import SatStatus, SaturationResult, proof_clauses
from .terms import App, FunctionSymbol, Signature, SignatureError, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass
class Problem:
    """Parsed clause set; roles are keyed by clause id."""

    name: str
    clauses: list[Clause] = field(default_factory=list)
    roles: dict[int, str] = field(default_factory=dict)
    path: Optional[str] = None


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>%[^\n]*)
      | (?P<neq>!=)
      | (?P<dollar>\$[a-z][A-Za-z0-9_]*)
      | (?P<lower>[a-z][A-Za-z0-9_]*)
      | (?P<upper>[A-Z_][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<punct>[(),.|~=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        assert kind is not None
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser over one file's token stream."""

    def __init__(self, tokens: list[_Token], sig: Signature, factory: ClauseFactory) -> None:
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.factory = factory

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    # one directive per call; returns ("cnf", name, role, literals) or ("include", path)
    def directive(self):
        tok = self.take()
        if tok.text == "cnf":
            self.expect("(")
            name = self.take()
            if name.kind not in ("lower", "upper", "num", "quoted"):
                raise ParseError(f"bad formula name {name.text!r}", name.line, name.col)
            self.expect(",")
            role = self.take()
            if role.kind != "lower":
                raise ParseError(f"bad role {role.text!r}", role.line, role.col)
            self.expect(",")
            literals = self.formula()
            self.expect(")")
            self.expect(".")
            return ("cnf", name.text.strip("'"), role.text, literals)
        if tok.text == "include":
            self.expect("(")
            path = self.take()
            if path.kind != "quoted":
                raise ParseError("include expects a quoted path", path.line, path.col)
            self.expect(")")
            self.expect(".")
            return ("include", path.text[1:-1])
        raise ParseError(f"expected cnf or include, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def formula(self) -> list[Literal]:
        wrapped = self.peek().text == "("
        if wrapped:
            self.take()
        literals = self.disjunction()
        if wrapped:
            self.expect(")")
        return literals

    def disjunction(self) -> list[Literal]:
        scope: dict[str, Var] = {}
        literals = []
        while True:
            lit = self.literal(scope)
            if lit is not None:
                literals.append(lit)
            if self.peek().text != "|":
                return literals
            self.take()

    def literal(self, scope: dict[str, Var]) -> Optional[Literal]:
        negated = False
        if self.peek().text == "~":
            self.take()
            negated = True
        tok = self.peek()
        if tok.kind == "dollar":
            if tok.text != "$false":
                raise ParseError(f"unsupported construct {tok.text!r}", tok.line, tok.col)
            if negated:
                raise ParseError("cannot negate $false", tok.line, tok.col)
            self.take()
            return None
        lhs_tok = self.peek()
        lhs = self.raw_atom()
        nxt = self.peek().text
        if nxt in ("=", "!="):
            self.take()
            left = self.to_term(lhs, scope)
            right = self.to_term(self.raw_atom(), scope)
            if nxt == "=":
                return eq(left, right).negated() if negated else eq(left, right)
            if negated:
                raise ParseError("cannot negate an inequality", lhs_tok.line, lhs_tok.col)
            return neq(left, right)
        if lhs[0] != "f":
            raise ParseError("predicate expected", lhs_tok.line, lhs_tok.col)
        _, name, args, _, _ = lhs
        sym = self.intern_predicate(name, len(args), lhs_tok)
        atom = sym(*[self.to_term(a, scope) for a in args])
        return atom.negated() if negated else atom

    # raw atoms defer the function/predicate decision until the context is known;
    # both passes keep their open applications on a list, not on the call stack,
    # so nesting depth is bounded by memory alone
    def raw_atom(self):
        open_apps: list = []  # ("f", name, args, line, col) still reading arguments
        while True:
            tok = self.take()
            if tok.kind == "upper":
                node = ("v", tok.text)
            elif tok.kind in ("lower", "quoted", "num"):
                name = tok.text.strip("'") if tok.kind == "quoted" else tok.text
                node = ("f", name, [], tok.line, tok.col)
                if self.peek().text == "(":
                    self.take()
                    open_apps.append(node)
                    continue
            else:
                raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.col)
            # node is complete: hand it to its parent, closing every
            # application whose last argument it was
            while open_apps:
                open_apps[-1][2].append(node)
                if self.peek().text == ",":
                    self.take()
                    break
                self.expect(")")
                node = open_apps.pop()
            else:
                return node

    def to_term(self, raw, scope: dict[str, Var]) -> Term:
        """Build a raw atom, interning symbols and numbering variables in pre-order."""
        done: list[Term] = []
        todo: list = [raw]
        while todo:
            item = todo.pop()
            if isinstance(item, FunctionSymbol):
                # every argument is built: they are the last arity results
                first = len(done) - item.arity
                args = done[first:]
                del done[first:]
                done.append(item(*args))
            elif item[0] == "v":
                name = item[1]
                if name not in scope:
                    scope[name] = Var(len(scope))
                done.append(scope[name])
            else:
                _, name, args, line, col = item
                try:
                    sym = self.sig.function(name, len(args))
                except SignatureError as exc:
                    raise ParseError(str(exc), line, col) from exc
                todo.append(sym)
                todo.extend(reversed(args))
        return done[0]

    def intern_predicate(self, name: str, arity: int, tok: _Token):
        try:
            return predicate(self.sig, name, arity)
        except SignatureError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc


def parse_problem(
    text: str,
    sig: Signature,
    factory: ClauseFactory,
    path: Optional[str] = None,
    name: str = "problem",
    _visiting: Optional[frozenset] = None,
) -> Problem:
    """Parse one file's worth of TPTP CNF text into minted input clauses."""
    problem = Problem(name=name, path=path)
    parser = _Parser(_tokenize(text), sig, factory)
    base = os.path.dirname(path) if path else os.getcwd()
    visiting = _visiting or frozenset([os.path.abspath(path)] if path else [])
    while parser.peek().kind != "eof":
        item = parser.directive()
        if item[0] == "cnf":
            _, cnf_name, role, literals = item
            clause = factory.make(literals, rule="input")
            problem.clauses.append(clause)
            problem.roles[clause.cid] = role
        else:
            target = os.path.abspath(os.path.join(base, item[1]))
            if target in visiting:
                raise ParseError(f"cyclic include of {item[1]!r}", 1, 1)
            try:
                with open(target, encoding="utf-8") as handle:
                    included_text = handle.read()
            except OSError as exc:
                raise ParseError(f"cannot read include {item[1]!r}: {exc}", 1, 1) from exc
            included = parse_problem(
                included_text, sig, factory, path=target, name=item[1], _visiting=visiting | {target}
            )
            problem.clauses.extend(included.clauses)
            problem.roles.update(included.roles)
    return problem


def load_problem(path: str, sig: Signature, factory: ClauseFactory) -> Problem:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_problem(text, sig, factory, path=path, name=os.path.basename(path))


def format_term(t: Term, sig: Signature) -> str:
    if isinstance(t, Var):
        return f"X{t.vid}"
    assert isinstance(t, App)
    if not t.args:
        return sig.name(t.sym)
    return f"{sig.name(t.sym)}({','.join(format_term(a, sig) for a in t.args)})"


def format_literal(lit: Literal, sig: Signature) -> str:
    if lit.is_equality:
        op = "=" if lit.positive else "!="
        return f"{format_term(lit.args[0], sig)} {op} {format_term(lit.args[1], sig)}"
    sign = "" if lit.positive else "~"
    name = sig.name(lit.pred)
    if not lit.args:
        return sign + name
    return f"{sign}{name}({','.join(format_term(a, sig) for a in lit.args)})"


def format_clause(c: Clause, sig: Signature) -> str:
    if c.is_empty:
        return "$false"
    return " | ".join(format_literal(lit, sig) for lit in c.literals)


_SZS = {
    SatStatus.UNSATISFIABLE: "Unsatisfiable",
    SatStatus.SATURATED: "Satisfiable",
    SatStatus.RESOURCE_OUT: "ResourceOut",
}


def emit_result(result: SaturationResult, sig: Signature, proof: bool = True) -> str:
    """SZS status line, plus numbered derivation lines for refutations."""
    lines = [f"% SZS status {_SZS[result.status]}"]
    if proof and result.status is SatStatus.UNSATISFIABLE:
        for node in proof_clauses(result):
            tag = node.rule if not node.parents else f"{node.rule} {' '.join(str(p) for p in node.parents)}"
            lines.append(f"{node.cid}. {format_clause(node, sig)} [{tag}]")
    return "\n".join(lines)
