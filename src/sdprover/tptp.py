"""TPTP CNF reading, clause formatting, and SZS result text.

Accepted input: `cnf(name, role, formula).` annotated formulas with `|`
disjunction, `~` negation, `=` and `!=` equality, `%` line comments, and
`include('file').` directives resolved relative to the including file.
Uppercase identifiers are clause-scoped variables; numbers are constants;
`$false` disjuncts are dropped.  A quoted name is the text between its
quotes, and the printer quotes any name but a lower word or a number.
Function and predicate symbols intern in order of first occurrence, which
fixes the ordering precedence.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple, Optional

from .clauses import Clause, ClauseFactory, Literal, eq, neq, predicate
from .saturation import SatStatus, SaturationResult, proof_clauses
from .terms import FunctionSymbol, Signature, SignatureError, Term, Var, render


class ParseError(Exception):
    """Bad input at line and col of file, an included file as its include
    directive names it; None for the text parse_problem was given."""

    def __init__(self, message: str, line: int, col: int, file: Optional[str] = None) -> None:
        super().__init__(f"{message} at line {line}, column {col}" + (f" in {file!r}" if file else ""))
        self.message = message
        self.line = line
        self.col = col
        self.file = file


class Problem:
    """Parsed clause set; roles are keyed by clause id."""

    def __init__(self, name: str, path: Optional[str] = None) -> None:
        self.name = name
        self.clauses: list[Clause] = []
        self.roles: dict[int, str] = {}
        self.path = path


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
_PLAIN_NAME = re.compile(r"[a-z][A-Za-z0-9_]*|\d+")  # a name printed unquoted


class _Token(NamedTuple):
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

    # one directive per call; returns ("cnf", role, literals) or
    # ("include", path, the include token)
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
            return ("cnf", role.text, literals)
        if tok.text == "include":
            self.expect("(")
            path = self.take()
            if path.kind != "quoted":
                raise ParseError("include expects a quoted path", path.line, path.col)
            self.expect(")")
            self.expect(".")
            return ("include", path.text[1:-1], tok)
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
                name = tok.text[1:-1] if tok.kind == "quoted" else tok.text
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
    text: str, sig: Signature, factory: ClauseFactory, path: Optional[str] = None, name: str = "problem"
) -> Problem:
    """Parse TPTP CNF text, and the files it includes, into minted input clauses.

    Included files are read depth first, each at its directive, from an
    explicit stack of open files, so an include chain of any depth keeps
    the clauses in the order a recursive reading gives.
    """
    problem = Problem(name=name, path=path)
    top = os.path.abspath(path) if path else None
    # the open files, innermost last: the parser, the path as its include
    # directive names it (path for text), and its absolute path
    stack = [(_Parser(_tokenize(text), sig, factory), path, top)]
    visiting = {top}
    while stack:
        parser, shown, target = stack[-1]
        try:
            if parser.peek().kind == "eof":
                stack.pop()
                visiting.discard(target)
                continue
            item = parser.directive()
            if item[0] == "cnf":
                _, role, literals = item
                clause = factory.make(literals, rule="input")
                problem.clauses.append(clause)
                problem.roles[clause.cid] = role
                continue
            _, include, tok = item
            inner = os.path.join(os.path.dirname(shown) if shown else os.getcwd(), include)
            inner_target = os.path.abspath(inner)
            if inner_target in visiting:
                raise ParseError(f"cyclic include of {include!r}", tok.line, tok.col)
            try:
                with open(inner_target, encoding="utf-8") as handle:
                    included_text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read include {include!r}: {exc}", tok.line, tok.col) from exc
            try:
                tokens = _tokenize(included_text)
            except ParseError as exc:
                raise ParseError(exc.message, exc.line, exc.col, inner) from exc
        except ParseError as exc:
            # an error in an included file names it
            if exc.file is not None or len(stack) == 1:
                raise
            raise ParseError(exc.message, exc.line, exc.col, shown) from exc
        stack.append((_Parser(tokens, sig, factory), inner, inner_target))
        visiting.add(inner_target)
    return problem


def _quoted(name: str) -> str:
    """name as the parser reads it back: in quotes unless a lower word or a number."""
    return name if _PLAIN_NAME.fullmatch(name) else f"'{name}'"


def format_term(t: Term, sig: Signature) -> str:
    return render(t, lambda sym: _quoted(sig.name(sym)), ",")


def format_literal(lit: Literal, sig: Signature) -> str:
    if lit.is_equality:
        op = "=" if lit.positive else "!="
        return f"{format_term(lit.args[0], sig)} {op} {format_term(lit.args[1], sig)}"
    sign = "" if lit.positive else "~"
    name = _quoted(sig.name(lit.pred))
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
    """SZS status line, plus numbered derivation lines for refutations.

    A run stopped by the time limit is a Timeout; one stopped by the clause
    cap is ResourceOut.
    """
    status = "Timeout" if result.limit_reason == "time" else _SZS[result.status]
    lines = [f"% SZS status {status}"]
    if proof and result.status is SatStatus.UNSATISFIABLE:
        for node in proof_clauses(result):
            tag = node.rule if not node.parents else f"{node.rule} {' '.join(str(p) for p in node.parents)}"
            lines.append(f"{node.cid}. {format_clause(node, sig)} [{tag}]")
    return "\n".join(lines)
