"""TPTP CNF reading, clause formatting, and SZS result text.

Accepted input: `cnf(name, role, formula).` annotated formulas with `|`
disjunction, `~` negation, `=` and `!=` equality, `%` line comments, and
`include('file').` directives resolved relative to the including file.
Uppercase identifiers are clause-scoped variables; numbers are constants;
`$false` disjuncts are dropped.  A quoted name is the text between its
quotes, and the printer quotes any name but a lower word or a number.
Function and predicate symbols intern in order of first occurrence, which
fixes the ordering precedence.

A file is read in one regex pass: one findall gives its tokens as plain
strings, and the parser walks that list by index.  No token keeps a
position: an error recounts its token's line and column from the text.
"""

from __future__ import annotations

import os
import re
from itertools import islice
from typing import Optional

from .clauses import Clause, ClauseFactory, Literal
from .saturation import SatStatus, SaturationResult, proof_clauses
from .terms import Signature, SignatureError, Term, Var, make_app, render


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


# one match per token: the blanks and comments before it, then the token (its
# kind read off its first character), a stray character or the end's ""; no
# match can fail, so the skip never backtracks and findall stays linear
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*
      ( [(),.|~=] | \$?[a-z][A-Za-z0-9_]* | [A-Z_][A-Za-z0-9_]* | \d+ | '(?:[^'\\]|\\.)*' | !=
      | . | \Z )""",
    re.VERBOSE,
)
_PLAIN_NAME = re.compile(r"[a-z][A-Za-z0-9_]*|\d+")  # a name printed unquoted
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
_VARIABLE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NOT_A_NAME = frozenset(("", *"(),.|~=!$"))  # first characters of the end, punctuation, != and $words
_ONE_CHARACTER = frozenset("(),.|~=") | _LOWER | _VARIABLE  # one-character tokens, with the digits


def _tokenize(text: str) -> list[str]:
    """text's tokens as strings, ending in one empty string; a stray
    character raises ParseError at its line and column."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # blanks at the end are a match of their own
    strays = {t for t in {*tokens} if len(t) == 1 and t not in _ONE_CHARACTER and not t.isdecimal()}
    if strays:
        i = next(k for k, t in enumerate(tokens) if t in strays)
        raise ParseError(f"unexpected character {tokens[i]!r}", *_position(text, tokens, i))
    return tokens


def _position(text: str, tokens: list[str], i: int) -> tuple[int, int]:
    """The line and column of tokens[i], recounted from text: the i-th match
    of _TOKEN_RE ends with it."""
    offset = next(islice(_TOKEN_RE.finditer(text), i, None)).end() - len(tokens[i])
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _name(tok: str) -> str:
    return tok[1:-1] if tok[0] == "'" else tok


class _Parser:
    """Recursive-descent reader of one file, walking its token list
    (_tokenize) by index: pos is the next token.  A token's line and column
    are counted from the text only when an error names them."""

    def __init__(self, text: str, sig: Signature) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *_position(self.text, self.tokens, i))

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", self.pos)
        self.pos += 1

    # one directive per call; returns ("cnf", role, literals) or
    # ("include", path, the index of the include token)
    def directive(self):
        toks = self.tokens
        at = self.pos
        self.pos += 1
        if toks[at] == "cnf":
            self.expect("(")
            if toks[self.pos][:1] in _NOT_A_NAME:
                raise self.error(f"bad formula name {toks[self.pos]!r}", self.pos)
            self.pos += 1
            self.expect(",")
            role = toks[self.pos]
            if role[:1] not in _LOWER:
                raise self.error(f"bad role {role!r}", self.pos)
            self.pos += 1
            self.expect(",")
            wrapped = toks[self.pos] == "("
            self.pos += wrapped
            scope: dict[str, Var] = {}
            literals = []
            while True:
                lit = self.literal(scope)
                if lit is not None:
                    literals.append(lit)
                if toks[self.pos] != "|":
                    break
                self.pos += 1
            if wrapped:
                self.expect(")")
            self.expect(")")
            self.expect(".")
            return ("cnf", role, literals)
        if toks[at] == "include":
            self.expect("(")
            path = toks[self.pos]
            if path[:1] != "'":
                raise self.error("include expects a quoted path", self.pos)
            self.pos += 1
            self.expect(")")
            self.expect(".")
            return ("include", path[1:-1], at)
        raise self.error(f"expected cnf or include, found {toks[at] or 'end of input'!r}", at)

    def literal(self, scope: dict[str, Var]) -> Optional[Literal]:
        toks = self.tokens
        negated = toks[self.pos] == "~"
        self.pos += negated
        at = self.pos
        if toks[at][:1] == "$":
            if toks[at] != "$false":
                raise self.error(f"unsupported construct {toks[at]!r}", at)
            if negated:
                raise self.error("cannot negate $false", at)
            self.pos += 1
            return None
        lhs = self.read()
        op = toks[self.pos]
        if op == "=" or op == "!=":
            (left,) = self.build(lhs, scope)
            self.pos += 1
            (right,) = self.build(self.read(), scope)
            if op == "!=" and negated:
                raise self.error("cannot negate an inequality", at)
            return Literal(op == "=" and not negated, None, (left, right))
        arity = lhs[1][0]
        if arity < 0:
            raise self.error("predicate expected", at)
        try:
            sid = self.sig.intern(_name(toks[at]), arity, "predicate")
        except SignatureError as exc:
            raise self.error(str(exc), at) from exc
        return Literal(not negated, sid, self.build(lhs, scope, 1))

    def read(self) -> tuple[list[int], list[int]]:
        """The term or atom at pos, read before it is known to be either:
        the token index of each of its symbols and variables in pre-order,
        and the arity of each, -1 for a variable.  Neither read nor build
        keeps open applications on the call stack."""
        toks = self.tokens
        i = self.pos
        at: list[int] = []
        arity: list[int] = []
        open_apps: list[int] = []  # nodes of the applications still reading arguments
        while True:
            first = toks[i][:1]
            if first in _NOT_A_NAME:
                raise self.error(f"expected a term, found {toks[i] or 'end of input'!r}", i)
            at.append(i)
            i += 1
            if first not in _VARIABLE and toks[i] == "(":
                open_apps.append(len(arity))
                arity.append(1)
                i += 1
                continue
            arity.append(-1 if first in _VARIABLE else 0)
            # the node is complete: close every application whose last
            # argument it was
            while open_apps:
                tok = toks[i]
                i += 1
                if tok == ",":
                    arity[open_apps[-1]] += 1
                    break
                if tok != ")":
                    raise self.error(f"expected ')', found {tok or 'end of input'!r}", i - 1)
                open_apps.pop()
            else:
                self.pos = i
                return at, arity

    def build(self, read: tuple[list[int], list[int]], scope: dict[str, Var], first: int = 0) -> tuple[Term, ...]:
        """The terms of a read() from its node first on: symbols intern and
        variables number in pre-order, then make_app builds the
        applications bottom-up, by symbol id."""
        at, arity = read
        toks = self.tokens
        heads: list = []  # each node's variable or symbol id
        for k in range(first, len(at)):
            tok = toks[at[k]]
            n = arity[k]
            if n < 0:
                var = scope.get(tok)
                if var is None:
                    var = scope[tok] = Var(len(scope))
                heads.append(var)
                continue
            try:
                heads.append(self.sig.intern(_name(tok), n))
            except SignatureError as exc:
                raise self.error(str(exc), at[k]) from exc
        done: list[Term] = []
        for head, n in zip(reversed(heads), reversed(arity)):
            if n < 0:
                done.append(head)
            else:
                args = tuple(done[: -n - 1 : -1])
                if n:
                    del done[-n:]
                done.append(make_app(head, args))
        return tuple(reversed(done))


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
    stack = [(_Parser(text, sig), path, top)]
    visiting = {top}
    while stack:
        parser, shown, target = stack[-1]
        try:
            if not parser.tokens[parser.pos]:
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
            _, include, at = item
            inner = os.path.join(os.path.dirname(shown) if shown else os.getcwd(), include)
            inner_target = os.path.abspath(inner)
            if inner_target in visiting:
                raise parser.error(f"cyclic include of {include!r}", at)
            try:
                with open(inner_target, encoding="utf-8") as handle:
                    included_text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise parser.error(f"cannot read include {include!r}: {exc}", at) from exc
            try:
                inner_parser = _Parser(included_text, sig)
            except ParseError as exc:
                raise ParseError(exc.message, exc.line, exc.col, inner) from exc
        except ParseError as exc:
            # an error in an included file names it
            if exc.file is not None or len(stack) == 1:
                raise
            raise ParseError(exc.message, exc.line, exc.col, shown) from exc
        stack.append((inner_parser, inner, inner_target))
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

# the limits whose SZS status is not ResourceOut
_LIMIT_SZS = {"time": "Timeout", "memory": "MemoryOut"}


def emit_result(result: SaturationResult, sig: Signature, proof: bool = True) -> str:
    """SZS status line, plus numbered derivation lines for refutations.

    A run stopped by the time limit is a Timeout, one stopped by the memory
    limit is MemoryOut, and one stopped by the clause cap is ResourceOut.
    """
    status = _LIMIT_SZS.get(result.limit_reason, _SZS[result.status])
    lines = [f"% SZS status {status}"]
    if proof and result.status is SatStatus.UNSATISFIABLE:
        for node in proof_clauses(result):
            tag = node.rule if not node.parents else f"{node.rule} {' '.join(str(p) for p in node.parents)}"
            lines.append(f"{node.cid}. {format_clause(node, sig)} [{tag}]")
    return "\n".join(lines)
