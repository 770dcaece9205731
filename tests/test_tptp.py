"""Parser, printer, result formatting, and command-line driver tests."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from sdprover import cli
from sdprover.clauses import ClauseFactory
from sdprover.cli import main
from sdprover.saturation import ProverConfig, SatStatus, proof_clauses, saturate, verify_proof
from sdprover.terms import App, Signature, Var
from sdprover.tptp import (
    ParseError,
    _position,
    _tokenize,
    emit_result,
    format_clause,
    format_literal,
    format_term,
    parse_problem,
)

from oracles import reference_tokenize, variant
from randgen import Gen


def _parse(text: str):
    sig = Signature()
    factory = ClauseFactory()
    problem = parse_problem(text, sig, factory)
    return problem, sig, factory


def test_parses_unit_equality_clause():
    problem, _, _ = _parse("cnf(a, axiom, f(X)=g(X)).")
    assert len(problem.clauses) == 1
    (clause,) = problem.clauses
    (lit,) = clause.literals
    assert lit.is_equality and lit.positive
    assert isinstance(lit.lhs, App) and isinstance(lit.rhs, App)
    assert lit.lhs.args == lit.rhs.args == (Var(0),)


def test_parses_guarded_equality_clause():
    problem, sig, _ = _parse("cnf(b, axiom, ~leq(z,I) | ~less(I,n) | f(I)=g(I)).")
    (clause,) = problem.clauses
    assert len(clause) == 3
    leq, less, equality = clause.literals
    assert not leq.positive and not less.positive
    assert equality.is_equality and equality.positive
    assert sig.name(leq.args[0].sym) == "z"
    assert sig.name(less.args[1].sym) == "n"
    # one clause-scoped variable shared by all three literals
    assert leq.args[1] == less.args[0] == equality.lhs.args[0]


def test_variables_are_clause_scoped():
    problem, _, _ = _parse("cnf(a, axiom, p(X) | q(X)). cnf(b, axiom, r(X)).")
    first, second = problem.clauses
    assert first.literals[0].args == first.literals[1].args == (Var(0),)
    assert second.literals[0].args == (Var(0),)


def test_symbols_intern_and_variables_number_in_preorder():
    # interning order fixes the ordering precedence
    problem, sig, _ = _parse("cnf(a, axiom, p(f(Y, g(X, a)), X, b) | h(c, Y) = Y).")
    assert [sig.name(sid) for sid in range(len(sig))] == ["p", "f", "g", "a", "b", "h", "c"]
    atom, equality = problem.clauses[0].literals
    assert atom.args[0].args[0] == Var(0) and atom.args[1] == Var(1)
    assert equality.rhs == Var(0)


def test_roles_recorded_per_clause():
    problem, _, _ = _parse(
        "cnf(a, axiom, p(c)). cnf(g, negated_conjecture, ~p(c))."
    )
    roles = [problem.roles[c.cid] for c in problem.clauses]
    assert roles == ["axiom", "negated_conjecture"]


def test_outer_parentheses_and_comments():
    text = "% leading comment\ncnf(a, axiom, (p(c) | q(c))). % trailing\n"
    problem, _, _ = _parse(text)
    assert len(problem.clauses[0]) == 2


def test_false_disjunct_is_dropped():
    problem, _, _ = _parse("cnf(a, axiom, p(c) | $false).")
    assert len(problem.clauses[0]) == 1


def test_false_alone_gives_empty_clause():
    problem, _, _ = _parse("cnf(a, axiom, $false).")
    assert problem.clauses[0].is_empty


def test_numbers_and_quoted_names_are_constants():
    problem, sig, _ = _parse("cnf(a, axiom, p(0) | q('two words')).")
    p_lit, q_lit = problem.clauses[0].literals
    assert sig.name(p_lit.args[0].sym) == "0"
    assert sig.name(q_lit.args[0].sym) == "two words"


def test_quoted_formula_name_accepted():
    problem, _, _ = _parse("cnf('odd name', axiom, p(c)).")
    assert len(problem.clauses) == 1


def test_inequality_literal():
    problem, _, _ = _parse("cnf(a, axiom, f(X) != X).")
    (lit,) = problem.clauses[0].literals
    assert lit.is_equality and not lit.positive


def test_negated_equality_is_inequality():
    problem, _, _ = _parse("cnf(a, axiom, ~ f(X) = X).")
    (lit,) = problem.clauses[0].literals
    assert lit.is_equality and not lit.positive


def test_unterminated_formula_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        _parse("cnf(c, axiom, p(X)")
    assert "line 1" in str(err.value)


def test_arity_conflict_names_the_symbol():
    with pytest.raises(ParseError) as err:
        _parse("cnf(a, axiom, p(f(X))). cnf(b, axiom, p(f(X,X))).")
    assert "f" in str(err.value)


def test_negating_an_inequality_is_rejected():
    with pytest.raises(ParseError):
        _parse("cnf(a, axiom, ~ f(X) != X).")


def test_unsupported_dollar_word_is_rejected():
    with pytest.raises(ParseError) as err:
        _parse("cnf(a, axiom, $true).")
    assert "$true" in str(err.value)


def test_bad_role_is_rejected():
    with pytest.raises(ParseError):
        _parse("cnf(a, 7, p(c)).")


def test_stray_character_reports_position():
    with pytest.raises(ParseError) as err:
        _parse("cnf(a, axiom,\n p(c) # q(c)).")
    assert err.value.line == 2


# token soup: every kind of token, blanks, comments and line ends, and the
# pieces the pattern cannot start a token with; a lone quote may pair with
# a later one, and a backslash escapes inside quotes only
_SOUP = [
    "cnf", "include", "p", "f_1", "X", "_Y2", "Abc", "42", "007", "'a b'", "'it\\'s'", "''", "'\\\\'",
    "(", ")", ",", ".", "|", "~", "=", "!=", "$false", "$true",
    " ", "  ", "\t", "\n", "\r\n", "\r", "% a comment\n", "%%\n", "% at the end",
]
_STRAYS = ["#", "!", "$", "'", "\\", "\f", "@", "\u00e4", "$1"]


@pytest.mark.parametrize("seed", range(4))
def test_tokenizer_agrees_with_the_reference(seed):
    """The one-findall tokenizer gives the token texts of the reference,
    which matched one token at a time and kept a line and column on each;
    recounting a token's position from the text gives the reference's, and
    a stray character raises the reference's ParseError."""
    rng = random.Random(seed)
    errors = 0
    for _ in range(1500):
        pieces = [rng.choice(_STRAYS if rng.random() < 0.03 else _SOUP) for _ in range(rng.randrange(30))]
        text = "".join(pieces)
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            errors += 1
            with pytest.raises(ParseError) as err:
                _tokenize(text)
            assert (err.value.message, err.value.line, err.value.col) == (exc.message, exc.line, exc.col), text
            continue
        tokens = _tokenize(text)
        assert tokens == [tok.text for tok in expected], text
        assert [_position(text, tokens, i) for i in range(len(tokens))] == [(t.line, t.col) for t in expected], text
    assert 300 < errors < 1200


def test_parse_errors_report_line_and_column():
    cases = [
        ("cnf(a, axiom,\n p(c) # q(c)).", "unexpected character '#'", 2, 7),
        ("cnf(a, axiom, p(c)).\r\n  cnf(b, axiom, q(c) r).", "expected ')', found 'r'", 2, 22),
        ("% comment\ncnf(a, axiom, p(f(X, Y)) | q(f(X))).", "function symbol 'f' used with arity 1, "
         "previously declared with arity 2", 2, 30),
        ("cnf(a, axiom, p(c)\n\n  ", "expected ')', found 'end of input'", 3, 3),
        ("cnf(a, axiom, p(c)). % end\n\n)", "expected cnf or include, found ')'", 3, 1),
        ("cnf('x y', axiom, X).", "predicate expected", 1, 19),
        ("cnf(a, axiom, ~ c != d).", "cannot negate an inequality", 1, 17),
    ]
    for text, message, line, col in cases:
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert (err.value.message, err.value.line, err.value.col) == (message, line, col), text


def test_include_resolves_relative_to_including_file(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "inner.p").write_text("include('deeper.p').\ncnf(b, axiom, q(c)).\n")
    (sub / "deeper.p").write_text("cnf(c, axiom, r(c)).\n")
    main_file = tmp_path / "main.p"
    main_file.write_text("cnf(a, axiom, p(c)).\ninclude('sub/inner.p').\n")
    sig = Signature()
    factory = ClauseFactory()
    problem = parse_problem(main_file.read_text(), sig, factory, path=str(main_file))
    names = [format_clause(c, sig) for c in problem.clauses]
    assert names == ["p(c)", "r(c)", "q(c)"]


def test_cyclic_include_is_an_error(tmp_path):
    first = tmp_path / "first.p"
    second = tmp_path / "second.p"
    first.write_text("include('second.p').\n")
    second.write_text("include('first.p').\n")
    with pytest.raises(ParseError) as err:
        parse_problem(first.read_text(), Signature(), ClauseFactory(), path=str(first))
    assert "cyclic" in str(err.value)


def test_missing_include_is_an_error(tmp_path):
    main_file = tmp_path / "main.p"
    main_file.write_text("include('nowhere.p').\n")
    with pytest.raises(ParseError) as err:
        parse_problem(main_file.read_text(), Signature(), ClauseFactory(), path=str(main_file))
    assert "nowhere.p" in str(err.value)


def test_include_error_is_reported_at_the_directive(tmp_path):
    main_file = tmp_path / "main.p"
    main_file.write_text("cnf(a, axiom, p(c)).\n\ncnf(b, axiom, q(c)).\n   include('nowhere.p').\n")
    with pytest.raises(ParseError) as err:
        parse_problem(main_file.read_text(), Signature(), ClauseFactory(), path=str(main_file))
    assert (err.value.line, err.value.col, err.value.file) == (4, 4, None)
    assert str(err.value).endswith("at line 4, column 4")
    # a cycle closes at the directive of the file that includes back
    (tmp_path / "first.p").write_text("include('second.p').\n")
    (tmp_path / "second.p").write_text("cnf(a, axiom, p(c)).\n  include('first.p').\n")
    first = str(tmp_path / "first.p")
    with pytest.raises(ParseError) as err:
        parse_problem("include('second.p').\n", Signature(), ClauseFactory(), path=first)
    assert "cyclic" in str(err.value)
    assert (err.value.line, err.value.col, err.value.file) == (2, 3, str(tmp_path / "second.p"))


def test_cli_proves_through_a_deep_include_chain(tmp_path, capsys):
    """Included files are read from a stack, not by recursion, so a chain
    of 3,000 nested includes proves like a flat file."""
    depth = 3000
    for i in range(depth):
        (tmp_path / f"f{i}.p").write_text(f"include('f{i + 1}.p').\n")
    (tmp_path / f"f{depth}.p").write_text("cnf(a, axiom, p(c)).\ncnf(b, negated_conjecture, ~p(c)).\n")
    assert main([str(tmp_path / "f0.p")]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("% SZS status Unsatisfiable\n") and err == ""


def test_parse_error_in_an_included_file_names_it(tmp_path, capsys):
    (tmp_path / "inner.p").write_text("cnf(a, axiom, p(c)).\ncnf(b, axiom, q(#)).\n")
    path = _write(tmp_path, "cnf(a, axiom, p(c)).\ninclude('inner.p').\n", name="main.p")
    with pytest.raises(ParseError) as err:
        parse_problem((tmp_path / "main.p").read_text(), Signature(), ClauseFactory(), path=path)
    inner = str(tmp_path / "inner.p")
    assert (err.value.line, err.value.col, err.value.file) == (2, 17, inner)
    assert main([path]) == 3
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text == f"sdprover: unexpected character '#' at line 2, column 17 in {inner!r}\n"


def test_format_round_trip_is_identity_up_to_renaming():
    text = """
    cnf(a, axiom, ~leq(z,I) | ~less(I,n) | f(I)=g(I)).
    cnf(b, axiom, p(f(f(X))) | q(X) | X = z).
    cnf(c, axiom, h(X, g(Y)) != h(Y, X)).
    cnf(d, axiom, r).
    cnf(e, axiom, $false).
    cnf(f, axiom, s(k(X, g(z), Y, n), Y, z)).
    """
    problem, sig, _ = _parse(text)
    assert format_clause(problem.clauses[-1], sig) == "s(k(X0,g(z),X1,n),X1,z)"
    reprinted = "\n".join(
        f"cnf(c{i}, axiom, {format_clause(c, sig)})." for i, c in enumerate(problem.clauses)
    )
    # $false round-trips through the empty clause's printed form
    reparsed, sig2, _ = _parse(reprinted)
    assert len(reparsed.clauses) == len(problem.clauses)
    for before, after in zip(problem.clauses, reparsed.clauses):
        assert variant(before, after)


def test_format_round_trip_on_random_clauses():
    env = Gen(seed=71)
    factory = ClauseFactory()
    for _ in range(150):
        lits = env.lits(size=env.rng.randint(1, 4), depth=2)
        clause = factory.make(lits)
        text = f"cnf(a, axiom, {format_clause(clause, env.sig)})."
        # reparse against the same signature so names resolve to the same ids
        reparsed = parse_problem(text, env.sig, ClauseFactory())
        assert variant(clause, reparsed.clauses[0])


def test_quoted_names_print_quoted_and_read_back_as_the_same_literals():
    """A name that is not a lower word or a number prints in quotes: the
    proof of p('X') shows a constant, not a variable, an escaped quote
    survives, and the printed clauses parse to the same literals."""
    text = r"""
    cnf(a, axiom, p('X') | q('a\'', 'two words', 'b')).
    cnf(b, axiom, 'P'(c) | ~q('a\'', 'two words', b)).
    cnf(c, negated_conjecture, ~p('X')).
    cnf(d, negated_conjecture, ~'P'(c)).
    """
    result, sig = _run(text)
    assert result.status is SatStatus.UNSATISFIABLE
    lines = emit_result(result, sig).splitlines()[1:]
    assert lines[0] == "1. p('X') | q('a\\'','two words',b) [input]"
    assert lines[1] == "2. 'P'(c) | ~q('a\\'','two words',b) [input]"
    for node, line in zip(proof_clauses(result), lines):
        printed = line.split(" ", 1)[1].rsplit(" [", 1)[0]
        reparsed = parse_problem(f"cnf(r, axiom, {printed}).", sig, ClauseFactory())
        assert reparsed.clauses[0].literals == node.literals, line


def test_format_term_and_literal_shapes():
    problem, sig, _ = _parse("cnf(a, axiom, ~p(f(X), c) | r | f(X) != c).")
    pred, bare, ineq = problem.clauses[0].literals
    assert format_literal(pred, sig) == "~p(f(X0),c)"
    assert format_literal(bare, sig) == "r"
    assert format_literal(ineq, sig) == "f(X0) != c"
    assert format_term(pred.args[0], sig) == "f(X0)"


def _run(text: str, **overrides):
    sig = Signature()
    factory = ClauseFactory()
    problem = parse_problem(text, sig, factory)
    config = ProverConfig(**{"time_limit": 10.0, **overrides})
    return saturate(problem.clauses, config, factory), sig


def test_emit_result_satisfiable_is_one_line():
    result, sig = _run("cnf(a, axiom, p(c)).")
    assert result.status is SatStatus.SATURATED
    assert emit_result(result, sig) == "% SZS status Satisfiable"


def test_emit_result_resource_out_is_one_line():
    result, sig = _run(
        "cnf(a, axiom, p(c)). cnf(b, axiom, ~p(X) | p(f(X))).",
        clause_limit=5,
    )
    assert result.status is SatStatus.RESOURCE_OUT
    assert emit_result(result, sig) == "% SZS status ResourceOut"


def test_emit_result_proof_lines():
    result, sig = _run("cnf(a, axiom, p(c)). cnf(b, negated_conjecture, ~p(c)).")
    assert result.status is SatStatus.UNSATISFIABLE
    assert verify_proof(result) == []
    out = emit_result(result, sig)
    lines = out.splitlines()
    assert lines[0] == "% SZS status Unsatisfiable"
    assert out.count("SZS status") == 1
    assert lines[1:] == [
        "1. p(c) [input]",
        "2. ~p(c) [input]",
        "3. $false [resolution 1 2]",
    ]


def test_emit_result_proof_off():
    result, sig = _run("cnf(a, axiom, p(c)). cnf(b, negated_conjecture, ~p(c)).")
    assert emit_result(result, sig, proof=False) == "% SZS status Unsatisfiable"


def test_emit_result_parents_precede_children():
    text = """
    cnf(a, axiom, f(c) = c).
    cnf(b, axiom, p(f(f(c)))).
    cnf(g, negated_conjecture, ~p(c)).
    """
    result, sig = _run(text)
    assert result.status is SatStatus.UNSATISFIABLE
    seen = set()
    for line in emit_result(result, sig).splitlines()[1:]:
        cid = int(line.split(".")[0])
        tag = line[line.index("[") + 1 : -1].split()
        assert all(int(p) in seen for p in tag[1:])
        seen.add(cid)


def _write(tmp_path, text, name="problem.p"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_unsatisfiable_exit_and_proof(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, negated_conjecture, ~p(c)).")
    code = main([path])
    out = capsys.readouterr().out
    assert code == 0
    assert "% SZS status Unsatisfiable" in out
    assert "[resolution 1 2]" in out


def test_cli_satisfiable_exit(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main([path]) == 1
    assert capsys.readouterr().out.strip() == "% SZS status Satisfiable"


def test_cli_resource_out_exit(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, axiom, ~p(X) | p(f(X))).")
    assert main(["--clause-limit", "5", path]) == 2
    assert capsys.readouterr().out.strip() == "% SZS status ResourceOut"


def test_cli_time_limit_is_timeout(tmp_path, capsys):
    # p(c), p(f(c)), p(f(f(c))), ... never saturates; no clause cap stops it
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, axiom, ~p(X) | p(f(X))).")
    assert main(["--time-limit", "0.05", "--clause-limit", "0", path]) == 2
    assert capsys.readouterr().out.strip() == "% SZS status Timeout"


def test_cli_budget_spent_reading_is_a_timeout(tmp_path, capsys, monkeypatch):
    """Time spent reading counts: when parsing returns after the deadline,
    the CLI reports Timeout and does not start saturate, whose time limit
    of 0 would mean none."""
    parse = cli.parse_problem

    def slow_parse(*args, **kwargs):
        problem = parse(*args, **kwargs)
        time.sleep(0.1)
        return problem

    monkeypatch.setattr(cli, "parse_problem", slow_parse)
    monkeypatch.setattr(cli, "saturate", lambda *args: pytest.fail("saturate started"))
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, axiom, ~p(X) | p(f(X))).")
    assert main(["--time-limit", "0.05", "--clause-limit", "0", path]) == 2
    assert capsys.readouterr().out.strip() == "% SZS status Timeout"


def _balanced(depth: int) -> str:
    return "Y" if depth == 0 else f"h({_balanced(depth - 1)}, {_balanced(depth - 1)})"


# Runs the CLI with a 1 s time limit on the problem file argv[1] and prints
# its output, exit code and the seconds main took as one JSON line.  The
# limit counts from reading the input, so main is what it bounds.
_TIME_LIMITED_CLI = """
import contextlib, io, json, sys, time
from sdprover import cli

out = io.StringIO()
start = time.monotonic()
with contextlib.redirect_stdout(out):
    code = cli.main(["--time-limit", "1", sys.argv[1]])
print(json.dumps({"out": out.getvalue(), "code": code, "main_s": time.monotonic() - start}))
"""


def _run_child(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run script in a child interpreter that imports sdprover from this
    tree, with args as argv[1:] and env added to the environment; killed
    after 60 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60)


def _assert_times_out_within_bound(path):
    """The CLI, run on path with --time-limit 1 in a child interpreter,
    prints Timeout and exits 2, and main returns within 3 s (2 s of slack
    for a loaded machine).  A run that loses its deadline check fails here
    when the child is killed after 60 s, instead of hanging the suite."""
    child = _run_child(_TIME_LIMITED_CLI, path)
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    assert (run["out"].strip(), run["code"]) == ("% SZS status Timeout", 2)
    assert run["main_s"] < 3.0, run["main_s"]


def test_cli_time_limit_holds_inside_one_inference(tmp_path):
    depth = 1500
    # a path of ten p-edges ending in q(b) does not subsume the complete
    # p-graph on a0..a7 plus ~q(b), but the matcher walks every path of the
    # graph to find that out: the deadline is checked every few hundred
    # search nodes, in forward subsumption when the path clause is active
    # first and in backward subsumption when the graph clause is
    chain = " | ".join(f"~p(X{i}, X{i + 1})" for i in range(10)) + " | ~q(X10)"
    graph = " | ".join(f"~p(a{i}, a{j})" for i in range(8) for j in range(8)) + " | ~q(b)"
    # the same walk in the rewriting matcher: with f(X0) = X0 in the path
    # clause and r(f(a0)) in the graph clause, the path clause is a side
    # premise that could rewrite the graph clause, in forward subsumption
    # demodulation when the path clause is active first and in backward
    # subsumption demodulation when the graph clause is
    eq_chain = chain + " | f(X0) = X0"
    eq_graph = graph + " | r(f(a0))"
    xs = ", ".join(f"X{i}" for i in range(1, 23))
    gs = ", ".join(f"g(X{i}, X{i})" for i in range(22))
    ys = ", ".join(f"Y{i}" for i in range(1, 23))
    problems = [
        # superposing g(X) = f^1500(X) into itself unifies at about 1,500
        # positions, each with a conclusion of about 3,000 nodes, all in one
        # call: the deadline is checked once per position
        f"cnf(a, axiom, g(X) = {'f(' * depth}X{')' * depth}).\ncnf(b, axiom, p(g(a))).",
        # f(X) = g(Y) superposes cheaply at 300 positions of a tower, but
        # each conclusion carries a non-ground term of 16,383 nodes that
        # minting instantiates: the deadline is checked once per conclusion
        f"cnf(a, axiom, f(X) = g(Y)).\ncnf(b, axiom, p({_balanced(13)}, {'f(' * 300}Z{')' * 300})).",
        f"cnf(chain, axiom, {chain}).\ncnf(graph, axiom, {graph}).",
        f"cnf(graph, axiom, {graph}).\ncnf(chain, axiom, {chain}).",
        f"cnf(chain, axiom, {eq_chain}).\ncnf(graph, axiom, {eq_graph}).",
        f"cnf(graph, axiom, {eq_graph}).\ncnf(chain, axiom, {eq_chain}).",
        # unifying X1..X22 with g(X0,X0)..g(X21,X21) binds each Xi to
        # g(X(i-1), X(i-1)): minting instantiates the triangular unifier
        # as shared terms, but the conclusions q(X22) of equality
        # resolution and p(X1,...,X22) of factoring hold terms of 2^22
        # nodes as trees, and the literal walk after minting walks them as
        # trees (29 s and 2.2 GB without the deadline check in the walk)
        f"cnf(c, axiom, f({xs}) != f({gs}) | q(X22)).",
        f"cnf(c, axiom, p({xs}) | p({gs})).\ncnf(d, axiom, ~p({', '.join(['a'] * 22)})).",
        # the same chain before anything is minted: the ordering checks of
        # equality factoring, and of superposition with an incomparable
        # equation whose unifier chains X1..X22 through the other clause's
        # Y1..Y22, compare instances of 2^22 nodes as trees, and counting
        # their variables walks them (28 s and 38 s without the deadline
        # check in that count)
        f"cnf(c, axiom, f({xs}) = k(X22) | f({gs}) = b).",
        f"cnf(a, axiom, f({xs}, {gs}) = k(X22, Z)).\ncnf(b, axiom, p(f({ys}, {ys}))).",
    ]
    for text in problems:
        _assert_times_out_within_bound(_write(tmp_path, text))
    # without q(X22), equality resolution derives the empty clause at once:
    # instantiating the unifier is not needed to see that.  Nor is walking
    # the chain as a tree when a side binds Y after it: the occurs check of
    # Y against k(X24) chases each binding once (2^24 walks, 7.5 s, if it
    # chased every occurrence)
    x24 = ", ".join(f"X{i}" for i in range(1, 25))
    g24 = ", ".join(f"g(X{i}, X{i})" for i in range(24))
    for text in (f"cnf(c, axiom, f({xs}) != f({gs})).", f"cnf(c, axiom, f(Y, {x24}) != f(k(X24), {g24}))."):
        child = _run_child(_TIME_LIMITED_CLI, _write(tmp_path, text))
        assert child.returncode == 0, child.stderr
        run = json.loads(child.stdout)
        assert (run["out"].splitlines()[0], run["code"]) == ("% SZS status Unsatisfiable", 0)


def test_cli_time_limit_holds_while_unification_fails(tmp_path):
    """Resolution checks the deadline before each unification, also when
    none succeeds and nothing is minted."""
    # the 200 literals p(b, Xi, ai) are pairwise incomparable, so all are
    # selected, and factoring two of them fails at once on ai against aj;
    # resolving each with ~p(c, T, Y) binds Y, then binds Xi to the tower
    # T = f^200000(Z), whose occurs check walks all of it (T is not
    # ground, so the check cannot skip it), and then fails on b against c:
    # 200 walks of T in one call, with no conclusion (about 6 s without
    # the deadline check; with many more literals, selecting and factoring
    # them would reach the deadline before resolution does)
    wide = " | ".join(f"p(b, X{i}, a{i})" for i in range(200))
    depth = 200_000
    text = f"cnf(wide, axiom, {wide}).\ncnf(tower, axiom, ~p(c, {'f(' * depth}Z{')' * depth}, Y)).\n"
    _assert_times_out_within_bound(_write(tmp_path, text))


def test_cli_time_limit_holds_in_literal_selection(tmp_path):
    """Literal selection checks the deadline every few hundred literal
    comparisons."""
    # the 600 literals p(b, Xi, ai) are pairwise incomparable and all
    # positive, so selecting them compares every pair: about 360,000
    # comparisons, 4 s without the deadline check, before the clause is
    # activated; the tower clause is heavier, so it is selected later
    wide = " | ".join(f"p(b, X{i}, a{i})" for i in range(600))
    depth = 100_000
    text = f"cnf(wide, axiom, {wide}).\ncnf(tower, axiom, ~p(c, {'f(' * depth}d{')' * depth}, Y)).\n"
    _assert_times_out_within_bound(_write(tmp_path, text))


def test_cli_time_limit_holds_while_reading_the_problem(tmp_path):
    """The time limit counts from reading the input, and minting checks
    the deadline per input clause: a file of 100,000 clauses (7.6 MB) times
    out within the bound.  Read whole, without those checks, it takes
    longer than the bound (4.5 s on a 2-core host with CPython 3.11).  The
    clauses are pairwise distinct (a{i}), so none is deleted as a copy of
    an active one and the run cannot saturate within the limit."""
    text = "".join(
        f"cnf(c{i}, axiom, ~p{i % 7}(X, f(Y, a{i})) | q(g(X), b{i % 5}) | h(X, Y) = k(Z, c)).\n"
        for i in range(100_000)
    )
    _assert_times_out_within_bound(_write(tmp_path, text))


def test_cli_memory_limit_is_memory_out():
    """The baseline configuration on guard_binary.p keeps growing its
    indexes (ROADMAP: index memory is quadratic in term depth): with a
    64 MB memory limit the run stops as MemoryOut, exit 2, well before the
    60 s time limit.  A child interpreter runs it, since the limit bounds
    the process's peak resident set size and this one's is not fresh."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "guard_binary.p")
    script = (
        "import sys\n"
        "from sdprover import cli\n"
        "sys.exit(cli.main(['--fsd', 'off', '--bsd', 'off', '--clause-limit', '0', '--memory-limit', '64', sys.argv[1]]))"
    )
    child = _run_child(script, path)
    assert (child.stdout.strip(), child.returncode) == ("% SZS status MemoryOut", 2), child.stderr


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Start-up stays cheap: dataclasses, with the inspect, ast, dis and
    tokenize modules it loads, costs more CPU than the rest of the
    package's import."""
    child = _run_child("import sys, sdprover.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


# Solves the problem file argv[1] in the full and the baseline
# configuration under a clause cap, and prints for each the SZS output and
# a digest of every registry entry, after the hashes of the first input
# clause's literals and of their arguments.
_SOLVE_AND_DIGEST = """
import hashlib, sys
from sdprover import ClauseFactory, ProverConfig, Signature, emit_result, parse_problem, saturate

for on in (True, False):
    sig, factory = Signature(), ClauseFactory()
    with open(sys.argv[1], encoding="utf-8") as handle:
        problem = parse_problem(handle.read(), sig, factory)
    if on:
        print([(hash(lit), [hash(a) for a in lit.args]) for lit in problem.clauses[0].literals])
    result = saturate(problem.clauses, ProverConfig(fsd=on, bsd=on, time_limit=0, clause_limit=300), factory)
    print(emit_result(result, sig))
    digest = hashlib.sha256()
    for cid, c in factory.registry.items():
        digest.update(f"{cid} {c.rule} {c.parents} {c.literals}\\n".encode("utf-8"))
    print(len(factory.registry), digest.hexdigest())
"""


def test_the_search_does_not_depend_on_the_hash_seed():
    """Terms and literals hash alike, and the search makes the same clauses
    in the same order, under two PYTHONHASHSEED values; the full
    configuration saturates guard_eq_residual.p, the baseline reaches the
    clause cap."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "guard_eq_residual.p")
    outputs = []
    for seed in ("1", "4242"):
        child = _run_child(_SOLVE_AND_DIGEST, path, PYTHONHASHSEED=seed)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    assert "% SZS status Satisfiable" in outputs[0] and "% SZS status ResourceOut" in outputs[0]


def test_cli_missing_file_exit(tmp_path, capsys):
    assert main([str(tmp_path / "absent.p")]) == 3
    assert "sdprover:" in capsys.readouterr().err


_NOT_UTF8 = b"cnf(a, axiom, p(\xff))."


def test_cli_file_not_utf8_is_an_input_error(tmp_path, capsys):
    (tmp_path / "bad.p").write_bytes(_NOT_UTF8)
    assert main([str(tmp_path / "bad.p")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad.p" in err and "decode" in err


def test_cli_include_not_utf8_is_an_input_error(tmp_path, capsys):
    (tmp_path / "bad.p").write_bytes(_NOT_UTF8)
    path = _write(tmp_path, "include('bad.p').\n", name="outer.p")
    assert main([path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot read include 'bad.p'" in err and "decode" in err


def test_cli_stdin_not_utf8_is_an_input_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(_NOT_UTF8), encoding="utf-8"))
    assert main([]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot read stdin" in err and "decode" in err


def test_cli_parse_error_exit(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)")
    assert main([path]) == 3
    assert "line 1" in capsys.readouterr().err


def test_cli_unknown_flag_exit(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main(["--frobnicate", path]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_proof_off_suppresses_derivation(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, negated_conjecture, ~p(c)).")
    assert main(["--proof", "off", path]) == 0
    assert capsys.readouterr().out.strip() == "% SZS status Unsatisfiable"


def test_cli_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("cnf(a, axiom, p(c)). cnf(b, axiom, ~p(c))."))
    assert main([]) == 0
    assert "% SZS status Unsatisfiable" in capsys.readouterr().out


def test_cli_fsd_only_configuration(tmp_path, capsys):
    text = """
    cnf(a, axiom, r | f(X) = X).
    cnf(b, axiom, r | ~p(X) | p(f(X))).
    cnf(c, axiom, p(c)).
    """
    path = _write(tmp_path, text)
    assert main(["--fsd", "on", "--bsd", "off", path]) == 1
    assert "% SZS status Satisfiable" in capsys.readouterr().out


def test_cli_deep_term_gets_a_status_not_a_traceback(tmp_path, capsys):
    depth = 1200
    path = _write(tmp_path, f"cnf(a, axiom, p({'f(' * depth}a{')' * depth})).")
    code = main([path])
    status = capsys.readouterr().out.splitlines()[0]
    assert (status, code) == ("% SZS status Satisfiable", 1)
    # a non-ground tower goes through canonicalization when it is minted
    depth = 1500
    path = _write(tmp_path, f"cnf(a, axiom, p({'f(' * depth}X{')' * depth})).\ncnf(b, axiom, ~q(a)).")
    code = main([path])
    status = capsys.readouterr().out.splitlines()[0]
    assert (status, code) == ("% SZS status Satisfiable", 1)
    # and takes part in an inference: resolution unifies and instantiates it
    path = _write(tmp_path, f"cnf(a, axiom, p({'f(' * depth}X{')' * depth})).\ncnf(b, axiom, ~p(Y) | q(Y)).")
    code = main([path])
    status = capsys.readouterr().out.splitlines()[0]
    assert (status, code) == ("% SZS status Satisfiable", 1)
    # a refutation prints its proof, deep terms included
    tower = f"{'f(' * depth}a{')' * depth}"
    path = _write(tmp_path, f"cnf(a, axiom, p({tower})).\ncnf(b, negated_conjecture, ~p({tower})).")
    code = main([path])
    lines = capsys.readouterr().out.splitlines()
    assert (lines[0], code) == ("% SZS status Unsatisfiable", 0)
    assert f"p({tower})" in lines[1]
    # KBO compares towers of equal weight that differ only at the bottom
    a_tower, b_tower = tower, f"{'f(' * depth}b{')' * depth}"
    text = (
        f"cnf(e, axiom, {a_tower} = {b_tower}).\n"
        f"cnf(g, negated_conjecture, p({a_tower})).\n"
        f"cnf(h, axiom, ~p({b_tower})).\n"
    )
    path = _write(tmp_path, text)
    for flags in ([], ["--proof", "off"]):
        code = main(flags + [path])
        status = capsys.readouterr().out.splitlines()[0]
        assert (status, code) == ("% SZS status Unsatisfiable", 0)


def test_cli_wide_clauses_get_a_verdict(tmp_path):
    """Subsumption between clauses of over a thousand literals backtracks
    one level per literal, on the matcher's own stack: the CLI, in a child
    interpreter with Python's default recursion limit, saturates."""
    script = "import sys\nfrom sdprover.cli import main\nraise SystemExit(main(sys.argv[1:]))"
    wide = " | ".join(f"p(a{i})" for i in range(1200))
    wider = " | ".join(f"p(a{i})" for i in range(1100))
    problems = [
        # the same clause twice: each subsumes the other
        f"cnf(a, axiom, {wide}).\ncnf(b, axiom, {wide}).",
        # a clause and itself plus q(b), which it subsumes
        f"cnf(a, axiom, {wider}).\ncnf(b, axiom, {wider} | q(b)).",
    ]
    for text in problems:
        child = _run_child(script, _write(tmp_path, text))
        assert (child.stdout.splitlines()[:1], child.returncode) == (["% SZS status Satisfiable"], 1), child.stderr


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--time-limit", "-1"),
        ("--time-limit", "nan"),
        ("--time-limit", "inf"),
        ("--clause-limit", "-1"),
        ("--memory-limit", "-1"),
    ],
)
def test_cli_limit_must_be_non_negative_and_finite(tmp_path, capsys, flag, value):
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main([flag, value, path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: expected a non-negative finite number" in err


def test_cli_zero_limits_mean_none(tmp_path, capsys):
    path = _write(tmp_path, "cnf(a, axiom, p(c)). cnf(b, negated_conjecture, ~p(c)).")
    assert main(["--time-limit", "0", "--clause-limit", "0", "--memory-limit", "0", path]) == 0
    assert capsys.readouterr().out.startswith("% SZS status Unsatisfiable")


def test_cli_match_limit_is_a_usage_error(tmp_path, capsys):
    """The matcher has no solution cap: the deadline bounds its searches."""
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main(["--match-limit", "0", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --match-limit" in err


def test_cli_unexpected_exception_is_status_error(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("sdprover.cli.saturate", crash)
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main([path]) == 4
    captured = capsys.readouterr()
    assert captured.out.strip() == "% SZS status Error"
    assert "RuntimeError: boom" in captured.err
