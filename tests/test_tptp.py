"""Parser, printer, result formatting, and command-line driver tests."""

import pytest

from sdprover.clauses import ClauseFactory, variant
from sdprover.cli import main
from sdprover.saturation import ProverConfig, SatStatus, saturate, verify_proof
from sdprover.terms import App, Signature, Var
from sdprover.tptp import (
    ParseError,
    emit_result,
    format_clause,
    format_literal,
    format_term,
    parse_problem,
)

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


def test_format_round_trip_is_identity_up_to_renaming():
    text = """
    cnf(a, axiom, ~leq(z,I) | ~less(I,n) | f(I)=g(I)).
    cnf(b, axiom, p(f(f(X))) | q(X) | X = z).
    cnf(c, axiom, h(X, g(Y)) != h(Y, X)).
    cnf(d, axiom, r).
    cnf(e, axiom, $false).
    """
    problem, sig, _ = _parse(text)
    reprinted = "\n".join(
        f"cnf(c{i}, axiom, {format_clause(c, sig)})." for i, c in enumerate(problem.clauses)
    )
    # $false round-trips through the empty clause's printed form
    reparsed, sig2, _ = _parse(reprinted)
    assert len(reparsed.clauses) == len(problem.clauses)
    for before, after in zip(problem.clauses, reparsed.clauses):
        assert variant(before.literals, after.literals)


def test_format_round_trip_on_random_clauses():
    env = Gen(seed=71)
    factory = ClauseFactory()
    for _ in range(150):
        lits = env.lits(size=env.rng.randint(1, 4), depth=2)
        clause = factory.make(lits)
        text = f"cnf(a, axiom, {format_clause(clause, env.sig)})."
        # reparse against the same signature so names resolve to the same ids
        reparsed = parse_problem(text, env.sig, ClauseFactory())
        assert variant(clause.literals, reparsed.clauses[0].literals)


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


def test_cli_missing_file_exit(tmp_path, capsys):
    assert main([str(tmp_path / "absent.p")]) == 3
    assert "sdprover:" in capsys.readouterr().err


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


def test_cli_unexpected_exception_is_status_error(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("sdprover.cli.saturate", crash)
    path = _write(tmp_path, "cnf(a, axiom, p(c)).")
    assert main([path]) == 4
    captured = capsys.readouterr()
    assert captured.out.strip() == "% SZS status Error"
    assert "RuntimeError: boom" in captured.err
