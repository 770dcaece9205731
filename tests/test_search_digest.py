"""The search on the corpus and the generated workloads against a committed digest.

Every corpus problem runs in all four fsd/bsd configurations with a
100-clause cap.  The problems of the fsd-guarded and ueq-group benchmark
workloads run as perfbench/workloads.py builds them at seed 1, each in its
configuration and at its clause cap.  search_digest.tsv holds one row per
run: the SZS status, the iterations, the clauses made and a SHA-256 prefix
of the registry lines (id, rule, parents, literals).  A change that keeps
the search byte-identical passes with the table as it is.  A change that
alters the search writes the table anew,

    PYTHONPATH=src python tests/test_search_digest.py > tests/search_digest.tsv

and the diff of that file shows the runs it changed.
"""

import glob
import hashlib
import importlib.util
import os
import sys
from itertools import product

from oracles import load_problem

from sdprover.clauses import ClauseFactory
from sdprover.saturation import ProverConfig, saturate
from sdprover.terms import Signature
from sdprover.tptp import parse_problem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE = os.path.join(HERE, "search_digest.tsv")
WORKLOADS = ("fsd-guarded", "ueq-group")


def _workloads():
    """perfbench/workloads.py, imported from its file."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _outcome(problem, factory: ClauseFactory, fsd: bool, bsd: bool, clause_limit: int) -> str:
    config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=clause_limit)
    result = saturate(problem.clauses, config, factory)
    lines = "\n".join(f"{c.cid} {c.rule} {c.parents} {c.literals!r}" for c in factory.registry.values())
    digest = hashlib.sha256(lines.encode()).hexdigest()[:16]
    return f"{result.status.value}\t{result.iterations}\t{factory.created}\t{digest}"


def _switches(fsd: bool, bsd: bool) -> str:
    return f"fsd={'on' if fsd else 'off'}\tbsd={'on' if bsd else 'off'}"


def _corpus_rows() -> list[tuple[str, str]]:
    """(run, outcome) for every corpus problem in every configuration."""
    rows = []
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.p"))):
        for fsd, bsd in product((True, False), repeat=2):
            sig, factory = Signature(), ClauseFactory()
            problem = load_problem(path, sig, factory)
            run = f"{os.path.basename(path)}\t{_switches(fsd, bsd)}"
            rows.append((run, _outcome(problem, factory, fsd, bsd, 100)))
    return rows


def _workload_rows() -> list[tuple[str, str]]:
    """(run, outcome) for every problem of the generated workloads at seed 1."""
    rows = []
    workloads = _workloads()
    for workload in WORKLOADS:
        for r in sorted(workloads.build(workload, 1, ROOT), key=lambda r: r.label):
            sig, factory = Signature(), ClauseFactory()
            problem = parse_problem(r.text, sig, factory, name=r.problem)
            run = f"{workload}:{r.problem}\t{_switches(r.fsd, r.bsd)}"
            rows.append((run, _outcome(problem, factory, r.fsd, r.bsd, r.clause_limit)))
    return rows


def _table() -> dict[str, str]:
    table = {}
    with open(TABLE, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            table["\t".join(fields[:3])] = "\t".join(fields[3:])
    return table


def _check(got: dict[str, str], want: dict[str, str]) -> None:
    assert sorted(got) == sorted(want), "the runs and search_digest.tsv list different runs"
    differ = [f"{run}: {want[run]} -> {got[run]}" for run in got if got[run] != want[run]]
    assert not differ, "runs that differ from search_digest.tsv:\n" + "\n".join(differ)


def test_corpus_search_matches_the_committed_digest():
    got = dict(_corpus_rows())
    assert len(got) == 80
    _check(got, {run: v for run, v in _table().items() if ":" not in run})


def test_workload_search_matches_the_committed_digest():
    got = dict(_workload_rows())
    assert len(got) == 4 + 10
    _check(got, {run: v for run, v in _table().items() if ":" in run})


if __name__ == "__main__":
    for run, outcome in _corpus_rows() + _workload_rows():
        print(f"{run}\t{outcome}")
