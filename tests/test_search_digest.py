"""The search on the corpus against a committed digest.

Every corpus problem runs in all four fsd/bsd configurations with a
100-clause cap.  search_digest.tsv holds one row per run: the SZS status,
the iterations, the clauses made and a SHA-256 prefix of the registry
lines (id, rule, parents, literals).  A change that keeps the search
byte-identical passes with the table as it is.  A change that alters the
search writes the table anew,

    PYTHONPATH=src python tests/test_search_digest.py > tests/search_digest.tsv

and the diff of that file shows the runs it changed.
"""

import glob
import hashlib
import os
from itertools import product

from oracles import load_problem

from sdprover.clauses import ClauseFactory
from sdprover.saturation import ProverConfig, saturate
from sdprover.terms import Signature

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "search_digest.tsv")


def _rows() -> list[tuple[str, str]]:
    """(run, outcome) for every corpus problem in every configuration."""
    rows = []
    for path in sorted(glob.glob(os.path.join(HERE, os.pardir, "corpus", "*.p"))):
        for fsd, bsd in product((True, False), repeat=2):
            sig, factory = Signature(), ClauseFactory()
            problem = load_problem(path, sig, factory)
            config = ProverConfig(fsd=fsd, bsd=bsd, time_limit=0, clause_limit=100)
            result = saturate(problem.clauses, config, factory)
            lines = "\n".join(f"{c.cid} {c.rule} {c.parents} {c.literals!r}" for c in factory.registry.values())
            digest = hashlib.sha256(lines.encode()).hexdigest()[:16]
            run = f"{os.path.basename(path)}\tfsd={'on' if fsd else 'off'}\tbsd={'on' if bsd else 'off'}"
            rows.append((run, f"{result.status.value}\t{result.iterations}\t{factory.created}\t{digest}"))
    return rows


def _table() -> dict[str, str]:
    table = {}
    with open(TABLE, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            table["\t".join(fields[:3])] = "\t".join(fields[3:])
    return table


def test_corpus_search_matches_the_committed_digest():
    want = _table()
    got = dict(_rows())
    assert len(got) == 80
    assert sorted(got) == sorted(want), "the corpus and search_digest.tsv list different runs"
    differ = [f"{run}: {want[run]} -> {got[run]}" for run in got if got[run] != want[run]]
    assert not differ, "runs that differ from search_digest.tsv:\n" + "\n".join(differ)


if __name__ == "__main__":
    for run, outcome in _rows():
        print(f"{run}\t{outcome}")
