"""Problem lists of the benchmark workloads, each run with its known answer.

A workload is a list of runs: one TPTP CNF text, one prover configuration
and the SZS status the problem is known to have.  The prover only ever sees
the text.  Known answers come from the problem's construction (generated
families, group theorems) or, for `corpus/`, from reading each file: the
guard problems are satisfied by making the guard true, the others are
small refutations.

What the seed varies:

  corpus4      the order of the 80 (problem, configuration) runs in a pass.
  fsd-guarded  the order of the non-equation clauses and which chain symbol
               each guarded step clause starts from (a seeded permutation
               of a fixed set of start points), plus the order of the
               problems.  The conditional equations always come first, in
               chain order, so the chain symbols intern in the same order
               for every seed: KBO precedence among them, and with it every
               rewrite direction, is the same for all seeds.  Only the
               step predicates p_j, which are never rewritten, intern in a
               seeded order.  No seed changes an answer: the
               guarded family is satisfiable because its guards never occur
               negatively, the interval family is unsatisfiable because the
               guard facts and the negated goal are always present.
  ueq-group    the order of the problems; the problems are typed in.

Run `python3 perfbench/workloads.py --digest WORKLOAD SEED` to print the
SHA-256 of a workload's inputs; the driver compares it across interpreters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass

UNSAT = "Unsatisfiable"
SAT = "Satisfiable"
SOLVED = (UNSAT, SAT)

# work limits; the time limit is only a safety net far above any run here
CORPUS_CLAUSE_CAP = 100
GENERATED_CLAUSE_CAP = 20000
ENGEL_CLAUSE_CAP = 1500
SAFETY_TIME_LIMIT = 30.0

CONFIGS = {
    "full": (True, True),
    "fsd": (True, False),
    "bsd": (False, True),
    "base": (False, False),
}

CORPUS_ANSWERS = {
    "backward_rewrite": UNSAT,
    "conditional_idle": SAT,
    "conditional_superposition": UNSAT,
    "demod_chain": UNSAT,
    "equality_factoring": UNSAT,
    "equality_resolution": UNSAT,
    "guard_binary": SAT,
    "guard_chain": SAT,
    "guard_eq_residual": SAT,
    "guard_ground_side": SAT,
    "guard_pair": SAT,
    "guard_two_step": SAT,
    "guarded_interval": UNSAT,
    "guarded_interval_wide": UNSAT,
    "resolution_basic": UNSAT,
    "resolvable_guard": UNSAT,
    "small_sat": SAT,
    "two_stage_match": UNSAT,
    "unit_equalities_sat": SAT,
    "unit_equations": UNSAT,
}

GUARDED_SIZES = (20, 30)
INTERVAL_WIDTHS = (40, 70)

GROUP_AXIOMS = """cnf(left_identity, axiom, mult(e, X) = X).
cnf(left_inverse, axiom, mult(inv(X), X) = e).
cnf(associativity, axiom, mult(mult(X, Y), Z) = mult(X, mult(Y, Z))).
"""

GROUP_GOALS = {
    "right_identity": "cnf(goal, negated_conjecture, mult(a, e) != a).",
    "right_inverse": "cnf(goal, negated_conjecture, mult(a, inv(a)) != e).",
    "inverse_involution": "cnf(goal, negated_conjecture, inv(inv(a)) != a).",
    "inverse_identity": "cnf(goal, negated_conjecture, inv(e) != e).",
    "left_cancellation": "cnf(h, hypothesis, mult(a, b) = mult(a, c)).\n"
    "cnf(goal, negated_conjecture, b != c).",
    "right_cancellation": "cnf(h, hypothesis, mult(b, a) = mult(c, a)).\n"
    "cnf(goal, negated_conjecture, b != c).",
    "exponent2_commutative": "cnf(h, hypothesis, mult(X, X) = e).\n"
    "cnf(goal, negated_conjecture, mult(a, b) != mult(b, a)).",
    "inverse_product": "cnf(goal, negated_conjecture, inv(mult(a, b)) != mult(inv(b), inv(a))).",
    "exponent3_square": "cnf(h, hypothesis, mult(X, mult(X, X)) = e).\n"
    "cnf(goal, negated_conjecture, mult(a, a) != inv(a)).",
    # a theorem of exponent-3 groups that the prover does not reach under
    # its cap: the run ends ResourceOut, which counts as unsolved
    "exponent3_engel": "cnf(h, hypothesis, mult(X, mult(X, X)) = e).\n"
    "cnf(goal, negated_conjecture, mult(a, mult(b, a)) != mult(inv(b), mult(inv(a), inv(b)))).",
}


@dataclass(frozen=True)
class Run:
    """One prover invocation of a workload."""

    problem: str
    config: str
    fsd: bool
    bsd: bool
    clause_limit: int
    expected: str
    text: str

    @property
    def label(self) -> str:
        return f"{self.problem}/{self.config}"


def _run(problem: str, text: str, expected: str, clause_limit: int, config: str = "full") -> Run:
    fsd, bsd = CONFIGS[config]
    return Run(problem, config, fsd, bsd, clause_limit, expected, text)


def guarded_equations(n: int, rng: random.Random) -> str:
    """n guarded equations f_i = f_{i+1}, a collapsing f_{n+1} = X, n/2 steps.

    Step j is `r1 | r2 | ~p_j(X) | p_j(f_k(X))` with its own base fact
    p_j(a); FSD rewrites f_k down the chain until the step collapses.  The
    guards r1, r2 never occur negatively, so making r1 true satisfies
    every clause: the answer is Satisfiable for every seed.
    """
    lines = [f"cnf(eq{i}, axiom, r1 | r2 | f{i}(X) = f{i + 1}(X))." for i in range(1, n + 1)]
    lines.append(f"cnf(eq{n + 1}, axiom, r1 | r2 | f{n + 1}(X) = X).")
    starts = list(range(1, n + 1, 2))
    rng.shuffle(starts)
    rest = []
    for j, k in enumerate(starts):
        rest.append(f"cnf(step{j}, axiom, r1 | r2 | ~p{j}(X) | p{j}(f{k}(X))).")
        rest.append(f"cnf(base{j}, axiom, p{j}(a)).")
    rng.shuffle(rest)
    return "\n".join(lines + rest) + "\n"


def interval_chain(width: int, rng: random.Random) -> str:
    """The interval example: width guarded equations linking p(f_1) to ~p(f_{w+1}).

    The guard facts leq(z, s) and less(s, n) discharge every condition, so
    the clause set is Unsatisfiable for every seed.
    """
    lines = [
        f"cnf(eq{i}, axiom, ~leq(z, I) | ~less(I, n) | f{i}(I) = f{i + 1}(I))."
        for i in range(1, width + 1)
    ]
    rest = [
        "cnf(start, axiom, ~leq(z, I) | ~less(I, n) | p(f1(I))).",
        "cnf(low, hypothesis, leq(z, s)).",
        "cnf(high, hypothesis, less(s, n)).",
        f"cnf(goal, negated_conjecture, ~p(f{width + 1}(s))).",
    ]
    rng.shuffle(rest)
    return "\n".join(lines + rest) + "\n"


def corpus4(root: str, rng: random.Random) -> list[Run]:
    runs = []
    for name, expected in CORPUS_ANSWERS.items():
        with open(os.path.join(root, "corpus", name + ".p"), encoding="utf-8") as handle:
            text = handle.read()
        for config in CONFIGS:
            runs.append(_run(name, text, expected, CORPUS_CLAUSE_CAP, config))
    rng.shuffle(runs)
    return runs


def fsd_guarded(root: str, rng: random.Random) -> list[Run]:
    runs = [
        _run(f"guarded_n{n}", guarded_equations(n, rng), SAT, GENERATED_CLAUSE_CAP)
        for n in GUARDED_SIZES
    ]
    runs += [
        _run(f"interval_w{w}", interval_chain(w, rng), UNSAT, GENERATED_CLAUSE_CAP)
        for w in INTERVAL_WIDTHS
    ]
    rng.shuffle(runs)
    return runs


def ueq_group(root: str, rng: random.Random) -> list[Run]:
    runs = []
    for name, goal in GROUP_GOALS.items():
        cap = ENGEL_CLAUSE_CAP if name == "exponent3_engel" else GENERATED_CLAUSE_CAP
        runs.append(_run(name, GROUP_AXIOMS + goal + "\n", UNSAT, cap))
    rng.shuffle(runs)
    return runs


WORKLOADS = {
    "corpus4": corpus4,
    "fsd-guarded": fsd_guarded,
    "ueq-group": ueq_group,
}


def build(workload: str, seed: int, root: str) -> list[Run]:
    """The runs of one workload; the same seed gives the same runs."""
    return WORKLOADS[workload](root, random.Random(f"{workload}:{seed}"))


def digest(runs: list[Run]) -> str:
    blob = json.dumps([asdict(r) for r in runs], sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the input digest of one workload.")
    parser.add_argument("--digest", nargs=2, metavar=("WORKLOAD", "SEED"), required=True)
    args = parser.parse_args()
    workload, seed = args.digest
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    print(digest(build(workload, int(seed), root)))


if __name__ == "__main__":
    main()
