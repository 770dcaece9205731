"""Long verdict differential: the four fsd/bsd configurations against the
ground model-enumeration oracle.

    PYTHONPATH=src python tests/differential.py [--problems N] [--seed S]

Not a test module, so tier-1 does not collect it.  Problem i is drawn from
seed S + i: the even ones are ground (randgen.GroundGen), the odd ones are
non-ground with constants as their only function symbols
(randgen.ConstantGen).  The expected verdict is oracles.ground_entails on
the problem's grounding over the generator's constants, which by Herbrand's
theorem is unsatisfiable exactly when the problem is.  Every configuration
must reach that verdict, and every refutation must pass verify_proof.  A
clause cap that stops a run on a satisfiable problem is no verdict and is
counted apart (saturation need not end on a satisfiable non-ground
problem); on an unsatisfiable one it is a failure.  The script prints each
failure and a line of counts, and exits 1 when anything failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import product

from oracles import apply, clause_vars, ground_entails
from randgen import ConstantGen, GroundGen

from sdprover.clauses import ClauseFactory
from sdprover.saturation import ProverConfig, SatStatus, saturate, verify_proof

CONFIGS = tuple(product((True, False), repeat=2))


def _problem(seed: int):
    """(clause literal tuples, the constants to ground over) of one problem."""
    # ground terms nest, so ground clauses stay shorter: the oracle's
    # enumeration is exponential in the atoms that occur
    gen, width = (GroundGen(seed), 3) if seed % 2 == 0 else (ConstantGen(seed), 4)
    rng = gen.rng
    clauses = [gen.lits(rng.randrange(1, width)) for _ in range(rng.randrange(3, 7))]
    if rng.random() < 0.5:
        # a complemented unit makes refutations common
        clauses.append((rng.choice(rng.choice(clauses)).negated(),))
    return clauses, [gen.a, gen.b]


def _grounding(clauses, constants) -> list:
    out = []
    for lits in clauses:
        vids = sorted(clause_vars(lits))
        for values in product(constants, repeat=len(vids)):
            out.append(apply(lits, dict(zip(vids, values))))
    return out


def _check(clauses, constants) -> tuple[SatStatus, int, list[str]]:
    """The oracle's verdict, the runs the clause cap stopped on a
    satisfiable problem, and the failures."""
    expected = SatStatus.UNSATISFIABLE if ground_entails(_grounding(clauses, constants), []) else SatStatus.SATURATED
    capped = 0
    failures = []
    for fsd, bsd in CONFIGS:
        factory = ClauseFactory()
        inputs = [factory.make(lits) for lits in clauses]
        result = saturate(inputs, ProverConfig(fsd=fsd, bsd=bsd, time_limit=10.0, clause_limit=2000), factory)
        where = f"fsd={'on' if fsd else 'off'} bsd={'on' if bsd else 'off'}"
        if expected is SatStatus.SATURATED and result.limit_reason == "clauses":
            capped += 1
        elif result.status is not expected:
            failures.append(f"{where}: {result.status.value}, expected {expected.value}")
        elif expected is SatStatus.UNSATISFIABLE:
            failures.extend(f"{where}: {problem}" for problem in verify_proof(result))
    return expected, capped, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--problems", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    verdicts = {SatStatus.UNSATISFIABLE: 0, SatStatus.SATURATED: 0}
    capped = failed = 0
    for seed in range(args.seed, args.seed + args.problems):
        clauses, constants = _problem(seed)
        expected, stopped, failures = _check(clauses, constants)
        verdicts[expected] += 1
        capped += stopped
        if failures:
            failed += 1
            print(f"seed {seed}: {clauses!r}")
            for failure in failures:
                print(f"  {failure}")
    print(
        f"{args.problems} problems, {len(CONFIGS)} configurations each: "
        f"{verdicts[SatStatus.UNSATISFIABLE]} unsatisfiable, {verdicts[SatStatus.SATURATED]} satisfiable, "
        f"{capped} satisfiable runs stopped at the clause cap, {failed} failed, {time.monotonic() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
