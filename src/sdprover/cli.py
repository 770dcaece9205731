"""Command-line driver: parse a problem, saturate, report SZS status.

The time limit counts from reading the input: the problem is read and
parsed under the run's deadline (terms.run_scope), minting checks it per
input clause, and saturate gets the time that is left.  Every refutation
is re-checked by verify_proof before it is printed, so Unsatisfiable is
reported only with a proof that replays.

Exit codes: 0 unsatisfiable, 1 satisfiable, 2 a limit hit (SZS status
Timeout for the time limit, MemoryOut for the memory limit, ResourceOut
for the clause cap),
3 bad input (unreadable file or one that is not UTF-8, parse error, arity
conflict, or bad usage),
4 any other error, a refutation whose proof verify_proof rejects among
them, reported as SZS status Error so a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional

from .clauses import ClauseFactory
from .saturation import ProverConfig, SatStatus, SaturationResult, saturate, verify_proof
from .terms import ResourceLimit, Signature, SignatureError, run_scope
from .tptp import ParseError, emit_result, parse_problem

_EXIT_CODES = {
    SatStatus.UNSATISFIABLE: 0,
    SatStatus.SATURATED: 1,
    SatStatus.RESOURCE_OUT: 2,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, same exit code as unreadable files
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _switch(value: str) -> bool:
    return value == "on"


def _limit(convert: type):
    """An argparse type for a limit: convert's value, which must be a
    non-negative finite number (0 means no limit)."""

    def parse(text: str):
        value = convert(text)
        if not 0 <= value < math.inf:  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"expected a non-negative finite number, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdprover", description="Saturation prover for first-order logic with equality.")
    parser.add_argument("path", nargs="?", default="-", help="TPTP CNF problem file, or - for stdin")
    parser.add_argument("--fsd", choices=("on", "off"), default="on", help="forward subsumption demodulation")
    parser.add_argument("--bsd", choices=("on", "off"), default="on", help="backward subsumption demodulation")
    parser.add_argument("--time-limit", type=_limit(float), default=60.0, help="seconds before giving up (0 = none)")
    parser.add_argument("--clause-limit", type=_limit(int), default=100000, help="clause count cap (0 = none)")
    parser.add_argument("--memory-limit", type=_limit(int), default=1024, help="peak resident memory in MB (0 = none)")
    parser.add_argument("--proof", choices=("on", "off"), default="on", help="print the derivation on refutation")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except Exception as exc:
        print("% SZS status Error")
        print(f"sdprover: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _run(argv: Optional[list[str]]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    deadline = time.monotonic() + args.time_limit if args.time_limit > 0 else None
    sig = Signature()
    factory = ClauseFactory()
    try:
        if args.path == "-":
            text = sys.stdin.read()
            path = None
        else:
            with open(args.path, encoding="utf-8") as handle:
                text = handle.read()
            path = args.path
        with run_scope(deadline):
            problem = parse_problem(text, sig, factory, path=path)
    except (OSError, ParseError, SignatureError) as exc:
        print(f"sdprover: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        source = "stdin" if args.path == "-" else repr(args.path)
        print(f"sdprover: cannot read {source}: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit:
        problem = None
    # saturate gets the time reading left; 0 would mean no limit, so a
    # spent budget is a Timeout here
    time_limit = 0.0 if deadline is None else deadline - time.monotonic()
    if problem is None or (deadline is not None and time_limit <= 0):
        result = SaturationResult(SatStatus.RESOURCE_OUT, factory, limit_reason="time")
        print(emit_result(result, sig))
        return _EXIT_CODES[result.status]
    config = ProverConfig(
        fsd=_switch(args.fsd),
        bsd=_switch(args.bsd),
        time_limit=time_limit,
        clause_limit=args.clause_limit,
        proof=_switch(args.proof),
        memory_limit=args.memory_limit,
    )
    result = saturate(problem.clauses, config, factory)
    if result.status is SatStatus.UNSATISFIABLE:
        failures = verify_proof(result)
        if failures:
            print("% SZS status Error")
            for failure in failures:
                print(f"sdprover: proof rejected: {failure}", file=sys.stderr)
            return 4
    print(emit_result(result, sig, proof=config.proof))
    return _EXIT_CODES[result.status]


if __name__ == "__main__":
    raise SystemExit(main())
