"""One pass of a workload in a fresh interpreter.

    python3 worker.py ROOT PROBLEMS_JSON MODE [SPANS_FILE]

MODE is `setup`, `run` or `trace`.  Every mode imports sdprover from
ROOT/src and parses every problem of the workload; the CPU seconds the
process has used by then are its set-up time.  `setup` then runs the
calibration job a few times and stops.  `run` and `trace` solve every
problem through the calls `sdprover.cli.main` makes (`saturate`, then
`emit_result`), timing each one in CPU and wall seconds, with one
calibration job before each problem and after the last.  Every mode prints
one JSON line; `run` and `trace` give a row per problem run.  `trace` wraps
the layers with the tracer while each problem is solved and writes its
spans to SPANS_FILE.  Checks that are not part of a user's run
(`verify_proof` on refutations, counting rules in the registry) happen
after each problem's timer stops.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from collections import Counter


def _import_prover(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sdprover

    if os.path.dirname(os.path.abspath(sdprover.__file__)) != os.path.join(src, "sdprover"):
        raise SystemExit(f"sdprover imported from {sdprover.__file__}, not from {src}")
    return sdprover


def _term(depth: int, k: int) -> tuple:
    if depth == 0:
        return ("x", k % 5)
    return ("f", _term(depth - 1, k * 3 + 1), _term(depth - 1, k * 7 + 2))


def _match(pattern: tuple, term: tuple, subst: dict) -> bool:
    if pattern[0] == "x":
        bound = subst.setdefault(pattern[1], term)
        return bound is term or bound == term
    if pattern[0] != term[0]:
        return False
    return _match(pattern[1], term[1], subst) and _match(pattern[2], term[2], subst)


def calibrate() -> float:
    """CPU seconds of a fixed job that does not use sdprover.

    It builds and matches tuple terms, the kind of work the prover does, so
    it slows down with the host as the prover does.  The driver divides
    times by it to take the host's drifting speed out of them.  The cyclic
    collector is off while it runs, so garbage the prover left behind is
    not charged to it.
    """
    gc.disable()
    start = time.process_time()
    for _ in range(3):
        terms = [_term(8, k) for k in range(8)]
        sum(_match(p, t, {}) for p in terms for t in terms)
        sum(_match(t, t, {}) for t in terms)
    took = time.process_time() - start
    gc.enable()
    return took


def main(argv: list[str]) -> int:
    root, problems_path, mode = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    sdprover = _import_prover(root)
    from sdprover.clauses import ClauseFactory

    with open(problems_path, encoding="utf-8") as handle:
        runs = json.load(handle)
    parsed = []
    parse_s = 0.0
    for run in runs:
        sig = sdprover.Signature()
        factory = ClauseFactory()
        start = time.perf_counter()
        problem = sdprover.parse_problem(run["text"], sig, factory, name=run["problem"])
        parse_s += time.perf_counter() - start
        parsed.append((sig, factory, problem))
    setup_cpu_s = time.process_time()
    if mode == "setup":
        print(json.dumps({"setup_cpu_s": setup_cpu_s, "calibration_s": [calibrate() for _ in range(5)]}))
        return 0

    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
    rows = []
    calibration = []
    for run_id, (run, (sig, factory, problem)) in enumerate(zip(runs, parsed)):
        calibration.append(calibrate())
        rows.append(_solve(sdprover, run_id, run, sig, factory, problem, tracer))
    calibration.append(calibrate())
    out = {
        "rows": rows,
        "setup_cpu_s": setup_cpu_s,
        "calibration_s": calibration,
        "parse_s": parse_s,
        "clauses_parsed": sum(len(p.clauses) for _, _, p in parsed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = {
            "totals": tracer.totals(),
            "counts": dict(tracer.counts),
            "peaks": dict(tracer.peaks),
            "spans": tracer.span_count,
        }
        tracer.write_spans(spans_path)
    print(json.dumps(out), flush=True)
    return 0


def _solve(sdprover, run_id, run, sig, factory, problem, tracer) -> dict:
    config = sdprover.ProverConfig(
        fsd=run["fsd"],
        bsd=run["bsd"],
        time_limit=run["time_limit"],
        clause_limit=run["clause_limit"],
    )
    made_before = factory.created
    row = {
        "label": run["label"],
        "error": None,
        "verdict": "Error",
        "time_s": 0.0,
        "cpu_s": 0.0,
        "emit_s": 0.0,
        "limit": None,
        "iterations": 0,
        "activated": 0,
        "created": 0,
        "rules": {},
        "max_literals": 0,
        "proof_problems": [],
        "verify_s": 0.0,
    }
    if tracer is not None:
        tracer.install(run_id)
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        result = sdprover.saturate(problem.clauses, config, factory)
        middle = time.perf_counter()
        text = sdprover.emit_result(result, sig, proof=config.proof)
        end = time.perf_counter()
        cpu_end = time.process_time()
    except Exception as exc:  # a crash is a failed run, not a crashed benchmark
        row.update(time_s=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return row
    finally:
        if tracer is not None:
            tracer.uninstall()
    row["time_s"] = end - start
    row["cpu_s"] = cpu_end - cpu_start
    row["emit_s"] = end - middle
    row["verdict"] = text.splitlines()[0].removeprefix("% SZS status ")
    row["limit"] = result.limit_reason
    row["iterations"] = result.iterations
    row["activated"] = result.activated
    made = [c for c in factory.registry.values() if c.rule != "input"]
    row["created"] = factory.created - made_before
    row["rules"] = dict(sorted(Counter(c.rule for c in made).items()))
    row["max_literals"] = max(len(c.literals) for c in factory.registry.values())
    if result.status is sdprover.SatStatus.UNSATISFIABLE:
        start = time.perf_counter()
        row["proof_problems"] = sdprover.verify_proof(result)
        row["verify_s"] = time.perf_counter() - start
    return row


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
