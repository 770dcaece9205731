"""Benchmark driver for sdprover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver builds the workload's problem
list from the seed, then starts fresh interpreters (`worker.py`), one pass
of the whole list each, until `--seconds` is used up (at least three
passes).  Each pass parses every problem (set-up), then solves each one with
the calls `sdprover.cli.main` makes and checks every verdict.  With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer numbers of the traced ones, plus the tracing overhead.

Set-up and solving times are CPU seconds of the worker process, scaled to
a host on which the calibration job in `worker.py` takes
`CALIBRATION_REFERENCE_S`.  The host is shared: wall time also counts the
time the process waits for a core, and even CPU time drifts by half with
the host's load over minutes; the calibration job, timed between problems
in the same process, drifts with it.  The per-layer output reports wall
times and the calibration time itself.

Stdout ends with one JSON line: `correct`, `attempted`, `failed`, and the
metrics, each with its unit.  A row per problem run comes before it.  Full
results and span files go to `.perfbench-out/` in the checkout.

A problem run fails when it raises, gives a verdict contradicting the
problem's known answer, has a refutation that `verify_proof` rejects, hits
the safety time limit, disagrees with another configuration on the same
problem, or has counts (verdict, iterations, clauses made, rule counts)
that differ from the first pass.  Passes run under different
`PYTHONHASHSEED` values, so that last check also covers hash seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 11
CALIBRATION_REFERENCE_S = 0.01
WORKER_TIMEOUT = 150.0

# index name -> the simplification count that says how many candidates matched
INDEX_HITS = {
    "fwd_sub": "simplify.fwd_sub.deleted",
    "bwd_sub": "simplify.bwd_sub.deleted",
    "fsd": "simplify.fsd.rewrites",
    "bsd": "simplify.bsd.rewrites",
}
RULES = ("resolution", "superposition", "factoring", "eq_resolution", "eq_factoring", "demodulation", "fsd", "bsd")


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ------------------------------------------------------------------ workers


def _spawn(mode: str, problems_path: str, hash_seed: int, spans_path: str = "") -> dict:
    """Start one worker and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, problems_path, mode]
    if spans_path:
        cmd.append(spans_path)
    # the bytecode cache lives in the checkout and is always used, as an
    # installed package's would be, whatever the caller's environment says
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {mode} ran longer than {WORKER_TIMEOUT:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------------- checks


def _signature(row: dict) -> tuple:
    keys = ("verdict", "limit", "iterations", "activated", "created", "max_literals")
    return tuple(row.get(k) for k in keys) + (tuple(sorted(row.get("rules", {}).items())),)


def _failures(rows: list[dict], runs: list[workloads.Run], reference: list[dict]) -> list[tuple[str, str]]:
    """(label, reason) for every failed run of one pass."""
    failed = []
    verdicts: dict[str, set] = {}
    for row, run in zip(rows, runs):
        if row["verdict"] in workloads.SOLVED:
            verdicts.setdefault(run.problem, set()).add(row["verdict"])
    for row, run, ref in zip(rows, runs, reference):
        if row["error"]:
            reason = "raised " + row["error"]
        elif row["verdict"] in workloads.SOLVED and row["verdict"] != run.expected:
            reason = f"verdict {row['verdict']}, known answer {run.expected}"
        elif row["verdict"] not in workloads.SOLVED and row["verdict"] != "ResourceOut":
            reason = f"unknown verdict {row['verdict']}"
        elif row["proof_problems"]:
            reason = "verify_proof rejected the refutation: " + "; ".join(row["proof_problems"])
        elif row["limit"] == "time":
            reason = "hit the safety time limit"
        elif len(verdicts.get(run.problem, ())) > 1 and row["verdict"] in workloads.SOLVED:
            reason = "configurations disagree: " + ", ".join(sorted(verdicts[run.problem]))
        elif _signature(row) != _signature(ref):
            reason = f"counts differ from the first pass: {_signature(row)} vs {_signature(ref)}"
        else:
            continue
        failed.append((row["label"], reason))
    return failed


def _check_inputs(workload: str, seed: int, runs: list[workloads.Run]) -> None:
    """The same seed must give byte-identical inputs, in any interpreter."""
    ours = workloads.digest(runs)
    again = workloads.digest(workloads.build(workload, seed, ROOT))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--digest", workload, str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="12345")
    theirs = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60).stdout.strip()
    if not ours == again == theirs:
        raise BenchmarkError(f"seed {seed} gave different inputs: {ours} {again} {theirs}")


# ------------------------------------------------------------------ metrics


def _pass_wall(out: dict) -> float:
    return sum(row["time_s"] for row in out["rows"])


def _scaled_setup(out: dict) -> float:
    """A worker's set-up CPU seconds on the reference host."""
    return out["setup_cpu_s"] * CALIBRATION_REFERENCE_S / statistics.median(out["calibration_s"])


def _scaled_cpu(out: dict) -> list[float]:
    """Each problem run's CPU seconds on the reference host, scaled by the
    calibration jobs just before and just after it."""
    cal = out["calibration_s"]
    return [
        row["cpu_s"] * 2 * CALIBRATION_REFERENCE_S / (cal[i] + cal[i + 1]) for i, row in enumerate(out["rows"])
    ]


def end_to_end(setups: list[dict], passes: list[dict], ok_share: float) -> dict[str, float]:
    solved = sum(row["verdict"] in workloads.SOLVED for row in passes[0]["rows"])
    # each problem run's median over the passes, so one slow stretch of the
    # host does not move a run's figure
    cpu = [statistics.median(times) for times in zip(*(_scaled_cpu(p) for p in passes))]
    return {
        "setup_s": statistics.median(_scaled_setup(w) for w in setups),
        "cpu_s": sum(cpu),
        "slowest_cpu_s": max(cpu),
        "solved": solved,
        "ok_share": ok_share,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layer_metrics(out: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    rows = out["rows"]
    trace = out["trace"]
    totals, counts, peaks = trace["totals"], trace["counts"], trace["peaks"]

    def span(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "tptp.parse_s": out["parse_s"],
        "tptp.clauses_parsed": out["clauses_parsed"],
        "tptp.emit_s": sum(row["emit_s"] for row in rows),
        "saturation.iterations": sum(row["iterations"] for row in rows),
        "saturation.activated": sum(row["activated"] for row in rows),
        "saturation.clauses_created": sum(row["created"] for row in rows),
        "saturation.peak_active": peaks.get("saturation.peak_active", 0),
        "saturation.peak_passive": peaks.get("saturation.peak_passive", 0),
        "saturation.resource_out": sum(row["verdict"] == "ResourceOut" for row in rows),
        "saturation.forward_s": span("saturation.forward", "incl_s"),
        "saturation.backward_s": span("saturation.backward", "incl_s"),
        "saturation.generate_s": span("saturation.generate", "incl_s"),
        "saturation.verify_s": sum(row["verify_s"] for row in rows),
    }
    for rule in RULES:
        m["rule." + rule] = sum(row["rules"].get(rule, 0) for row in rows)
    for name, hits in (
        ("fwd_sub", "deleted"),
        ("demod", "rewrites"),
        ("fsd", "rewrites"),
        ("bsd", "rewrites"),
        ("bwd_sub", "deleted"),
    ):
        key = "simplify." + name
        m[key + ".calls"] = span(key, "calls")
        m[f"{key}.{hits}"] = counts.get(f"{key}.{hits}", 0)
        m[key + ".self_s"] = span(key, "self_s")
    ms = "matching.match_solutions"
    m[ms + ".calls"] = span(ms, "calls")
    m[ms + ".solutions"] = counts.get(ms + ".solutions", 0)
    m[ms + ".self_s"] = span(ms, "self_s")
    m[ms + ".truncated"] = counts.get(ms + ".truncated", 0)
    m["matching.subsumes.calls"] = span("matching.subsumes", "calls")
    m["matching.subsumes.hits"] = counts.get("matching.subsumes.hits", 0)
    m["matching.subsumes.self_s"] = span("matching.subsumes", "self_s")
    for name, hits_key in INDEX_HITS.items():
        candidates = counts.get(f"index.{name}.candidates", 0)
        hits = counts.get(hits_key, 0)
        m[f"index.{name}.candidates"] = candidates
        m[f"index.{name}.hits"] = hits
        m[f"index.{name}.precision"] = ratio(hits, candidates)
    m["index.retrieve.self_s"] = span("index.retrieve", "self_s")
    for name in ("insert", "remove"):
        m[f"index.{name}.calls"] = span("index." + name, "calls")
        m[f"index.{name}.self_s"] = span("index." + name, "self_s")
    m["calculus.pairs"] = counts.get("calculus.pairs", 0)
    m["calculus.conclusions"] = counts.get("calculus.conclusions", 0)
    m["calculus.self_s"] = span("calculus", "self_s")
    m["calculus.yield"] = ratio(m["saturation.activated"], m["saturation.clauses_created"])
    for name in ("rename_apart", "make", "select"):
        m[f"clauses.{name}.calls"] = span("clauses." + name, "calls")
        m[f"clauses.{name}.self_s"] = span("clauses." + name, "self_s")
    m["clauses.max_literals"] = max(row["max_literals"] for row in rows)
    for name in ("compare_terms", "multiset"):
        m[f"ordering.{name}.calls"] = span("ordering." + name, "calls")
        m[f"ordering.{name}.self_s"] = span("ordering." + name, "self_s")
    m["terms.match_pairs.calls"] = counts.get("terms.match_pairs.calls", 0)
    m["terms.unify_pairs.calls"] = counts.get("terms.unify_pairs.calls", 0)
    m["trace.spans"] = trace["spans"]
    m["host.calibration_s"] = statistics.median(out["calibration_s"])
    return m


def _median_layers(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over traced passes; counts are identical across passes."""
    per_pass = [layer_metrics(p) for p in traced]
    m = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    m["trace.untraced_wall_s"] = statistics.median(_pass_wall(p) for p in untraced)
    m["trace.traced_wall_s"] = statistics.median(_pass_wall(p) for p in traced)
    m["trace.overhead_s"] = m["trace.traced_wall_s"] - m["trace.untraced_wall_s"]
    m["trace.overhead_share"] = m["trace.overhead_s"] / m["trace.untraced_wall_s"]
    return m


# --------------------------------------------------------------------- main


def _declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for needed in ("src/sdprover/__init__.py", "corpus", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchmarkError(f"{needed} is missing: run from the root of an sdprover checkout")
    declared = _declared_metrics(trace)
    runs = workloads.build(workload, seed, ROOT)
    _check_inputs(workload, seed, runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    # one set of files per workload and mode, overwritten by the next run
    tag = f"{workload}-trace{int(trace)}"
    problems_path = os.path.join(OUT_DIR, f"problems-{tag}.json")
    for name in os.listdir(OUT_DIR):
        if name.startswith(f"spans-{tag}-"):
            os.remove(os.path.join(OUT_DIR, name))
    with open(problems_path, "w", encoding="utf-8") as handle:
        json.dump([dict(asdict(r), label=r.label, time_limit=workloads.SAFETY_TIME_LIMIT) for r in runs], handle)

    _spawn("setup", problems_path, 0)  # warm the bytecode cache; not measured
    deadline = time.perf_counter() + seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        began = time.perf_counter()
        untraced.append(_spawn("run", problems_path, len(untraced) + len(traced) + 1))
        if trace:
            spans = os.path.join(OUT_DIR, f"spans-{tag}-pass{len(traced)}.bin")
            traced.append(_spawn("trace", problems_path, len(untraced) + len(traced) + 1, spans))
        took = time.perf_counter() - began
        enough = len(untraced) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() + took > deadline:
            break
    setups = list(untraced)
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn("setup", problems_path, len(setups) + 1))

    passes = untraced + traced
    reference = passes[0]["rows"]
    failures = [f for p in passes for f in _failures(p["rows"], runs, reference)]
    attempted = sum(len(p["rows"]) for p in passes)
    if trace:
        metrics = _median_layers(traced, untraced)
    else:
        metrics = end_to_end(setups, untraced, (attempted - len(failures)) / attempted)
    if sorted(metrics) != sorted(name for name, _ in declared):
        raise BenchmarkError(f"BENCHMARK.json declares {[n for n, _ in declared]}, the driver computes {sorted(metrics)}")

    for label, reason in failures:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    for i, row in enumerate(reference):
        time_s = statistics.median(p["rows"][i]["time_s"] for p in untraced)
        cpu_s = statistics.median(p["rows"][i]["cpu_s"] for p in untraced)
        print(
            f"row {row['label']} verdict={row['verdict']} expected={runs[i].expected} "
            f"raw_cpu_s={cpu_s:.4f} time_s={time_s:.4f} iterations={row['iterations']} created={row['created']} limit={row['limit']}"
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "setups": setups[len(untraced) :], "passes": passes}, handle)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
