"""Given-clause saturation loop with simplification and redundancy deletion.

Discount-style: passive clauses rest untouched until popped; the given
clause is forward-simplified against the active set, then used backward to
delete or rewrite active clauses, then activated and used for generating
inferences with itself and with the active clauses that the backward
index retrieves as partners for each rule (index.BackwardIndex's
generation keys).  Forward subsumption first asks the backward index for
an active copy of the given clause, one with its literal tuple, which
subsumes it; without one it tries only the active clauses the backward
index retrieves.  Either way the clause is deleted exactly when some
active clause subsumes it, and the loop reads no more than that.
Rewriting tries only the side premises the forward index (index.FsdIndex)
retrieves, in ascending id order; the others cannot rewrite the clause, so
the first that does is the one a scan of the active set finds.  With FSD
off, the forward index files units only.
Clause selection takes the oldest passive clause once in every
PassiveQueue.AGE_EVERY pops and the lightest at the others, starting with
age: a 1:30 age:weight ratio, picked from a measured sweep.

The loop runs in one run scope (terms.run_scope), which goes when
saturate returns, by whatever exit.  Inside it an application built
during the run is the run's one App equal to it, and the time limit is
the run's deadline: the loop checks it between steps, and literal
selection, minting, unification and the multi-literal matcher behind
subsumption and rewriting check it inside one step (terms.check_time).

The search holds its own clause objects, and the factory's registry a
copy of each (clauses.ClauseFactory), so whatever the search computed for
a clause goes with the last reference the search drops, by whichever
exit the clause leaves it.

Provenance lives on the clauses themselves (rule plus parent ids inside the
factory registry), so a proof is reconstructed by walking parents from the
empty clause, and re-validated by re-running each step's rule, which
recomputes whatever data the steps need.  The factory mints both the step
and its replayed conclusions in canonical form, so a step is reproduced
exactly when a replayed conclusion has the step's literals, in order.
"""

from __future__ import annotations

import heapq
import resource
import sys
import time
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional

from . import calculus
from .clauses import Clause, ClauseFactory
from .index import BackwardIndex, FsdIndex
from .simplify import (
    backward_subsumption_deletions,
    backward_subsumption_demodulation,
    build_simplified_clause,
    demodulate,
    forward_subsumption_delete,
    forward_subsumption_demodulation,
    sd_simplifications,
)
from .terms import ResourceLimit, check_time, run_scope


class SatStatus(Enum):
    UNSATISFIABLE = "Unsatisfiable"
    SATURATED = "Saturated"
    RESOURCE_OUT = "ResourceOut"


class ProverConfig(NamedTuple):
    """Saturation switches and limits; zero limits mean unlimited.

    memory_limit is in MB and bounds the process's peak resident set size
    (ru_maxrss), which counts whatever the process held before the run.
    """

    fsd: bool = True
    bsd: bool = True
    time_limit: float = 60.0
    clause_limit: int = 100000
    proof: bool = True
    memory_limit: int = 1024


# ru_maxrss units per MB: it is in KiB on Linux and in bytes on macOS
_MAXRSS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


class SaturationResult:
    """One saturate call's verdict; limit_reason names the limit that
    stopped a ResourceOut run ("time", "clauses" or "memory")."""

    def __init__(self, status: SatStatus, factory: ClauseFactory, empty: Optional[Clause] = None,
                 limit_reason: Optional[str] = None, iterations: int = 0, activated: int = 0) -> None:
        self.status = status
        self.factory = factory
        self.empty = empty
        self.limit_reason = limit_reason
        self.iterations = iterations
        self.activated = activated


class PassiveQueue:
    """Two-heap clause queue: lightest-first with a periodic oldest-first pop.

    Pop k (counting from 1) takes the oldest clause when k % AGE_EVERY is 1
    and the lightest otherwise: one age pop, then AGE_EVERY - 1 weight
    pops.  The age pops keep selection fair, so every clause is popped in
    the end.  AGE_EVERY was picked from a sweep of 6 to 51 on the benchmark
    workloads.  Against 6, 31 made the unit-equality group problems about a
    quarter cheaper in CPU, since their proofs are found among the light
    clauses.  It cost the interval chains, which need age pops, a few
    percent.  Larger values gave no further gain on the former.
    """

    AGE_EVERY = 31

    def __init__(self) -> None:
        self._weight_heap: list[tuple[int, int]] = []
        self._age_heap: list[int] = []
        self._clauses: dict[int, Clause] = {}
        self._pops = 0

    def __len__(self) -> int:
        return len(self._clauses)

    def push(self, c: Clause) -> None:
        self._clauses[c.cid] = c
        heapq.heappush(self._weight_heap, (c.weight, c.cid))
        heapq.heappush(self._age_heap, c.cid)

    def pop(self) -> Clause:
        self._pops += 1
        by_age = self._pops % self.AGE_EVERY == 1
        # stale heap entries are skipped lazily
        if by_age:
            while True:
                cid = heapq.heappop(self._age_heap)
                if cid in self._clauses:
                    return self._clauses.pop(cid)
        while True:
            _, cid = heapq.heappop(self._weight_heap)
            if cid in self._clauses:
                return self._clauses.pop(cid)


class ProverState:
    """One saturate call's passive queue, active clauses and indexes."""

    def __init__(self, factory: ClauseFactory, config: ProverConfig) -> None:
        self.factory = factory
        self.config = config
        self.passive = PassiveQueue()
        self.active: dict[int, Clause] = {}
        self.bindex = BackwardIndex()
        self.fsd_index = FsdIndex()

    def check_limits(self) -> None:
        """Raise ResourceLimit once the clause cap or the memory limit is passed."""
        config = self.config
        if config.clause_limit > 0 and self.factory.created > config.clause_limit:
            raise ResourceLimit("clauses")
        if (
            config.memory_limit > 0
            and resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > config.memory_limit * _MAXRSS_PER_MB
        ):
            raise ResourceLimit("memory")

    def activate(self, g: Clause) -> None:
        self.active[g.cid] = g
        self.bindex.insert(g)
        if self.config.fsd or len(g.literals) == 1:
            self.fsd_index.insert(g)

    def remove_active(self, c: Clause) -> None:
        del self.active[c.cid]
        self.bindex.remove(c)
        self.fsd_index.remove(c)


def _demodulate_once(g: Clause, st: ProverState) -> Optional[Clause]:
    """The first rewrite of g by an active unit equality, in ascending id order.

    Only the units the forward index retrieves for g are tried; the others
    have no left-hand side that generalizes an occurrence in g, so none of
    them rewrites g and the first rewrite is that of the full scan.
    """
    for unit in sorted(st.fsd_index.demodulators(g), key=lambda c: c.cid):
        res = demodulate(unit, g, st.factory)
        if res is not None:
            return res
    return None


def forward_simplify(g: Clause, st: ProverState) -> Optional[Clause]:
    """Simplify the given clause against the active set until no rule fires.

    Each round tries subsumption deletion, then rewriting by a unit
    equality, then (FSD on) forward subsumption demodulation; a successful
    rewrite restarts the round with the new clause.  None means g was deleted.
    """
    while True:
        check_time()
        if forward_subsumption_delete(g, st.bindex) is not None:
            return None
        stepped = _demodulate_once(g, st)
        if stepped is None and st.config.fsd:
            stepped = forward_subsumption_demodulation(g, st.fsd_index, st.factory)
        if stepped is None:
            return g
        g = stepped


def backward_simplify(g: Clause, st: ProverState) -> None:
    """Use the activated clause g to delete or rewrite older active clauses.

    Rewritten replacements go back to passive so they are forward-simplified
    before ever becoming active.
    """
    for d in backward_subsumption_deletions(g, st.bindex):
        st.remove_active(d)
    if st.config.bsd:
        for old, new in backward_subsumption_demodulation(g, st.bindex, st.factory):
            st.remove_active(old)
            st.passive.push(new)


def _generate(g: Clause, st: ProverState) -> list[Clause]:
    """Conclusions of g alone and of g with each active clause, g included.

    Partners come in ascending id order, and with each the calls run in a
    fixed order; a call is left out only when the index shows that it
    gives no conclusion, so conclusions get the ids of a full pairing.
    """
    out = list(calculus.unary_inferences(g, st.factory))
    first_res, first_sup, second_sup, second_res = st.bindex.generation_partners(g)
    for cid in sorted(first_res | first_sup | second_sup | second_res):
        check_time()
        a = st.active[cid]
        if cid in first_res:
            out.extend(calculus.resolution(g, a, st.factory))
        if cid in first_sup:
            out.extend(calculus.superposition(g, a, st.factory))
        if cid != g.cid:
            if cid in second_sup:
                out.extend(calculus.superposition(a, g, st.factory))
            if cid in second_res:
                out.extend(calculus.resolution(a, g, st.factory))
    return out


def saturate(clauses: Iterable[Clause], config: ProverConfig, factory: ClauseFactory) -> SaturationResult:
    """Run the given-clause loop to a verdict.

    clauses must have been minted by the same factory, so conclusions extend
    the same registry and proofs stay reconstructible.
    """
    st = ProverState(factory=factory, config=config)
    result = SaturationResult(status=SatStatus.SATURATED, factory=factory)
    for c in clauses:
        if c.is_empty:
            result.status = SatStatus.UNSATISFIABLE
            result.empty = c
            return result
        st.passive.push(c)
    deadline = time.monotonic() + config.time_limit if config.time_limit > 0 else None
    with run_scope(deadline):
        try:
            while len(st.passive) > 0:
                result.iterations += 1
                check_time()
                st.check_limits()
                g = forward_simplify(st.passive.pop(), st)
                if g is None:
                    continue
                if g.is_empty:
                    result.status = SatStatus.UNSATISFIABLE
                    result.empty = g
                    return result
                st.activate(g)
                result.activated += 1
                backward_simplify(g, st)
                for c in _generate(g, st):
                    if c.is_empty:
                        result.status = SatStatus.UNSATISFIABLE
                        result.empty = c
                        return result
                    st.passive.push(c)
        except ResourceLimit as limit:
            result.status = SatStatus.RESOURCE_OUT
            result.limit_reason = limit.reason
    return result


def proof_clauses(result: SaturationResult) -> list[Clause]:
    """Ancestor closure of the empty clause, ascending by id."""
    if result.empty is None:
        return []
    registry = result.factory.registry
    seen: set[int] = set()
    stack = [result.empty.cid]
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        stack.extend(registry[cid].parents)
    return [registry[cid] for cid in sorted(seen)]


def _replay_rewrite(main: Clause, side: Clause, factory: ClauseFactory, rule: str) -> list[Clause]:
    return [build_simplified_clause(main, step, factory, rule) for step in sd_simplifications(side, main)]


# rule -> replay(*parents, factory, rule); the three rewriting rules share one engine
_REPLAY: dict[str, Callable[..., list[Clause]]] = {
    "resolution": lambda c1, c2, factory, _: calculus.resolution(c1, c2, factory),
    "superposition": lambda c1, c2, factory, _: calculus.superposition(c1, c2, factory),
    "factoring": lambda c, factory, _: calculus.factoring(c, factory),
    "eq_resolution": lambda c, factory, _: calculus.equality_resolution(c, factory),
    "eq_factoring": lambda c, factory, _: calculus.equality_factoring(c, factory),
    "demodulation": _replay_rewrite,
    "fsd": _replay_rewrite,
    "bsd": _replay_rewrite,
}


def _reproducible(node: Clause, registry: dict[int, Clause]) -> bool:
    if node.rule == "input":
        return True
    replay = _REPLAY.get(node.rule)
    if replay is None:
        return False
    conclusions = replay(*(registry[p] for p in node.parents), ClauseFactory(), node.rule)
    return any(c.literals == node.literals for c in conclusions)


def verify_proof(result: SaturationResult) -> list[str]:
    """Re-run every proof step; returns human-readable failures, empty if valid.

    A step passes when its rule, replayed on its parents from the registry,
    gives a conclusion whose canonical literal tuple equals the step's.
    """
    problems = []
    if result.status is not SatStatus.UNSATISFIABLE or result.empty is None:
        return ["result carries no proof"]
    for node in proof_clauses(result):
        if not _reproducible(node, result.factory.registry):
            problems.append(f"clause {node.cid} not reproduced by rule {node.rule}")
    return problems
