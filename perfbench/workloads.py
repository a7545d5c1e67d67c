"""The benchmark's three workloads.

Each workload makes every input from the workload seed: query seeds,
request mixes and graph mutations.  The graphs are the repository's
fixed synthetic stand-ins, so a seed changes the requests, not the
graph.  The number of operations in a pass follows from ``--seconds``
and a nominal per-operation time, so a run at one seed always does the
same work: its counts repeat exactly, and a faster program finishes the
same work sooner.  Every pass is a closed loop, and every answer is
checked after the timed region.

``region`` is the context manager the runner wraps around the timed
region of a pass: a no-op for an untraced pass, tracer installation for
a traced one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: a closed-loop client that has not reached the barrier by then is stuck.
BARRIER_TIMEOUT_S = 120.0

#: seed of the program's own randomness where a workload fixes it: the
#: hub workload's query seeds and the serving session's seed.
ENGINE_SEED = 2016


@dataclass
class PassResult:
    """One pass over a workload's operation list."""

    start: float
    end: float
    attempted: int
    answers: list  # one per operation, None where it raised
    latencies: list[float] = field(default_factory=list)  # completed ops only
    extra: dict = field(default_factory=dict)  # per-layer values measured here

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def raised(self) -> int:
        return self.attempted - sum(a is not None for a in self.answers)


def _note_failure(workload: str, what: str, exc: BaseException) -> None:
    print(f"{workload}: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of one process, from ``/proc`` (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _certified(result, k: int, epsilon: float, n: int) -> bool:
    """Check one D-SSA answer against its own stopping certificate.

    The answer holds ``k`` distinct nodes of the graph, and either D-SSA
    ran to its sample cap or its last iteration met both stopping
    conditions: verify-half coverage at least Λ₁ (D1) and the measured
    ε_t at most ε (D2).
    """
    seeds = [int(s) for s in result.seeds]
    if len(set(seeds)) != k or min(seeds) < 0 or max(seeds) >= n:
        return False
    if result.stopped_by == "cap":
        return True
    last = result.extras["trace"][-1]
    return (
        result.stopped_by == "conditions"
        and last["verify_coverage"] >= result.extras["lambda_1"]
        and last["epsilon_t"] <= epsilon
    )


def _answer_key(result) -> tuple:
    """The parts of a D-SSA answer that must repeat byte for byte."""
    return (
        tuple(int(s) for s in result.seeds),
        int(result.samples),
        float(result.influence).hex(),
    )


class Workload:
    """Shared shape: sizes, operation count, set-up, passes, checks."""

    name = "abstract"
    #: "full" is what the benchmark runs; "tiny" is for the harness test.
    SIZES: dict = {}

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        self.seed = int(seed)
        self.p = self.SIZES[size]
        self.count = max(self.p["min_ops"], round(seconds / self.p["op_seconds"]))
        self.rng = np.random.default_rng([self.seed, self.p["stream"]])
        self.graph = None
        self.child_peak_kb = 0

    def _build_graph(self):
        # Looked up at call time so a traced set-up sees the wrapper.
        from repro.datasets import synthetic

        return synthetic.load_dataset(self.p["dataset"], scale=self.p["scale"])

    def setup(self) -> float:
        """Build the workload's state once; returns the seconds it took."""
        start = time.perf_counter()
        self.graph = self._build_graph()
        return time.perf_counter() - start

    def run_pass(self, region) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> int:
        """Number of completed answers that are wrong."""
        raise NotImplementedError

    def notes(self, passes: list[PassResult]) -> dict:
        """Facts about the run worth printing beside the metrics."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus the largest sum seen over its
        live children (sampled while they run)."""
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.child_peak_kb) / 1024.0

    def close(self) -> None:
        pass


class DssaWC(Workload):
    """Cold one-shot D-SSA on a 100k-node weighted-cascade graph.

    The paper's headline query on a graph of 10^5 nodes.  RR sets are
    small, so ``kernel="auto"`` resolves to ``batched`` and the time goes
    to the kernel, the multi-lane RNG replica and RR assembly; no
    backend, engine cache or service is involved.
    """

    name = "dssa-wc-100k"
    SIZES = {
        "full": dict(dataset="nethept", scale=67, k=50, epsilon=0.1,
                     op_seconds=1.05, min_ops=3, stream=1),
        "tiny": dict(dataset="nethept", scale=1, k=5, epsilon=0.2,
                     op_seconds=0.5, min_ops=2, stream=1),
    }

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        super().__init__(seed, seconds, size)
        self.query_seeds = [
            int(s) for s in self.rng.choice(2**31, size=self.count, replace=False)
        ]

    def run_pass(self, region) -> PassResult:
        from repro import dssa

        answers, latencies = [], []
        with region:
            start = time.perf_counter()
            for query_seed in self.query_seeds:
                began = time.perf_counter()
                try:
                    result = dssa(
                        self.graph, self.p["k"], epsilon=self.p["epsilon"],
                        seed=query_seed, kernel="auto",
                    )
                except Exception as exc:  # one failed query must not end the run
                    _note_failure(self.name, f"query seed {query_seed}", exc)
                    answers.append(None)
                    continue
                latencies.append(time.perf_counter() - began)
                answers.append(result)
            end = time.perf_counter()
        return PassResult(start, end, len(self.query_seeds), answers, latencies)

    def check(self, passes: list[PassResult]) -> int:
        wrong = 0
        for p in passes:
            for result in p.answers:
                if result is not None and not _certified(
                    result, self.p["k"], self.p["epsilon"], self.graph.n
                ):
                    wrong += 1
        # Every pass asks the same queries, so every pass must answer alike.
        first = passes[0].answers
        for p in passes[1:]:
            for a, b in zip(first, p.answers):
                if a is not None and b is not None and _answer_key(a) != _answer_key(b):
                    wrong += 1
        return wrong

    def notes(self, passes: list[PassResult]) -> dict:
        # No reference is cheap enough to recompute here, so a digest of
        # the answers makes any change to them visible between commits.
        rows = [
            [q, *_answer_key(r)] if r is not None else [q, None]
            for q, r in zip(self.query_seeds, passes[0].answers)
        ]
        return {"answer_digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest()}


class DssaHubProcess(Workload):
    """D-SSA in a cold process-backend engine session on a hub-heavy graph.

    Wide frontiers make ``kernel="auto"`` resolve to ``vectorized`` (no
    lane RNG), and each query starts a two-worker fleet, ships the graph
    through shared memory, fans sampling out over pipes and merges the
    shards.  This is the path ``repro serve --backend process`` takes;
    the one-shot ``dssa(kernel="auto", backend="process", workers=2)``
    raises ``AttributeError`` at this commit and is left alone.
    """

    name = "dssa-hub-process"
    SIZES = {
        "full": dict(dataset="twitter", scale=10, k=50, epsilon=0.1, workers=2,
                     op_seconds=2.7, min_ops=2, stream=2),
        "tiny": dict(dataset="twitter", scale=0.5, k=5, epsilon=0.2, workers=2,
                     op_seconds=1.0, min_ops=3, stream=2),
    }

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        super().__init__(seed, seconds, size)
        # D-SSA stops at iteration 3 or 4 here depending on the query seed
        # (3 of 20 seeds went to 4, which doubles the query).  Fresh seeds
        # per workload seed would move the share of slow queries in a run
        # of a few queries, and with it p90 and throughput, by more than
        # any bound; so every workload seed runs the same query seeds, in
        # its own order.
        fixed = np.random.default_rng(ENGINE_SEED).choice(
            2**31, size=self.count, replace=False
        )
        self.query_seeds = [int(s) for s in self.rng.permutation(fixed)]
        self.kernels: set[str] = set()

    def run_pass(self, region) -> PassResult:
        from repro import InfluenceEngine

        answers, latencies = [], []
        with region:
            start = time.perf_counter()
            for query_seed in self.query_seeds:
                began = time.perf_counter()
                try:
                    with InfluenceEngine(
                        self.graph, backend="process", workers=self.p["workers"],
                        kernel="auto", seed=query_seed,
                    ) as engine:
                        result = engine.maximize(self.p["k"], epsilon=self.p["epsilon"])
                        self.kernels.add(engine.kernel.name)
                        children = sum(
                            _vm_hwm_kb(c.pid) for c in multiprocessing.active_children()
                        )
                        self.child_peak_kb = max(self.child_peak_kb, children)
                except Exception as exc:  # one failed query must not end the run
                    _note_failure(self.name, f"query seed {query_seed}", exc)
                    answers.append(None)
                    continue
                latencies.append(time.perf_counter() - began)
                answers.append(result)
            end = time.perf_counter()
        return PassResult(start, end, len(self.query_seeds), answers, latencies)

    def notes(self, passes: list[PassResult]) -> dict:
        return {"kernel": sorted(self.kernels)}

    def check(self, passes: list[PassResult]) -> int:
        """Compare each answer with a serial one-shot of the same query."""
        from repro import dssa

        wrong = 0
        for i, query_seed in enumerate(self.query_seeds):
            answers = [p.answers[i] for p in passes if p.answers[i] is not None]
            if not answers:
                continue
            reference = dssa(
                self.graph, self.p["k"], epsilon=self.p["epsilon"],
                seed=query_seed, kernel="auto",
            )
            for result in answers:
                if _answer_key(result) != _answer_key(reference) or not _certified(
                    result, self.p["k"], self.p["epsilon"], self.graph.n
                ):
                    wrong += 1
        return wrong


@dataclass
class _Call:
    phase: int
    op: str
    params: dict
    answer: object = None  # None when the call raised


class ServeLtChurn(Workload):
    """Warm LT serving over loopback with graph mutations between phases.

    Two closed-loop client connections read from one session: mostly
    D-SSA ``maximize`` at mixed k and ε, plus some ``estimate``.  Reads
    hit the warm pool, so greedy, engine, admission and the wire
    dominate.  Between phases one ``mutate`` barrier removes a few
    edges, which exercises incremental repair and the recompile on the
    next read.
    """

    name = "serve-lt-churn"
    SIZES = {
        "full": dict(dataset="nethept", scale=20, ks=(10, 25, 50), epsilons=(0.1, 0.2),
                     clients=2, maximize_each=2, estimates=4, estimate_samples=8192,
                     seed_sets=3, seed_set_size=10, removes=4,
                     op_seconds=0.6, min_ops=3, stream=3),
        "tiny": dict(dataset="nethept", scale=1, ks=(2, 5), epsilons=(0.2, 0.25),
                     clients=2, maximize_each=1, estimates=2, estimate_samples=256,
                     seed_sets=2, seed_set_size=3, removes=2,
                     op_seconds=0.5, min_ops=2, stream=3),
    }

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        super().__init__(seed, seconds, size)
        # The session seed is server configuration, not a request: fixed,
        # so each (k, ε) costs the same at every workload seed.
        self.session_seed = ENGINE_SEED
        self.plan = None  # needs the graph; made at the first set-up
        self.service = self.server = self.thread = None
        self.clients: list = []
        self.passes = 0

    # ------------------------------------------------------------------
    # Set-up and teardown
    # ------------------------------------------------------------------
    def setup(self) -> float:
        from repro import InfluenceServer, InfluenceService, ServiceClient

        self.close()
        start = time.perf_counter()
        self.graph = self._build_graph()
        self.service = InfluenceService()
        self.server = InfluenceServer(self.service)
        self.thread = self.server.start_background()
        host, port = self.server.address
        self.clients = [ServiceClient(host, port) for _ in range(self.p["clients"])]
        if not self.clients[0].ping():
            raise RuntimeError("server did not answer the first ping")
        elapsed = time.perf_counter() - start
        if self.plan is None:
            self.plan = self._make_plan()
        return elapsed

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.shutdown(close_service=True)
            self.thread.join(timeout=30)
            if self.thread.is_alive():
                raise RuntimeError("server thread did not stop")
            self.server = self.service = self.thread = None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _make_plan(self) -> dict:
        p, rng, graph = self.p, self.rng, self.graph
        seed_sets = [
            [int(v) for v in rng.choice(graph.n, size=p["seed_set_size"], replace=False)]
            for _ in range(p["seed_sets"])
        ]
        # Every client reads the same mix in every phase, in its own
        # random order: each (k, ε) pair `maximize_each` times plus
        # `estimates` estimates of random seed sets.  A mix drawn op by op
        # would change the share of costly reads from seed to seed.
        mix = [
            ("maximize", {"k": k, "epsilon": epsilon})
            for k, epsilon in itertools.product(p["ks"], p["epsilons"])
        ] * p["maximize_each"]
        reads = []
        for _phase in range(self.count):
            per_client = []
            for _client in range(p["clients"]):
                ops = mix + [
                    ("estimate", {"seeds": seed_sets[int(rng.integers(len(seed_sets)))],
                                  "samples": p["estimate_samples"]})
                    for _ in range(p["estimates"])
                ]
                per_client.append([ops[i] for i in rng.permutation(len(ops))])
            reads.append(per_client)
        edges = graph.edges()
        picks = rng.choice(len(edges), size=p["removes"] * (self.count - 1), replace=False)
        removes = [
            [[int(u), int(v)] for u, v in edges[chunk]]
            for chunk in np.split(picks, self.count - 1)
        ] if self.count > 1 else []
        return {"reads": reads, "removes": removes}

    def _call(self, client, session: str, phase: int, op: str, params: dict,
              latencies: list) -> _Call:
        call = _Call(phase, op, params)
        began = time.perf_counter()
        try:
            call.answer = client.call(op, session=session, **params)
        except Exception as exc:  # counted as failed; the loop goes on
            _note_failure(self.name, f"{op} in phase {phase}", exc)
            return call
        latencies.append(time.perf_counter() - began)
        return call

    def _client_loop(self, index: int, session: str, barrier, calls: list,
                     latencies: list) -> None:
        client = self.clients[index]
        try:
            for phase, per_client in enumerate(self.plan["reads"]):
                for op, params in per_client[index]:
                    calls.append(self._call(client, session, phase, op, params, latencies))
                barrier.wait()
                if index == 0 and phase < len(self.plan["removes"]):
                    delta = {"remove": self.plan["removes"][phase]}
                    calls.append(self._call(
                        client, session, phase, "mutate", {"delta": delta}, latencies,
                    ))
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other client stopped; the missing calls count as failed

    def run_pass(self, region) -> PassResult:
        self.passes += 1
        session = f"pass{self.passes}"
        self.service.open_session(
            session, self.graph, model="LT", seed=self.session_seed, kernel="auto"
        )
        lead = self.clients[0]
        # Warm the pool outside the timed region: serving reads are pool hits.
        for k, epsilon in itertools.product(self.p["ks"], self.p["epsilons"]):
            lead.call("maximize", session=session, k=k, epsilon=epsilon)
        metrics_before = lead.call("metrics")
        admission_before = lead.call("stats", session=session)["admission"]

        clients = self.p["clients"]
        calls = [[] for _ in range(clients)]
        latencies = [[] for _ in range(clients)]
        barrier = threading.Barrier(clients, timeout=BARRIER_TIMEOUT_S)
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(i, session, barrier, calls[i], latencies[i]),
                name=f"bench-client-{i}",
            )
            for i in range(clients)
        ]
        with region:
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()

        metrics_after = lead.call("metrics")
        admission_after = lead.call("stats", session=session)["admission"]
        self.service.close_session(session)

        answers = [c if c.answer is not None else None for cs in calls for c in cs]
        attempted = sum(len(ops) for phase in self.plan["reads"] for ops in phase)
        attempted += len(self.plan["removes"])
        answers += [None] * (attempted - len(answers))  # never issued
        all_latencies = [t for per_client in latencies for t in per_client]
        op_s = sum(
            metrics_after[op]["total_seconds"]
            - metrics_before.get(op, {}).get("total_seconds", 0.0)
            for op in ("maximize", "estimate", "mutate")
            if op in metrics_after
        )
        extra = {
            "service.op_s": op_s,
            "service.transport_s": sum(all_latencies) - op_s,
            "service.admitted": admission_after.get("accepted", 0)
            - admission_before.get("accepted", 0),
            "service.rejected": admission_after.get("rejected", 0)
            - admission_before.get("rejected", 0),
        }
        return PassResult(start, end, attempted, answers, all_latencies, extra)

    # ------------------------------------------------------------------
    # Correctness: sequential in-process replay
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_key(op: str, answer) -> tuple:
        if op == "estimate":
            return (float(answer).hex(),)
        if op == "mutate":
            return (answer["graph_version"], answer["content_hash"], answer["m"])
        return (
            tuple(int(s) for s in answer["seeds"]),
            int(answer["samples"]),
            float(answer["influence"]).hex(),
            int(answer["iterations"]),
            answer["stopped_by"],
        )

    def check(self, passes: list[PassResult]) -> int:
        """Replay every distinct request of each phase on a sequential
        engine, mutating between phases, and compare every answer."""
        from repro import InfluenceEngine
        from repro.service.protocol import result_to_dict

        wrong = 0
        by_phase: dict[int, list[_Call]] = {}
        for p in passes:
            for call in p.answers:
                if call is not None:
                    by_phase.setdefault(call.phase, []).append(call)
        with InfluenceEngine(
            self.graph, model="LT", seed=self.session_seed, kernel="auto"
        ) as engine:
            for phase in range(self.count):
                expected: dict = {}
                phase_calls = by_phase.get(phase, [])
                for call in phase_calls:
                    if call.op == "mutate":
                        continue
                    key = (call.op, json.dumps(call.params, sort_keys=True))
                    if key not in expected:
                        if call.op == "estimate":
                            answer = engine.estimate(**call.params)
                        else:
                            answer = result_to_dict(engine.maximize(**call.params))
                        expected[key] = self._wire_key(call.op, answer)
                    if self._wire_key(call.op, call.answer) != expected[key]:
                        wrong += 1
                if phase < len(self.plan["removes"]):
                    remove = [tuple(edge) for edge in self.plan["removes"][phase]]
                    report = self._wire_key("mutate", engine.mutate(remove=remove))
                    for call in phase_calls:
                        if call.op == "mutate" and self._wire_key("mutate", call.answer) != report:
                            wrong += 1
        return wrong


WORKLOADS = {w.name: w for w in (DssaWC, DssaHubProcess, ServeLtChurn)}
