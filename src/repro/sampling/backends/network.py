"""The worker fleet: one TCP coordinator for local and remote workers.

Both out-of-process backends are this one fleet.  ``network`` is the
configurable form; ``process`` is the same fleet pinned to
self-hosting on loopback.  The fleet rests on two invariants:

* **seed-pure streams**: RR set ``g`` is a pure function of
  ``(seed, g)``, so any worker anywhere can compute any set and the
  merged stream has no memory of *which* worker computed what;
* **content-addressed graphs** (:mod:`repro.graph.shm`): the graph is
  one hashed blob, so a remote host fetches it at most once and a
  rejoining host warm-starts from its disk cache.

Topology: the coordinator (this backend) listens on a TCP port; workers
dial in (``repro worker --connect HOST:PORT`` on other boxes), register
under a **heartbeat lease**, and then serve global-index batches over
length-prefixed frames (:mod:`repro.sampling.backends.netproto`).  How
the graph reaches a worker depends on one fact the coordinator knows:
whether it launched that worker itself.  A launched worker runs on the
coordinator's host and attaches the coordinator's shared-memory segment
zero-copy; any other host fetches the blob, verifies its hash and
caches it.

Fault tolerance falls out of statelessness:

* hosts may **join and leave mid-stream** — the coordinator simply
  re-partitions the next index batch over the live lease set, and the
  merged stream cannot tell the difference (byte-invisible churn);
* a crashed or lease-expired host's **in-flight indices are retried on
  survivors byte-identically**; the crash context (lease, label, pid,
  and for launched workers the exit code and stderr tail) lands in
  :attr:`~repro.sampling.backends.base.ExecutionBackend.fault_log`
  instead of raising, and :attr:`respawns` counts replacement workers;
* only a fleet with **no live hosts after a join grace period** — or a
  worker *reply* reporting an application error, which would recur on
  any host — surfaces a :class:`~repro.exceptions.SamplingError`.

By default the ``network`` backend self-hosts too: ``start`` launches
``spec.workers`` local worker processes (``multiprocessing`` spawn, so
scripts need a ``__main__`` guard).  Pass ``spawn=0`` (CLI:
``--hosts HOST:PORT,min=K``) to instead listen for externally started
worker hosts.  The transport trusts its peers (pickle frames — see
:mod:`~repro.sampling.backends.netproto`); keep fleet ports inside one
security boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Sequence

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.shm import (
    attach_csr_graph,
    close_segment,
    pack_csr_graph,
    share_csr_graph,
    unpack_csr_graph,
    verify_blob,
)
from repro.sampling.backends.base import (
    ExecutionBackend,
    WorkerSpec,
    build_worker_sampler,
    flatten_rr_batch,
    run_worker_batch,
    unflatten_rr_batch,
)
from repro.sampling.backends.netproto import (
    ConnectionClosed,
    load_cached_blob,
    parse_address,
    recv_frame,
    send_frame,
    store_cached_blob,
)

_STDERR_TAIL_BYTES = 2048
_JOIN_TIMEOUT = 5.0
# Consecutive all-fault dispatch rounds tolerated before the accumulated
# crash context is raised (a crash *loop* must not retry forever).
_MAX_BARREN_ROUNDS = 3
# fault_log is diagnostics, not an audit trail; keep it bounded.
_FAULT_LOG_LIMIT = 32

#: Built-in fleet configuration; :class:`ProcessBackend` always uses it.
_BUILTIN_DEFAULTS = MappingProxyType(
    {
        "listen": "127.0.0.1:0",
        "spawn": None,  # None = auto: launch spec.workers local workers
        "min_hosts": None,  # None = spawn target when self-hosting, else 0
        "lease_ttl": 10.0,
        "start_timeout": 60.0,
        "join_grace": 30.0,
    }
)

#: Module-level defaults for :class:`NetworkBackend` construction.  The
#: CLI's ``--hosts`` flag rewrites these (via :func:`set_network_defaults`)
#: so every ``make_backend("network")`` in the process — engine pools,
#: benchmarks, services — picks up one fleet configuration without
#: threading constructor arguments through every layer.
_DEFAULTS: dict = dict(_BUILTIN_DEFAULTS)


def set_network_defaults(**overrides) -> dict:
    """Update the process-wide :class:`NetworkBackend` defaults.

    Returns the previous values of the overridden keys so callers (tests)
    can restore them.  Unknown keys are rejected loudly — a typo here
    would otherwise silently configure nothing.
    """
    unknown = set(overrides) - set(_DEFAULTS)
    if unknown:
        raise SamplingError(f"unknown network backend option(s): {sorted(unknown)}")
    previous = {key: _DEFAULTS[key] for key in overrides}
    _DEFAULTS.update(overrides)
    return previous


def parse_hosts_spec(spec: "str | None") -> dict:
    """Parse the CLI ``--hosts`` flag into :func:`set_network_defaults` kwargs.

    Comma-separated tokens, each one of:

    * an integer ``N`` — self-host: launch N local worker processes
      (``--hosts 2``);
    * ``HOST:PORT`` — listen there for externally started workers
      (``--hosts 0.0.0.0:8700``), implying ``spawn=0``;
    * ``min=K`` — wait for K registered hosts before sampling starts;
    * ``ttl=SECONDS`` — heartbeat lease time-to-live.
    """
    options: dict = {}
    if spec is None or not str(spec).strip():
        return options
    for token in str(spec).split(","):
        token = token.strip()
        if not token:
            continue
        if token.isdigit():
            options["spawn"] = int(token)
        elif token.startswith("min="):
            options["min_hosts"] = int(token[len("min="):])
        elif token.startswith("ttl="):
            options["lease_ttl"] = float(token[len("ttl="):])
        else:
            host, port = parse_address(token)  # raises ValueError on junk
            options["listen"] = f"{host}:{port}"
            options.setdefault("spawn", 0)
    return options


@dataclass
class _LaunchedWorker:
    """A worker process this coordinator started on its own host."""

    label: str
    proc: "mp.process.BaseProcess"
    stderr_path: str
    host: "_HostLease | None" = None  # set when the worker registers

    def stderr_tail(self) -> str:
        try:
            with open(self.stderr_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                handle.seek(max(0, handle.tell() - _STDERR_TAIL_BYTES))
                return handle.read().decode("utf-8", errors="replace").strip()
        except OSError:
            return ""

    def reap(self) -> None:
        """Join the process (terminating it if it lingers), drop its file."""
        if self.proc.pid is not None:  # started
            self.proc.join(timeout=_JOIN_TIMEOUT)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=_JOIN_TIMEOUT)
        try:
            os.unlink(self.stderr_path)
        except OSError:
            pass


class _HostLease:
    """One registered worker host: socket, lease clock, reply queue."""

    def __init__(self, lease_id: int, sock: socket.socket, peer: str) -> None:
        self.lease_id = lease_id
        self.sock = sock
        self.peer = peer
        self.label = "?"
        self.pid: "int | None" = None
        self.worker: "_LaunchedWorker | None" = None
        self.ready = False
        self.dead = False
        # Set once a dead lease's fault record is written.  The dispatcher
        # waits for it, so a crash is on record before the call that hit
        # it returns, and a launched worker is reaped only after it (the
        # reap deletes the stderr file the record reads).
        self.retired = threading.Event()
        self.last_beat = time.monotonic()
        self.batches_dispatched = 0
        self.replies: "queue.Queue[tuple]" = queue.Queue()
        self._send_lock = threading.Lock()
        self._death_lock = threading.Lock()

    def send(self, message: tuple) -> None:
        try:
            with self._send_lock:
                # The whole point of this lock is to hold it across the
                # socket write: frames from the dispatcher and the
                # heartbeat/abort paths must not interleave mid-frame.
                send_frame(self.sock, message)  # repro: allow[lock-discipline]
        except OSError as exc:
            raise ConnectionClosed(str(exc)) from exc

    def mark_dead(self) -> bool:
        """Retire the lease exactly once; returns True on the first call."""
        with self._death_lock:
            if self.dead:
                return False
            self.dead = True
        # shutdown() before close(): close alone does not send FIN while
        # the reader thread is blocked in recv on this socket (the
        # in-flight syscall keeps the kernel socket alive), which would
        # leave both the reader and the remote worker hanging forever.
        _shutdown_and_close(self.sock)
        return True

    def describe(self) -> str:
        code = "" if self.worker is None else f", exitcode {self.worker.proc.exitcode}"
        return f"host {self.label!r} (lease {self.lease_id}, pid {self.pid}{code}, {self.peer})"


def _shutdown_and_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class NetworkBackend(ExecutionBackend):
    """Coordinator for a TCP worker-host fleet under heartbeat leases."""

    name = "network"
    #: where unset constructor options come from (``set_network_defaults``)
    _defaults = _DEFAULTS

    def __init__(
        self,
        *,
        listen: "str | None" = None,
        spawn: "int | None" = None,
        min_hosts: "int | None" = None,
        lease_ttl: "float | None" = None,
        start_timeout: "float | None" = None,
        join_grace: "float | None" = None,
    ) -> None:
        super().__init__()
        pick = lambda value, key: self._defaults[key] if value is None else value  # noqa: E731
        self._listen_spec = pick(listen, "listen")
        self._spawn_cfg = pick(spawn, "spawn")
        self._min_hosts_cfg = pick(min_hosts, "min_hosts")
        self._lease_ttl = float(pick(lease_ttl, "lease_ttl"))
        self._start_timeout = float(pick(start_timeout, "start_timeout"))
        self._join_grace = float(pick(join_grace, "join_grace"))
        self._spawn_managed = True
        # Intended self-hosted fleet size.  Deliberately separate from
        # _spec.workers: sync_fleet shrinks the *partition width* to the
        # live host count after a death, but the fleet must still heal
        # back to the size it was asked for.
        self._fleet_target = 0
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._hosts: dict[int, _HostLease] = {}
        self._launched: dict[str, _LaunchedWorker] = {}
        self._lease_seq = 0
        self._batch_seq = 0
        self._launch_seq = 0
        self._listener_sock: "socket.socket | None" = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._shm = None
        self._blob: "bytes | None" = None
        self._manifest = None
        self._wire_spec: "WorkerSpec | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        """The coordinator's bound ``(host, port)`` (after ``start``)."""
        if self._listener_sock is None:
            raise SamplingError("network backend is not listening (start it first)")
        return self._listener_sock.getsockname()[:2]

    def _start(self, spec: WorkerSpec) -> None:
        try:
            host, port = parse_address(self._listen_spec)
        except ValueError as exc:
            raise SamplingError(str(exc)) from exc
        self._spawn_managed = self._spawn_cfg is None or self._spawn_cfg > 0
        spawn_target = spec.workers if self._spawn_cfg is None else int(self._spawn_cfg)
        self._fleet_target = spawn_target if self._spawn_managed else 0
        min_hosts = self._min_hosts_cfg
        if min_hosts is None:
            min_hosts = spawn_target if self._spawn_managed else 0
        # The graph travels as the content-addressed blob (or segment),
        # never pickled inside the spec.
        self._wire_spec = replace(spec, graph=None)
        try:
            if self._spawn_managed:
                # Launched workers attach this segment; a remote host that
                # joins anyway is served a copy of the same bytes.
                self._shm, self._manifest = share_csr_graph(
                    spec.graph, graph_version=spec.graph_version
                )
            else:
                self._blob, self._manifest = pack_csr_graph(
                    spec.graph, graph_version=spec.graph_version
                )
            self._stopping.clear()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(64)
            self._listener_sock = listener
            self._spawn_thread(self._accept_loop, "rr-net-accept")
            self._spawn_thread(self._reaper_loop, "rr-net-reaper")
            for _ in range(self._fleet_target):
                self._launch_worker()
            if min_hosts > 0:
                self.wait_for_hosts(min_hosts, self._start_timeout)
        except Exception:
            self._close()
            raise

    def _resize(self, workers: int) -> None:
        """Grow or shrink the fleet (self-hosted workers only).

        For an externally populated fleet, membership belongs to the
        hosts — resize is bookkeeping, and the dispatcher follows the
        live lease set regardless.
        """
        live = self.live_hosts()
        if self._spawn_managed:
            self._fleet_target = workers
            with self._cond:
                launched = len(self._launched)
            for _ in range(workers - launched):
                self._launch_worker()
        for host in live[workers:]:
            self._retire_host(host, "retired by resize", fault=False)

    def sync_fleet(self) -> int:
        """Adopt the live lease count as the nominal worker count."""
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")
        with self._cond:
            live = len(self._ready_hosts_locked())
        if live > 0 and live != self._spec.workers:
            self._spec = replace(self._spec, workers=live)
        return self._spec.workers

    def _close(self) -> None:
        self._stopping.set()
        if self._listener_sock is not None:
            # shutdown() wakes the accept thread; close() alone leaves it
            # blocked in accept() until the thread join times out.
            _shutdown_and_close(self._listener_sock)
        with self._cond:
            hosts = list(self._hosts.values())
            launched = list(self._launched.values())
            self._launched.clear()
        for host in hosts:
            if not host.dead:
                try:
                    host.send(("close",))
                except ConnectionClosed:
                    pass
            self._retire_host(host, "backend closed", fault=False)
        for worker in launched:
            worker.reap()
        for thread in self._threads:
            thread.join(timeout=_JOIN_TIMEOUT)
        self._threads = []
        with self._cond:
            self._hosts.clear()
        self._listener_sock = None
        self._blob = None
        self._manifest = None
        if self._shm is not None:
            close_segment(self._shm, unlink=True)
            self._shm = None

    def __del__(self) -> None:
        # Safety net for abandoned backends; normal paths call close().
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Fleet plumbing (threads)
    # ------------------------------------------------------------------
    def _spawn_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener_sock.accept()
            except OSError:
                return  # listener shut down during teardown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._conn_loop,
                args=(sock, f"{peer[0]}:{peer[1]}"),
                name=f"rr-net-host-{peer[1]}",
                daemon=True,
            ).start()

    def _conn_loop(self, sock: socket.socket, peer: str) -> None:
        """Serve one worker host: handshake, blob fetch, replies, beats."""
        host: "_HostLease | None" = None
        try:
            hello = recv_frame(sock)
            if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
                sock.close()
                return
            info = hello[1] if len(hello) > 1 and isinstance(hello[1], dict) else {}
            with self._cond:
                self._lease_seq += 1
                host = _HostLease(self._lease_seq, sock, peer)
                host.label = str(info.get("label") or f"host-{self._lease_seq}")
                host.pid = info.get("pid")
                # Launched-worker labels are minted by this coordinator,
                # so a label match means the worker shares our host.
                host.worker = self._launched.get(host.label)
                if host.worker is not None:
                    host.worker.host = host
                self._hosts[host.lease_id] = host
            segment = None
            if host.worker is not None and self._shm is not None:
                segment = self._manifest
            host.send(
                (
                    "welcome",
                    {
                        "lease_id": host.lease_id,
                        "lease_ttl": self._lease_ttl,
                        "spec": self._wire_spec,
                        "manifest": self._manifest,
                        "segment": segment,
                    },
                )
            )
            while not self._stopping.is_set():
                message = recv_frame(sock)
                kind = message[0]
                if kind == "fetch":
                    # A self-hosted fleet holds the graph only in its
                    # segment, whose bytes are the packed blob.
                    blob = self._blob
                    if blob is None:
                        blob = bytes(self._shm.buf[: self._manifest.total_bytes])
                    host.send(("blob", blob))
                elif kind == "ready":
                    with self._cond:
                        host.ready = True
                        self._cond.notify_all()
                elif kind == "heartbeat":
                    host.last_beat = time.monotonic()
                elif kind in ("result", "error"):
                    host.replies.put(message)
                # anything else: ignore (forward-compatible)
            self._retire_host(host, "backend closed", fault=False)
        except (ConnectionClosed, OSError) as exc:
            if host is not None:
                self._retire_host(host, f"is gone: connection lost: {exc}")
            else:
                try:
                    sock.close()
                except OSError:
                    pass
        except Exception as exc:  # defensive: a handler bug must not hang a lease
            if host is not None:
                self._retire_host(host, f"coordinator-side fault: {exc!r}")

    def _reaper_loop(self) -> None:
        """Expire leases whose heartbeats stopped arriving."""
        interval = max(0.05, self._lease_ttl / 4)
        while not self._stopping.wait(interval):
            now = time.monotonic()
            with self._cond:
                expired = [
                    host
                    for host in self._hosts.values()
                    if not host.dead and now - host.last_beat > self._lease_ttl
                ]
            for host in expired:
                self._retire_host(
                    host,
                    f"lease expired: no heartbeat for "
                    f"{now - host.last_beat:.1f}s (ttl {self._lease_ttl:.1f}s)",
                )

    def _retire_host(self, host: _HostLease, reason: str, *, fault: bool = True) -> None:
        """Retire a lease once; a fault on a ready host is logged first.

        The record is written before the ``gone`` marker wakes the
        dispatcher, so the crash context is complete by the time the
        dispatcher replaces the worker.
        """
        if not host.mark_dead():
            return
        if fault and (host.ready or host.worker) and not self._stopping.is_set():
            if host.worker is not None:
                # Retirement closed the socket, so a launched worker is
                # exiting; wait for it so the record carries its exit code.
                host.worker.proc.join(timeout=_JOIN_TIMEOUT)
            self._record_fault(host.describe(), reason, host.batches_dispatched, host.worker)
        host.retired.set()
        host.replies.put(("gone", reason))
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Launched workers
    # ------------------------------------------------------------------
    def _launch_worker(self) -> None:
        """Start one local worker process that dials this coordinator.

        A daemon ``multiprocessing`` child dies with its coordinator, and
        its stderr goes to a scratch file whose tail rides along in the
        fault record if it crashes.
        """
        self._launch_seq += 1
        label = f"worker-{self._launch_seq}"
        handle = tempfile.NamedTemporaryFile(
            prefix=f"rr-{label}-", suffix=".stderr", delete=False
        )
        handle.close()
        host, port = self.address
        proc = mp.get_context("spawn").Process(
            target=_launched_worker_main,
            args=(f"{host}:{port}", label, handle.name),
            name=f"rr-worker-{label}",
            daemon=True,
        )
        worker = _LaunchedWorker(label, proc, handle.name)
        # Registered before start: the child may dial in before start()
        # returns, and its hello must find its label.
        with self._cond:
            self._launched[label] = worker
        try:
            proc.start()
        except BaseException:
            with self._cond:
                del self._launched[label]
            worker.reap()
            raise

    def _heal_fleet(self) -> None:
        """Replace launched workers that died, up to the fleet target."""
        if not self._spawn_managed or self._stopping.is_set():
            return
        with self._cond:
            launched = list(self._launched.values())
        gone = [
            w
            for w in launched
            if (w.host is not None and w.host.retired.is_set())
            or (w.host is None and w.proc.exitcode is not None)
        ]
        for worker in gone:
            if worker.host is None:
                self._record_fault(
                    f"worker {worker.label!r} (pid {worker.proc.pid}, "
                    f"exitcode {worker.proc.exitcode})",
                    "exited before registering",
                    0,
                    worker,
                )
            worker.reap()
        with self._cond:
            for worker in gone:
                del self._launched[worker.label]
            missing = self._fleet_target - len(self._launched)
        for _ in range(missing):
            self._launch_worker()
            self.respawns += 1

    # ------------------------------------------------------------------
    # Live-set queries and fault context
    # ------------------------------------------------------------------
    def _ready_hosts_locked(self) -> list[_HostLease]:
        return sorted(
            (h for h in self._hosts.values() if h.ready and not h.dead),
            key=lambda h: h.lease_id,
        )

    def live_hosts(self) -> list[_HostLease]:
        """Snapshot of ready, living hosts (lease order)."""
        with self._cond:
            return self._ready_hosts_locked()

    def hosts_info(self) -> list[dict]:
        """Diagnostics: one dict per ever-registered host."""
        with self._cond:
            return [
                {
                    "lease_id": h.lease_id,
                    "label": h.label,
                    "pid": h.pid,
                    "peer": h.peer,
                    "ready": h.ready,
                    "dead": h.dead,
                    "batches_dispatched": h.batches_dispatched,
                }
                for h in sorted(self._hosts.values(), key=lambda h: h.lease_id)
            ]

    def _record_fault(
        self, who: str, why: str, dispatched: int, worker: "_LaunchedWorker | None"
    ) -> None:
        fault = f"{who} {why}; batches dispatched to it: {dispatched}"
        tail = worker.stderr_tail() if worker is not None else ""
        if tail:
            fault += f"; stderr tail:\n{tail}"
        with self._cond:
            self.fault_log.append(fault)
            del self.fault_log[:-_FAULT_LOG_LIMIT]

    def _fault_suffix(self) -> str:
        with self._cond:
            recent = self.fault_log[-3:]
        return ("; recent faults: " + " | ".join(recent)) if recent else ""

    # ------------------------------------------------------------------
    # Test hooks (fault injection)
    # ------------------------------------------------------------------
    def inject_abort(self, index: int = 0, reason: str = "injected abort") -> None:
        """Ask the ``index``-th live host to die hard (crash tests)."""
        self.live_hosts()[index].send(("abort", reason))

    def pause_heartbeat(self, index: int = 0) -> None:
        """Silence the ``index``-th live host's heartbeats (lease-expiry tests)."""
        self.live_hosts()[index].send(("pause_heartbeat",))

    def add_local_worker(self) -> None:
        """Launch one more local worker (mid-stream join tests / CLI)."""
        self._fleet_target += 1
        self._launch_worker()

    def wait_for_hosts(self, count: int, timeout: float = 30.0) -> list[_HostLease]:
        """Block until ``count`` hosts are ready; returns the live set.

        Each pass also replaces dead launched workers, so waiting for
        full strength drives the respawn loop.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._cond:
                hosts = self._ready_hosts_locked()
                settling = [h for h in self._hosts.values() if h.dead]
            # Settle and heal after the snapshot: a host that died before
            # it is on record and replaced now, one that dies after it
            # fails its batch and is replaced after that round.  Launching
            # happens outside the lock (spawning a process is far too slow
            # to hold it across).
            for host in settling:
                host.retired.wait(2 * _JOIN_TIMEOUT)
            self._heal_fleet()
            if len(hosts) >= count:
                return hosts
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                live = f"{len(hosts)}/{count}" if hosts else "no"
                raise SamplingError(
                    f"network fleet has {live} live worker hosts on "
                    f"{self.address[0]}:{self.address[1]} (waited {timeout:.0f}s "
                    "for hosts to join)" + self._fault_suffix()
                )
            with self._cond:
                if len(self._ready_hosts_locked()) < count:
                    self._cond.wait(min(0.1, remaining))

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def _sample_shards(
        self,
        index_batches: Sequence[np.ndarray],
        root_batches: "Sequence[np.ndarray | None] | None",
    ) -> list[list[np.ndarray]]:
        # Flatten the coordinator's nominal partition into one index
        # array and re-partition the still-pending *positions* over the
        # live lease set — possibly several times, as hosts crash, expire,
        # or join mid-call.  Seed purity makes any assignment
        # byte-equivalent, so retry is just reassignment.  Roots ride
        # per position (-1 = "draw from the set's own generator") so
        # mixed batches survive re-partitioning.
        sizes = [len(batch) for batch in index_batches]
        indices = np.concatenate(
            [np.asarray(batch, dtype=np.int64) for batch in index_batches]
        )
        roots = None
        if root_batches is not None:
            roots = np.concatenate(
                [
                    np.full(size, -1, dtype=np.int64) if r is None
                    else np.asarray(r, dtype=np.int64)
                    for size, r in zip(sizes, root_batches)
                ]
            )
        results: list = [None] * indices.size
        pending = np.arange(indices.size)

        barren_rounds = 0
        while pending.size:
            hosts = self.wait_for_hosts(1, self._join_grace)
            engaged: list[tuple[_HostLease, int, np.ndarray]] = []
            app_errors: list[str] = []
            crashed = False
            for host, positions in zip(hosts, np.array_split(pending, len(hosts))):
                if not positions.size:
                    continue
                chunk_roots = None if roots is None else roots[positions]
                if chunk_roots is not None and (chunk_roots < 0).all():
                    chunk_roots = None
                self._batch_seq += 1
                seq = self._batch_seq
                try:
                    host.send(("sample", seq, indices[positions], chunk_roots))
                except ConnectionClosed as exc:
                    self._retire_host(host, f"is gone: {exc}")
                    crashed = True
                    continue
                host.batches_dispatched += 1
                engaged.append((host, seq, positions))
            done = []
            for host, seq, positions in engaged:
                reply = host.replies.get()
                if reply[0] == "gone":
                    crashed = True  # retirement already logged the fault
                    continue
                if reply[0] == "error":
                    app_errors.append(f"{host.describe()} failed: {reply[2]}")
                    continue
                if reply[1] != seq:
                    # A lease never has two batches in flight, so a stale
                    # sequence number means protocol corruption, not lag.
                    self._retire_host(host, f"answered batch {reply[1]}, expected {seq}")
                    crashed = True
                    continue
                rr_sets = unflatten_rr_batch(reply[2], reply[3])
                for position, rr in zip(positions.tolist(), rr_sets):
                    results[position] = rr
                done.append(positions)
            if app_errors:
                # Deterministic worker-side failures recur on any host; all
                # engaged replies were drained above, so raising is clean.
                raise SamplingError("; ".join(app_errors))
            if done:
                pending = np.setdiff1d(pending, np.concatenate(done), assume_unique=True)
            if crashed:
                self._heal_fleet()
            barren_rounds = 0 if done else barren_rounds + 1
            if pending.size and barren_rounds > _MAX_BARREN_ROUNDS:
                raise SamplingError(
                    "network fleet crash loop, retry budget exhausted"
                    + self._fault_suffix()
                )
        bounds = np.cumsum([0] + sizes)
        return [results[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class ProcessBackend(NetworkBackend):
    """The fleet self-hosted on loopback: ``workers`` local processes.

    Same coordinator, worker loop and fault path as
    :class:`NetworkBackend`, with the configuration pinned to the
    built-in defaults, so ``set_network_defaults`` / ``--hosts`` never
    reach it.  Workers attach the graph's shared-memory segment.
    """

    name = "process"
    _defaults = _BUILTIN_DEFAULTS

    def __init__(self) -> None:
        super().__init__()


# ----------------------------------------------------------------------
# Worker runtime (launched workers and the `repro worker` subcommand)
# ----------------------------------------------------------------------
def _launched_worker_main(connect: str, label: str, stderr_path: str) -> None:
    """Entry point of a worker process the coordinator launched."""
    # Everything the worker (or a crashing libc/numpy) writes to fd 2
    # lands in the coordinator's scratch file.
    err_file = open(stderr_path, "a", buffering=1)
    os.dup2(err_file.fileno(), 2)
    sys.stderr = err_file
    sys.exit(run_worker(connect, label=label))


def run_worker(
    connect: str,
    *,
    cache_dir: "str | None" = None,
    label: "str | None" = None,
    retry_for: float = 0.0,
) -> int:
    """Join a sampling fleet as one worker host; returns an exit code.

    Dials the coordinator (retrying for ``retry_for`` seconds, so workers
    may be launched before the coordinator is up), registers under a
    heartbeat lease, and gets the graph: a worker the coordinator
    launched attaches its shared-memory segment, any other host fetches
    the blob unless ``cache_dir`` already holds its content hash.  It
    then serves index batches until the coordinator closes the
    connection.  The worker holds **no stream state** — it is safe to
    kill at any time and to start late.
    """
    address = parse_address(connect)
    deadline = time.monotonic() + max(0.0, float(retry_for))
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            break
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise SamplingError(
                    f"cannot reach fleet coordinator at {address[0]}:{address[1]}: {exc}"
                ) from exc
            time.sleep(0.2)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    send_lock = threading.Lock()
    stop_beats = threading.Event()
    pause_beats = threading.Event()
    shm = graph = sampler = None

    def send(message: tuple) -> None:
        with send_lock:
            send_frame(sock, message)

    try:
        send(("hello", {"pid": os.getpid(), "label": label or socket.gethostname()}))
        welcome = recv_frame(sock)
        if not (isinstance(welcome, tuple) and welcome[0] == "welcome"):
            raise SamplingError(f"coordinator sent {welcome!r} instead of a welcome")
        details = welcome[1]
        spec: WorkerSpec = details["spec"]
        manifest = details["manifest"]
        segment = details.get("segment")
        lease_ttl = float(details["lease_ttl"])

        if segment is not None:
            if segment.content_hash != manifest.content_hash:
                raise SamplingError(
                    f"shared segment holds graph {segment.content_hash[:16]}…, "
                    f"coordinator serves {manifest.content_hash[:16]}…"
                )
            graph, shm = attach_csr_graph(segment)
        else:
            blob = load_cached_blob(cache_dir, manifest)
            if blob is None:
                send(("fetch",))
                reply = recv_frame(sock)
                if not (isinstance(reply, tuple) and reply[0] == "blob"):
                    raise SamplingError(
                        f"coordinator sent {reply!r} instead of the graph blob"
                    )
                blob = reply[1]
                verify_blob(manifest, blob)  # never sample over a corrupt fetch
                store_cached_blob(cache_dir, manifest, blob)
            graph = unpack_csr_graph(manifest, blob)
        sampler = build_worker_sampler(spec, graph=graph)

        def heartbeat_loop() -> None:
            interval = max(0.05, lease_ttl / 3.0)
            while not stop_beats.wait(interval):
                if pause_beats.is_set():
                    continue
                try:
                    send(("heartbeat",))
                except OSError:
                    return

        threading.Thread(target=heartbeat_loop, name="rr-worker-beat", daemon=True).start()
        send(("ready",))

        while True:
            try:
                message = recv_frame(sock)
            except ConnectionClosed:
                return 0  # coordinator gone: a stateless worker just leaves
            kind = message[0]
            if kind == "sample":
                _, seq, indices, roots = message
                try:
                    rr_sets = run_worker_batch(sampler, indices, roots)
                    send(("result", seq) + flatten_rr_batch(rr_sets))
                except Exception as exc:  # surface worker faults, keep serving
                    send(("error", seq, f"{type(exc).__name__}: {exc}"))
            elif kind == "abort":
                # Fault injection for crash tests: die hard, leaving only
                # stderr behind (no protocol goodbye) — like a real crash.
                print(message[1], file=sys.stderr, flush=True)
                os._exit(70)
            elif kind == "pause_heartbeat":
                pause_beats.set()  # fault injection for lease-expiry tests
            elif kind == "close":
                return 0
            # anything else: ignore (forward-compatible)
    finally:
        stop_beats.set()
        # Drop the graph views before detaching so mmap can actually close.
        sampler = graph = None
        if shm is not None:
            close_segment(shm)
        try:
            sock.close()
        except OSError:
            pass
