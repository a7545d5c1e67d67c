"""Pluggable execution backends for parallel RR-set sampling.

``serial`` (default), ``thread``, ``process``, and ``network`` all
implement the :class:`ExecutionBackend` contract; see
:mod:`repro.sampling.backends.base` for the coordinator/worker protocol
and the determinism guarantee (backend choice never changes the sampled
RR stream).  ``process`` and ``network`` are one worker fleet
(:mod:`repro.sampling.backends.network`): ``process`` is that fleet
self-hosted on loopback, ``network`` also admits remote worker hosts.
"""

from __future__ import annotations

from repro.exceptions import SamplingError
from repro.sampling.backends.base import ExecutionBackend, WorkerSpec, default_worker_count
from repro.sampling.backends.network import (
    NetworkBackend,
    ProcessBackend,
    parse_hosts_spec,
    run_worker,
    set_network_defaults,
)
from repro.sampling.backends.serial import SerialBackend
from repro.sampling.backends.thread import ThreadBackend

#: registry keyed by CLI / API name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    NetworkBackend.name: NetworkBackend,
}


def make_backend(backend: "str | ExecutionBackend | None") -> ExecutionBackend:
    """Coerce a backend name (or pass through an instance) to a backend.

    ``None`` means the default (:class:`SerialBackend`).
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    key = str(backend).strip().lower()
    if key not in BACKENDS:
        raise SamplingError(
            f"unknown execution backend {backend!r}; known: {sorted(BACKENDS)}"
        )
    return BACKENDS[key]()


__all__ = [
    "ExecutionBackend",
    "WorkerSpec",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "NetworkBackend",
    "BACKENDS",
    "make_backend",
    "default_worker_count",
    "parse_hosts_spec",
    "run_worker",
    "set_network_defaults",
]
