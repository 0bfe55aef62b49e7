"""``repro.daemon`` — the long-lived async dominator-query service.

Where :mod:`repro.service` runs one batch and exits, this package keeps
a process alive between queries and makes the expensive state persistent:

* :mod:`~repro.daemon.shm` — :class:`SharedCircuitPool` publishes each
  circuit version into a :mod:`multiprocessing.shared_memory` segment
  exactly once (the circuit's
  :class:`~repro.graph.circuit.CircuitArrays` as flat CSR arrays);
  workers attach refcounted and adopt the arrays once per circuit
  version instead of unpickling the netlist with every chunk,
* :mod:`~repro.daemon.admission` — bounded in-flight admission with
  per-tenant token buckets; oversubscribed tenants are shed with
  429-style responses instead of queueing unboundedly,
* :mod:`~repro.daemon.protocol` — the versioned JSON request protocol
  (``load`` / ``chain`` / ``sweep`` / ``edit`` / ``stats`` /
  ``shutdown``),
* :mod:`~repro.daemon.service` — :class:`DaemonService`, the stateful
  core holding loaded circuits, per-cone incremental engines and the
  persistent worker pool,
* :mod:`~repro.daemon.server` — the asyncio front ends: stdin/stdout
  JSONL and a localhost HTTP/1.1 endpoint.

The CLI surface is ``python -m repro daemon`` (``--stdio`` or
``--http PORT``); see ``docs/DAEMON.md`` for the architecture notes.
"""

from .admission import AdmissionController, TokenBucket
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .service import DaemonService, ServiceConfig
from .shm import (
    CircuitRef,
    SharedCircuitPool,
    attach_circuit,
    decode_circuit,
    detach_circuit,
    encode_circuit,
)

__all__ = [
    "AdmissionController",
    "CircuitRef",
    "DaemonService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ServiceConfig",
    "SharedCircuitPool",
    "TokenBucket",
    "attach_circuit",
    "decode_circuit",
    "detach_circuit",
    "encode_circuit",
    "error_response",
    "ok_response",
    "parse_request",
]
