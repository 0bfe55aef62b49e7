"""Shared-memory circuit publication (:class:`SharedCircuitPool`).

The per-chunk cost of the :class:`~repro.service.executor.ParallelExecutor`
is dominated, for large netlists, by shipping the circuit: every chunk
pickles the whole :class:`~repro.graph.circuit.Circuit` into the task
payload, and every worker unpickles it again per chunk.  This module
publishes each circuit **version** into one
:mod:`multiprocessing.shared_memory` segment instead:

* the segment holds the circuit's arrays
  (:class:`~repro.graph.circuit.CircuitArrays`) in a compact,
  self-describing encoding — a JSON header (name, the name and gate
  type of each id, inputs/outputs) followed by the flat CSR fanin
  arrays (``array('q')`` offsets + indices) and the insertion order;
* :func:`attach_circuit` in a worker maps the segment, decodes it once
  by **adopting** those arrays (no re-sort, no re-walk of the netlist,
  no ``Node`` records), and caches the result in a refcounted
  worker-local table keyed by segment name — subsequent chunks for the
  same circuit version are a dictionary hit;
* a new circuit version gets a new segment name, so stale worker caches
  can never serve an edited circuit: invalidation is just "publish
  under the next name", wired to
  :meth:`repro.incremental.IncrementalEngine.add_edit_listener` through
  :meth:`SharedCircuitPool.listener_for`.

Decoded circuits are **bit-compatible** with pickled ones: both carry
the publisher's arrays, ids included, so every downstream vertex
numbering (cone extraction, chain vertex ids) matches exactly — the
equivalence tests compare the two dispatch modes result-for-result.

On platforms without ``multiprocessing.shared_memory`` (or without
``/dev/shm``) the pool reports itself unavailable and callers fall back
to pickled dispatch.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - platform probe
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - no shm on this platform
    shared_memory = None  # type: ignore[assignment]

from ..graph.circuit import Circuit, CircuitArrays
from ..graph.node import NodeType
from .. import errors as _errors

_MAGIC = b"RPC2"
_TYPES = {node_type.value: node_type for node_type in NodeType}
_LEN = struct.Struct("<Q")


class SharedMemoryUnavailable(_errors.ReproError):
    """Raised when shared-memory publication is requested but impossible."""


def shared_memory_available() -> bool:
    """Whether this platform can create shared-memory segments."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):  # pragma: no cover - degraded platform
        return False
    probe.close()
    probe.unlink()
    return True


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def encode_circuit(circuit: Circuit) -> bytes:
    """Serialize a circuit's arrays into the flat segment layout.

    Layout: magic, length-prefixed JSON header (name, the names and gate
    types of ids ``0..n-1``, inputs, outputs), then ``n``, ``nnz`` and
    three little-endian int64 arrays: the CSR fanins (``offsets[n + 1]``
    and ``fanins[nnz]``) and the insertion order (``insertion[n]``).
    """
    arrays = circuit.arrays()
    fanins = array("q")
    offsets = array("q", [0])
    for drivers in arrays.pred:
        fanins.extend(drivers)
        offsets.append(len(fanins))
    header = json.dumps(
        {
            "name": circuit.name,
            "order": arrays.order,
            "types": [node_type.value for node_type in arrays.types],
            "inputs": circuit.inputs,
            "outputs": circuit.outputs,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [
        _MAGIC,
        _LEN.pack(len(header)),
        header,
        _LEN.pack(len(arrays.order)),
        _LEN.pack(len(fanins)),
        offsets.tobytes(),
        fanins.tobytes(),
        array("q", arrays.insertion).tobytes(),
    ]
    return b"".join(parts)


def decode_circuit(buf) -> Circuit:
    """Rebuild a circuit from segment bytes by adopting its arrays.

    The publisher's ids, and so its topological order and every
    downstream vertex numbering, are installed as they are; nothing is
    re-sorted or re-validated.
    """
    view = memoryview(buf)
    if bytes(view[:4]) != _MAGIC:
        raise ValueError("not a shared-circuit segment (bad magic)")
    pos = 4
    (header_len,) = _LEN.unpack_from(view, pos)
    pos += _LEN.size
    header = json.loads(bytes(view[pos : pos + header_len]).decode("utf-8"))
    pos += header_len
    (n,) = _LEN.unpack_from(view, pos)
    pos += _LEN.size
    (nnz,) = _LEN.unpack_from(view, pos)
    pos += _LEN.size
    ints = array("q")
    ints.frombytes(bytes(view[pos : pos + 8 * (2 * n + 1 + nnz)]))
    offsets = ints[: n + 1].tolist()
    fanins = ints[n + 1 : n + 1 + nnz].tolist()
    arrays = CircuitArrays(
        header["order"],
        [_TYPES[value] for value in header["types"]],
        [fanins[offsets[i] : offsets[i + 1]] for i in range(n)],
        ints[n + 1 + nnz :].tolist(),
    )
    return Circuit.from_arrays(
        header["name"], arrays, header["inputs"], header["outputs"]
    )


# ----------------------------------------------------------------------
# refs and the worker-side attach cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CircuitRef:
    """Picklable handle to one published circuit version.

    This is what crosses the process boundary instead of the circuit:
    a segment name, the payload size, and bookkeeping identity
    (``key``/``version``) for diagnostics.
    """

    segment: str
    size: int
    key: str
    version: int


#: Worker-local attach cache: segment name -> (shm, circuit, refcount).
#: A new circuit version always has a new segment name, so a hit can
#: never be stale.
_ATTACHED: Dict[str, Tuple[object, Circuit, int]] = {}
_ATTACH_LOCK = threading.Lock()


def attach_circuit(ref: CircuitRef) -> Circuit:
    """Map a published segment and return its decoded circuit.

    Refcounted per segment name: the first attach maps + decodes, later
    ones are cache hits.  Pair every attach with :func:`detach_circuit`
    (or call :func:`detach_all` at worker teardown).
    """
    if shared_memory is None:  # pragma: no cover - degraded platform
        raise SharedMemoryUnavailable(
            "multiprocessing.shared_memory is unavailable"
        )
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(ref.segment)
        if cached is not None:
            shm, circuit, count = cached
            _ATTACHED[ref.segment] = (shm, circuit, count + 1)
            return circuit
        shm = shared_memory.SharedMemory(name=ref.segment)
        try:
            circuit = decode_circuit(shm.buf[: ref.size])
        except Exception:
            shm.close()
            raise
        _ATTACHED[ref.segment] = (shm, circuit, 1)
        return circuit


def detach_circuit(ref: CircuitRef) -> None:
    """Release one attach; unmaps the segment at refcount zero."""
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(ref.segment)
        if cached is None:
            return
        shm, circuit, count = cached
        if count > 1:
            _ATTACHED[ref.segment] = (shm, circuit, count - 1)
            return
        del _ATTACHED[ref.segment]
        shm.close()


def detach_all() -> None:
    """Drop every cached attachment (worker teardown)."""
    with _ATTACH_LOCK:
        for shm, _circuit, _count in _ATTACHED.values():
            shm.close()
        _ATTACHED.clear()


def attached_segments() -> List[str]:
    """Names of currently attached segments (diagnostics/tests)."""
    with _ATTACH_LOCK:
        return sorted(_ATTACHED)


# ----------------------------------------------------------------------
# the publisher
# ----------------------------------------------------------------------
class SharedCircuitPool:
    """Publishes circuit versions to shared memory, exactly once each.

    One pool lives in the dispatching process (the daemon, or a
    shared-memory-enabled executor).  ``publish`` is idempotent per
    ``(key, version)``; ``invalidate`` retires the current version so
    the next ``publish`` creates a fresh segment under a new name.
    Unlinking is safe while workers are still attached (POSIX keeps the
    mapping alive until the last close), so invalidation never races a
    worker mid-decode.
    """

    def __init__(self, metrics=None) -> None:
        self.metrics = metrics
        self._lock = threading.Lock()
        self._segments: Dict[str, Tuple[int, object, CircuitRef]] = {}
        self._versions: Dict[str, int] = {}
        self._counter = 0
        self._closed = False

    # -- bookkeeping ----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def version(self, key: str) -> int:
        """Current published version of a circuit key (0 = never)."""
        with self._lock:
            return self._versions.get(key, 0)

    def ref(self, key: str) -> Optional[CircuitRef]:
        """The live ref for a key, if its current version is published."""
        with self._lock:
            entry = self._segments.get(key)
            return entry[2] if entry is not None else None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "published": self._counter,
                "live_segments": len(self._segments),
                "bytes_live": sum(
                    ref.size for _, _, ref in self._segments.values()
                ),
            }

    # -- publish / invalidate ------------------------------------------
    def publish(self, circuit: Circuit, key: str) -> CircuitRef:
        """Ensure the circuit's current version is in shared memory.

        Returns the existing ref when ``(key, current version)`` is
        already published — the once-per-version guarantee.
        """
        if shared_memory is None:  # pragma: no cover - degraded platform
            raise SharedMemoryUnavailable(
                "multiprocessing.shared_memory is unavailable"
            )
        with self._lock:
            if self._closed:
                raise SharedMemoryUnavailable("pool is closed")
            entry = self._segments.get(key)
            if entry is not None:
                self._count("shm.publish_hits")
                return entry[2]
            version = self._versions.get(key, 0) + 1
            self._versions[key] = version
            payload = encode_circuit(circuit)
            self._counter += 1
            name = f"rpro_{key[:8]}_{version}_{os.getpid()}_{self._counter}"
            shm = shared_memory.SharedMemory(
                create=True, size=len(payload), name=name
            )
            shm.buf[: len(payload)] = payload
            ref = CircuitRef(
                segment=shm.name,
                size=len(payload),
                key=key,
                version=version,
            )
            self._segments[key] = (version, shm, ref)
            self._count("shm.publishes")
            self._count("shm.bytes_published", len(payload))
            return ref

    def invalidate(self, key: str) -> None:
        """Retire the published version of a circuit (e.g. after an edit).

        The old segment is unlinked immediately; attached workers keep
        their mapping until they detach, and the next :meth:`publish`
        creates version + 1 under a fresh name.
        """
        with self._lock:
            entry = self._segments.pop(key, None)
            if entry is None:
                return
            _version, shm, _ref = entry
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._count("shm.invalidations")

    def listener_for(self, key: str):
        """Zero-argument edit callback retiring this key's segment.

        Register with
        :meth:`repro.incremental.IncrementalEngine.add_edit_listener`
        so circuit edits invalidate the shared-memory copy in step.
        """

        def _on_edit() -> None:
            self.invalidate(key)

        return _on_edit

    def close(self) -> None:
        """Unlink every live segment; the pool rejects further publishes."""
        with self._lock:
            for _version, shm, _ref in self._segments.values():
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            self._segments.clear()
            self._closed = True

    def __enter__(self) -> "SharedCircuitPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "CircuitRef",
    "SharedCircuitPool",
    "SharedMemoryUnavailable",
    "attach_circuit",
    "attached_segments",
    "decode_circuit",
    "detach_all",
    "detach_circuit",
    "encode_circuit",
    "shared_memory_available",
]
