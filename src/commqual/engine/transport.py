"""Worker orchestration and ring transport.

Backends
--------
``seq``   one worker, run inline in the calling process; no fork.
``shm``   fork()ed worker processes reading the parent's data structures
          copy-on-write; no inter-worker communication.
``ring``  fork()ed workers connected in a directed ring of bounded queues;
          shard payloads circulate as serialized byte messages.

Workers time themselves (compute vs message wait) from inside the child, so
reported numbers exclude process start-up and input construction.  The
aggregate view of a run is the maximum over workers, the usual convention for
parallel phase timing.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import struct
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

SEQ = "seq"
SHM = "shm"
RING = "ring"
BACKENDS = (SEQ, SHM, RING)

_RESULT_TIMEOUT_S = 600.0


class EngineError(RuntimeError):
    """A worker failed, timed out, or the ring protocol was violated."""


@dataclass
class BackendConfig:
    backend: str = SEQ
    num_workers: int = 1

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; pick from {BACKENDS}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.backend == SEQ:
            self.num_workers = 1  # seq is the one-worker run, in process


@dataclass
class WorkerStats:
    """Per-worker timing and traffic counters.

    ``receipts`` records, for every circulation phase the worker took part
    in, the (origin id, hop count) of each foreign shard received, in arrival
    order.
    """

    worker_id: int
    total_s: float = 0.0
    compute_s: float = 0.0
    message_s: float = 0.0
    bytes_sent: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    messages_received: int = 0
    receipts: tuple = ()


@dataclass
class PhaseTiming:
    """Aggregate run timing: max over workers, plus the per-worker detail."""

    total_s: float
    compute_s: float
    message_s: float
    workers: list = field(default_factory=list)

    @classmethod
    def from_workers(cls, stats):
        return cls(
            total_s=max(s.total_s for s in stats),
            compute_s=max(s.compute_s for s in stats),
            message_s=max(s.message_s for s in stats),
            workers=list(stats),
        )

    @property
    def num_workers(self):
        return len(self.workers)

    @property
    def total_message_bytes(self):
        return sum(s.bytes_sent for s in self.workers)

    @property
    def total_messages(self):
        return sum(s.messages_sent for s in self.workers)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
#
# Little-endian throughout.  A message is:
#   u4 sender id | u4 hop count | u4 record count
# followed by that many records, each:
#   u4 record id | u4 value count | u4 * values
#
# A partition shard travels as three records: 0 holds the community ids, 1
# their sizes and 2 the concatenated member labels, so community ids[i] owns
# the next sizes[i] labels.

_HEADER = struct.Struct("<III")
_RECORD = struct.Struct("<II")
_U4_MAX = 2**32 - 1


@dataclass
class RingMessage:
    sender_id: int
    hop_count: int
    records: list  # of (record_id, int array)

    def to_bytes(self):
        parts = [_HEADER.pack(self.sender_id, self.hop_count, len(self.records))]
        for rec_id, values in self.records:
            arr = np.asarray(values, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() > _U4_MAX):
                raise EngineError("record value outside unsigned 32-bit wire range")
            if not 0 <= rec_id <= _U4_MAX:
                raise EngineError("record id outside unsigned 32-bit wire range")
            parts.append(_RECORD.pack(rec_id, arr.size))
            parts.append(arr.astype("<u4").tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload):
        if len(payload) < _HEADER.size:
            raise EngineError("truncated message header")
        sender, hops, n_rec, = _HEADER.unpack_from(payload, 0)
        off = _HEADER.size
        records = []
        for _ in range(n_rec):
            if off + _RECORD.size > len(payload):
                raise EngineError("truncated record header")
            rec_id, count = _RECORD.unpack_from(payload, off)
            off += _RECORD.size
            end = off + 4 * count
            if end > len(payload):
                raise EngineError("truncated record body")
            values = np.frombuffer(payload, dtype="<u4", count=count,
                                   offset=off).astype(np.int64)
            records.append((rec_id, values))
            off = end
        if off != len(payload):
            raise EngineError("trailing bytes after last record")
        return cls(sender_id=sender, hop_count=hops, records=records)


# ---------------------------------------------------------------------------
# Worker contexts
# ---------------------------------------------------------------------------


class WorkerContext:
    """Worker-side handle: identity, compute and message time, traffic
    counters."""

    def __init__(self, worker_id, num_workers, send_q=None, recv_q=None):
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.compute_s = 0.0
        self.message_s = 0.0
        self._send_q = send_q
        self._recv_q = recv_q
        self.bytes_sent = 0
        self.messages_sent = 0
        self.bytes_received = 0
        self.messages_received = 0
        self._receipts = []

    @contextmanager
    def _timed(self, attr):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

    def compute(self):
        return self._timed("compute_s")

    @property
    def ring_enabled(self):
        return self._send_q is not None

    # message time covers encoding and decoding as well as the queue wait
    def _send(self, message):
        with self._timed("message_s"):
            payload = message.to_bytes()
            self._send_q.put(payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1

    def _recv(self):
        with self._timed("message_s"):
            payload = self._recv_q.get(timeout=_RESULT_TIMEOUT_S)
            message = RingMessage.from_bytes(payload)
        self.bytes_received += len(payload)
        self.messages_received += 1
        return message

    def circulate(self, records):
        """Run one full circulation of the ring, starting from own ``records``.

        Yields (origin worker id, records) once per foreign shard; worker p
        receives origins p-1, p-2, ... modulo the ring size.  Each received
        payload is forwarded on the next round, so after num_workers - 1
        rounds every worker has seen every shard exactly once.  Hop counts
        are verified on receipt.
        """
        log = []
        self._receipts.append(log)
        if self.num_workers == 1:
            return
        if not self.ring_enabled:
            raise EngineError("circulate() requires the ring backend")
        w = self.num_workers
        current = RingMessage(self.worker_id, 0, records)
        for rnd in range(1, w):
            self._send(RingMessage(current.sender_id, rnd, current.records))
            msg = self._recv()
            expected_origin = (self.worker_id - rnd) % w
            if msg.hop_count != rnd or msg.sender_id != expected_origin:
                raise EngineError(
                    f"ring protocol violation at worker {self.worker_id}: "
                    f"round {rnd} got shard of {msg.sender_id} after "
                    f"{msg.hop_count} hops, expected {expected_origin}")
            log.append((msg.sender_id, msg.hop_count))
            yield msg.sender_id, msg.records
            current = msg

    def finish(self, total_s):
        return WorkerStats(
            worker_id=self.worker_id,
            total_s=total_s,
            compute_s=self.compute_s,
            message_s=self.message_s,
            bytes_sent=self.bytes_sent,
            messages_sent=self.messages_sent,
            bytes_received=self.bytes_received,
            messages_received=self.messages_received,
            receipts=tuple(tuple(log) for log in self._receipts),
        )


def _worker_entry(worker_fn, worker_id, num_workers, args, send_q, recv_q,
                  result_q):
    t0 = time.perf_counter()
    ctx = WorkerContext(worker_id, num_workers, send_q, recv_q)
    try:
        payload = worker_fn(ctx, *args)
        stats = ctx.finish(time.perf_counter() - t0)
        result_q.put((worker_id, None, payload, stats))
    except BaseException:
        result_q.put((worker_id, traceback.format_exc(), None, None))


def run_workers(worker_fn, args, num_workers, *, ring=False):
    """Run ``worker_fn(ctx, *args)`` on every worker; return per-worker
    (payload, stats) ordered by worker id.

    With one worker the function runs inline (no processes, and for a ring an
    empty circulation).  Otherwise workers are forked; under the ring flag
    worker p sends to p+1 and receives from p-1 through queues that hold one
    message each.
    """
    if num_workers == 1:
        t0 = time.perf_counter()
        ctx = WorkerContext(0, 1)
        payload = worker_fn(ctx, *args)
        return [(payload, ctx.finish(time.perf_counter() - t0))]

    # POSIX only: without fork this raises ValueError
    mp_ctx = mp.get_context("fork")

    # queue index q feeds worker q+1; worker p sends on queue p
    edges = [mp_ctx.Queue(maxsize=1) for _ in range(num_workers)] \
        if ring else [None] * num_workers
    result_q = mp_ctx.Queue()

    procs = []
    for p in range(num_workers):
        send_q = edges[p] if ring else None
        recv_q = edges[(p - 1) % num_workers] if ring else None
        proc = mp_ctx.Process(
            target=_worker_entry,
            args=(worker_fn, p, num_workers, args, send_q, recv_q, result_q),
            daemon=True,
        )
        procs.append(proc)
    for proc in procs:
        proc.start()

    results = {}
    failure = None
    deadline = time.monotonic() + _RESULT_TIMEOUT_S
    dead_strikes = 0
    try:
        while len(results) < num_workers and failure is None:
            try:
                worker_id, err, payload, stats = result_q.get(timeout=0.5)
            except queue_mod.Empty:
                if time.monotonic() > deadline:
                    failure = "timed out waiting for worker results"
                    continue
                dead = [p for p, proc in enumerate(procs)
                        if not proc.is_alive() and p not in results]
                # allow one extra poll so an in-flight result can land
                dead_strikes = dead_strikes + 1 if dead else 0
                if dead and dead_strikes > 1:
                    codes = {p: procs[p].exitcode for p in dead}
                    failure = f"worker(s) exited without reporting: {codes}"
                continue
            if err is not None:
                failure = f"worker {worker_id} failed:\n{err}"
            else:
                results[worker_id] = (payload, stats)
    finally:
        if failure is not None:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs:
            proc.join(timeout=10)

    if failure is not None:
        raise EngineError(failure)
    return [results[p] for p in range(num_workers)]
