"""Worker orchestration and ring transport.

Backends
--------
``seq``   one worker, run inline in the calling process; no fork.
``shm``   fork()ed worker processes reading the parent's data structures
          copy-on-write; no inter-worker communication.
``ring``  fork()ed workers connected in a directed ring of pipes; shard
          payloads circulate as length-prefixed serialized byte messages.

A parallel run is ``os.fork`` and ``os.pipe`` alone: every pipe is made
before the first fork, each child keeps only its own ends, pickles its
``(error, payload, WorkerStats)`` into its result pipe and leaves through
``os._exit``, and the parent drains the result pipes in one ``select.poll``
loop.  Workers time themselves from inside the child, so reported numbers
exclude process start-up and input construction: a worker's message time is
its ring exchanges, and every other second of its run is compute.  The
aggregate view of a run is the maximum over workers, the usual convention
for parallel phase timing.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

SEQ = "seq"
SHM = "shm"
RING = "ring"
BACKENDS = (SEQ, SHM, RING)

_RESULT_TIMEOUT_S = 600.0
_PIPE_BYTES = 1 << 16  # a pipe's default capacity: the most one read returns


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

    ``compute_s`` is ``total_s - message_s``: every second the worker spends
    outside a ring exchange.  ``receipts`` records, for every circulation
    phase the worker took part in, the (origin id, hop count) of each
    foreign shard received, in arrival order.
    """

    worker_id: int
    total_s: float = 0.0
    compute_s: float = 0.0
    message_s: float = 0.0
    bytes_sent: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    messages_received: int = 0
    receipts: list = field(default_factory=list)


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
# the next sizes[i] labels.  On a ring pipe each message is framed by a
# leading u8 holding its byte length.

_HEADER = struct.Struct("<III")
_RECORD = struct.Struct("<II")
_FRAME = struct.Struct("<Q")
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


def _remaining_ms(deadline):
    """Milliseconds left before ``deadline``, for ``poll``."""
    return max(0, int((deadline - time.monotonic()) * 1000))


class WorkerContext:
    """Worker-side handle: identity, the worker's :class:`WorkerStats`, and
    on the ring the pipe ends to the neighbours."""

    def __init__(self, worker_id, num_workers, send_fd=None, recv_fd=None):
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.stats = WorkerStats(worker_id)
        self._send_fd = send_fd
        self._recv_fd = recv_fd
        self._inbox = bytearray()  # received bytes not yet taken as a frame

    def _take_frame(self):
        """The payload of the first whole frame in the inbox, or None."""
        if len(self._inbox) < _FRAME.size:
            return None
        end = _FRAME.size + _FRAME.unpack_from(self._inbox)[0]
        if len(self._inbox) < end:
            return None
        payload = bytes(self._inbox[_FRAME.size:end])
        del self._inbox[:end]
        return payload

    def _exchange(self, message):
        """Send ``message`` downstream and receive the next one from
        upstream.  Writing and reading share one poll loop, so a frame
        larger than the pipe buffer cannot deadlock a ring in which every
        worker writes first.  Message time covers encoding and decoding as
        well as the wait."""
        t0 = time.perf_counter()
        payload = message.to_bytes()
        out = memoryview(_FRAME.pack(len(payload)) + payload)
        incoming = self._take_frame()
        poller = select.poll()
        poller.register(self._send_fd, select.POLLOUT)
        if incoming is None:
            poller.register(self._recv_fd, select.POLLIN)
        deadline = time.monotonic() + _RESULT_TIMEOUT_S
        while out or incoming is None:
            events = poller.poll(_remaining_ms(deadline))
            if not events:
                raise EngineError(
                    f"worker {self.worker_id} timed out on the ring")
            for fd, _event in events:
                if fd == self._send_fd:
                    out = out[os.write(fd, out):]
                    if not out:
                        poller.unregister(fd)
                    continue
                data = os.read(fd, _PIPE_BYTES)
                if not data:
                    raise EngineError(
                        f"worker {self.worker_id}: ring neighbour "
                        f"closed its pipe")
                self._inbox += data
                incoming = self._take_frame()
                if incoming is not None:
                    poller.unregister(fd)
        received = RingMessage.from_bytes(incoming)
        stats = self.stats
        stats.message_s += time.perf_counter() - t0
        stats.bytes_sent += len(payload)
        stats.messages_sent += 1
        stats.bytes_received += len(incoming)
        stats.messages_received += 1
        return received

    def circulate(self, records):
        """Run one full circulation of the ring, starting from own ``records``.

        Yields (origin worker id, records) once per foreign shard; worker p
        receives origins p-1, p-2, ... modulo the ring size.  Each received
        payload is forwarded on the next round, so after num_workers - 1
        rounds every worker has seen every shard exactly once.  Hop counts
        are verified on receipt.
        """
        log = []
        self.stats.receipts.append(log)
        if self.num_workers == 1:
            return
        if self._send_fd is None:
            raise EngineError("circulate() requires the ring backend")
        w = self.num_workers
        current = RingMessage(self.worker_id, 0, records)
        for rnd in range(1, w):
            msg = self._exchange(RingMessage(current.sender_id, rnd,
                                             current.records))
            expected_origin = (self.worker_id - rnd) % w
            if msg.hop_count != rnd or msg.sender_id != expected_origin:
                raise EngineError(
                    f"ring protocol violation at worker {self.worker_id}: "
                    f"round {rnd} got shard of {msg.sender_id} after "
                    f"{msg.hop_count} hops, expected {expected_origin}")
            log.append((msg.sender_id, msg.hop_count))
            yield msg.sender_id, msg.records
            current = msg


def _run_worker(worker_fn, ctx, args, t0):
    """``worker_fn(ctx, *args)`` and the worker's stats, its total time
    counted from ``t0``."""
    payload = worker_fn(ctx, *args)
    stats = ctx.stats
    stats.total_s = time.perf_counter() - t0
    stats.compute_s = stats.total_s - stats.message_s
    return payload, stats


def _worker_main(worker_fn, worker_id, num_workers, args, ring_pipes,
                 result_pipes):
    """Body of forked worker ``worker_id``; never returns.  It keeps only
    its own pipe ends, and leaves through ``os._exit`` so it never unwinds
    into the caller's stack or flushes the parent's stdio."""
    code = 1
    try:
        t0 = time.perf_counter()
        own = {result_pipes[worker_id][1]}
        send_fd = recv_fd = None
        if ring_pipes:
            # pipe p carries worker p's messages to worker p+1
            send_fd = ring_pipes[worker_id][1]
            recv_fd = ring_pipes[(worker_id - 1) % num_workers][0]
            own |= {send_fd, recv_fd}
            os.set_blocking(send_fd, False)
        for pipe in ring_pipes + result_pipes:
            for fd in pipe:
                if fd not in own:
                    os.close(fd)
        ctx = WorkerContext(worker_id, num_workers, send_fd, recv_fd)
        try:
            report = pickle.dumps(
                (None, *_run_worker(worker_fn, ctx, args, t0)),
                protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            report = pickle.dumps((traceback.format_exc(), None, None))
        out = memoryview(report)
        while out:
            out = out[os.write(result_pipes[worker_id][1], out):]
        code = 0
    finally:
        os._exit(code)


def _collect(pids, fds):
    """Per-worker (payload, stats), read from the result pipes ``fds``
    (``fds[p]`` is worker p's) in one poll loop.  Each worker is reaped,
    and dropped from ``pids``, once its pipe reaches EOF."""
    worker_of = {fd: p for p, fd in enumerate(fds)}
    chunks = {p: [] for p in worker_of.values()}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    results = {}
    deadline = time.monotonic() + _RESULT_TIMEOUT_S
    while len(results) < len(fds):
        events = poller.poll(_remaining_ms(deadline))
        if not events:
            raise EngineError("timed out waiting for worker results")
        dead, errors = {}, []
        for fd, _event in events:
            p = worker_of[fd]
            data = os.read(fd, _PIPE_BYTES)
            if data:
                chunks[p].append(data)
                continue
            poller.unregister(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(p), 0)[1])
            if code != 0 or not chunks[p]:
                dead[p] = code
                continue
            err, payload, stats = pickle.loads(b"".join(chunks[p]))
            if err is None:
                results[p] = (payload, stats)
            else:
                errors.append(f"worker {p} failed:\n{err}")
        # a death breaks the ring under its neighbours, so it is the cause
        # reported when both land together
        if dead:
            raise EngineError(f"worker(s) exited without reporting: {dead}")
        if errors:
            raise EngineError(errors[0])
    return [results[p] for p in range(len(fds))]


def run_workers(worker_fn, args, num_workers, *, ring=False):
    """Run ``worker_fn(ctx, *args)`` on every worker; return the payloads
    ordered by worker id and the run's :class:`PhaseTiming`.

    With one worker the function runs inline (no processes, and for a ring an
    empty circulation).  Otherwise workers are forked; under the ring flag
    worker p sends to p+1 and receives from p-1 over a pipe.  A worker that
    cannot be started, fails, dies or outlives the deadline raises
    :class:`EngineError`, and every worker still running is killed and
    reaped.
    """
    if num_workers == 1:
        out = [_run_worker(worker_fn, WorkerContext(0, 1), args,
                           time.perf_counter())]
    else:
        out = _run_forked(worker_fn, args, num_workers, ring)
    payloads, stats = zip(*out)
    return list(payloads), PhaseTiming.from_workers(stats)


def _run_forked(worker_fn, args, num_workers, ring):
    """Per-worker (payload, stats) of ``num_workers`` forked workers."""
    if not hasattr(os, "fork"):
        raise ValueError("parallel backends need os.fork, which this "
                         "platform lacks")

    held = []  # pipe ends open in the parent
    pids = {}
    try:
        try:
            for _ in range(num_workers * (2 if ring else 1)):
                held.extend(os.pipe())
            pipes = list(zip(held[0::2], held[1::2]))
            result_pipes, ring_pipes = pipes[:num_workers], pipes[num_workers:]
            for p in range(num_workers):
                pid = os.fork()
                if pid == 0:
                    _worker_main(worker_fn, p, num_workers, args, ring_pipes,
                                 result_pipes)
                pids[p] = pid
        except OSError as exc:
            raise EngineError(
                f"could not start {num_workers} workers: {exc}") from exc
        reads = [r for r, _w in result_pipes]
        for fd in set(held) - set(reads):
            os.close(fd)
        held = reads
        return _collect(pids, reads)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)
        for fd in held:
            os.close(fd)
