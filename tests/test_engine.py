import errno
import os
import time

import numpy as np
import pytest

from commqual.engine import (
    BackendConfig, EngineError, PhaseTiming, RingMessage, WorkerStats,
    run_info_metrics, run_intrinsic_metrics, run_matching_metrics,
    run_pair_metrics, run_workers, transport,
)
from commqual.graph import Partition, shard
from conftest import (
    T1_EXPECTED, T2_EXPECTED, fail_after, random_graph, random_partition,
    t2_network, t2_partition,
)

BACKENDS_WORKERS = [
    ("seq", 1),
    ("shm", 1), ("shm", 2), ("shm", 3),
    ("ring", 1), ("ring", 2), ("ring", 3),
]


def cfg(backend, workers):
    return BackendConfig(backend=backend, num_workers=workers)


# ---------------------------------------------------------------------------
# transport pieces
# ---------------------------------------------------------------------------


def test_wire_roundtrip():
    msg = RingMessage(3, 2, [
        (7, np.array([1, 5, 9], dtype=np.int64)),
        (8, np.empty(0, dtype=np.int64)),
        (2**32 - 1, np.array([2**32 - 1], dtype=np.int64)),
    ])
    back = RingMessage.from_bytes(msg.to_bytes())
    assert back.sender_id == 3 and back.hop_count == 2
    assert [rid for rid, _ in back.records] == [7, 8, 2**32 - 1]
    assert back.records[0][1].tolist() == [1, 5, 9]
    assert back.records[1][1].size == 0
    assert back.records[2][1].tolist() == [2**32 - 1]


def test_wire_length_accounting():
    msg = RingMessage(0, 1, [(4, np.array([10, 11]))])
    data = msg.to_bytes()
    assert len(data) == 12 + 8 + 8  # header + record header + 2 values


def test_wire_rejects_garbage():
    msg = RingMessage(0, 1, [(4, np.array([10, 11]))])
    data = msg.to_bytes()
    with pytest.raises(EngineError):
        RingMessage.from_bytes(data[:-1])
    with pytest.raises(EngineError):
        RingMessage.from_bytes(data + b"\x00")
    with pytest.raises(EngineError):
        RingMessage(0, 0, [(1, np.array([-1]))]).to_bytes()
    with pytest.raises(EngineError):
        RingMessage(0, 0, [(1, np.array([2**32]))]).to_bytes()


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(backend="sequential")
    with pytest.raises(ValueError):
        BackendConfig(backend="message-passing")
    with pytest.raises(ValueError):
        BackendConfig(backend="threads")
    with pytest.raises(ValueError):
        BackendConfig(num_workers=0)


def test_seq_is_one_worker():
    assert BackendConfig("seq", 4).num_workers == 1
    assert BackendConfig("shm", 4).num_workers == 4
    with pytest.raises(ValueError):
        BackendConfig("seq", 0)


def test_worker_failure_surfaces():
    def boom(ctx, x):
        if ctx.worker_id == 1:
            raise RuntimeError("kaboom")
        return x

    with pytest.raises(EngineError, match="kaboom"):
        run_workers(boom, (1,), 2)


def _echo_worker(ctx, n):
    seen = []
    records = [(ctx.worker_id, np.array([ctx.worker_id] * 2, dtype=np.int64))]
    for origin, recs in ctx.circulate(records):
        seen.append((origin, int(recs[0][1][0])))
    return seen


def _dying_ring_worker(ctx):
    records = [(ctx.worker_id, np.arange(3, dtype=np.int64))]
    for _origin, _records in ctx.circulate(records):
        if ctx.worker_id == 1:
            os._exit(3)
    return ctx.worker_id


@pytest.mark.parametrize("workers", [2, 3])
def test_ring_worker_hard_death_raises_promptly(workers):
    t0 = time.monotonic()
    with pytest.raises(EngineError, match=r"exited without reporting: \{.*1: 3"):
        run_workers(_dying_ring_worker, (), workers, ring=True)
    assert time.monotonic() - t0 < 10


def _big_record_worker(ctx, n):
    # each worker's record is n u32 values tagged by its id; a received one
    # is summarised, so the result pipe stays small
    own = np.arange(n, dtype=np.int64) + ctx.worker_id
    seen = []
    for origin, records in ctx.circulate([(ctx.worker_id, own)]):
        (rec_id, values), = records
        expected = np.arange(n, dtype=np.int64) + origin
        seen.append((origin, rec_id, bool(np.array_equal(values, expected))))
    return seen


@pytest.mark.parametrize("workers", [2, 3])
def test_ring_frame_larger_than_the_pipe_buffer(monkeypatch, workers):
    # a 4 MB frame is many times a 64 KiB pipe buffer and every worker
    # writes first; a short deadline turns a deadlock into a prompt failure
    monkeypatch.setattr(transport, "_RESULT_TIMEOUT_S", 60.0)
    n = 1_000_000
    payloads, timing = run_workers(_big_record_worker, (n,), workers, ring=True)
    for p, (seen, stats) in enumerate(zip(payloads, timing.workers)):
        assert seen == [((p - r) % workers, (p - r) % workers, True)
                        for r in range(1, workers)]
        assert stats.bytes_sent == stats.bytes_received
        assert stats.bytes_sent == (workers - 1) * (12 + 8 + 4 * n)


def _scenario_worker(ctx, scenario):
    if ctx.worker_id == 1:
        if scenario == "raise":
            raise RuntimeError("kaboom")
        if scenario == "die":
            os._exit(3)
        if scenario == "hang":
            time.sleep(60)
    return ctx.worker_id


_SCENARIOS = {"ok": None, "raise": "kaboom", "die": "exited without reporting",
              "hang": "timed out"}


def _run_scenario(monkeypatch, scenario, ring):
    monkeypatch.setattr(transport, "_RESULT_TIMEOUT_S", 1.0)
    if _SCENARIOS[scenario] is None:
        assert run_workers(_scenario_worker, (scenario,), 3,
                           ring=ring)[0] == [0, 1, 2]
    else:
        with pytest.raises(EngineError, match=_SCENARIOS[scenario]):
            run_workers(_scenario_worker, (scenario,), 3, ring=ring)


@pytest.mark.parametrize("ring", [False, True])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_run_leaves_no_child(monkeypatch, scenario, ring):
    _run_scenario(monkeypatch, scenario, ring)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count open descriptors")
@pytest.mark.parametrize("ring", [False, True])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_run_leaves_no_open_fd(monkeypatch, scenario, ring):
    before = len(os.listdir("/proc/self/fd"))
    _run_scenario(monkeypatch, scenario, ring)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count open descriptors")
@pytest.mark.parametrize("name,calls_ok,error", [
    ("fork", 1, BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))),
    ("pipe", 2, OSError(errno.EMFILE, os.strerror(errno.EMFILE))),
])
def test_worker_that_cannot_start_is_an_engine_error(monkeypatch, name,
                                                     calls_ok, error):
    # the second fork or the third pipe of a two-worker ring fails: at most
    # one real child is started, and it is killed and reaped
    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, name, fail_after(getattr(os, name), calls_ok, error))
    with pytest.raises(EngineError, match="could not start 2 workers"):
        run_workers(_scenario_worker, ("ok",), 2, ring=True)
    monkeypatch.undo()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("ring", [False, True])
def test_parallel_run_without_fork_is_a_value_error(monkeypatch, ring):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="fork"):
        run_workers(_scenario_worker, ("ok",), 2, ring=ring)
    # one worker runs inline and needs no fork
    assert run_workers(_scenario_worker, ("ok",), 1, ring=ring)[0][0] == 0


def test_ring_circulation_orders_and_counts():
    w = 4
    payloads, timing = run_workers(_echo_worker, (0,), w, ring=True)
    for p, (payload, stats) in enumerate(zip(payloads, timing.workers)):
        origins = [o for o, _ in payload]
        assert origins == [(p - r) % w for r in range(1, w)]
        assert all(o == v for o, v in payload)  # payload carried the origin id
        assert stats.messages_sent == w - 1
        assert stats.messages_received == w - 1
        assert len(stats.receipts) == 1
        assert len(stats.receipts[0]) == w - 1
        assert [h for _, h in stats.receipts[0]] == list(range(1, w))


def test_message_time_includes_codec(monkeypatch):
    # a slow encoder and decoder must show up in message_s, not in the gap
    # between a worker's total and its compute + message time
    to_bytes, from_bytes = RingMessage.to_bytes, RingMessage.from_bytes

    def slow_to_bytes(self):
        time.sleep(0.1)
        return to_bytes(self)

    def slow_from_bytes(cls, payload):
        time.sleep(0.1)
        return from_bytes(payload)

    monkeypatch.setattr(RingMessage, "to_bytes", slow_to_bytes)
    monkeypatch.setattr(RingMessage, "from_bytes", classmethod(slow_from_bytes))
    _, timing = run_workers(_echo_worker, (0,), 2, ring=True)
    for stats in timing.workers:
        assert stats.message_s >= 0.2
        assert stats.total_s - stats.compute_s - stats.message_s < 0.05, stats


@pytest.mark.parametrize("backend,workers", [
    ("seq", 1), ("shm", 2), ("shm", 3), ("ring", 2), ("ring", 3),
])
def test_compute_is_every_second_outside_messaging(random_case, backend,
                                                   workers):
    c = cfg(backend, workers)
    pair = (random_case["ground"], random_case["detected"])
    runs = [run(*pair, c) for run in (run_info_metrics, run_matching_metrics,
                                      run_pair_metrics)]
    runs.append(run_intrinsic_metrics(random_case["net"], pair[0], c))
    for _result, timing in runs:
        assert timing.num_workers == workers
        for stats in timing.workers:
            assert (stats.compute_s + stats.message_s
                    == pytest.approx(stats.total_s, rel=1e-12, abs=0)), stats


# ---------------------------------------------------------------------------
# fixture values across every backend and worker count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend,workers", BACKENDS_WORKERS)
def test_t1_info_all_backends(t1_ground, t1_detected, backend, workers):
    res, timing = run_info_metrics(t1_ground, t1_detected, cfg(backend, workers))
    assert res.vi == pytest.approx(T1_EXPECTED["vi"], abs=1e-6)
    assert res.nmi == pytest.approx(T1_EXPECTED["nmi"], abs=1e-6)
    assert timing.num_workers == workers


@pytest.mark.parametrize("backend,workers", BACKENDS_WORKERS)
def test_t1_matching_all_backends(t1_ground, t1_detected, backend, workers):
    res, _ = run_matching_metrics(t1_ground, t1_detected, cfg(backend, workers))
    assert res.f_measure == pytest.approx(T1_EXPECTED["f_measure"], abs=1e-6)
    assert res.nvd == pytest.approx(T1_EXPECTED["nvd"], abs=1e-6)


@pytest.mark.parametrize("backend,workers", BACKENDS_WORKERS)
def test_t1_pair_all_backends(t1_ground, t1_detected, backend, workers):
    res, _ = run_pair_metrics(t1_ground, t1_detected, cfg(backend, workers))
    assert res.counts.as_tuple() == T1_EXPECTED["counts"]
    assert res.rand == pytest.approx(T1_EXPECTED["rand"], abs=1e-6)
    assert res.adjusted_rand == pytest.approx(T1_EXPECTED["ari"], abs=1e-6)
    assert res.jaccard == pytest.approx(T1_EXPECTED["jaccard"], abs=1e-6)


@pytest.mark.parametrize("backend,workers", BACKENDS_WORKERS)
def test_t2_intrinsic_all_backends(backend, workers):
    net = t2_network()
    part = t2_partition(net)
    rep, _ = run_intrinsic_metrics(net, part, cfg(backend, workers))
    assert rep.q == pytest.approx(T2_EXPECTED["q"], abs=1e-6)
    assert rep.qds == pytest.approx(T2_EXPECTED["qds"], abs=1e-6)
    r = rep.rows[0]
    got = (r.intra_edges, r.intra_density, r.contraction,
           r.inter_edges, r.expansion, r.conductance)
    for g, e in zip(got, T2_EXPECTED["row0"]):
        assert g == pytest.approx(e, abs=1e-6)


# ---------------------------------------------------------------------------
# parallel backends match sequential on random data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_case():
    rng = np.random.default_rng(77)
    n = 500
    ground = random_partition(rng, n, 17)
    detected = random_partition(rng, n, 23)
    net = random_graph(rng, n, 8)
    seq_info, _ = run_info_metrics(ground, detected)
    seq_match, _ = run_matching_metrics(ground, detected)
    seq_pair, _ = run_pair_metrics(ground, detected)
    seq_intr, _ = run_intrinsic_metrics(net, ground)
    return dict(n=n, ground=ground, detected=detected, net=net,
                info=seq_info, match=seq_match, pair=seq_pair, intr=seq_intr)


@pytest.mark.parametrize("backend", ["shm", "ring"])
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_parallel_matches_sequential(random_case, backend, workers):
    c = cfg(backend, workers)
    info, _ = run_info_metrics(random_case["ground"], random_case["detected"], c)
    assert info.vi == pytest.approx(random_case["info"].vi, rel=1e-9)
    assert info.nmi == pytest.approx(random_case["info"].nmi, rel=1e-9)

    match, _ = run_matching_metrics(random_case["ground"], random_case["detected"], c)
    assert match.f_measure == pytest.approx(random_case["match"].f_measure, rel=1e-9)
    assert match.nvd == pytest.approx(random_case["match"].nvd, rel=1e-9)

    pair, _ = run_pair_metrics(random_case["ground"], random_case["detected"], c)
    assert pair.counts == random_case["pair"].counts

    intr, _ = run_intrinsic_metrics(random_case["net"], random_case["ground"], c)
    assert intr.q == pytest.approx(random_case["intr"].q, rel=1e-9)
    assert intr.qds == pytest.approx(random_case["intr"].qds, rel=1e-9)
    assert len(intr.rows) == len(random_case["intr"].rows)
    for a, b in zip(intr.rows, random_case["intr"].rows):
        assert a.community_id == b.community_id
        assert a.intra_edges == b.intra_edges
        assert a.inter_edges == b.inter_edges
        assert a.conductance == pytest.approx(b.conductance, abs=1e-12)


def test_pair_bruteforce_modes(random_case):
    # the stripe scan shares pair_finish with the fast method, so the counts
    # agree exactly and the indices bit for bit; every worker reads the
    # parent's label arrays, so the ring sends nothing
    fast = random_case["pair"]
    for backend, workers in [("seq", 1), ("shm", 2), ("shm", 3),
                             ("ring", 2), ("ring", 3)]:
        res, timing = run_pair_metrics(
            random_case["ground"], random_case["detected"],
            cfg(backend, workers), method="bruteforce")
        # repr tells every distinct float apart
        assert repr(res.values()) == repr(fast.values()), (backend, workers)
        if backend == "ring":
            assert timing.total_message_bytes == 0, workers
            assert timing.total_messages == 0, workers


def test_unknown_pair_method_fails_at_the_parent_before_ranking(monkeypatch):
    from commqual.engine import runners

    calls = []
    rank_labels = runners.rank_labels

    def counted(*args):
        calls.append(args)
        return rank_labels(*args)

    def never(*args, **kwargs):
        raise AssertionError("ran workers despite a bad method")

    monkeypatch.setattr(runners, "rank_labels", counted)
    monkeypatch.setattr(runners, "run_workers", never)
    # sparse ids: this pair would be ranked before any worker runs
    ground = Partition([[0, 10**9], [5]], 10**9 + 1)
    detected = Partition([[0], [5, 10**9]], 10**9 + 1)
    for backend, workers in [("seq", 1), ("shm", 2), ("ring", 2)]:
        with pytest.raises(ValueError, match="unknown pair-counting method"):
            run_pair_metrics(ground, detected, cfg(backend, workers),
                             method="fastest")
    assert calls == []


def test_more_workers_than_communities(t1_ground, t1_detected):
    # 2 communities per side, 5 workers: some shards are empty
    for backend in ("shm", "ring"):
        res, _ = run_info_metrics(t1_ground, t1_detected, cfg(backend, 5))
        assert res.vi == pytest.approx(T1_EXPECTED["vi"], abs=1e-6)
        pair, _ = run_pair_metrics(t1_ground, t1_detected, cfg(backend, 5))
        assert pair.counts.as_tuple() == T1_EXPECTED["counts"]


def test_intrinsic_seq_is_the_one_worker_run(random_case):
    net, part = random_case["net"], random_case["ground"]
    seq, timing = run_intrinsic_metrics(net, part)
    assert timing.num_workers == 1
    for backend in ("shm", "ring"):
        rep, timing = run_intrinsic_metrics(net, part, cfg(backend, 3))
        assert timing.num_workers == 3
        assert repr(rep) == repr(seq), backend


def test_in_process_run_calls_community_stats_once(random_case, monkeypatch):
    # perfbench's tracer reads the whole partition's neighbour cells from the
    # one module-global community_stats call of an in-process run
    from commqual import intrinsic_metrics
    calls = []
    kernel = intrinsic_metrics.community_stats

    def counting(*args, **kwargs):
        calls.append(kernel(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(intrinsic_metrics, "community_stats", counting)
    net, part = random_case["net"], random_case["ground"]
    run_intrinsic_metrics(net, part)
    assert [len(table) for table in calls] == [len(part)]


def test_intrinsic_ring_sends_nothing(random_case):
    _, timing = run_intrinsic_metrics(random_case["net"], random_case["ground"],
                                      cfg("ring", 3))
    assert timing.total_message_bytes == 0
    assert timing.total_messages == 0


def test_ring_audit_on_metric_runs(random_case):
    w = 4
    _, timing = run_matching_metrics(random_case["ground"],
                                     random_case["detected"], cfg("ring", w))
    for stats in timing.workers:
        assert len(stats.receipts) == 1  # one circulation phase
        for phase in stats.receipts:
            assert len(phase) == w - 1
            origins = sorted(o for o, _ in phase)
            assert origins == sorted(set(range(w)) - {stats.worker_id})
            assert [h for _, h in phase] == list(range(1, w))


@pytest.mark.parametrize("workers", [2, 3])
def test_ring_matching_circulates_once(random_case, workers):
    _, timing = run_matching_metrics(random_case["ground"],
                                     random_case["detected"], cfg("ring", workers))
    for stats in timing.workers:
        assert stats.messages_sent == workers - 1
        assert stats.messages_received == workers - 1
        assert len(stats.receipts) == 1


def test_partial_coverage_supported_outside_pair_family():
    # half the nodes unassigned on each side
    ground = Partition([[0, 1, 2], [3, 4]], 10)
    detected = Partition([[0, 1], [2, 3, 4]], 10)
    for backend, workers in [("seq", 1), ("shm", 2), ("ring", 2)]:
        res, _ = run_info_metrics(ground, detected, cfg(backend, workers))
        assert np.isfinite(res.vi)
    with pytest.raises(ValueError, match="coverage"):
        run_pair_metrics(ground, detected)


def test_universe_mismatch_rejected():
    a = Partition([[0, 1]], 2)
    b = Partition([[0, 1]], 3)
    with pytest.raises(ValueError, match="universe"):
        run_info_metrics(a, b)


LIBRARY_BACKENDS = [("seq", 1), ("shm", 2), ("ring", 2)]


@pytest.mark.parametrize("backend,workers", LIBRARY_BACKENDS)
@pytest.mark.parametrize("ground,detected,universe,message", [
    ([[0, 1], [10**11]], [[0, 1, 2]], 3, "partitions cover different node sets"),
    ([[0, 1, 2]], [[0, 1, 3]], 4, "partitions cover different node sets"),
    ([[0, 1], [10**11]], [[0, 1, 10**11]], 4,
     "pair counting requires full universe coverage"),
])
def test_pair_coverage_messages(ground, detected, universe, message, backend,
                                workers):
    with pytest.raises(ValueError) as info:
        run_pair_metrics(Partition(ground, universe),
                         Partition(detected, universe), cfg(backend, workers))
    assert str(info.value) == message


@pytest.mark.parametrize("backend,workers", LIBRARY_BACKENDS)
@pytest.mark.parametrize("big", [2**32 - 1, 2**32, 10**11, 2**62])
def test_sparse_library_labels_match_dense(big, backend, workers):
    # node 4 renamed to ``big``: every comparison runner ranks it back, so
    # no label-sized array is made and the result is the dense one
    ground, detected = [[0, 1, 4], [2, 3]], [[0, 4], [1, 2, 3]]

    def renamed(comms):
        return Partition([[big if v == 4 else v for v in c] for c in comms], 5)

    for run in (run_info_metrics, run_matching_metrics, run_pair_metrics):
        want, _ = run(Partition(ground, 5), Partition(detected, 5))
        got, _ = run(renamed(ground), renamed(detected), cfg(backend, workers))
        assert got == want


def test_ring_wire_limit_on_flat_records():
    # a ring shard is three records: community ids, sizes, member labels
    top = 2**32 - 1
    detected = Partition([[0, 2], [1, top]], 4)
    for p in range(2):
        sh = shard(detected, 2, p)
        records = list(enumerate((sh.comm_ids, sh.sizes, sh.members)))
        back = RingMessage.from_bytes(RingMessage(p, 1, records).to_bytes())
        assert ([(i, v.tolist()) for i, v in back.records]
                == [(i, v.tolist()) for i, v in records])
    # the runners rank labels before any label-sized array or ring message is
    # made, so ids at and past the wire range run on the ring as on seq
    for big in (top, top + 1):
        ground = Partition([[0, 1], [2, big]], 4)
        detected = Partition([[0, 2], [1, big]], 4)
        assert (run_info_metrics(ground, detected, cfg("ring", 2))[0]
                == run_info_metrics(ground, detected)[0])


def test_timing_aggregates_are_max():
    stats = [WorkerStats(0, total_s=1.0, compute_s=0.6, message_s=0.1),
             WorkerStats(1, total_s=2.0, compute_s=0.4, message_s=0.9)]
    t = PhaseTiming.from_workers(stats)
    assert t.total_s == 2.0
    assert t.compute_s == 0.6
    assert t.message_s == 0.9


def test_determinism_across_repeat_runs(random_case):
    c = cfg("ring", 3)
    a, _ = run_info_metrics(random_case["ground"], random_case["detected"], c)
    b, _ = run_info_metrics(random_case["ground"], random_case["detected"], c)
    assert a.vi == b.vi and a.nmi == b.nmi
    pa, _ = run_pair_metrics(random_case["ground"], random_case["detected"], c)
    pb, _ = run_pair_metrics(random_case["ground"], random_case["detected"], c)
    assert pa.counts == pb.counts
