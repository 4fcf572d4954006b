import os
import time

import numpy as np
import pytest

from commqual.engine import (
    BackendConfig, EngineError, PhaseTiming, RingMessage, WorkerStats,
    ring_topology, run_info_metrics, run_intrinsic_metrics,
    run_matching_metrics, run_pair_metrics, run_workers,
)
from commqual.graph import Partition
from conftest import (
    T1_EXPECTED, T2_EXPECTED, random_graph, random_partition, t2_network,
    t2_partition,
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


def test_ring_topology():
    assert ring_topology(1) == [(0, 0)]
    assert ring_topology(4) == [(3, 1), (0, 2), (1, 3), (2, 0)]
    with pytest.raises(ValueError):
        ring_topology(0)


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
    assert BackendConfig(backend="sequential").backend == "seq"
    assert BackendConfig(backend="message-passing").backend == "ring"
    with pytest.raises(ValueError):
        BackendConfig(backend="threads")
    with pytest.raises(ValueError):
        BackendConfig(num_workers=0)
    with pytest.raises(ValueError):
        BackendConfig(channel_capacity=0)


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


def test_ring_circulation_orders_and_counts():
    w = 4
    out = run_workers(_echo_worker, (0,), w, ring=True)
    for p, (payload, stats) in enumerate(out):
        origins = [o for o, _ in payload]
        assert origins == [(p - r) % w for r in range(1, w)]
        assert all(o == v for o, v in payload)  # payload carried the origin id
        assert stats.messages_sent == w - 1
        assert stats.messages_received == w - 1
        assert len(stats.receipts) == 1
        assert len(stats.receipts[0]) == w - 1
        assert [h for _, h in stats.receipts[0]] == list(range(1, w))


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
    expected = random_case["pair"].counts
    res, _ = run_pair_metrics(random_case["ground"], random_case["detected"],
                              BackendConfig(), method="bruteforce")
    assert res.counts == expected
    res, _ = run_pair_metrics(random_case["ground"], random_case["detected"],
                              cfg("shm", 3), method="bruteforce")
    assert res.counts == expected
    with pytest.raises(ValueError, match="brute"):
        run_pair_metrics(random_case["ground"], random_case["detected"],
                         cfg("ring", 2), method="bruteforce")


def test_more_workers_than_communities(t1_ground, t1_detected):
    # 2 communities per side, 5 workers: some shards are empty
    for backend in ("shm", "ring"):
        res, _ = run_info_metrics(t1_ground, t1_detected, cfg(backend, 5))
        assert res.vi == pytest.approx(T1_EXPECTED["vi"], abs=1e-6)
        pair, _ = run_pair_metrics(t1_ground, t1_detected, cfg(backend, 5))
        assert pair.counts.as_tuple() == T1_EXPECTED["counts"]


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
        assert len(stats.receipts) == 2  # two circulation phases
        for phase in stats.receipts:
            assert len(phase) == w - 1
            origins = sorted(o for o, _ in phase)
            assert origins == sorted(set(range(w)) - {stats.worker_id})
            assert [h for _, h in phase] == list(range(1, w))


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
