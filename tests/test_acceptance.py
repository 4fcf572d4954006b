"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL/SKIP`` line on the real
stdout so the checklist is visible even while pytest captures output (run
with ``-s`` to see the lines inline).  Fixture values and tolerances are
pinned here on purpose rather than imported from the other test modules;
this file is the contract.
"""

import io
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from commqual import (
    BackendConfig,
    GeneratorParams,
    Partition,
    generate_network,
    load_edge_list,
    pair_counts_bruteforce,
    perturb_partition,
    run_info_metrics,
    run_intrinsic_metrics,
    run_matching_metrics,
    run_pair_metrics,
    run_scaling_study,
)

_T0 = time.perf_counter()

TOL_FIXTURE = 1e-6     # criteria 1 and 2
TOL_IDENTITY = 1e-12   # criterion 3
REL_PARALLEL = 1e-9    # criterion 5

# criterion 1 covers worker counts 1-3 on every backend; criteria 5/6/8
# stress the parallel backends at 2, 4 and 8 workers on the planted network
GRID_123 = [("seq", 1)] + [(b, w) for b in ("shm", "ring") for w in (1, 2, 3)]
PARALLEL_GRID = [(b, w) for b in ("shm", "ring") for w in (2, 4, 8)]
RING_WORKER_COUNTS = (2, 4, 8)


@contextmanager
def criterion(num, desc, capsys):
    def announce(state, extra=""):
        with capsys.disabled():
            print(f"criterion {num}: {state} - {desc}{extra}", flush=True)

    try:
        yield
    except pytest.skip.Exception as exc:
        announce("SKIP", f" ({exc})")
        raise
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


def _partition(groups, universe):
    return Partition([np.asarray(sorted(g), dtype=np.int64) for g in groups],
                     universe)


def _random_full_partition(rng, n, k):
    labels = rng.integers(0, k, size=n)
    _, dense = np.unique(labels, return_inverse=True)
    comms = [np.flatnonzero(dense == i) for i in range(int(dense.max()) + 1)]
    return Partition(comms, n)


# ---------------------------------------------------------------------------
# criterion 1: toy comparison fixture
# ---------------------------------------------------------------------------

T1_GROUND = _partition([{1, 2, 3}, {4, 5, 6}], 6)
T1_DETECTED = _partition([{1, 2}, {3, 4, 5, 6}], 6)
T1_PINS = {
    "vi": 0.693147,
    "nmi": 0.478704,
    "f_measure": 0.828571,
    "nvd": 0.166667,
    "rand": 0.666667,
    "adjusted_rand": 0.324324,
    "jaccard": 0.444444,
}
T1_COUNTS = (4, 2, 3, 6)


def test_criterion_1_toy_comparison_values(capsys):
    with criterion(1, "toy comparison fixture, all backends, workers 1-3", capsys):
        for backend, w in GRID_123:
            cfg = BackendConfig(backend=backend, num_workers=w)
            info, _ = run_info_metrics(T1_GROUND, T1_DETECTED, cfg)
            match, _ = run_matching_metrics(T1_GROUND, T1_DETECTED, cfg)
            pair, _ = run_pair_metrics(T1_GROUND, T1_DETECTED, cfg)
            got = {
                "vi": info.vi,
                "nmi": info.nmi,
                "f_measure": match.f_measure,
                "nvd": match.nvd,
                "rand": pair.rand,
                "adjusted_rand": pair.adjusted_rand,
                "jaccard": pair.jaccard,
            }
            assert pair.counts.as_tuple() == T1_COUNTS, (backend, w)
            for name, pin in T1_PINS.items():
                assert abs(got[name] - pin) <= TOL_FIXTURE, (backend, w, name)


# ---------------------------------------------------------------------------
# criterion 2: toy intrinsic fixture (two triangles joined by a bridge)
# ---------------------------------------------------------------------------

T2_EDGE_TEXT = "1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n3 4\n"


def test_criterion_2_toy_intrinsic_values(capsys):
    with criterion(2, "toy intrinsic fixture: Q, Qds, first community row", capsys):
        net = load_edge_list(io.StringIO(T2_EDGE_TEXT))
        part = Partition([net.to_dense([1, 2, 3]), net.to_dense([4, 5, 6])],
                         net.node_count)
        report, _ = run_intrinsic_metrics(net, part)
        assert abs(report.q - 0.357143) <= TOL_FIXTURE
        assert abs(report.qds - 0.341270) <= TOL_FIXTURE
        row = report.rows[0]
        assert row.intra_edges == 3
        assert row.inter_edges == 1
        assert abs(row.intra_density - 1.0) <= TOL_FIXTURE
        assert abs(row.contraction - 2.0) <= TOL_FIXTURE
        assert abs(row.expansion - 0.333333) <= TOL_FIXTURE
        assert abs(row.conductance - 0.142857) <= TOL_FIXTURE


# ---------------------------------------------------------------------------
# criterion 3: self-comparison identities
# ---------------------------------------------------------------------------

def test_criterion_3_self_comparison_identities(capsys):
    with criterion(3, "50 random self-comparisons hit the identity values", capsys):
        rng = np.random.default_rng(303)
        for case in range(50):
            n = int(rng.integers(2, 501))
            if case == 0:
                part = _partition([range(n)], n)               # one block
            elif case == 1:
                part = _partition([[i] for i in range(n)], n)  # singletons
            else:
                part = _random_full_partition(rng, n, int(rng.integers(1, n + 1)))
            info, _ = run_info_metrics(part, part)
            match, _ = run_matching_metrics(part, part)
            pair, _ = run_pair_metrics(part, part)
            checks = [
                ("vi", info.vi, 0.0),
                ("nvd", match.nvd, 0.0),
                ("nmi", info.nmi, 1.0),
                ("f_measure", match.f_measure, 1.0),
                ("rand", pair.rand, 1.0),
                ("adjusted_rand", pair.adjusted_rand, 1.0),
                ("jaccard", pair.jaccard, 1.0),
            ]
            for name, value, target in checks:
                assert abs(value - target) <= TOL_IDENTITY, (case, n, name, value)


# ---------------------------------------------------------------------------
# criterion 4: fast pair counts against the brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_4_pair_count_oracle_equivalence(capsys):
    with criterion(4, "fast pair counts equal brute force on 100 random instances", capsys):
        rng = np.random.default_rng(404)
        t0 = time.perf_counter()
        for case in range(100):
            n = int(rng.integers(10, 501))
            ground = _random_full_partition(rng, n, int(rng.integers(1, n + 1)))
            detected = _random_full_partition(rng, n, int(rng.integers(1, n + 1)))
            fast = run_pair_metrics(ground, detected)[0].counts
            brute = pair_counts_bruteforce(ground.node_map(), detected.node_map())
            assert fast == brute, (case, n)
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criteria 5, 6, 8 share one set of runs on a planted 100k-node network
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted():
    params = GeneratorParams(node_count=100_000, avg_degree=15.0, mixing=0.3,
                             seed=424)
    network, ground = generate_network(params)
    detected = perturb_partition(ground, 0.1, seed=97)
    return network, ground, detected


@pytest.fixture(scope="module")
def big_runs(planted):
    network, ground, detected = planted

    def one(family, config=None):
        if family == "info":
            return run_info_metrics(ground, detected, config)
        if family == "matching":
            return run_matching_metrics(ground, detected, config)
        if family == "pair":
            return run_pair_metrics(ground, detected, config)
        return run_intrinsic_metrics(network, detected, config)

    runs = {}
    for family in ("info", "matching", "pair", "intrinsic"):
        runs[(family, "seq", 1)] = one(family)
        for backend, w in PARALLEL_GRID:
            cfg = BackendConfig(backend=backend, num_workers=w)
            runs[(family, backend, w)] = one(family, cfg)
    return runs


def _metric_values(family, result):
    if family == "info":
        return {"vi": result.vi, "nmi": result.nmi}
    if family == "matching":
        return {"f_measure": result.f_measure, "nvd": result.nvd}
    if family == "pair":
        return {"rand": result.rand, "adjusted_rand": result.adjusted_rand,
                "jaccard": result.jaccard}
    return {"q": result.q, "qds": result.qds}


def test_criterion_5_parallel_matches_sequential(big_runs, capsys):
    with criterion(5, "shm/ring x {2,4,8} workers match sequential on 100k nodes", capsys):
        for family in ("info", "matching", "pair", "intrinsic"):
            ref, _ = big_runs[(family, "seq", 1)]
            ref_vals = _metric_values(family, ref)
            for backend, w in PARALLEL_GRID:
                got, _ = big_runs[(family, backend, w)]
                if family == "pair":
                    assert got.counts == ref.counts, (backend, w)
                got_vals = _metric_values(family, got)
                for name, rv in ref_vals.items():
                    assert math.isclose(got_vals[name], rv,
                                        rel_tol=REL_PARALLEL, abs_tol=1e-12), \
                        (family, backend, w, name, got_vals[name], rv)


def test_criterion_6_intrinsic_ring_moves_no_bytes(big_runs, capsys):
    with criterion(6, "intrinsic ring runs report zero message bytes", capsys):
        for w in RING_WORKER_COUNTS:
            _, timing = big_runs[("intrinsic", "ring", w)]
            assert timing.total_message_bytes == 0, w
            assert timing.total_messages == 0, w


# ---------------------------------------------------------------------------
# criterion 7: scaling shape (needs real cores)
# ---------------------------------------------------------------------------

def test_criterion_7_scaling_shape(planted, capsys):
    cores = os.cpu_count() or 1
    with criterion(7, "median times strictly decrease 1 -> 4 workers; "
                      "brute-force pair speedup at 4 workers >= 2.5", capsys):
        if cores < 4:
            pytest.skip(f"needs a machine with at least 4 CPU cores, found {cores}")

        network, ground, detected = planted
        comparison_totals = {1: 0.0, 2: 0.0, 4: 0.0}
        for family in ("info", "matching", "pair"):
            res = run_scaling_study(family, "shm", (1, 2, 4),
                                    ground=ground, detected=detected,
                                    repetitions=3)
            for row in res.rows:
                comparison_totals[row.workers] += row.total_s
        assert comparison_totals[1] > comparison_totals[2] > comparison_totals[4], \
            comparison_totals

        big = GeneratorParams(node_count=1_000_000, avg_degree=15.0,
                              mixing=0.3, seed=777)
        net6, part6 = generate_network(big)
        res = run_scaling_study("intrinsic", "shm", (1, 2, 4),
                                network=net6, ground=part6, repetitions=3)
        times = [row.total_s for row in res.rows]
        assert times[0] > times[1] > times[2], times

        small_net, small_ground = generate_network(
            GeneratorParams(node_count=20_000, seed=11))
        small_detected = perturb_partition(small_ground, 0.1, seed=5)
        res = run_scaling_study("pair", "shm", (1, 2, 4),
                                ground=small_ground, detected=small_detected,
                                repetitions=3, method="bruteforce")
        assert res.rows[-1].speedup >= 2.5, res.rows[-1]

        # whole-suite wall clock guard
        assert time.perf_counter() - _T0 < 600.0


# ---------------------------------------------------------------------------
# criterion 8: ring circulation audit
# ---------------------------------------------------------------------------

def test_criterion_8_ring_circulation_audit(big_runs, capsys):
    with criterion(8, "each ring worker receives exactly w-1 foreign shards "
                      "per circulation phase", capsys):
        phase_counts = {"info": 1, "pair": 1, "matching": 1}
        for family, phases in phase_counts.items():
            for w in RING_WORKER_COUNTS:
                _, timing = big_runs[(family, "ring", w)]
                assert len(timing.workers) == w
                for stats in timing.workers:
                    assert len(stats.receipts) == phases, \
                        (family, w, stats.worker_id, stats.receipts)
                    for phase_log in stats.receipts:
                        assert len(phase_log) == w - 1, (family, w, stats.worker_id)
                        hops = [hop for _origin, hop in phase_log]
                        origins = [origin for origin, _hop in phase_log]
                        assert hops == list(range(1, w)), (family, w, stats.worker_id)
                        expected = [(stats.worker_id - r) % w for r in range(1, w)]
                        assert origins == expected, (family, w, stats.worker_id)
        # the intrinsic family never opens a circulation at all
        for w in RING_WORKER_COUNTS:
            _, timing = big_runs[("intrinsic", "ring", w)]
            assert all(len(s.receipts) == 0 for s in timing.workers)
