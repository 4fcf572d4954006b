import io
import math

import numpy as np
import pytest

import commqual.bench as bench
from commqual.bench import (
    CSV_HEADER, GeneratorParams, ScalingResult, StudyError, StudyRow,
    generate_network, perturb_partition, run_scaling_study, speedup_efficiency,
)
from commqual.intrinsic_metrics import community_stats
from oracles import network_reference


def small_params(**kw):
    defaults = dict(node_count=3000, seed=5)
    defaults.update(kw)
    return GeneratorParams(**defaults)


def edge_key(net):
    src = np.repeat(np.arange(net.node_count), net.degrees())
    mask = src < net.indices
    return list(zip(src[mask].tolist(), net.indices[mask].tolist()))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_deterministic():
    n1, p1 = generate_network(small_params())
    n2, p2 = generate_network(small_params())
    assert edge_key(n1) == edge_key(n2)
    assert p1 == p2
    n3, _ = generate_network(small_params(seed=6))
    assert edge_key(n1) != edge_key(n3)


def test_generator_structure():
    net, ground = generate_network(small_params())
    # the reference CSR of the canonical pairs: a self loop, a repeated or an
    # unmirrored entry would differ, and a self loop per node keeps its
    # labels at 0..n-1
    loops = [(x, x) for x in range(net.node_count)]
    ref = network_reference(edge_key(net) + loops)
    assert net.indptr.tolist() == ref["indptr"]
    assert net.indices.tolist() == ref["indices"]
    assert net.edge_count == ref["edge_count"]
    assert ground.covered_count == ground.universe_size
    assert ground.universe_size == net.node_count == 3000
    lo, hi = 20, 50
    sizes = ground.sizes
    assert sizes.min() >= lo
    assert sizes.max() <= hi + lo  # one merged tail community is allowed
    # communities are contiguous id blocks
    for c in ground.communities:
        assert c[-1] - c[0] + 1 == c.size


def test_generator_degree_and_mixing():
    params = GeneratorParams(node_count=10000, seed=11)
    net, ground = generate_network(params)
    mean_degree = 2.0 * net.edge_count / net.node_count
    assert mean_degree == pytest.approx(15.0, rel=0.05)
    stats = community_stats(net, ground)
    per_comm = [s.out_edges / (2 * s.in_edges + s.out_edges) for s in stats]
    assert float(np.mean(per_comm)) == pytest.approx(0.3, abs=0.05)
    degrees = net.degrees()
    assert degrees.max() <= 50


def test_generator_mixing_extremes():
    net, ground = generate_network(
        small_params(mixing=0.0, community_size_range=(30, 50), seed=2))
    stats = community_stats(net, ground)
    assert sum(s.out_edges for s in stats) == 0
    net, ground = generate_network(
        small_params(mixing=1.0, community_size_range=(20, 50), seed=3))
    stats = community_stats(net, ground)
    assert sum(s.in_edges for s in stats) == 0


@pytest.mark.parametrize("kw,fragment", [
    (dict(node_count=1), "node_count"),
    (dict(mixing=1.5), "mixing"),
    (dict(avg_degree=30.0, max_degree=20), "max_degree"),
    (dict(max_degree=5000), "below node_count"),
    (dict(community_size_range=(1, 5)), "community_size_range"),
    (dict(community_size_range=(5, 8), mixing=0.0), "internal degree"),
])
def test_generator_param_validation(kw, fragment):
    with pytest.raises(ValueError, match=fragment):
        generate_network(small_params(**kw))


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_perturb_zero_is_identity():
    _, ground = generate_network(small_params())
    assert perturb_partition(ground, 0.0) == ground


def test_perturb_moves_expected_fraction():
    _, ground = generate_network(small_params())
    moved = perturb_partition(ground, 0.2, seed=9)
    a = ground.node_map().comm_of
    b = moved.node_map().comm_of
    frac = np.count_nonzero(a != b) / a.size
    assert frac == pytest.approx(0.2, abs=0.02)
    assert len(moved) == len(ground)
    assert moved.covered_count == moved.universe_size
    assert moved.sizes.min() >= 1
    # deterministic
    again = perturb_partition(ground, 0.2, seed=9)
    assert again == moved


def test_perturb_validates_fraction():
    _, ground = generate_network(small_params())
    with pytest.raises(ValueError):
        perturb_partition(ground, 1.5)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def test_speedup_efficiency():
    s, e = speedup_efficiency(8.0, 2.0, 4)
    assert s == 4.0 and e == 1.0
    with pytest.raises(ValueError):
        speedup_efficiency(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        speedup_efficiency(1.0, 1.0, 0)


@pytest.fixture(scope="module")
def study_inputs():
    net, ground = generate_network(GeneratorParams(node_count=2000, seed=13))
    detected = perturb_partition(ground, 0.1, seed=14)
    return net, ground, detected


@pytest.mark.parametrize("family", ["info", "matching", "pair", "intrinsic"])
def test_study_rows_well_formed(study_inputs, family):
    net, ground, detected = study_inputs
    result = run_scaling_study(
        family, "shm", [1, 2], ground=ground, detected=detected,
        network=net, repetitions=1)
    assert [r.workers for r in result.rows] == [1, 2]
    base = result.rows[0]
    assert base.speedup == 1.0 and base.efficiency == 1.0
    for r in result.rows:
        assert r.family == family and r.backend == "shm"
        assert r.total_s > 0
        # stored speedup columns reproduce exactly from stored timings
        assert r.speedup == base.total_s / r.total_s
        assert r.efficiency == r.speedup / r.workers


def test_study_ring_backend(study_inputs):
    net, ground, detected = study_inputs
    result = run_scaling_study("info", "ring", [1, 2], ground=ground,
                               detected=detected, repetitions=1)
    assert len(result.rows) == 2
    assert result.rows[1].backend == "ring"


def test_study_csv_roundtrip(study_inputs):
    net, ground, detected = study_inputs
    result = run_scaling_study("pair", "shm", [1, 2], ground=ground,
                               detected=detected, repetitions=1)
    buf = io.StringIO()
    result.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "pair" and fields[1] == "shm" and fields[2] == "1"
    assert float(fields[3]) == result.rows[0].total_s  # lossless floats


def test_study_input_validation(study_inputs):
    net, ground, detected = study_inputs
    with pytest.raises(ValueError, match="family"):
        run_scaling_study("nope", "shm", [1], ground=ground, detected=detected)
    with pytest.raises(ValueError, match="backend"):
        run_scaling_study("info", "seq", [1], ground=ground, detected=detected)
    with pytest.raises(ValueError, match="worker_counts"):
        run_scaling_study("info", "shm", [2, 4], ground=ground, detected=detected)
    with pytest.raises(ValueError, match="worker_counts"):
        run_scaling_study("info", "shm", [1, 1, 2], ground=ground, detected=detected)
    with pytest.raises(ValueError, match="needs"):
        run_scaling_study("intrinsic", "shm", [1], ground=ground)
    with pytest.raises(ValueError, match="needs"):
        run_scaling_study("info", "shm", [1], ground=ground)


def test_study_aborts_on_divergence(study_inputs, monkeypatch):
    net, ground, detected = study_inputs
    calls = {"n": 0}
    real = bench._run_family

    def drifting(family, backend, workers, inputs, method):
        values, timing = real(family, backend, workers, inputs, method)
        calls["n"] += 1
        if calls["n"] > 1:
            values = tuple(v + 1e-3 for v in values)
        return values, timing

    monkeypatch.setattr(bench, "_run_family", drifting)
    with pytest.raises(StudyError, match="baseline"):
        run_scaling_study("info", "shm", [1, 2], ground=ground,
                          detected=detected, repetitions=1)


def test_study_compares_counts_exactly(study_inputs, monkeypatch):
    # 10**12 and 10**12 + 1 are equal under the float tolerance; as pair
    # counts they must still abort the study
    net, ground, detected = study_inputs
    calls = {"n": 0}
    real = bench._run_family

    def off_by_one(family, backend, workers, inputs, method):
        values, timing = real(family, backend, workers, inputs, method)
        values = (10**12 + calls["n"],) + values[1:]
        calls["n"] += 1
        return values, timing

    monkeypatch.setattr(bench, "_run_family", off_by_one)
    with pytest.raises(StudyError, match="baseline"):
        run_scaling_study("pair", "shm", [1, 2], ground=ground,
                          detected=detected, repetitions=1)


def test_study_compares_floats_exactly(study_inputs, monkeypatch):
    # every backend and worker count gives the same floats bit for bit, so a
    # one-ulp drift aborts the study too
    net, ground, detected = study_inputs
    calls = {"n": 0}
    real = bench._run_family

    def one_ulp(family, backend, workers, inputs, method):
        values, timing = real(family, backend, workers, inputs, method)
        calls["n"] += 1
        if calls["n"] > 1:
            values = (math.nextafter(values[0], math.inf),) + values[1:]
        return values, timing

    monkeypatch.setattr(bench, "_run_family", one_ulp)
    with pytest.raises(StudyError, match="baseline"):
        run_scaling_study("info", "shm", [1, 2], ground=ground,
                          detected=detected, repetitions=1)


def test_scaling_result_extend():
    a = ScalingResult([StudyRow("info", "shm", 1, 1.0, 1.0, 0.0, 1.0, 1.0)])
    b = ScalingResult([StudyRow("pair", "shm", 1, 1.0, 1.0, 0.0, 1.0, 1.0)])
    a.extend(b)
    assert [r.family for r in a.rows] == ["info", "pair"]
