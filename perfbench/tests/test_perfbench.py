"""The benchmark's own checks, on small generated instances.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from commqual import cli
from commqual.bench import GeneratorParams, generate_network, perturb_partition
from commqual.engine import BackendConfig, runners
from reference import (
    check_compare, check_quality, check_result, compare_expected, diff_fields,
    labels_of, quality_expected,
)
from tracer import SpanSummary
from workloads import Prepared, Workload, prepare

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL = dict(node_count=400, avg_degree=6.0, max_degree=12, mixing=0.3,
             community_size_range=[10, 20])


@pytest.fixture(scope="module")
def instance():
    params = dict(SMALL, community_size_range=(10, 20))
    network, ground = generate_network(GeneratorParams(seed=3, **params))
    detected = perturb_partition(ground, 0.2, seed=4)
    return network, ground, detected


def _sets(partition):
    return [set(c.tolist()) for c in partition.communities]


def test_compare_reference_matches_oracles(instance):
    network, ground, detected = instance
    n = network.node_count
    got, cells = compare_expected(labels_of(ground.communities, n),
                                  labels_of(detected.communities, n))
    g, d = _sets(ground), _sets(detected)
    assert cells == len(oracles.overlap_table(g, d))
    assert (got["a11"], got["a10"], got["a01"], got["a00"]) == \
        oracles.pair_counts_reference(g, d)
    for key, want in (("vi", oracles.vi_reference(g, d, n)),
                      ("nmi", oracles.nmi_reference(g, d, n)),
                      ("f_measure", oracles.f_measure_reference(g, d, n)),
                      ("nvd", oracles.nvd_reference(g, d, n)),
                      ("ri", oracles.rand_reference(g, d, n)),
                      ("ari", oracles.ari_reference(g, d, n)),
                      ("ji", oracles.jaccard_reference(g, d))):
        assert got[key] == pytest.approx(want, rel=1e-12), key


def test_quality_reference_matches_oracles(instance):
    network, _, detected = instance
    got, cells = quality_expected(network.indptr, network.indices,
                                  labels_of(detected.communities, network.node_count))
    src = np.repeat(np.arange(network.node_count), network.degrees())
    keep = src < network.indices
    edges = list(zip(src[keep].tolist(), network.indices[keep].tolist()))
    comms = _sets(detected)
    assert got["q"] == pytest.approx(oracles.modularity_reference(edges, comms), rel=1e-12)
    assert got["qds"] == pytest.approx(
        oracles.modularity_density_reference(edges, comms), rel=1e-12)
    stats = oracles.graph_stats_reference(edges, comms)
    rows = got["rows"]
    for k, (size, inn, out, nbrs) in stats.items():
        assert (rows["size"][k], rows["intra_edges"][k], rows["inter_edges"][k]) == \
            (size, inn, out)
    assert cells == sum(len(nbrs) for *_, nbrs in stats.values())


def _cli(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("snap", [False, True])
def test_checks_accept_cli_reports_and_catch_a_changed_digit(tmp_path, capsys, snap):
    prepare(Workload("small", SMALL, 0.2, snap), 5, str(tmp_path))
    prep = Prepared(str(tmp_path))
    if snap:
        with open(prep.paths["network"]) as fh:
            assert fh.readline().startswith("#")
            assert fh.readline().startswith("#")
        assert prep.compare_argv("seq", 1)[5:7] == ["--universe", "400"]
    reports = {}
    for backend, workers in (("seq", 1), ("ring", 2)):
        compare = _cli(prep.compare_argv(backend, workers), capsys)
        quality = _cli(prep.quality_argv(backend, workers), capsys)
        assert check_compare(compare, prep.compare_want) == []
        assert check_quality(quality, prep.quality_want) == []
        reports[backend] = compare, quality
    assert diff_fields(reports["seq"][0], reports["seq"][0]) == 0

    compare, quality = reports["seq"]
    vi_line = next(line for line in compare.splitlines() if line.startswith("vi,"))
    bad = compare.replace(vi_line, vi_line[:6] + str((int(vi_line[6]) + 1) % 10) + vi_line[7:])
    assert check_compare(bad, prep.compare_want)[0].startswith("vi:")
    assert diff_fields(bad, compare) == 1
    lines = quality.splitlines()
    fields = lines[-1].split(",")
    fields[2] = str(int(fields[2]) + 1)  # intra_edges of the last community
    bad = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert check_quality(bad, prep.quality_want)[0].startswith("intra_edges")


def test_traced_cli_spans(tmp_path):
    prepare(Workload("small", SMALL, 0.2, True), 6, str(tmp_path))
    prep = Prepared(str(tmp_path))
    spans_path = str(tmp_path / "spans.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), spans_path]
        + prep.quality_argv("shm", 2),
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert check_quality(proc.stdout, prep.quality_want) == []
    with open(spans_path) as fh:
        summary = SpanSummary(json.load(fh)["spans"])
    assert summary.calls("graph.to_dense") == prep.record["detected_communities"]
    assert 0.0 <= summary.self_s <= summary.main_s
    _, load = summary.first("graph.load_edge_list")
    assert load["duplicates_dropped"] == prep.record["edges"]
    assert load["edge_lines"] == 2 * prep.record["edges"]
    _, engine = summary.first("engine.intrinsic")
    assert len(engine["worker_compute_s"]) == 2


def test_check_result_on_direct_calls(tmp_path):
    prepare(Workload("small", SMALL, 0.2, True), 7, str(tmp_path))
    prep = Prepared(str(tmp_path))
    network, ground, detected, dense = prep.library_inputs()
    for family in ("info", "matching", "pair", "intrinsic"):
        args = (network, dense) if family == "intrinsic" else (ground, detected)
        result, _ = getattr(runners, f"run_{family}_metrics")(
            *args, BackendConfig("shm", 1))
        assert check_result(family, result, prep.compare_want, prep.quality_want) == []
    result.rows[0].intra_edges += 1
    problems = check_result("intrinsic", result, prep.compare_want, prep.quality_want)
    assert problems[0].startswith("intra_edges row 0")


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_timeout_kills_the_process_group(tmp_path):
    from invoke import run

    code = ("import subprocess, sys, time\n"
            "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            "print(p.pid, flush=True)\n"
            "time.sleep(60)\n")
    inv = run([sys.executable, "-c", code], dict(os.environ), 1.0,
              str(tmp_path / "out"), str(tmp_path / "err"))
    assert inv.exit_code is None and not inv.ok
    assert inv.wall_s < 20.0
    assert _gone_or_zombie(int(inv.stdout.split()[0]))
