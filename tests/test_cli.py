import errno
import os

import numpy as np
import pytest

from commqual.bench import GeneratorParams, generate_network, perturb_partition
from commqual import cli
from commqual.cli import main
from conftest import T1_DETECTED, T1_GROUND, T2_COMMUNITIES, T2_EDGES, fail_after


@pytest.fixture
def t1_files(tmp_path):
    gt = tmp_path / "ground.cmty"
    det = tmp_path / "detected.cmty"
    gt.write_text("\n".join(" ".join(map(str, sorted(c))) for c in T1_GROUND) + "\n")
    det.write_text("\n".join(" ".join(map(str, sorted(c))) for c in T1_DETECTED) + "\n")
    return gt, det


@pytest.fixture
def t2_files(tmp_path):
    edges = tmp_path / "net.edges"
    cmty = tmp_path / "comm.cmty"
    edges.write_text("\n".join(f"{u} {v}" for u, v in T2_EDGES) + "\n")
    cmty.write_text("\n".join(" ".join(map(str, sorted(c))) for c in T2_COMMUNITIES) + "\n")
    return edges, cmty


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = {}
    for line in out.strip().split("\n")[1:]:
        key, val = line.split(",", 1)
        rows[key] = val
    return rows


T1_TEXT_REPORT = """\
VI         0.693147
NMI        0.478704
F-measure  0.828571
NVD        0.166667
a11        4
a10        2
a01        3
a00        6
RI         0.666667
ARI        0.324324
JI         0.444444
"""

_COVERAGE_ERROR = "ERROR: pair counting requires full universe coverage"
T1_UNIVERSE_7_TEXT_REPORT = """\
VI         0.594126
NMI        0.576824
F-measure  0.710204
NVD        0.285714
""" + "".join(f"{label:<10} {_COVERAGE_ERROR}\n"
              for label in ("a11", "a10", "a01", "a00", "RI", "ARI", "JI"))

T2_QUALITY_TEXT_REPORT = """\
Q          0.357143
Qds        0.341270
edges      7
communities 2

community_id,size,intra_edges,intra_density,contraction,inter_edges,expansion,conductance
0,3,3,1.0,2.0,1,0.3333333333333333,0.14285714285714285
1,3,3,1.0,2.0,1,0.3333333333333333,0.14285714285714285
"""


def test_compare_text(capsys, t1_files):
    gt, det = t1_files
    code, out, err = run_cli(capsys, "compare", "--ground-truth", str(gt),
                             "--detected", str(det), "--universe", "6")
    assert code == 0
    assert out == T1_TEXT_REPORT
    assert "universe=6" in err
    assert "info:" in err and "pair:" in err


def test_compare_text_reports_each_pair_key_failed(capsys, t1_files):
    # universe 7 leaves node 0 uncovered: pair fails, the others still print
    gt, det = t1_files
    code, out, err = run_cli(capsys, "compare", "--ground-truth", str(gt),
                             "--detected", str(det))
    assert code == 1
    assert out == T1_UNIVERSE_7_TEXT_REPORT
    assert "pair: failed:" in err


def test_compare_csv_values(capsys, t1_files):
    gt, det = t1_files
    code, out, _ = run_cli(capsys, "compare", "--ground-truth", str(gt),
                           "--detected", str(det), "--universe", "6", "--csv")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows["vi"]) == pytest.approx(0.693147, abs=1e-6)
    assert rows["a11"] == "4" and rows["a00"] == "6"
    assert float(rows["ji"]) == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_compare_backend_workers_identical_output(capsys, t1_files):
    gt, det = t1_files
    outputs = []
    for backend, workers in [("seq", 1), ("shm", 1), ("shm", 3),
                             ("ring", 1), ("ring", 3)]:
        code, out, _ = run_cli(capsys, "compare", "--ground-truth", str(gt),
                               "--detected", str(det), "--universe", "6",
                               "--csv", "--backend", backend,
                               "--workers", str(workers))
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1  # metric output independent of backend


@pytest.mark.parametrize("backend,workers", [("seq", 1), ("shm", 2), ("ring", 2)])
def test_self_compare_prints_positive_zero_vi(capsys, t1_files, backend, workers):
    gt, _ = t1_files
    argv = ("compare", "--ground-truth", str(gt), "--detected", str(gt),
            "--universe", "6", "--backend", backend, "--workers", str(workers))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "VI         0.000000" in out.splitlines()
    code, out, _ = run_cli(capsys, *argv, "--csv")
    assert code == 0
    assert "vi,0.0" in out.splitlines()


def test_seq_banner_reports_one_worker(capsys, t1_files):
    gt, det = t1_files
    code, _, err = run_cli(capsys, "compare", "--ground-truth", str(gt),
                           "--detected", str(det), "--universe", "6",
                           "--backend", "seq", "--workers", "4")
    assert code == 0
    assert "backend=seq workers=1" in err.splitlines()[0]
    assert "workers=4" not in err


def test_csv_output_byte_identical_across_backends(capsys, tmp_path):
    # floats, not only counts, must not depend on backend or worker count
    network, ground = generate_network(GeneratorParams(node_count=2000, seed=3))
    detected = perturb_partition(ground, 0.2, seed=4)
    edges, gt, det = (tmp_path / name for name in ("net.edges", "gt.cmty", "det.cmty"))
    src = np.repeat(np.arange(network.node_count), network.degrees())
    keep = src < network.indices
    edges.write_text("".join(f"{u} {v}\n" for u, v in
                             zip(src[keep].tolist(), network.indices[keep].tolist())))
    for path, part in ((gt, ground), (det, detected)):
        path.write_text("".join(" ".join(map(str, c.tolist())) + "\n"
                                for c in part.communities))
    commands = {
        "compare": ("compare", "--ground-truth", str(gt), "--detected", str(det)),
        "quality": ("quality", "--network", str(edges), "--detected", str(det)),
    }
    grid = [("seq", 1), ("shm", 2), ("shm", 3), ("ring", 2), ("ring", 3)]
    for name, argv in commands.items():
        outputs = {}
        for backend, workers in grid:
            code, out, _ = run_cli(capsys, *argv, "--csv", "--backend", backend,
                                   "--workers", str(workers))
            assert code == 0, (name, backend, workers)
            outputs[backend, workers] = out
        for key, out in outputs.items():
            assert out == outputs["seq", 1], (name, key)


def test_compare_universe_inferred(capsys, t1_files):
    # without --universe the max id + 1 rule gives 7 here (ids are 1-based)
    gt, det = t1_files
    code, out, err = run_cli(capsys, "compare", "--ground-truth", str(gt),
                             "--detected", str(det), "--csv")
    assert code == 1  # pair family needs full coverage: 6 of 7 nodes covered
    assert "universe=7" in err
    rows = parse_csv(out)
    assert rows["ri"] == "ERROR"
    assert float(rows["vi"]) > 0  # info family still reported


def test_compare_given_universe_is_not_inferred(capsys, monkeypatch, t1_files):
    # the max-id pass over the community lists runs only without --universe
    calls = []

    def counting_max(*args, **kwargs):
        calls.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(cli, "max", counting_max, raising=False)
    gt, det = t1_files
    argv = ["compare", "--ground-truth", str(gt), "--detected", str(det)]
    code, _, err = run_cli(capsys, *argv, "--universe", "6")
    assert code == 0 and err.startswith("universe=6 ")
    assert calls == []
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and err.startswith("universe=7 ")
    assert calls


def test_compare_out_file(capsys, t1_files, tmp_path):
    gt, det = t1_files
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "compare", "--ground-truth", str(gt),
                           "--detected", str(det), "--universe", "6",
                           "--csv", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "vi," in out_path.read_text()


def test_compare_missing_file(capsys, tmp_path):
    out_path = tmp_path / "never.csv"
    code, out, err = run_cli(capsys, "compare", "--ground-truth",
                             str(tmp_path / "absent.cmty"),
                             "--detected", str(tmp_path / "absent2.cmty"),
                             "--out", str(out_path))
    assert code == 2
    assert "error:" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--ground-truth", "--out"])
def test_compare_path_below_a_file(capsys, t1_files, flag):
    # a regular file used as a directory is bad input, read or written
    gt, det = t1_files
    paths = {"--ground-truth": gt, "--detected": det, flag: gt / "x"}
    argv = [str(a) for item in paths.items() for a in item]
    code, out, err = run_cli(capsys, "compare", *argv, "--universe", "6")
    assert code == 2
    assert out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and "Not a directory" in last


@pytest.mark.parametrize("command", ["compare", "quality"])
@pytest.mark.parametrize("where", ["below a file", "a directory"])
def test_bad_out_fails_before_any_input_is_read(capsys, t1_files, t2_files,
                                               tmp_path, command, where):
    gt, det = t1_files
    edges, cmty = t2_files
    out = gt / "x" if where == "below a file" else tmp_path
    argv = {"compare": ["--ground-truth", gt, "--detected", det],
            "quality": ["--network", edges, "--detected", cmty]}[command]
    code, stdout, err = run_cli(capsys, command, *map(str, argv),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    # the error is the only stderr line: no input summary, no timing line
    line, = err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert ("Not a directory" if where == "below a file"
            else "Is a directory") in line


@pytest.mark.parametrize("command", ["bench", "generate"])
@pytest.mark.parametrize("where", ["missing directory", "below a file",
                                   "a directory"])
def test_bad_out_fails_before_generating(capsys, tmp_path, monkeypatch,
                                         command, where):
    import commqual.bench

    def never(params):
        raise AssertionError("generated a network despite a bad --out")

    monkeypatch.setattr(commqual.bench, "generate_network", never)
    (tmp_path / "file").write_text("")
    # generate writes PREFIX.edges and PREFIX.cmty; the directory case makes
    # the second of them a directory
    (tmp_path / "p.cmty").mkdir()
    out, reason = {
        "missing directory": (tmp_path / "absent" / "x", errno.ENOENT),
        "below a file": (tmp_path / "file" / "x", errno.ENOTDIR),
        "a directory": (tmp_path / ("p.cmty" if command == "bench" else "p"),
                        errno.EISDIR),
    }[where]
    code, stdout, err = run_cli(capsys, command, "--nodes", "300",
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    line, = err.splitlines()
    assert line.startswith("error: ") and os.strerror(reason) in line


@pytest.mark.parametrize("argv,message", [
    (["--workers", "2,4"], "worker_counts must be ascending, unique, starting at 1"),
    (["--reps", "0"], "repetitions must be at least 1"),
    (["--perturbation", "1.5"], "fraction must lie in [0, 1]"),
], ids=["workers", "reps", "perturbation"])
def test_bad_study_option_fails_before_generating(capsys, monkeypatch, argv,
                                                  message):
    import commqual.bench

    def never(params):
        raise AssertionError("generated a network despite a bad option")

    monkeypatch.setattr(commqual.bench, "generate_network", never)
    code, stdout, err = run_cli(capsys, "bench", "--nodes", "300", *argv)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["compare", "quality"])
@pytest.mark.parametrize("backend", ["seq", "shm", "ring"])
def test_bad_workers_fails_before_any_input_is_read(capsys, monkeypatch,
                                                    t1_files, t2_files,
                                                    command, backend):
    import commqual.cli

    def never(stream):
        raise AssertionError("read an input despite a bad --workers")

    monkeypatch.setattr(commqual.cli, "load_edge_list", never)
    monkeypatch.setattr(commqual.cli, "parse_community_lines", never)
    gt, det = t1_files
    edges, cmty = t2_files
    argv = {"compare": ["--ground-truth", gt, "--detected", det],
            "quality": ["--network", edges, "--detected", cmty]}[command]
    code, stdout, err = run_cli(capsys, command, *map(str, argv),
                                "--backend", backend, "--workers", "0")
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == ["error: num_workers must be at least 1"]


def test_quality_worker_that_cannot_start_exits_1(capsys, t2_files,
                                                  monkeypatch):
    # the second fork fails, as it would at the process limit
    error = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(os, "fork", fail_after(os.fork, 1, error))
    edges, cmty = t2_files
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty), "--backend", "shm",
                             "--workers", "2")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"error: could not start 2 workers: {error}")


@pytest.mark.parametrize("backend,workers", [("seq", 1), ("shm", 2), ("ring", 2)])
def test_compare_ranks_sparse_ids_once(capsys, tmp_path, monkeypatch, backend,
                                       workers):
    from commqual.engine import runners
    calls = []
    rank = runners.rank_labels

    def counting(*partitions):
        calls.append(len(partitions))
        return rank(*partitions)

    monkeypatch.setattr(runners, "rank_labels", counting)
    paths = []
    for name, comms in (("ground", T1_GROUND), ("detected", T1_DETECTED)):
        path = tmp_path / f"{name}.cmty"
        path.write_text("".join(" ".join(str(v * 10**10) for v in sorted(c)) + "\n"
                                for c in comms))
        paths.append(str(path))
    code, out, _ = run_cli(capsys, "compare", "--ground-truth", paths[0],
                           "--detected", paths[1], "--universe", "6",
                           "--backend", backend, "--workers", str(workers))
    assert code == 0
    assert out == T1_TEXT_REPORT
    assert calls == [2]


def test_compare_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.cmty"
    bad.write_text("1 2 x\n")
    good = tmp_path / "good.cmty"
    good.write_text("1 2\n")
    code, _, err = run_cli(capsys, "compare", "--ground-truth", str(bad),
                           "--detected", str(good))
    assert code == 2
    assert "line 1" in err


def test_compare_overlap_file(capsys, tmp_path):
    bad = tmp_path / "overlap.cmty"
    bad.write_text("1 2\n2 3\n")
    good = tmp_path / "good.cmty"
    good.write_text("1 2 3\n")
    code, _, err = run_cli(capsys, "compare", "--ground-truth", str(bad),
                           "--detected", str(good))
    assert code == 2
    assert "node 2" in err


def test_compare_universe_below_distinct_nodes(capsys, tmp_path):
    # 4 distinct sparse ids: --universe 4 is the smallest accepted value
    gt = tmp_path / "ground.cmty"
    gt.write_text("3 70\n500 9000\n")
    det = tmp_path / "detected.cmty"
    det.write_text("3 70 500\n9000\n")
    argv = ["compare", "--ground-truth", str(gt), "--detected", str(det)]
    code, _, err = run_cli(capsys, *argv, "--universe", "4")
    assert code == 0 and err.startswith("universe=4 ")
    code, out, err = run_cli(capsys, *argv, "--universe", "3")
    assert code == 2
    assert out == ""
    assert "distinct nodes exceed declared universe" in err


def test_quality_text(capsys, t2_files):
    edges, cmty = t2_files
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty))
    assert code == 0
    assert out == T2_QUALITY_TEXT_REPORT
    assert "intrinsic:" in err


def test_quality_warns_of_dropped_edges_first(capsys, t2_files, tmp_path):
    _, cmty = t2_files
    edges = tmp_path / "dropped.edges"
    edges.write_text("\n".join(f"{u} {v}" for u, v in T2_EDGES)
                     + "\n3 3\n2 1\n")
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty))
    assert code == 0
    assert out == T2_QUALITY_TEXT_REPORT
    assert err.splitlines()[:2] == ["WARNING dropped 1 self loop(s)",
                                    "WARNING dropped 1 duplicate edge(s)"]


def test_quality_self_loops_only(capsys, tmp_path):
    edges = tmp_path / "loops.edges"
    edges.write_text("1 1\n2 2\n")
    cmty = tmp_path / "comm.cmty"
    cmty.write_text("1 2\n")
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty))
    assert code == 2
    assert out == ""
    assert err == ("WARNING dropped 2 self loop(s)\n"
                   "error: network has no edges\n")


def test_quality_csv(capsys, t2_files):
    edges, cmty = t2_files
    code, out, _ = run_cli(capsys, "quality", "--network", str(edges),
                           "--detected", str(cmty), "--csv", "--backend",
                           "shm", "--workers", "2")
    assert code == 0
    assert out.startswith("metric,value\n")
    assert "q,0.35714" in out
    assert "communities,2" in out


def test_quality_unknown_node(capsys, t2_files, tmp_path):
    edges, _ = t2_files
    cmty = tmp_path / "bad.cmty"
    cmty.write_text("1 2 3\n4 5 6 99\n")
    code, _, err = run_cli(capsys, "quality", "--network", str(edges),
                           "--detected", str(cmty))
    assert code == 2
    assert "99" in err


def test_quality_unknown_node_message(capsys, t2_files, tmp_path):
    # the first unknown label of the per-line sorted members, in file order
    edges, _ = t2_files
    cmty = tmp_path / "bad.cmty"
    cmty.write_text("1 2 3\n98 4 97 4\n5 6 42\n")
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty))
    assert code == 2
    assert out == ""
    assert err == "error: node 97 not present in the network\n"


def test_quality_id_beyond_int64(capsys, tmp_path):
    edges = tmp_path / "net.edges"
    edges.write_text("1 2\n99999999999999999999 1\n")
    cmty = tmp_path / "comm.cmty"
    cmty.write_text("1 2\n")
    code, out, err = run_cli(capsys, "quality", "--network", str(edges),
                             "--detected", str(cmty))
    assert code == 2
    assert out == ""
    assert err == ("error: line 2: node id beyond int64 in "
                   "'99999999999999999999 1'\n")


def test_compare_id_beyond_int64(capsys, tmp_path):
    bad = tmp_path / "bad.cmty"
    bad.write_text("# header\n1 2\n3 99999999999999999999\n")
    good = tmp_path / "good.cmty"
    good.write_text("1 2 3\n")
    code, out, err = run_cli(capsys, "compare", "--ground-truth", str(good),
                             "--detected", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 3: node id beyond int64\n"


@pytest.mark.parametrize("big", [10**11, 2**62])
@pytest.mark.parametrize("backend,workers", [("seq", 1), ("shm", 2), ("ring", 2)])
def test_compare_sparse_large_ids(capsys, tmp_path, big, backend, workers):
    # metrics depend on set structure only, so the label values must not
    # size anything: stdout equals that of the same sets over ids 0, 1, 2
    def report(top, fmt):
        gt, det = tmp_path / f"g{top}.cmty", tmp_path / f"d{top}.cmty"
        gt.write_text(f"0 1\n{top}\n")
        det.write_text(f"0 1 {top}\n")
        return run_cli(capsys, "compare", "--ground-truth", str(gt),
                       "--detected", str(det), "--universe", "3",
                       "--backend", backend, "--workers", str(workers), *fmt)

    for fmt in ((), ("--csv",)):
        code, out, err = report(big, fmt)
        assert code == 0, err
        assert (code, out) == report(2, fmt)[:2]


def test_generate_and_roundtrip(capsys, tmp_path):
    prefix = str(tmp_path / "synth")
    code, out, _ = run_cli(capsys, "generate", "--nodes", "500",
                           "--avg-degree", "8", "--max-degree", "20",
                           "--min-community", "10", "--max-community", "25",
                           "--seed", "3", "--out", prefix)
    assert code == 0
    assert "wrote" in out
    edges = tmp_path / "synth.edges"
    cmty = tmp_path / "synth.cmty"
    assert edges.exists() and cmty.exists()

    # the generated pair scores perfectly against itself
    code, out, _ = run_cli(capsys, "compare", "--ground-truth", str(cmty),
                           "--detected", str(cmty), "--csv")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows["vi"]) == 0.0
    assert float(rows["nmi"]) == 1.0
    assert float(rows["ri"]) == 1.0

    # and quality of the planted structure runs end to end
    code, out, _ = run_cli(capsys, "quality", "--network", str(edges),
                           "--detected", str(cmty), "--csv")
    assert code == 0
    assert "q," in out


def test_generate_prints_realized_mixing(capsys, tmp_path):
    prefix = str(tmp_path / "synth")
    code, out, _ = run_cli(capsys, "generate", "--nodes", "400",
                           "--mixing", "0.4", "--seed", "5", "--out", prefix)
    assert code == 0
    printed = out.split("realized_mixing=")[1].split()[0]
    # every node is in one planted community, so the mixing is the fraction
    # of edges whose endpoints lie in different communities
    community_of = {}
    for k, line in enumerate((tmp_path / "synth.cmty").read_text().splitlines()):
        for v in line.split():
            community_of[int(v)] = k
    edges = [tuple(map(int, line.split()))
             for line in (tmp_path / "synth.edges").read_text().splitlines()]
    assert len(community_of) == 400
    crossing = sum(community_of[u] != community_of[v] for u, v in edges)
    assert printed == f"{crossing / len(edges):.3f}"


def test_generate_rejects_bad_params(capsys, tmp_path):
    code, _, err = run_cli(capsys, "generate", "--nodes", "100",
                           "--mixing", "2.0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "mixing" in err


def test_bench_csv(capsys, tmp_path):
    out_path = tmp_path / "study.csv"
    code, _, err = run_cli(capsys, "bench", "--family", "pair",
                           "--nodes", "2000", "--workers", "1,2",
                           "--reps", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("family,backend,workers")
    assert len(lines) == 3
    assert "generated" in err and "excluded" in err


def test_bench_stdout_all_families(capsys):
    code, out, _ = run_cli(capsys, "bench", "--nodes", "1500",
                           "--workers", "1,2", "--reps", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4 * 2  # header + 4 families x 2 worker counts
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {"info", "matching", "pair", "intrinsic"}


@pytest.mark.parametrize("family", ["info", "pair"])
def test_bench_pair_method_binds_the_pair_family_alone(capsys, family):
    # info never uses the pair-counting method, and the ring runs the
    # brute-force scan as every other backend does
    code, out, _ = run_cli(capsys, "bench", "--family", family, "--nodes",
                           "300", "--backend", "ring", "--pair-method",
                           "bruteforce", "--workers", "1,2", "--reps", "1")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 2


def test_bench_rejects_bad_worker_list(capsys):
    code, _, err = run_cli(capsys, "bench", "--nodes", "1500",
                           "--workers", "2,4", "--reps", "1")
    assert code == 2
    assert "worker_counts" in err


def test_bench_study_error_exits_1(capsys, monkeypatch):
    import commqual.bench

    def diverged(*args, **kwargs):
        raise commqual.bench.StudyError("values diverged from the baseline")

    monkeypatch.setattr(commqual.bench, "run_scaling_study", diverged)
    code, out, err = run_cli(capsys, "bench", "--nodes", "300",
                             "--workers", "1", "--reps", "1")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: values diverged from the baseline"


def test_generate_writes_the_per_edge_writers_bytes(capsys, tmp_path):
    # the edge file is written a slice of pairs at a time; the bytes must be
    # those of one "u v" line per canonical edge (u < v, rows in order), and
    # 20000 nodes give more edges than one slice holds
    prefix = str(tmp_path / "synth")
    code, _, _ = run_cli(capsys, "generate", "--nodes", "20000", "--seed", "7",
                         "--out", prefix)
    assert code == 0
    network, ground = generate_network(GeneratorParams(node_count=20000, seed=7))
    edges = []
    for u in range(network.node_count):
        row = network.indices[network.indptr[u]:network.indptr[u + 1]]
        edges += [f"{u} {v}\n" for v in row.tolist() if u < v]
    assert len(edges) > 1 << 16
    assert (tmp_path / "synth.edges").read_bytes() == "".join(edges).encode()
    lines = [" ".join(map(str, members.tolist())) + "\n"
             for members in ground.communities]
    assert (tmp_path / "synth.cmty").read_bytes() == "".join(lines).encode()
