"""Command line interface.

Subcommands: ``compare`` (extrinsic metrics against a ground truth),
``quality`` (intrinsic metrics of one partition on a network), ``bench``
(scaling studies on generated data), ``generate`` (write synthetic inputs).

Metric values go to stdout; progress, warnings, and timing go to stderr, so
stdout stays machine-friendly.  Exit codes: 0 success, 1 computation failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import time

import numpy as np

from .graph import Partition, load_edge_list, parse_community_lines
from .info_metrics import InfoMetrics
from .intrinsic_metrics import IntrinsicReport, community_stats
from .matching_metrics import MatchingMetrics
from .pair_metrics import PairMetrics
from .engine import BackendConfig, EngineError
from .engine.runners import (
    FAMILIES, run_info_metrics, run_intrinsic_metrics, run_matching_metrics,
    run_pair_metrics, shared_labels,
)

# text-report labels of the keys that do not print as themselves
_TEXT_LABELS = {
    "vi": "VI", "nmi": "NMI", "f_measure": "F-measure", "nvd": "NVD",
    "ri": "RI", "ari": "ARI", "ji": "JI", "q": "Q", "qds": "Qds",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="commqual",
        description="Community-quality metrics for network partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_opts(p):
        p.add_argument("--backend", choices=("seq", "shm", "ring"),
                       default="seq", help="execution backend")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker count for parallel backends")

    p = sub.add_parser("compare", help="score a detected partition against "
                                       "a ground truth")
    p.add_argument("--ground-truth", required=True, metavar="PATH")
    p.add_argument("--detected", required=True, metavar="PATH")
    p.add_argument("--universe", type=int, metavar="N",
                   help="number of nodes; default max node id + 1 across inputs")
    add_backend_opts(p)
    p.add_argument("--csv", action="store_true", help="metric,value rows")
    p.add_argument("--out", metavar="PATH", help="write the report here "
                                                 "instead of stdout")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("quality", help="intrinsic quality of one partition")
    p.add_argument("--network", required=True, metavar="PATH")
    p.add_argument("--detected", required=True, metavar="PATH",
                   help="partition to evaluate")
    add_backend_opts(p)
    p.add_argument("--csv", action="store_true",
                   help="metric,value rows then the per-community table")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("bench", help="scaling study on generated data")
    p.add_argument("--family", choices=FAMILIES + ("all",), default="all")
    p.add_argument("--backend", choices=("shm", "ring"), default="shm")
    p.add_argument("--workers", default="1,2,4", metavar="LIST",
                   help="comma-separated ascending counts starting at 1")
    p.add_argument("--nodes", type=int, default=20000)
    p.add_argument("--avg-degree", type=float, default=15.0)
    p.add_argument("--max-degree", type=int, default=50)
    p.add_argument("--mixing", type=float, default=0.3)
    p.add_argument("--perturbation", type=float, default=0.1,
                   help="fraction of nodes moved to build the detected partition")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-method", choices=("fast", "bruteforce"),
                   default="fast")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", help="write a synthetic network + ground truth")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--avg-degree", type=float, default=15.0)
    p.add_argument("--max-degree", type=int, default=50)
    p.add_argument("--mixing", type=float, default=0.3)
    p.add_argument("--min-community", type=int, default=20)
    p.add_argument("--max-community", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.edges and PREFIX.cmty")
    p.set_defaults(func=cmd_generate)

    return parser


def _check_out(path):
    """Raise the error that writing ``path`` would, as far as that is known
    without creating it: a missing or non-directory parent, or a directory
    at the path.  Called before any input is read, so a bad ``--out`` costs
    no computation."""
    if path is None:
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        os.stat(os.path.dirname(path) or ".")  # the directory must exist
        return
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _emit(lines, args):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(exc, code):
    print(f"error: {exc}", file=sys.stderr)
    return code


def _read_partition_lists(path):
    with open(path, "rb") as fh:
        return parse_community_lines(fh)


def _timing_line(name, timing):
    return (f"{name}: workers={timing.num_workers} total={timing.total_s:.6f}s "
            f"compute={timing.compute_s:.6f}s message={timing.message_s:.6f}s "
            f"bytes={timing.total_message_bytes}")


def _metric_lines(values, csv):
    """Report lines of ``(key, value)`` pairs; an exception value is the
    error its family failed with.  Text floats print to six places."""
    lines = ["metric,value"] if csv else []
    for key, value in values:
        failed = isinstance(value, Exception)
        if csv:
            lines.append(f"{key},{'ERROR' if failed else repr(value)}")
            continue
        if failed:
            value = f"ERROR: {value}"
        elif isinstance(value, float):
            value = f"{value:.6f}"
        lines.append(f"{_TEXT_LABELS.get(key, key):<10} {value}")
    return lines


def cmd_compare(args):
    _check_out(args.out)
    config = BackendConfig(backend=args.backend, num_workers=args.workers)
    ground_lists = _read_partition_lists(args.ground_truth)
    detected_lists = _read_partition_lists(args.detected)
    universe = args.universe
    if universe is None:
        universe = max(max(c) for c in ground_lists + detected_lists) + 1
    # one label space for the three families, ranked once
    ground, detected = shared_labels(Partition(ground_lists, universe),
                                     Partition(detected_lists, universe))

    print(f"universe={universe} ground={len(ground)} detected={len(detected)} "
          f"backend={config.backend} workers={config.num_workers}",
          file=sys.stderr)

    families = (("info", run_info_metrics, InfoMetrics),
                ("matching", run_matching_metrics, MatchingMetrics),
                ("pair", run_pair_metrics, PairMetrics))
    values = []
    failed = False
    for name, runner, result_type in families:
        try:
            result, timing = runner(ground, detected, config)
        except (ValueError, EngineError) as exc:
            failed = True
            print(f"{name}: failed: {exc}", file=sys.stderr)
            values += [(key, exc) for key in result_type.KEYS]
            continue
        print(_timing_line(name, timing), file=sys.stderr)
        values += zip(result_type.KEYS, result.values())
    _emit(_metric_lines(values, args.csv), args)
    return 1 if failed else 0


_ROW_FIELDS = ("community_id", "size", "intra_edges", "intra_density",
               "contraction", "inter_edges", "expansion", "conductance")


def cmd_quality(args):
    _check_out(args.out)
    config = BackendConfig(backend=args.backend, num_workers=args.workers)
    with open(args.network, "rb") as fh:
        net = load_edge_list(fh)
    if net.self_loops_dropped:
        print(f"WARNING dropped {net.self_loops_dropped} self loop(s)",
              file=sys.stderr)
    if net.duplicates_dropped:
        print(f"WARNING dropped {net.duplicates_dropped} duplicate edge(s)",
              file=sys.stderr)
    lists = _read_partition_lists(args.detected)
    # Partition sorts each community and drops a repeated node
    dense = [net.to_dense(c) for c in lists]
    partition = Partition(dense, net.node_count)

    report, timing = run_intrinsic_metrics(net, partition, config)
    print(_timing_line("intrinsic", timing), file=sys.stderr)

    lines = _metric_lines(zip(IntrinsicReport.KEYS, report.values()), args.csv)
    lines += ["", ",".join(_ROW_FIELDS)]
    lines += [",".join(repr(getattr(r, f)) for f in _ROW_FIELDS)
              for r in report.rows]
    _emit(lines, args)
    return 0


def cmd_bench(args):
    from .bench import (
        GeneratorParams, ScalingResult, StudyError, check_fraction,
        check_study_options, generate_network, perturb_partition,
        run_scaling_study,
    )

    _check_out(args.out)
    counts = check_study_options(
        [int(tok) for tok in args.workers.split(",") if tok.strip()], args.reps)
    check_fraction(args.perturbation)
    families = FAMILIES if args.family == "all" else (args.family,)
    params = GeneratorParams(
        node_count=args.nodes, avg_degree=args.avg_degree,
        max_degree=args.max_degree, mixing=args.mixing, seed=args.seed)

    t0 = time.perf_counter()
    network, ground = generate_network(params)
    detected = perturb_partition(ground, args.perturbation, seed=args.seed + 1)
    prep_s = time.perf_counter() - t0
    print(f"generated n={args.nodes} edges={network.edge_count} "
          f"communities={len(ground)} in {prep_s:.2f}s (excluded from timings)",
          file=sys.stderr)

    merged = ScalingResult()
    for family in families:
        print(f"running {family}/{args.backend} at workers {counts}",
              file=sys.stderr)
        try:
            result = run_scaling_study(
                family, args.backend, counts,
                ground=ground, detected=detected, network=network,
                repetitions=args.reps, method=args.pair_method)
        except StudyError as exc:
            return _error(exc, 1)
        merged.extend(result)
    if args.out:
        merged.to_csv(args.out)
    else:
        merged.to_csv(sys.stdout)
    return 0


_WRITE_PAIRS = 1 << 16  # edges per formatted write of ``cmd_generate``


def cmd_generate(args):
    from .bench import GeneratorParams, generate_network

    edges_path = args.out + ".edges"
    cmty_path = args.out + ".cmty"
    _check_out(edges_path)
    _check_out(cmty_path)
    params = GeneratorParams(
        node_count=args.nodes, avg_degree=args.avg_degree,
        max_degree=args.max_degree, mixing=args.mixing,
        community_size_range=(args.min_community, args.max_community),
        seed=args.seed)
    network, ground = generate_network(params)

    with open(edges_path, "w") as fh:
        # one "u v" line per edge key u * n + v (u < v), in key order; one
        # formatted write per slice of keys bounds the ints and text held
        # at once
        for start in range(0, network.edge_count, _WRITE_PAIRS):
            pairs = np.divmod(network.edge_keys[start:start + _WRITE_PAIRS],
                              network.node_count)
            fh.write(("%d %d\n" * pairs[0].size)
                     % tuple(np.column_stack(pairs).ravel().tolist()))
    members, bounds = ground.members.tolist(), ground.offsets.tolist()
    with open(cmty_path, "w") as fh:
        for start, end in zip(bounds, bounds[1:]):
            fh.write(" ".join(map(str, members[start:end])) + "\n")

    out_ends = int(community_stats(network, ground).out_edges.sum())
    mixing = out_ends / (2.0 * network.edge_count)
    mean_degree = 2.0 * network.edge_count / network.node_count
    print(f"wrote {edges_path} ({network.edge_count} edges) and "
          f"{cmty_path} ({len(ground)} communities)")
    print(f"nodes={network.node_count} mean_degree={mean_degree:.2f} "
          f"realized_mixing={mixing:.3f}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError covers ParseError and OverlapError; a worker that cannot be
    # started raises EngineError, so a failed fork is not bad input
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        return _error(exc, 2)
    except EngineError as exc:
        return _error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
