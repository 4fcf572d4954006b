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
import logging
import sys
import time

import numpy as np

from .graph import (
    OverlapError, ParseError, Partition, load_edge_list, parse_community_lines,
)
from .intrinsic_metrics import community_stats
from .engine import BackendConfig, EngineError
from .engine.runners import (
    run_info_metrics, run_intrinsic_metrics, run_matching_metrics,
    run_pair_metrics,
)
from .bench import (
    FAMILIES, GeneratorParams, ScalingResult, StudyError, generate_network,
    perturb_partition, run_scaling_study,
)

_TEXT_LABELS = {
    "vi": "VI", "nmi": "NMI", "f_measure": "F-measure", "nvd": "NVD",
    "ri": "RI", "ari": "ARI", "ji": "JI",
    "a11": "a11", "a10": "a10", "a01": "a01", "a00": "a00",
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


def _emit(lines, args):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_partition_lists(path):
    with open(path, "rb") as fh:
        return parse_community_lines(fh)


def _fmt(value):
    return f"{value:.6f}"


def _timing_line(name, timing):
    return (f"{name}: workers={timing.num_workers} total={timing.total_s:.6f}s "
            f"compute={timing.compute_s:.6f}s message={timing.message_s:.6f}s "
            f"bytes={timing.total_message_bytes}")


def cmd_compare(args):
    ground_lists = _read_partition_lists(args.ground_truth)
    detected_lists = _read_partition_lists(args.detected)
    max_id = max(max(c) for c in ground_lists + detected_lists)
    universe = args.universe if args.universe is not None else max_id + 1
    ground = Partition(ground_lists, universe)
    detected = Partition(detected_lists, universe)
    config = BackendConfig(backend=args.backend, num_workers=args.workers)

    print(f"universe={universe} ground={len(ground)} detected={len(detected)} "
          f"backend={config.backend} workers={config.num_workers}",
          file=sys.stderr)

    values = []  # (key, value-or-None, error-or-None)
    failed = False

    def run_family(name, fn, keys):
        nonlocal failed
        try:
            result, timing = fn()
            print(_timing_line(name, timing), file=sys.stderr)
            return result
        except (ValueError, EngineError) as exc:
            failed = True
            print(f"{name}: failed: {exc}", file=sys.stderr)
            for key in keys:
                values.append((key, None, str(exc)))
            return None

    res = run_family("info", lambda: run_info_metrics(ground, detected, config),
                     ("vi", "nmi"))
    if res:
        values.append(("vi", res.vi, None))
        values.append(("nmi", res.nmi, None))

    res = run_family("matching",
                     lambda: run_matching_metrics(ground, detected, config),
                     ("f_measure", "nvd"))
    if res:
        values.append(("f_measure", res.f_measure, None))
        values.append(("nvd", res.nvd, None))

    res = run_family("pair", lambda: run_pair_metrics(ground, detected, config),
                     ("a11", "a10", "a01", "a00", "ri", "ari", "ji"))
    if res:
        for key, val in zip(("a11", "a10", "a01", "a00"), res.counts.as_tuple()):
            values.append((key, val, None))
        values.append(("ri", res.rand, None))
        values.append(("ari", res.adjusted_rand, None))
        values.append(("ji", res.jaccard, None))

    lines = []
    if args.csv:
        lines.append("metric,value")
        for key, val, err in values:
            lines.append(f"{key},ERROR" if err else f"{key},{val!r}")
    else:
        for key, val, err in values:
            label = _TEXT_LABELS[key]
            if err:
                lines.append(f"{label:<10} ERROR: {err}")
            elif isinstance(val, int):
                lines.append(f"{label:<10} {val}")
            else:
                lines.append(f"{label:<10} {_fmt(val)}")
    _emit(lines, args)
    return 1 if failed else 0


_ROW_FIELDS = ("community_id", "size", "intra_edges", "intra_density",
               "contraction", "inter_edges", "expansion", "conductance")


def cmd_quality(args):
    with open(args.network, "rb") as fh:
        net = load_edge_list(fh)
    lists = _read_partition_lists(args.detected)
    dense = [net.to_dense(sorted(set(c))) for c in lists]
    partition = Partition(dense, net.node_count)
    config = BackendConfig(backend=args.backend, num_workers=args.workers)

    report, timing = run_intrinsic_metrics(net, partition, config)
    print(_timing_line("intrinsic", timing), file=sys.stderr)

    lines = []
    if args.csv:
        lines.append("metric,value")
        lines.append(f"q,{report.q!r}")
        lines.append(f"qds,{report.qds!r}")
        lines.append(f"edges,{report.total_edges}")
        lines.append(f"communities,{report.community_count}")
        lines.append("")
    else:
        lines.append(f"Q          {_fmt(report.q)}")
        lines.append(f"Qds        {_fmt(report.qds)}")
        lines.append(f"edges      {report.total_edges}")
        lines.append(f"communities {report.community_count}")
        lines.append("")
    lines.append(",".join(_ROW_FIELDS))
    for r in report.rows:
        lines.append(",".join([
            str(r.community_id), str(r.size), str(r.intra_edges),
            repr(r.intra_density), repr(r.contraction), str(r.inter_edges),
            repr(r.expansion), repr(r.conductance),
        ]))
    _emit(lines, args)
    return 0


def cmd_bench(args):
    counts = [int(tok) for tok in args.workers.split(",") if tok.strip()]
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

    families = FAMILIES if args.family == "all" else (args.family,)
    merged = ScalingResult()
    for family in families:
        print(f"running {family}/{args.backend} at workers {counts}",
              file=sys.stderr)
        result = run_scaling_study(
            family, args.backend, counts,
            ground=ground, detected=detected, network=network,
            repetitions=args.reps, method=args.pair_method)
        merged.extend(result)
    if args.out:
        merged.to_csv(args.out)
    else:
        merged.to_csv(sys.stdout)
    return 0


def cmd_generate(args):
    params = GeneratorParams(
        node_count=args.nodes, avg_degree=args.avg_degree,
        max_degree=args.max_degree, mixing=args.mixing,
        community_size_range=(args.min_community, args.max_community),
        seed=args.seed)
    network, ground = generate_network(params)

    edges_path = args.out + ".edges"
    cmty_path = args.out + ".cmty"
    src = np.repeat(np.arange(network.node_count), network.degrees())
    mask = src < network.indices
    with open(edges_path, "w") as fh:
        for u, v in zip(src[mask].tolist(), network.indices[mask].tolist()):
            fh.write(f"{u} {v}\n")
    with open(cmty_path, "w") as fh:
        for members in ground.communities:
            fh.write(" ".join(map(str, members.tolist())) + "\n")

    out_ends = int(community_stats(network, ground).out_edges.sum())
    mixing = out_ends / (2.0 * network.edge_count)
    mean_degree = 2.0 * network.edge_count / network.node_count
    print(f"wrote {edges_path} ({network.edge_count} edges) and "
          f"{cmty_path} ({len(ground)} communities)")
    print(f"nodes={network.node_count} mean_degree={mean_degree:.2f} "
          f"realized_mixing={mixing:.3f}")
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OverlapError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, StudyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
