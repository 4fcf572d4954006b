"""Seeded benchmark inputs: generation, file writing, expected values.

Both workloads plant 25k-node partitions with ``commqual.bench`` (the
generator sits outside every timed metric) and write them as the files the
CLI reads.  The same seed always gives the same files.

Preparation runs in its own process (``python3 workloads.py WORKLOAD SEED
DIR [NODES]``) so the benchmark process stays small: a child's
``ru_maxrss`` starts from the high-water mark of the process that spawned
it.  ``NODES`` scales the workload to another node count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict  # GeneratorParams fields other than the seed
    perturbation: float
    snap: bool  # SNAP-style files: '#' headers, tabs, both orientations, labels 3i+1


WORKLOADS = {
    w.name: w for w in (
        # many small communities: per-community Python loops dominate
        Workload("fine-25k",
                 dict(node_count=25000, avg_degree=15.0, max_degree=50,
                      mixing=0.3, community_size_range=[20, 50]),
                 0.10, False),
        # few large communities, a dense contingency, and SNAP-style files
        # that drive comments, duplicate edges and label compaction
        Workload("coarse-snap-25k",
                 dict(node_count=25000, avg_degree=15.0, max_degree=50,
                      mixing=0.5, community_size_range=[200, 400]),
                 0.30, True),
    )
}

ROLES = (("network", ".edges"), ("ground", ".cmty"), ("detected", ".cmty"))


def snap_label(dense_ids):
    """Sparse 1-based label of a dense node id in the SNAP-style files."""
    return 3 * dense_ids + 1


def _write_lines(path, header, body_lines):
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write("\n".join(body_lines))
        fh.write("\n")
    return {"bytes": os.path.getsize(path), "lines": len(header) + len(body_lines)}


def _edge_lines(network, snap):
    src = np.repeat(np.arange(network.node_count, dtype=np.int64), network.degrees())
    dst = network.indices
    if snap:
        # every undirected edge in both orientations, rows in source order
        return list(map("{}\t{}".format, snap_label(src).tolist(),
                        snap_label(dst).tolist()))
    keep = src < dst
    return list(map("{} {}".format, src[keep].tolist(), dst[keep].tolist()))


def _community_lines(partition, snap):
    if snap:
        return ["\t".join(map(str, snap_label(c).tolist()))
                for c in partition.communities]
    return [" ".join(map(str, c.tolist())) for c in partition.communities]


def scaled(workload, node_count):
    """The same workload with another node count."""
    return replace(workload, params=dict(workload.params, node_count=node_count))


def prepare(workload, seed, workdir):
    """Generate the workload for ``seed``, write its three files, and save
    the expected report values and the input record next to them."""
    from commqual.bench import GeneratorParams, generate_network, perturb_partition
    from reference import compare_expected, labels_of, quality_expected

    t0 = time.perf_counter()
    params = GeneratorParams(seed=seed, **dict(
        workload.params, community_size_range=tuple(workload.params["community_size_range"])))
    network, ground = generate_network(params)
    detected = perturb_partition(ground, workload.perturbation, seed=seed + 1)
    generate_s = time.perf_counter() - t0
    if np.any(network.degrees() == 0):
        # an isolated node would be missing from the edge file and make
        # quality exit 2; the workload promises no failing operation
        raise RuntimeError(f"{workload.name} seed {seed}: generated an isolated node")

    snap = workload.snap
    n, m = network.node_count, network.edge_count
    paths = {role: os.path.join(workdir, role + ext) for role, ext in ROLES}
    files = {"network": _write_lines(
        paths["network"],
        ["# Undirected planted-partition graph", f"# Nodes: {n} Edges: {m}",
         "# FromNodeId\tToNodeId"] if snap else [],
        _edge_lines(network, snap))}
    for role, part in (("ground", ground), ("detected", detected)):
        files[role] = _write_lines(
            paths[role], [f"# {role} communities: {len(part)}"] if snap else [],
            _community_lines(part, snap))

    g_of = labels_of(ground.communities, n)
    d_of = labels_of(detected.communities, n)
    compare_want, cells = compare_expected(g_of, d_of)
    quality_want, neighbor_cells = quality_expected(network.indptr, network.indices, d_of)
    rows = quality_want.pop("rows")
    record = {
        "workload": workload.name,
        "generator": dict(workload.params, seed=seed, perturbation=workload.perturbation,
                          perturbation_seed=seed + 1),
        "files": files,
        "nodes": n,
        "edges": m,
        "ground_communities": len(ground),
        "detected_communities": len(detected),
        "contingency_cells": cells,
        "neighbor_cells": neighbor_cells,
        "generate_s": generate_s,
    }
    with open(os.path.join(workdir, "prepared.json"), "w") as fh:
        json.dump({"snap": snap, "paths": paths, "compare": compare_want,
                   "quality": quality_want, "record": record}, fh)
    np.savez(os.path.join(workdir, "arrays.npz"), indptr=network.indptr,
             indices=network.indices, ground_of=g_of, detected_of=d_of,
             **{"row_" + k: v for k, v in rows.items()})


class Prepared:
    """A prepared workload instance, as read back by the benchmark."""

    def __init__(self, workdir):
        with open(os.path.join(workdir, "prepared.json")) as fh:
            data = json.load(fh)
        self.snap = data["snap"]
        self.paths = data["paths"]
        self.record = data["record"]
        self.compare_want = data["compare"]
        self._arrays = os.path.join(workdir, "arrays.npz")
        with np.load(self._arrays) as arrays:
            rows = {k[4:]: arrays[k] for k in arrays.files if k.startswith("row_")}
        self.quality_want = dict(data["quality"], rows=rows)

    @property
    def universe_arg(self):
        """``--universe`` value the compare runs pass, or None."""
        return self.record["nodes"] if self.snap else None

    def compare_argv(self, backend, workers):
        argv = ["compare", "--ground-truth", self.paths["ground"],
                "--detected", self.paths["detected"]]
        if self.universe_arg is not None:
            argv += ["--universe", str(self.universe_arg)]
        return argv + ["--backend", backend, "--workers", str(workers), "--csv"]

    def quality_argv(self, backend, workers):
        return ["quality", "--network", self.paths["network"],
                "--detected", self.paths["detected"],
                "--backend", backend, "--workers", str(workers), "--csv"]

    def library_inputs(self):
        """(network, ground, detected, detected_dense) as commqual objects:
        the partitions in the community files' label space, as ``compare``
        builds them, and the dense partition ``quality`` builds."""
        from commqual.graph import Network, NodeCommunityMap, Partition

        with np.load(self._arrays) as arrays:
            indptr, indices = arrays["indptr"], arrays["indices"]
            g_of, d_of = arrays["ground_of"], arrays["detected_of"]
        n = indptr.size - 1
        network = Network(n, indices.size // 2, indptr, indices,
                          np.arange(n, dtype=np.int64))
        ground = Partition.from_node_map(NodeCommunityMap(g_of, n))
        dense = Partition.from_node_map(NodeCommunityMap(d_of, n))
        if not self.snap:
            return network, ground, dense, dense
        return (network,
                Partition([snap_label(c) for c in ground.communities], n),
                Partition([snap_label(c) for c in dense.communities], n),
                dense)


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name]
    if len(sys.argv) > 4:
        workload = scaled(workload, int(sys.argv[4]))
    prepare(workload, seed, workdir)
