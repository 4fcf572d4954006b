"""Benchmark support: synthetic inputs, scaling studies, CSV reports.

The generator plants a known community structure: node degrees are drawn
uniformly around the requested average, a ``mixing`` fraction of each node's
edges leaves its community, and communities are contiguous id blocks whose
sizes are drawn from ``community_size_range``.  Studies time pre-built
in-memory inputs only; parsing or generating data is never part of a
reported measurement.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .graph import Network, NodeCommunityMap, Partition
from .engine import BackendConfig, RING, SHM
from .engine.runners import FAMILIES, RUNNERS


class StudyError(RuntimeError):
    """Metric values diverged across worker counts; timings are meaningless."""


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass
class GeneratorParams:
    node_count: int
    avg_degree: float = 15.0
    max_degree: int = 50
    mixing: float = 0.3
    community_size_range: tuple = (20, 50)
    seed: int = 0

    def degree_bounds(self):
        """Uniform integer degree support centered on ``avg_degree``."""
        hi = min(self.max_degree, int(round(1.5 * self.avg_degree)))
        lo = max(1, int(round(2 * self.avg_degree - hi)))
        return lo, hi

    def validate(self):
        lo, hi = self.community_size_range
        if self.node_count < 2:
            raise ValueError("node_count must be at least 2")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must lie in [0, 1]")
        if self.avg_degree < 1:
            raise ValueError("avg_degree must be at least 1")
        if self.max_degree < self.avg_degree:
            raise ValueError("max_degree must be at least avg_degree")
        if self.max_degree >= self.node_count:
            raise ValueError("max_degree must be below node_count")
        if lo < 2 or hi < lo:
            raise ValueError("community_size_range must satisfy 2 <= lo <= hi")
        if self.node_count < lo:
            raise ValueError("node_count smaller than the minimum community size")
        _, deg_hi = self.degree_bounds()
        if int(round((1.0 - self.mixing) * deg_hi)) > lo - 1:
            raise ValueError(
                "smallest allowed community cannot host the internal degree; "
                "raise community sizes or mixing")


def _draw_sizes(rng, params):
    lo, hi = params.community_size_range
    n = params.node_count
    sizes = []
    remaining = n
    while remaining > 0:
        block = rng.integers(lo, hi + 1, size=max(2, remaining // lo + 2))
        for s in block.tolist():
            if remaining <= 0:
                break
            s = min(s, remaining)
            sizes.append(s)
            remaining -= s
    # a trailing fragment below the minimum merges into its neighbor
    if len(sizes) > 1 and sizes[-1] < lo:
        sizes[-2] += sizes[-1]
        sizes.pop()
    return np.array(sizes, dtype=np.int64)


def generate_network(params):
    """Build (network, planted partition) for the given parameters.

    Deterministic for a fixed seed.  Communities are blocks of consecutive
    node ids, which keeps the ground-truth file trivially readable.
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    n = params.node_count

    sizes = _draw_sizes(rng, params)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    comm_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    ground = Partition.from_node_map(NodeCommunityMap(comm_of, n))

    deg_lo, deg_hi = params.degree_bounds()
    degrees = rng.integers(deg_lo, deg_hi + 1, size=n)
    internal = np.rint(degrees * (1.0 - params.mixing)).astype(np.int64)
    external = degrees - internal

    # internal edges: per community, a without-replacement sample of node pairs
    pair_cache = {}
    int_u, int_v = [], []
    for start, ln in zip(starts.tolist(), sizes.tolist()):
        if ln < 2:
            continue
        want = int(round(int(internal[start:start + ln].sum()) / 2))
        npairs = ln * (ln - 1) // 2
        want = min(want, npairs)
        if want == 0:
            continue
        if ln not in pair_cache:
            pair_cache[ln] = np.triu_indices(ln, 1)
        iu, iv = pair_cache[ln]
        pick = rng.choice(npairs, size=want, replace=False)
        int_u.append(start + iu[pick])
        int_v.append(start + iv[pick])

    # external edges: global stub pairing, re-shuffling same-community pairs
    stubs = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), external))
    if stubs.size % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    for _ in range(5):
        bad = comm_of[u] == comm_of[v]
        if not bad.any():
            break
        pool = rng.permutation(np.concatenate([u[bad], v[bad]]))
        u = np.concatenate([u[~bad], pool[0::2]])
        v = np.concatenate([v[~bad], pool[1::2]])
    keep = comm_of[u] != comm_of[v]
    u, v = u[keep], v[keep]

    all_u = np.concatenate(int_u + [u]) if int_u else u
    all_v = np.concatenate(int_v + [v]) if int_v else v
    if all_u.size == 0:
        raise ValueError("generated graph has no edges; parameters too sparse")
    net = Network.from_edge_array(all_u, all_v, node_count=n)
    return net, ground


def perturb_partition(partition, fraction, seed=0):
    """Move ``fraction`` of covered nodes to random other communities.

    Never empties a community, so the result is a valid partition with the
    same community ids.  Deterministic for a fixed seed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    k = len(partition)
    node_map = partition.node_map()
    comm_of = node_map.comm_of.copy()
    if k < 2 or fraction == 0.0:
        return Partition.from_node_map(NodeCommunityMap(comm_of, partition.universe_size))

    rng = np.random.default_rng(seed)
    covered = np.flatnonzero(comm_of >= 0)
    n_moves = int(round(fraction * covered.size))
    chosen = covered[rng.choice(covered.size, size=n_moves, replace=False)]
    sizes = partition.sizes.copy()
    targets = rng.integers(0, k - 1, size=n_moves)
    for v, tgt in zip(chosen.tolist(), targets.tolist()):
        cur = comm_of[v]
        if sizes[cur] <= 1:
            continue
        if tgt >= cur:
            tgt += 1
        comm_of[v] = tgt
        sizes[cur] -= 1
        sizes[tgt] += 1
    return Partition.from_node_map(NodeCommunityMap(comm_of, partition.universe_size))


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------


def speedup_efficiency(t_base, t_workers, workers):
    if t_base <= 0 or t_workers <= 0:
        raise ValueError("timings must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    s = t_base / t_workers
    return s, s / workers


@dataclass
class StudyRow:
    family: str
    backend: str
    workers: int
    total_s: float
    compute_s: float
    message_s: float
    speedup: float
    efficiency: float


CSV_HEADER = "family,backend,workers,total_s,compute_s,message_s,speedup,efficiency"


@dataclass
class ScalingResult:
    rows: list = field(default_factory=list)

    def extend(self, other):
        self.rows.extend(other.rows)

    def to_csv(self, out):
        """Write the schema'd CSV; ``out`` is a path or a writable object.
        Floats are written at full precision so the file round-trips."""
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                r.family, r.backend, str(r.workers),
                repr(r.total_s), repr(r.compute_s), repr(r.message_s),
                repr(r.speedup), repr(r.efficiency),
            ]))
        text = "\n".join(lines) + "\n"
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
        return text


def _run_family(family, backend, workers, inputs, method):
    """The family's reported values on ``inputs`` (a tuple of the runner's
    positional inputs), and the run's timing."""
    config = BackendConfig(backend=backend, num_workers=workers)
    options = {"method": method} if family == "pair" else {}
    result, timing = RUNNERS[family](*inputs, config, **options)
    return result.values(), timing


def check_study_options(worker_counts, repetitions):
    """The worker counts as a list, or ValueError if they are not ascending
    and unique from 1, or if ``repetitions`` is below 1.  The CLI calls it
    before generating any input."""
    counts = list(worker_counts)
    if not counts or counts[0] != 1 or counts != sorted(set(counts)):
        raise ValueError("worker_counts must be ascending, unique, starting at 1")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    return counts


def run_scaling_study(family, backend, worker_counts, *, ground=None,
                      detected=None, network=None, repetitions=3,
                      method="fast"):
    """Time one metric family at increasing worker counts.

    Inputs must be pre-built objects; the study never touches the filesystem.
    Every repetition's metric values must equal the baseline run's exactly,
    as every backend and worker count gives the same floats bit for bit;
    any divergence aborts the study with :class:`StudyError` - a fast wrong
    answer is not a data point.  Reported times are medians over repetitions;
    speedup and efficiency are relative to the first (single-worker) row.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {FAMILIES}")
    if backend not in (SHM, RING):
        raise ValueError("scaling studies run on the shm or ring backend")
    counts = check_study_options(worker_counts, repetitions)
    if family == "intrinsic":
        if network is None or ground is None:
            raise ValueError("intrinsic study needs network= and ground=")
        inputs = (network, ground)
    else:
        if ground is None or detected is None:
            raise ValueError(f"{family} study needs ground= and detected=")
        inputs = (ground, detected)

    baseline_values = None
    rows = []
    base_total = None
    for w in counts:
        totals, computes, messages = [], [], []
        for _ in range(repetitions):
            values, timing = _run_family(family, backend, w, inputs, method)
            if baseline_values is None:
                baseline_values = values
            elif values != baseline_values:
                raise StudyError(
                    f"{family}/{backend} at {w} workers produced {values}, "
                    f"baseline was {baseline_values}")
            totals.append(timing.total_s)
            computes.append(timing.compute_s)
            messages.append(timing.message_s)
        total = statistics.median(totals)
        if base_total is None:
            base_total = total
        speedup, efficiency = speedup_efficiency(base_total, total, w)
        rows.append(StudyRow(
            family=family, backend=backend, workers=w,
            total_s=total,
            compute_s=statistics.median(computes),
            message_s=statistics.median(messages),
            speedup=speedup, efficiency=efficiency,
        ))
    return ScalingResult(rows=rows)
