"""Plain-Python reference implementations used only by the tests.

Everything here works on sets and dicts with explicit loops, sharing no code
with the package, so agreement is meaningful evidence.
"""

import math
from collections import Counter
from fractions import Fraction


class OverlapError(ValueError):
    """A node on two lines; named as the package names it."""


def overlap_table(ground, detected):
    """{(i, j): |c_i ∩ c'_j|} from lists of member sets."""
    table = {}
    for i, c in enumerate(ground):
        for j, c2 in enumerate(detected):
            ov = len(c & c2)
            if ov:
                table[(i, j)] = ov
    return table


def vi_reference(ground, detected, n):
    table = overlap_table(ground, detected)
    total = 0.0
    for (i, j), ov in table.items():
        total += ov * math.log(ov * ov / (len(ground[i]) * len(detected[j])))
    return -total / n


def nmi_reference(ground, detected, n):
    table = overlap_table(ground, detected)
    mi = 0.0
    for (i, j), ov in table.items():
        mi += (ov / n) * math.log(ov * n / (len(ground[i]) * len(detected[j])))
    h1 = -sum(len(c) / n * math.log(len(c) / n) for c in ground)
    h2 = -sum(len(c) / n * math.log(len(c) / n) for c in detected)
    if h1 + h2 == 0.0:
        return 1.0
    return 2.0 * mi / (h1 + h2)


def f_measure_reference(ground, detected, n):
    total = 0.0
    for c in ground:
        best = max(2.0 * len(c & c2) / (len(c) + len(c2)) for c2 in detected)
        total += len(c) * best
    return total / n


def nvd_reference(ground, detected, n):
    fwd = sum(max(len(c & c2) for c2 in detected) for c in ground)
    bwd = sum(max(len(c & c2) for c in ground) for c2 in detected)
    return 1.0 - (fwd + bwd) / (2.0 * n)


def pair_counts_reference(ground, detected):
    """Nested loop over unordered node pairs; nodes = union of communities."""
    of1, of2 = {}, {}
    for i, c in enumerate(ground):
        for v in c:
            of1[v] = i
    for j, c2 in enumerate(detected):
        for v in c2:
            of2[v] = j
    nodes = sorted(of1)
    assert sorted(of2) == nodes
    a11 = a10 = a01 = a00 = 0
    for x in range(len(nodes) - 1):
        for y in range(x + 1, len(nodes)):
            u, v = nodes[x], nodes[y]
            s1 = of1[u] == of1[v]
            s2 = of2[u] == of2[v]
            if s1 and s2:
                a11 += 1
            elif s1:
                a10 += 1
            elif s2:
                a01 += 1
            else:
                a00 += 1
    return a11, a10, a01, a00


def rand_reference(ground, detected, n):
    a11, a10, a01, a00 = pair_counts_reference(ground, detected)
    return (a11 + a00) / (n * (n - 1) / 2)


def ari_reference(ground, detected, n):
    a11, a10, a01, a00 = pair_counts_reference(ground, detected)
    total = n * (n - 1) / 2
    m = (a11 + a10) * (a11 + a01) / total
    num = a11 - m
    den = 0.5 * ((a11 + a10) + (a11 + a01)) - m
    return num / den


def jaccard_reference(ground, detected):
    a11, a10, a01, a00 = pair_counts_reference(ground, detected)
    return a11 / (a11 + a10 + a01)


def rand_exact(counts):
    """The Rand index of the pair counts ``(a11, a10, a01, a00)``, exact."""
    a11, a10, a01, a00 = counts
    return Fraction(a11 + a00, a11 + a10 + a01 + a00)


def jaccard_exact(counts):
    """The Jaccard index of the pair counts ``(a11, a10, a01, a00)``, exact;
    1 when no pair is together in either partition."""
    a11, a10, a01, _a00 = counts
    return Fraction(a11, a11 + a10 + a01) if a11 + a10 + a01 else Fraction(1)


def graph_stats_reference(edges, communities):
    """Per-community (size, in, out, neighbor Counter) from an edge set."""
    of = {}
    for k, c in enumerate(communities):
        for v in c:
            of[v] = k
    stats = {k: [len(c), 0, 0, Counter()] for k, c in enumerate(communities)}
    for u, v in edges:
        cu, cv = of.get(u, -1), of.get(v, -1)
        if cu == cv and cu >= 0:
            stats[cu][1] += 1
        else:
            if cu >= 0:
                stats[cu][2] += 1
                if cv >= 0:
                    stats[cu][3][cv] += 1
            if cv >= 0:
                stats[cv][2] += 1
                if cu >= 0:
                    stats[cv][3][cu] += 1
    return stats


def modularity_reference(edges, communities):
    m = len(edges)
    stats = graph_stats_reference(edges, communities)
    q = 0.0
    for size, inn, out, _ in stats.values():
        q += inn / m - ((2 * inn + out) / (2 * m)) ** 2
    return q


def modularity_exact(edges, communities):
    """Modularity from its integer form 4m^2 Q = sum over communities of
    4m in_c - (2 in_c + out_c)^2, exact."""
    m = len(edges)
    stats = graph_stats_reference(edges, communities)
    return Fraction(sum(4 * m * inn - (2 * inn + out) ** 2
                        for _size, inn, out, _nbrs in stats.values()),
                    4 * m * m)


def modularity_density_reference(edges, communities):
    m = len(edges)
    stats = graph_stats_reference(edges, communities)
    total = 0.0
    for k, (size, inn, out, nbrs) in stats.items():
        dc = 2 * inn / (size * (size - 1)) if size > 1 else 0.0
        total += inn / m * dc - ((2 * inn + out) / (2 * m) * dc) ** 2
        for j, e in nbrs.items():
            total -= (e / (2 * m)) * (e / (size * stats[j][0]))
    return total


def network_reference(pairs):
    """CSR of an undirected edge list of labels, as a dict of the
    :class:`~commqual.graph.Network` fields: labels compacted in sorted
    order, self loops and repeated edges (either orientation) dropped and
    counted, each row's neighbours ascending."""
    labels = sorted({x for pair in pairs for x in pair})
    dense = {label: i for i, label in enumerate(labels)}
    edges = set()
    loops = 0
    for u, v in pairs:
        if u == v:
            loops += 1
        else:
            a, b = dense[u], dense[v]
            edges.add((min(a, b), max(a, b)))
    rows = [[] for _ in labels]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    indptr, indices = [0], []
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return {
        "node_count": len(labels),
        "edge_count": len(edges),
        "indptr": indptr,
        "indices": indices,
        "orig_ids": labels,
        "self_loops_dropped": loops,
        "duplicates_dropped": len(pairs) - loops - len(edges),
    }


def partition_reference(communities, universe_size):
    """(communities, sizes, label space, node -> community list) of the
    partition a list of member lists describes: members sorted and
    deduplicated per line, ids in line order.  Raises the error the first
    offending check names: an empty or negative line (first in line order),
    no lines, a non-positive universe, a node on two lines (the smallest),
    more distinct nodes than the universe holds."""
    comms = []
    for members in communities:
        c = sorted(set(int(m) for m in members))
        if not c:
            raise ValueError("empty community")
        if c[0] < 0:
            raise ValueError("negative node id in community")
        comms.append(c)
    if not comms:
        raise ValueError("partition has no communities")
    if universe_size <= 0:
        raise ValueError("universe size must be positive")
    owner, shared = {}, set()
    for k, c in enumerate(comms):
        for v in c:
            if v in owner:
                shared.add(v)
            owner[v] = k
    if shared:
        raise OverlapError(f"node {min(shared)} appears in more than one community")
    if len(owner) > universe_size:
        raise ValueError(f"{len(owner)} distinct nodes exceed declared "
                         f"universe of {universe_size}")
    label_space = max(owner) + 1
    comm_of = [owner.get(v, -1) for v in range(label_space)]
    return comms, [len(c) for c in comms], label_space, comm_of
