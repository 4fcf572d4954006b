"""Independent expected values and report checks.

Expected metrics are computed here with plain numpy from the generated
arrays (node -> community labels and the CSR), sharing no code with
commqual's metric functions.  ``perfbench/tests/test_perfbench.py`` pins
these formulas to ``tests/oracles.py`` on small instances.

Reports are the CLI's ``--csv`` stdout.  Integers must match exactly and
floats to ``REL_TOL`` relative.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9

COMPARE_FLOATS = ("vi", "nmi", "f_measure", "nvd", "ri", "ari", "ji")
COMPARE_INTS = ("a11", "a10", "a01", "a00")
QUALITY_FLOATS = ("q", "qds")
QUALITY_INTS = ("edges", "communities")
ROW_FIELDS = ("community_id", "size", "intra_edges", "intra_density",
              "contraction", "inter_edges", "expansion", "conductance")
ROW_INTS = ("community_id", "size", "intra_edges", "inter_edges")


def labels_of(communities, n):
    """Community id of every node 0..n-1 (-1 where unassigned)."""
    out = np.full(n, -1, dtype=np.int64)
    for k, members in enumerate(communities):
        out[members] = k
    return out


def _choose2_sum(x):
    x = x.astype(np.int64)
    return int(np.sum(x * (x - 1) // 2))


def _entropy(sizes, n):
    p = sizes[sizes > 0] / n
    return float(-np.sum(p * np.log(p)))


def compare_expected(g_of, d_of):
    """VI, NMI, F-measure, NVD, pair counts, RI, ARI, JI from two full label
    arrays over the same n nodes; also returns the contingency cell count."""
    n = g_of.size
    kg, kd = int(g_of.max()) + 1, int(d_of.max()) + 1
    cells, nij = np.unique(g_of * kd + d_of, return_counts=True)
    ci, cj = cells // kd, cells % kd
    ni = np.bincount(g_of, minlength=kg)
    mj = np.bincount(d_of, minlength=kd)
    x = nij.astype(np.float64)
    prod = (ni[ci] * mj[cj]).astype(np.float64)

    vi = -float(np.sum(x * np.log(x * x / prod))) / n
    mi = float(np.sum(x / n * np.log(x * n / prod)))
    h = _entropy(ni, n) + _entropy(mj, n)
    nmi = 1.0 if h == 0.0 else 2.0 * mi / h

    best = np.zeros(kg)
    np.maximum.at(best, ci, 2.0 * x / (ni[ci] + mj[cj]))
    max_t = np.zeros(kg, dtype=np.int64)
    np.maximum.at(max_t, ci, nij)
    max_d = np.zeros(kd, dtype=np.int64)
    np.maximum.at(max_d, cj, nij)

    a11 = _choose2_sum(nij)
    rows, cols = _choose2_sum(ni), _choose2_sum(mj)
    total = n * (n - 1) // 2
    a10, a01 = rows - a11, cols - a11
    a00 = total - rows - cols + a11
    expected = rows * cols / total
    return {
        "vi": vi, "nmi": nmi,
        "f_measure": float(np.dot(ni, best)) / n,
        "nvd": 1.0 - (int(max_t.sum()) + int(max_d.sum())) / (2.0 * n),
        "a11": a11, "a10": a10, "a01": a01, "a00": a00,
        "ri": (a11 + a00) / total,
        "ari": (a11 - expected) / (0.5 * (rows + cols) - expected),
        "ji": a11 / (a11 + a10 + a01),
    }, int(cells.size)


def quality_expected(indptr, indices, d_of):
    """Q, Qds and the per-community columns from a CSR (each undirected edge
    stored in both endpoint rows) and a full node -> community label array.
    Also returns the number of (community, neighbour community) cells."""
    n = indptr.size - 1
    k = int(d_of.max()) + 1
    m = indices.size // 2
    cs = d_of[np.repeat(np.arange(n), np.diff(indptr))]
    cd = d_of[indices]
    inside = cs == cd
    intra = np.bincount(cs[inside], minlength=k) // 2
    inter = np.bincount(cs[~inside], minlength=k)
    size = np.bincount(d_of, minlength=k)
    cells, e = np.unique(cs[~inside] * k + cd[~inside], return_counts=True)
    c, j = cells // k, cells % k

    vol = 2 * intra + inter
    big = size > 1
    density = np.zeros(k)
    density[big] = 2.0 * intra[big] / (size[big] * (size[big] - 1.0))
    q = float(np.sum(intra / m - (vol / (2.0 * m)) ** 2))
    ef = e.astype(np.float64)
    qds = float(np.sum(intra / m * density - (vol / (2.0 * m) * density) ** 2)
                - np.sum(ef / (2.0 * m) * ef / (size[c] * size[j].astype(np.float64))))
    conductance = np.zeros(k)
    conductance[vol > 0] = inter[vol > 0] / vol[vol > 0]
    rows = {
        "community_id": np.arange(k, dtype=np.int64),
        "size": size,
        "intra_edges": intra,
        "intra_density": density,
        "contraction": 2.0 * intra / size,
        "inter_edges": inter,
        "expansion": inter / size,
        "conductance": conductance,
    }
    return {"q": q, "qds": qds, "edges": m, "communities": k, "rows": rows}, int(cells.size)


# ---------------------------------------------------------------------------
# Report parsing and checking
# ---------------------------------------------------------------------------


def _parse_pairs(lines):
    out = {}
    for line in lines:
        key, _, value = line.partition(",")
        out[key] = value
    return out


def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_scalars(got, want, floats, ints):
    problems = []
    if set(got) != set(floats) | set(ints):
        problems.append(f"fields {sorted(got)} != {sorted(set(floats) | set(ints))}")
        return problems
    for key in ints:
        try:
            ok = int(got[key]) == want[key]
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{key}: got {got[key]!r}, expected {want[key]}")
    for key in floats:
        try:
            ok = _close(float(got[key]), want[key])
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{key}: got {got[key]!r}, expected {want[key]!r}")
    return problems


def check_compare(text, want):
    """Problems found in a ``compare --csv`` report (empty list: correct)."""
    lines = text.splitlines()
    if not lines or lines[0] != "metric,value":
        return ["missing 'metric,value' header"]
    return _check_scalars(_parse_pairs(lines[1:]), want, COMPARE_FLOATS, COMPARE_INTS)


def _check_rows(cols, want_rows):
    """Compare per-community columns (name -> sequence) with the expected ones."""
    problems = []
    try:
        got = {name: np.asarray(cols[name]).astype(np.int64 if name in ROW_INTS
                                                    else np.float64)
               for name in ROW_FIELDS}
    except (KeyError, ValueError) as exc:
        return [f"unparsable community rows: {exc}"]
    for name, col in got.items():
        exp = want_rows[name]
        if col.size != exp.size:
            return problems + [f"{col.size} community rows, expected {exp.size}"]
        if name in ROW_INTS:
            bad = np.flatnonzero(col != exp)
        else:
            tol = REL_TOL * np.maximum(np.abs(col), np.abs(exp))
            bad = np.flatnonzero(np.abs(col - exp) > tol)
        if bad.size:
            i = int(bad[0])
            problems.append(f"{name} row {i}: got {col[i]!r}, expected {exp[i]!r} "
                            f"({bad.size} rows differ)")
    return problems


def check_quality(text, want):
    """Problems found in a ``quality --csv`` report (empty list: correct)."""
    lines = text.splitlines()
    try:
        blank = lines.index("")
    except ValueError:
        return ["no blank line between the aggregate and per-community sections"]
    if lines[0] != "metric,value" or lines[blank + 1] != ",".join(ROW_FIELDS):
        return ["unexpected section headers"]
    problems = _check_scalars(_parse_pairs(lines[1:blank]), want,
                              QUALITY_FLOATS, QUALITY_INTS)
    table = [line.split(",") for line in lines[blank + 2:]]
    if len(table) != want["communities"] or any(len(r) != len(ROW_FIELDS) for r in table):
        return problems + [f"{len(table)} community rows, expected {want['communities']}"]
    return problems + _check_rows(dict(zip(ROW_FIELDS, zip(*table))), want["rows"])


def check_result(family, result, compare_want, quality_want):
    """Problems in the result object of a direct ``run_<family>_metrics`` call."""
    if family == "info":
        got = {"vi": result.vi, "nmi": result.nmi}
    elif family == "matching":
        got = {"f_measure": result.f_measure, "nvd": result.nvd}
    elif family == "pair":
        got = dict(zip(COMPARE_INTS, result.counts.as_tuple()),
                   ri=result.rand, ari=result.adjusted_rand, ji=result.jaccard)
    else:
        got = {"q": result.q, "qds": result.qds, "edges": result.total_edges,
               "communities": result.community_count}
    want = quality_want if family == "intrinsic" else compare_want
    floats = [k for k in got if k in COMPARE_FLOATS + QUALITY_FLOATS]
    problems = _check_scalars(got, want, floats, [k for k in got if k not in floats])
    if family == "intrinsic":
        problems += _check_rows({name: [getattr(r, name) for r in result.rows]
                                 for name in ROW_FIELDS}, want["rows"])
    return problems


def diff_fields(text, base):
    """Number of comma-separated fields whose text differs from ``base``;
    a line missing on either side counts all of its fields."""
    a, b = text.splitlines(), base.splitlines()
    count = 0
    for i in range(max(len(a), len(b))):
        fa = a[i].split(",") if i < len(a) else []
        fb = b[i].split(",") if i < len(b) else []
        count += sum(x != y for x, y in zip(fa, fb)) + abs(len(fa) - len(fb))
    return count
