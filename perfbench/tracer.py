"""Span recording around the public functions that ``commqual.cli`` and
``commqual.engine.runners`` call, installed from outside the package.

A span is ``[name, start, end, parent index, attrs]``.  Spans live in memory
and are written once, when the traced command ends.  Spans recorded inside
forked workers stay in the workers and are lost; engine work is seen through
the ``PhaseTiming`` the runners return.
"""

from __future__ import annotations

import json
import os
import time

ENGINE_FAMILIES = ("info", "matching", "pair", "intrinsic")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds
        counts taken at the same boundary."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[4] = {"error": repr(exc)}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None):
        """Wrap ``owner.attr``; a name the package no longer has is skipped,
        so its spans (and the metrics built from them) are simply absent."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.wrap(name, fn, attrs))

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        from commqual import cli, graph, intrinsic_metrics
        from commqual.engine import runners

        self.patch(cli, "parse_community_lines", "graph.parse_communities")
        self.patch(cli, "Partition", "graph.partition_build")
        self.patch(cli, "load_edge_list", "graph.load_edge_list", _edge_list_attrs)
        self.patch(graph.Network, "to_dense", "graph.to_dense")
        self.patch(graph.Partition, "node_map", "graph.node_map")
        self.patch(runners, "build_contingency", "graph.build_contingency",
                   lambda args, table: {"cells": int(table.counts.size)})
        self.patch(runners, "intrinsic_report", "intrinsic_metrics.intrinsic_report")
        self.patch(intrinsic_metrics, "community_stats",
                   "intrinsic_metrics.community_stats",
                   lambda args, stats: {"neighbor_cells": sum(
                       len(s.neighbor_edges) for s in stats)})
        self.patch(intrinsic_metrics, "modularity_density",
                   "intrinsic_metrics.modularity_density")
        self.patch(intrinsic_metrics, "community_measures",
                   "intrinsic_metrics.community_measures")
        for family in ENGINE_FAMILIES:
            self.patch(cli, f"run_{family}_metrics", f"engine.{family}",
                       _timing_attrs)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _edge_list_attrs(args, net):
    stream = args[0]
    return {
        "bytes": os.fstat(stream.fileno()).st_size,
        "edge_lines": net.edge_count + net.duplicates_dropped + net.self_loops_dropped,
        "duplicates_dropped": net.duplicates_dropped,
        "self_loops_dropped": net.self_loops_dropped,
    }


def _timing_attrs(args, result):
    timing = result[1]
    return {
        "total_s": timing.total_s,
        "compute_s": timing.compute_s,
        "message_s": timing.message_s,
        "bytes": timing.total_message_bytes,
        "messages": timing.total_messages,
        "worker_compute_s": [w.compute_s for w in timing.workers],
    }


class SpanSummary:
    """Per-invocation view of a span list."""

    def __init__(self, spans):
        self.spans = spans
        main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
        self.main_s = spans[main][2] - spans[main][1]
        self.self_s = self.main_s - sum(
            s[2] - s[1] for s in spans if s[3] == main)

    def total_s(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def first(self, name):
        """(duration, attrs) of the first span called ``name``, or None."""
        s = next((s for s in self.spans if s[0] == name), None)
        return None if s is None else (s[2] - s[1], s[4] or {})
