"""commqual benchmark: whole CLI runs, and a separate traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload fine-25k --seed 1 --seconds 55 --trace 0

``--trace 0`` times real ``commqual compare`` and ``commqual quality``
processes on every backend and prints the end-to-end metrics.  ``--trace 1``
runs the same six commands in-process under span tracing and prints the
per-layer metrics.  Every report is checked against independent reference
values.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (backend, workers) of the six invocations per workload, and their tags
CASES = (("seq", 1), ("shm", 2), ("ring", 2))
COMMANDS = ("compare", "quality")
FAMILIES = {"compare": ("info", "matching", "pair"), "quality": ("intrinsic",)}
# At one worker run_workers runs the worker inline and ignores the ring
# flag; these families use one worker function for shm and ring, so the w1
# call is the same code and is made once.  Pair has a worker per backend.
W1_SHARED = ("info", "matching", "intrinsic")

WARMUP_REPS = 2  # untimed imports first: .pyc files and the page cache
INVOCATION_TIMEOUT_S = 90.0  # a hung ring worker would otherwise wait 600 s
RUN_DEADLINE_S = 165.0  # start no invocation after this; runs must end by 180 s
IMPORT_REPS = 5
TRANSPORT_REPS = 5

_TIMING_LINE = re.compile(
    r"^(\w+): workers=(\d+) total=([\d.]+)s compute=([\d.]+)s "
    r"message=([\d.]+)s bytes=(\d+)$", re.M)


def tag(backend, workers):
    return backend if workers == 1 else f"{backend}{workers}"


class Harness:
    """One workload instance plus the bookkeeping shared by both passes."""

    def __init__(self, workdir, t_start):
        self.workdir = workdir
        self.t_start = t_start
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._seq = 0
        self.inputs = None

    def prepare(self, workload, seed, nodes=None):
        """Generate and write the inputs in a child process; return its
        invocation (the inputs are loaded only when it succeeded)."""
        from workloads import Prepared

        argv = [str(HERE / "workloads.py"), workload, str(seed), self.workdir]
        inv = self.spawn(argv + ([str(nodes)] if nodes else []))
        if inv.ok:
            self.inputs = Prepared(self.workdir)
        return inv

    # -- accounting -------------------------------------------------------

    def outcome(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])
        return not problems

    def remaining_s(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.t_start)

    # -- child processes --------------------------------------------------

    def spawn(self, argv):
        from invoke import run

        self._seq += 1
        stem = os.path.join(self.workdir, f"inv{self._seq}")
        return run([sys.executable] + argv, self.env,
                   min(INVOCATION_TIMEOUT_S, self.remaining_s()),
                   stem + ".out", stem + ".err")

    def cli_argv(self, cmd, backend, workers):
        if cmd == "compare":
            return self.inputs.compare_argv(backend, workers)
        return self.inputs.quality_argv(backend, workers)

    def check_report(self, cmd, inv):
        from reference import check_compare, check_quality

        if inv.exit_code is None:
            return ["killed at the invocation timeout"]
        if inv.exit_code != 0:
            return [f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"]
        if cmd == "compare":
            return check_compare(inv.stdout, self.inputs.compare_want)
        return check_quality(inv.stdout, self.inputs.quality_want)

    def run_cli(self, cmd, backend, workers):
        """Untraced ``python -m commqual.cli`` run; (invocation, correct)."""
        inv = self.spawn(["-m", "commqual.cli"] + self.cli_argv(cmd, backend, workers))
        ok = self.outcome(f"{cmd} {tag(backend, workers)}", self.check_report(cmd, inv))
        return inv, ok

    def run_setup(self):
        p = self.inputs.paths
        argv = [str(HERE / "setup_probe.py"), p["ground"], p["detected"], p["network"]]
        if self.inputs.universe_arg is not None:
            argv.append(str(self.inputs.universe_arg))
        inv = self.spawn(argv)
        problems = [] if inv.ok else [f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"]
        return inv, self.outcome("setup", problems)


# ---------------------------------------------------------------------------
# End-to-end pass (tracing off)
# ---------------------------------------------------------------------------


def end_to_end(h, seconds):
    """Whole rounds of the seven items, one after another, while the next
    round is expected to end within ``seconds``; each metric is the median
    over the rounds."""
    items = [(cmd, b, w) for cmd in COMMANDS for b, w in CASES] + [("setup", None, 0)]
    walls = {item: [] for item in items}
    tries = {item: 0 for item in items}
    rss = {cmd: [] for cmd in COMMANDS}

    def sample(item):
        cmd, backend, workers = item
        if h.remaining_s() < 1.0:
            return
        tries[item] += 1
        if cmd == "setup":
            inv, ok = h.run_setup()
        else:
            inv, ok = h.run_cli(cmd, backend, workers)
        if ok:
            walls[item].append(inv.wall_s)
            if cmd != "setup":
                rss[cmd].append(inv.maxrss_mb)

    for _ in range(WARMUP_REPS):
        h.spawn(["-c", "import commqual.cli"])
    t0 = time.perf_counter()
    rounds, round_s = 0, 0.0
    while rounds == 0 or (time.perf_counter() - t0 + round_s <= seconds
                          and h.remaining_s() >= round_s):
        r0 = time.perf_counter()
        for item in items:
            sample(item)
        round_s = time.perf_counter() - r0
        rounds += 1
    for item, n in tries.items():
        if n == 0:
            cmd, backend, workers = item
            h.outcome(cmd if cmd == "setup" else f"{cmd} {tag(backend, workers)}",
                      ["not started: run deadline reached"])

    metrics, samples = {}, {}
    for (cmd, backend, workers), values in walls.items():
        name = "setup_s" if cmd == "setup" else f"{cmd}.{tag(backend, workers)}.wall_s"
        samples[name] = len(values)
        if values:
            metrics[name] = (statistics.median(values), "s")
    for cmd, values in rss.items():
        if values:
            metrics[f"{cmd}.peak_rss_mb"] = (max(values), "MB")
    return metrics, {"rounds": rounds, "measured_s": time.perf_counter() - t0,
                     "samples": samples,
                     "walls": {name: [round(v, 4) for v in values]
                               for name, values in zip(samples, walls.values())}}


# ---------------------------------------------------------------------------
# Traced pass (per-layer metrics)
# ---------------------------------------------------------------------------


def _timing_lines(stderr):
    return {m[0]: (int(m[1]), float(m[2]), float(m[3]), float(m[4]), int(m[5]))
            for m in _TIMING_LINE.findall(stderr)}


def _timing_problems(summary, cmd, stderr):
    """The engine spans must agree with the CLI's own stderr timing line."""
    lines = _timing_lines(stderr)
    problems = []
    for family in FAMILIES[cmd]:
        _, attrs = summary.first(f"engine.{family}") or (0.0, {})
        if family not in lines or "compute_s" not in attrs:
            problems.append(f"{family}: no timing line or no engine span")
            continue
        workers, total, compute, message, nbytes = lines[family]
        if (workers != len(attrs["worker_compute_s"]) or nbytes != attrs["bytes"]
                or abs(total - attrs["total_s"]) > 1.5e-6
                or abs(compute - attrs["compute_s"]) > 1.5e-6
                or abs(message - attrs["message_s"]) > 1.5e-6):
            problems.append(f"{family}: span {attrs} disagrees with stderr {lines[family]}")
    return problems


def _traced_cli(h, cmd, backend, workers):
    from tracer import SpanSummary

    spans_path = os.path.join(h.workdir, f"spans-{cmd}-{tag(backend, workers)}.json")
    argv = [str(HERE / "traced_cli.py"), spans_path] + h.cli_argv(cmd, backend, workers)
    inv = h.spawn(argv)
    problems = h.check_report(cmd, inv)
    summary = None
    if not problems:
        with open(spans_path) as fh:
            summary = SpanSummary(json.load(fh)["spans"])
        problems = _timing_problems(summary, cmd, inv.stderr)
    ok = h.outcome(f"traced {cmd} {tag(backend, workers)}", problems)
    return inv, (summary if ok else None)


def _direct_w1(h, network, ground, detected, detected_dense):
    """wall, PhaseTiming and check of each run_<family>_metrics at one worker."""
    from commqual.engine import BackendConfig
    from commqual.engine import runners
    from reference import check_result

    out = {}
    for family in FAMILIES["compare"] + FAMILIES["quality"]:
        fn = getattr(runners, f"run_{family}_metrics")
        args = ((network, detected_dense) if family == "intrinsic"
                else (ground, detected))
        for backend in ("shm", "ring"):
            if backend == "ring" and family in W1_SHARED:
                if (family, "shm") in out:
                    out[family, "ring"] = out[family, "shm"]
                continue
            t0 = time.perf_counter()
            try:
                result, timing = fn(*args, BackendConfig(backend, 1))
            except Exception as exc:  # recorded as a failed operation
                h.outcome(f"direct {family} {backend} w1", [repr(exc)])
                continue
            wall = time.perf_counter() - t0
            if h.outcome(f"direct {family} {backend} w1",
                         check_result(family, result, h.inputs.compare_want,
                                      h.inputs.quality_want)):
                out[family, backend] = (wall, timing)
    return out


def _transport(h, detected):
    """Encode/decode of worker 0's detected shard, as the ring sends it."""
    from commqual.engine import RingMessage
    from commqual.graph import shard

    sh = shard(detected, 2, 0)
    message = RingMessage(0, 1, list(zip(sh.comm_ids.tolist(), sh.communities)))
    enc, dec = [], []
    for _ in range(TRANSPORT_REPS):
        t0 = time.perf_counter()
        payload = message.to_bytes()
        enc.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        back = RingMessage.from_bytes(payload)
        dec.append(time.perf_counter() - t0)
    same = (len(back.records) == len(message.records) and all(
        a[0] == b[0] and np.array_equal(a[1], b[1])
        for a, b in zip(back.records, message.records)))
    h.outcome("transport round trip", [] if same else ["decoded records differ"])
    return statistics.median(enc), statistics.median(dec), len(payload)


def traced(h):
    from reference import diff_fields

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    # interpreter start + import, the part of a CLI wall time outside main()
    h.spawn(["-c", "import commqual.cli"])
    imports = [h.spawn(["-c", "import commqual.cli"]) for _ in range(IMPORT_REPS)]
    h.outcome("import probe", [] if all(i.ok for i in imports) else ["import failed"])
    import_s = statistics.median(i.wall_s for i in imports)
    put("cli.import_s", import_s, "s")

    runs = {}
    for cmd in COMMANDS:
        for backend, workers in CASES:
            runs[cmd, tag(backend, workers)] = _traced_cli(h, cmd, backend, workers)
    # untraced seq runs, for the tracing overhead
    plain = {cmd: h.run_cli(cmd, "seq", 1) for cmd in COMMANDS}
    # in-process library calls come last, so the benchmark process holds no
    # inputs while its children run
    network, ground, detected, detected_dense = h.inputs.library_inputs()
    w1 = _direct_w1(h, network, ground, detected, detected_dense)
    enc_s, dec_s, nbytes = _transport(h, detected)

    for (cmd, t), (inv, s) in runs.items():
        put(f"cli.{cmd}.{t}.sys_s", inv.sys_s, "s")
        if s is not None:
            put(f"cli.{cmd}.{t}.self_s", s.self_s, "s")
    for cmd in COMMANDS:
        outs = {t: runs[cmd, t][0] for t in ("seq", "shm2", "ring2")}
        if all(o.ok for o in outs.values()):
            put(f"cli.{cmd}.diff_fields",
                diff_fields(outs["shm2"].stdout, outs["seq"].stdout)
                + diff_fields(outs["ring2"].stdout, outs["seq"].stdout), "count")

    cs, qs = runs["compare", "seq"][1], runs["quality", "seq"][1]
    if qs is not None:
        # a span a later refactor removes drops its metrics, not the run
        if qs.first("graph.load_edge_list"):
            load_s, load = qs.first("graph.load_edge_list")
            put("graph.load_edge_list.s", load_s, "s")
            put("graph.load_edge_list.mb_per_s", load["bytes"] / 2**20 / load_s, "MB/s")
            for key in ("edge_lines", "duplicates_dropped", "self_loops_dropped"):
                put(f"graph.{key}", load[key], "count")
        put("graph.to_dense.s", qs.total_s("graph.to_dense"), "s")
        put("graph.to_dense.calls", qs.calls("graph.to_dense"), "count")
        put("intrinsic_metrics.seq_s", qs.first("engine.intrinsic")[0], "s")
        for part in ("community_stats", "modularity_density", "community_measures"):
            put(f"intrinsic_metrics.{part}.s", qs.total_s(f"intrinsic_metrics.{part}"), "s")
        if qs.first("intrinsic_metrics.community_stats"):
            put("intrinsic_metrics.neighbor_cells",
                qs.first("intrinsic_metrics.community_stats")[1]["neighbor_cells"], "count")
    if cs is not None:
        put("graph.parse_communities.s", cs.total_s("graph.parse_communities"), "s")
        put("graph.partition_build.s", cs.total_s("graph.partition_build"), "s")
        for part in ("node_map", "build_contingency"):
            put(f"graph.{part}.s", cs.total_s(f"graph.{part}"), "s")
            put(f"graph.{part}.calls", cs.calls(f"graph.{part}"), "count")
        if cs.first("graph.build_contingency"):
            put("graph.contingency_cells", cs.first("graph.build_contingency")[1]["cells"],
                "count")
        for family in FAMILIES["compare"]:
            put(f"{family}_metrics.seq_s", cs.first(f"engine.{family}")[0], "s")

    for cmd in COMMANDS:
        for family in FAMILIES[cmd]:
            for backend in ("shm", "ring"):
                prefix = f"engine.{family}.{backend}"
                if (family, backend) in w1:
                    wall, timing = w1[family, backend]
                    put(f"{prefix}.w1.wall_s", wall, "s")
                    put(f"{prefix}.w1.compute_s", timing.compute_s, "s")
                    put(f"{prefix}.w1.overhead_s", wall - timing.total_s, "s")
                s = runs[cmd, f"{backend}2"][1]
                if s is None:
                    continue
                wall, attrs = s.first(f"engine.{family}")
                put(f"{prefix}.w2.wall_s", wall, "s")
                put(f"{prefix}.w2.compute_s", attrs["compute_s"], "s")
                put(f"{prefix}.w2.overhead_s", wall - attrs["total_s"], "s")
                per_worker = attrs["worker_compute_s"]
                if min(per_worker) > 0:
                    put(f"{prefix}.w2.imbalance", max(per_worker) / min(per_worker), "ratio")
                if (family, backend) in w1:
                    put(f"{prefix}.w2.speedup", w1[family, backend][0] / wall, "ratio")
                if backend == "ring" and family != "intrinsic":
                    put(f"{prefix}.w2.message_s", attrs["message_s"], "s")
                    put(f"{prefix}.w2.bytes", attrs["bytes"], "bytes")
                    put(f"{prefix}.w2.messages", attrs["messages"], "count")

    put("transport.encode_s", enc_s, "s")
    put("transport.decode_s", dec_s, "s")
    put("transport.bytes", nbytes, "bytes")
    put("bench.generate_s", h.inputs.record["generate_s"], "s")
    if cs is not None and qs is not None and all(inv.ok for inv, _ in plain.values()):
        untraced_main = sum(inv.wall_s - import_s for inv, _ in plain.values())
        put("trace.overhead_frac", (cs.main_s + qs.main_s) / untraced_main - 1.0, "frac")
    return metrics, {"untraced_seq_wall_s": {c: inv.wall_s for c, (inv, _) in plain.items()}}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure in whole rounds of invocations for about this "
                        "long (at least one round)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nodes", type=int,
                   help="scale the workload to this many nodes (default: its own size)")
    return p.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    if not (SRC / "commqual" / "__init__.py").is_file():
        print(f"error: commqual sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    h = Harness(str(workdir), t_start)
    try:
        prep = h.prepare(args.workload, args.seed, args.nodes)
        if not prep.ok:
            print(f"error: input preparation failed:\n{prep.stderr}", file=sys.stderr)
            return 1
        if args.trace:
            metrics, extra = traced(h)
        else:
            metrics, extra = end_to_end(h, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"machine": machine_record(), "inputs": h.inputs.record,
              "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              **extra, "run_s": time.perf_counter() - t_start,
              "problems": h.problems}
    for p in h.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:<45} {value:>16} {unit}")
    print(json.dumps({
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
