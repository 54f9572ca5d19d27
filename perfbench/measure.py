"""One benchmark run: set up, measure, check, and build the recording.

``run_workload(..., trace=False)`` measures the end-to-end metrics with
no instrumentation installed.  ``trace=True`` runs an untraced half
window, then a traced half window under :class:`layers.LayerTimer`, and
reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import shutil
import statistics
import tempfile
import time
from typing import Dict, Iterator, List, Tuple

import layers
import workloads as w
from repro.bench.metrics import percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Deployments set up per end-to-end run; ``setup_s`` is their median.
SETUPS = 5
#: Full-size graphs.
VERTICES = 5000

Metrics = Dict[str, Tuple[float, str]]


def tail_supported(count: int, q: float) -> bool:
    """At least ten samples lie beyond the q-th percentile."""
    return count * (100 - q) / 100 >= 10


def chunked_percentile(values: List[float], q: float) -> float:
    """Median of the q-th percentiles of consecutive equal chunks of
    ``values``, each chunk as small as still leaves ten samples beyond
    the percentile (one chunk when the sample holds fewer).

    On a shared host, slow episodes of a few seconds move a whole-window
    tail percentile; the median over chunks keeps the tail steady.
    """
    size = int(round(10 * 100 / (100 - q)))
    chunks = max(1, len(values) // size)
    bounds = [len(values) * i // chunks for i in range(chunks + 1)]
    return statistics.median(
        percentile(sorted(values[a:b]), q)
        for a, b in zip(bounds, bounds[1:])
    )


@contextlib.contextmanager
def socket_dir() -> Iterator[None]:
    """Put the process deployment's AF_UNIX sockets in a fresh directory
    inside the checkout, and remove it afterwards.

    The directory is named relative to the working directory, which
    keeps socket paths under the AF_UNIX length limit however deep the
    checkout is.
    """
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=os.path.relpath(base))
    saved, tempfile.tempdir = tempfile.tempdir, run_dir
    try:
        yield
    finally:
        tempfile.tempdir = saved
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of this process and its live children —
    the client plus, on the process deployment, shard workers and the
    oracle."""
    total_kb = 0
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its live
    children.  Unlike wall time, CPU time does not grow when the host
    runs someone else on our processors (steal)."""
    total = sum(os.times()[:2])
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def host_ticks() -> List[int]:
    """The host-wide CPU time counters of /proc/stat."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of busy processor time the hypervisor gave to other guests:
    steal / (all time - idle - iowait)."""
    d = [b - a for a, b in zip(before, after)]
    return _ratio(d[7], sum(d) - d[3] - d[4])


class Slices:
    """One-second slices of the timed window, each with the host's steal
    share and our CPU time.

    On a shared host the hypervisor sometimes runs other guests on our
    processors for seconds at a time (steal).  The end-to-end metrics
    use only the slices where steal stayed under ``STEAL_LIMIT``, as long
    as those cover at least ``MIN_CLEAN`` of the window; otherwise they
    use every slice.  The choice rests on the host's own accounting,
    never on the measured values.
    """

    PERIOD = 1.0
    STEAL_LIMIT = 0.05
    MIN_CLEAN = 0.25

    def __init__(self):
        self._next = 0.0
        #: (time, host ticks, our CPU seconds) at each slice boundary.
        self.marks: List[Tuple[float, List[int], float]] = []

    def mark(self, now: float) -> None:
        self.marks.append((now, host_ticks(), cpu_seconds()))
        self._next = now + self.PERIOD

    def tick(self, now: float) -> None:
        """Per-op hook: close a slice once its period has passed."""
        if now >= self._next:
            self.mark(now)

    def finish(self, now: float) -> None:
        """Close the last slice; a remainder shorter than half a period
        joins the slice before it."""
        if len(self.marks) > 1 and \
                now - self.marks[-1][0] < self.PERIOD / 2:
            self.marks.pop()
        self.mark(now)

    def select(self, log: List[w.Sample]) -> Tuple[List[w.Sample], float,
                                                    float, dict]:
        """(samples in the chosen slices, their median op rate, their
        CPU seconds, a note for the provenance)."""
        times = [m[0] for m in self.marks]
        spans = list(zip(self.marks, self.marks[1:]))
        per_slice: List[List[w.Sample]] = [[] for _ in spans]
        for sample in log:
            done = sample.started + sample.seconds
            index = bisect.bisect_left(times, done) - 1
            per_slice[min(max(index, 0), len(spans) - 1)].append(sample)
        clean = [
            i for i, (a, b) in enumerate(spans)
            if steal_share(a[1], b[1]) <= self.STEAL_LIMIT
        ]
        covered = sum(spans[i][1][0] - spans[i][0][0] for i in clean)
        window = times[-1] - times[0]
        use_clean = covered >= self.MIN_CLEAN * window
        chosen = clean if use_clean else list(range(len(spans)))
        samples = [s for i in chosen for s in per_slice[i]]
        rate = statistics.median(
            len(per_slice[i]) / (spans[i][1][0] - spans[i][0][0])
            for i in chosen
        )
        cpu = sum(spans[i][1][2] - spans[i][0][2] for i in chosen)
        note = {"slices": len(spans), "clean_slices": len(clean),
                "used": "clean" if use_clean else "all"}
        return samples, rate, cpu, note


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(values: List[float], q: float) -> float:
    """The q-th percentile in ms, or 0 when fewer than ten samples lie
    beyond it."""
    if not tail_supported(len(values), q):
        return 0.0
    return _ms(percentile(sorted(values), q))


def end_to_end_metrics(samples, rate, cpu, setup_times, rss) -> Metrics:
    reads = [s.seconds for s in samples if s.is_read]
    return {
        "throughput_ops_s": (rate, "ops/s"),
        "read_p50_ms": (_ms(percentile(sorted(reads), 50)), "ms"),
        "read_p99_ms": (_ms(chunked_percentile(reads, 99)), "ms"),
        "cpu_ms_per_op": (_ms(cpu / len(samples)), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def layer_metrics(timer, wall, log, before, after, tally,
                  untraced_rate) -> Metrics:
    """Per-layer metrics of the traced window ``log`` (``wall`` seconds
    long); ``before``/``after`` are counter snapshots around it."""
    ops = len(log)

    def d(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def ms_per_op(seconds: float) -> Tuple[float, str]:
        return _ms(_ratio(seconds, ops)), "ms/op"

    # Totals grow with the ops the fixed-length window completes, so
    # every count and time is reported per op.
    out: Metrics = {}
    for layer, calls, seconds, self_seconds, share in timer.rows(wall):
        if layer == "unattributed":
            out["unattributed.ms_per_op"] = ms_per_op(seconds)
            out["unattributed.share"] = (share, "ratio")
            continue
        out[f"{layer}.calls_per_op"] = (_ratio(calls, ops), "count/op")
        out[f"{layer}.ms_per_op"] = ms_per_op(seconds)
        out[f"{layer}.self_ms_per_op"] = ms_per_op(self_seconds)
        out[f"{layer}.share"] = (share, "ratio")
    storms = d("program.readiness_storms")
    ordered = (d("ordering.proactive") + d("ordering.cached")
               + d("ordering.reactive"))
    commits, aborts = d("store.commits"), d("store.aborts")
    out.update({
        "db.readiness.storm_ratio": (
            _ratio(storms, storms + d("program.readiness_fastpath_hits")),
            "ratio"),
        "store.abort_ratio": (_ratio(aborts, commits + aborts), "ratio"),
        "oracle.messages_per_op": (_ratio(d("oracle.messages"), ops),
                                   "count/op"),
        "ordering.reactive_ratio": (_ratio(d("ordering.reactive"), ordered),
                                    "ratio"),
        "transport.requests_per_op": (_ratio(d("transport.requests"), ops),
                                      "count/op"),
        "transport.bytes_per_op": (
            _ratio(d("transport.bytes_sent") + d("transport.bytes_received"),
                   ops), "B/op"),
        "transport.messages_per_frame": (
            _ratio(d("transport.messages_sent"), d("transport.frames_sent")),
            "count/frame"),
        "wire.codec.ms_per_op": ms_per_op(
            d("transport.serialize_seconds")
            + d("transport.deserialize_seconds")),
        "programs.entries_per_query": (_ratio(tally.entries, tally.queries),
                                       "count/query"),
        "programs.rounds_per_query": (_ratio(tally.rounds, tally.queries),
                                      "count/query"),
        "programs.dedup_ratio": (_ratio(d("program.dedup_hits"), tally.hops),
                                 "ratio"),
        "worker.forwards_per_round": (
            _ratio(d("program.resident.forwards_sent"), tally.rounds),
            "count/round"),
        "worker.hops_forwarded_per_query": (
            _ratio(d("program.resident.hops_forwarded"), tally.queries),
            "count/query"),
        "trace.ops": (float(ops), "count"),
        "trace.overhead_share": (
            1.0 - _ratio(_ratio(ops, wall), untraced_rate), "ratio"),
    })
    return out


def write_metrics(log) -> Metrics:
    """Write latency of the untraced window, where its sample supports
    the percentile (0 otherwise; the sample count says which)."""
    writes = [s.seconds for s in log if not s.is_read]
    return {
        "untraced.write_p50_ms": (_percentile_ms(writes, 50), "ms"),
        "untraced.write_p99_ms": (_percentile_ms(writes, 99), "ms"),
        "untraced.write_samples": (float(len(writes)), "count"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 num_vertices: int = VERTICES, setups: int = SETUPS) -> dict:
    """Run one workload and return its recording."""
    wl = w.WORKLOADS[name]
    inputs = w.make_inputs(wl, seed, num_vertices)
    setup_times: List[float] = []
    db = client = None
    for _ in range(1 if trace else setups):
        if db is not None:
            w.close(db)
            # Drop the last deployment, so that each set-up starts from a
            # heap (and forks workers from one) that holds no earlier one.
            db = client = None
        gc.collect()
        started = time.perf_counter()
        db, client = w.deploy(wl, inputs)
        setup_times.append(time.perf_counter() - started)
    # Read before the window: memory growth inside it scales with the ops
    # completed, so a faster program would read as a memory regression.
    rss = peak_rss_mb()
    stream = w.make_stream(wl, inputs)
    log: List[w.Sample] = []
    timer = None
    try:
        provenance = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "config": dataclasses.asdict(db.config),
            "shard_vertices": w.placement(db),
            "graph": {"vertices": len(inputs.vertices),
                      "edges": len(inputs.edges)},
        }
        ticks = host_ticks()
        if trace:
            u_begin, u_end = w.run_window(client, stream, seconds / 2, log)
            untraced = len(log)
            # The process deployment pulls worker counters over RPC:
            # snapshot outside the timed window only.
            before = db.metrics.snapshot()
            stream.tally = w.ProgramTally()
            with layers.LayerTimer() as timer:
                begin, end = w.run_window(client, stream, seconds / 2, log)
            after = db.metrics.snapshot()
        else:
            slices = Slices()
            slices.mark(time.perf_counter())
            begin, end = w.run_window(client, stream, seconds, log,
                                      on_op=slices.tick)
            slices.finish(end)
        provenance["host_steal_share"] = steal_share(ticks, host_ticks())
    finally:
        w.close(db)
    errors = w.check(wl, inputs, log)
    if trace:
        metrics = layer_metrics(
            timer, end - begin, log[untraced:], before, after, stream.tally,
            _ratio(untraced, u_end - u_begin),
        )
        metrics.update(write_metrics(log[:untraced]))
        writes = int(metrics["untraced.write_samples"][0])
        counts = {"untraced.write_p50_ms": writes,
                  "untraced.write_p99_ms": writes}
    else:
        used, rate, cpu, provenance["slices"] = slices.select(log)
        metrics = end_to_end_metrics(used, rate, cpu, setup_times, rss)
        reads = sum(1 for s in used if s.is_read)
        counts = {"read_p50_ms": reads, "read_p99_ms": reads}
    return {
        "correct": not errors,
        "attempted": len(log),
        "failed": len({index for index, _ in errors}),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
        "samples": counts,
        "errors": [f"op {index} {message}" for index, message in errors[:20]],
        "provenance": provenance,
        "setup_times": setup_times,
        "layer_rows": timer.rows(end - begin) if timer else [],
    }


def report(record: dict) -> str:
    """Human-readable summary printed before the JSON line."""
    prov = record["provenance"]
    share = _ratio(record["failed"], record["attempted"])
    lines = [
        f"workload {prov['workload']} seed {prov['seed']} "
        f"trace {prov['trace']}: {record['attempted']} ops, "
        f"{record['failed']} failed (failed_share {share:.4f}), "
        f"host steal share {prov['host_steal_share']:.3f}",
        "provenance " + json.dumps(prov, sort_keys=True),
    ]
    lines += ["MISMATCH " + error for error in record["errors"]]
    if record["layer_rows"]:
        lines.append(f"{'layer':<22}{'calls':>9}{'seconds':>10}"
                     f"{'self_s':>10}{'share':>8}")
        for layer, calls, seconds, self_s, share in record["layer_rows"]:
            lines.append(f"{layer:<22}{calls:>9}{seconds:>10.4f}"
                         f"{self_s:>10.4f}{share:>8.3f}")
    for name, metric in record["metrics"].items():
        n = record["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        lines.append(f"{name:<36}{metric['value']:>14.4f} {metric['unit']}"
                     f"{suffix}")
    return "\n".join(lines)
