#!/usr/bin/env python3
"""drivefi campaign benchmark: fixed, seeded fault-injection campaigns run
end to end through the real entry points, from process launch to a sealed
store, with every run's records checked against a reference.

    python3 perfbench/run.py --workload bitflip-e3 --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics (medians over repeated campaign
invocations); --trace 1 makes one traced run at one executor thread and
prints the per-layer metrics and the layer ledger. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md documents workloads, metrics and the ledger.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
SCRATCH = WORK / "perfbench-runs"
CAMPAIGN = BUILD / "drivefi_campaign"
CAMPAIGND = BUILD / "drivefi_campaignd"
PROBE = BUILD / "perfbench_probe"

CAMPAIGN_SEED = 1234   # the CLI's default campaign seed
LEASE_RUNS = 16        # the coordinator's default lease size, made explicit
MAX_THREADS = 4
MIN_SAMPLES = 3
INVOCATION_TIMEOUT = 120.0
RUN_DEADLINE = 160.0   # start no campaign that would end a run after this

WORKLOADS = {
    "bitflip-e3": {"model": "random-bitflip", "size": ["--runs", "600"], "fleet": False},
    "bayes-drivefi": {"model": "bayesian", "size": ["--replays", "60"], "fleet": False},
    "bitflip-fleet": {"model": "random-bitflip", "size": ["--runs", "600"], "fleet": True},
}

# Trace span -> ledger layer. "perfbench.*" spans are the benchmark's own,
# around its calls into the library; the rest are the program's spans.
SPAN_LAYER = {
    "perfbench.experiment": "golden", "golden": "golden",
    "perfbench.bn_fit": "bn", "perfbench.bn_select": "bn", "bn.compile_plan": "bn",
    "perfbench.plan": "plan",
    "perfbench.run_shard": "executor",
    "trunk": "tree",
    "replay": "replay",
    "perfbench.store_append": "store", "store.append": "store", "perfbench.store_close": "store",
    "coord.grant": "coord", "coord.merge_append": "coord",
}
LEDGER_LAYERS = ["golden", "bn", "plan", "executor", "tree", "replay", "store", "coord", "other"]

SCRUB = re.compile(rb',"wall_seconds":[^,}]*')


class BenchError(Exception):
    """The benchmark could not produce a checked result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- processes -------------------------------------------------------------

LIVE = set()


class Proc:
    """One child process in its own session. Stdout lines are timestamped as
    they arrive (stdbuf line-buffers the child's stdio), stderr goes to a
    file, and the exit is reaped with wait4 for the peak resident set."""

    def __init__(self, argv, cwd, name, marker=None):
        self.name = name
        self.marker = marker
        self.marker_at = None
        self.lines = []
        self.exit_at = None
        self.returncode = None
        self.rss_kib = 0
        self.err_path = cwd / f"{name}.stderr"
        self._marked = threading.Event()
        self._exited = threading.Event()
        with open(self.err_path, "wb") as err:
            self.launched_at = time.perf_counter()
            self.popen = subprocess.Popen(
                ["stdbuf", "-oL", *map(str, argv)], cwd=cwd, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        LIVE.add(self)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        threading.Thread(target=self._reap, daemon=True).start()

    def _read(self):
        for raw in self.popen.stdout:
            now = time.perf_counter()
            line = raw.decode(errors="replace").rstrip("\n")
            self.lines.append(line)
            if self.marker_at is None and self.marker and self.marker in line:
                self.marker_at = now
                self._marked.set()
        self.popen.stdout.close()

    def _reap(self):
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.exit_at = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.returncode
        self.rss_kib = usage.ru_maxrss
        LIVE.discard(self)
        self._marked.set()
        self._exited.set()

    def wait_marker(self, timeout):
        self._marked.wait(timeout)
        return self.marker_at is not None

    def wait(self, timeout):
        if not self._exited.wait(timeout):
            return False
        self._reader.join(10)
        return True

    @property
    def ok(self):
        return self.returncode == 0 and (self.marker is None or self.marker_at is not None)

    def kill(self):
        if not self._exited.is_set():
            try:
                os.killpg(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.wait(10)

    def stderr_tail(self):
        try:
            return self.err_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def telemetry(self):
        text = self.err_path.read_text(errors="replace")
        for line in reversed(text.splitlines()):
            if line.startswith('{"type":"telemetry"'):
                return json.loads(line)
        raise BenchError(f"{self.name}: no telemetry line on stderr")


def kill_all():
    for proc in list(LIVE):
        proc.kill()


def wait_all(procs, deadline):
    """Waits for every process until `deadline` (perf_counter); kills them
    all on timeout. Returns True when all exited in time."""
    for proc in procs:
        if not proc.wait(max(0.0, deadline - time.perf_counter())):
            for other in procs:
                other.kill()
            return False
    return True


class Scratch:
    """Fresh temp directories under the checkout's build area, one per
    campaign invocation, removed after use."""

    def __init__(self):
        self.base = SCRATCH / str(os.getpid())
        self.count = 0

    def new(self, label):
        self.count += 1
        path = self.base / f"{self.count:03d}-{label}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def drop(self, path):
        shutil.rmtree(path, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


# ---- build and environment -------------------------------------------------

def preflight():
    missing = [p for p in ("CMakeLists.txt", "src", "examples") if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"no drivefi sources next to the benchmark (missing {', '.join(missing)})")
    for tool in ("cmake", "stdbuf"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} is not on PATH")


def build(threads):
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = WORK / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(threads), "--target",
                  "drivefi_campaign", "drivefi_campaignd", "perfbench_probe"])
    started = time.perf_counter()
    with open(build_log, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed; see {build_log.relative_to(ROOT)}")
    log(f"perfbench: build ready in {time.perf_counter() - started:.1f} s")

    stamp = dict(line.split("=", 1) for line in
                 (BUILD / "perfbench_build.txt").read_text().splitlines() if "=" in line)
    if stamp.get("build_type") != "Release":
        raise BenchError(f"refusing a {stamp.get('build_type') or 'untyped'} build: Release only")
    if "-fsanitize" in stamp.get("cxx_flags", ""):
        raise BenchError("refusing a sanitizer build")
    return stamp


def probe_info():
    result = subprocess.run([str(PROBE), "info"], capture_output=True, timeout=60)
    if result.returncode != 0:
        raise BenchError("perfbench_probe info failed: " + result.stderr.decode(errors="replace"))
    info = json.loads(result.stdout.decode().strip().splitlines()[-1])
    if not info["ndebug"] or info["sanitized"]:
        raise BenchError("refusing an assert-enabled or sanitizer build")
    return info


def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "examples"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


# ---- campaigns and their records ------------------------------------------

def campaign_flags(workload):
    spec = WORKLOADS[workload]
    return ["--model", spec["model"], *spec["size"], "--seed", str(CAMPAIGN_SEED)]


class Canon:
    """A merged campaign's canonical JSONL with wall_seconds scrubbed."""

    def __init__(self, data):
        self.digest = hashlib.sha256(data).hexdigest()
        self.runs = {}
        self.outcomes = collections.Counter()
        self.planned = 0
        for line in data.splitlines():
            if line.startswith(b'{"type":"run"'):
                index = int(re.search(rb'"run_index":(\d+)', line).group(1))
                self.runs[index] = line
                self.outcomes[re.search(rb'"outcome":"(\w+)"', line).group(1).decode()] += 1
            elif line.startswith(b'{"type":"campaign"'):
                self.planned = int(re.search(rb'"planned_runs":(\d+)', line).group(1))

    def scenario_indices(self):
        return [int(re.search(rb'"scenario_index":(\d+)', line).group(1))
                for line in self.runs.values()]


def canonical(stores, workdir):
    """Merges `stores` with `drivefi_campaign merge`; None if that fails."""
    out = workdir / "canonical.jsonl"
    result = subprocess.run([str(CAMPAIGN), "merge", "--jsonl", str(out), *map(str, stores)],
                            cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            timeout=60)
    if result.returncode != 0:
        log(f"perfbench: merge failed: {result.stderr.decode(errors='replace').strip()}")
        return None
    return Canon(SCRUB.sub(b"", out.read_bytes()))


def failed_runs(canon, ref):
    """Planned runs missing from `canon` or differing from the reference."""
    if canon is None:
        return ref.planned
    if canon.digest == ref.digest:
        return 0
    bad = sum(1 for index, line in ref.runs.items() if canon.runs.get(index) != line)
    bad += len(set(canon.runs) - set(ref.runs))
    log(f"perfbench: records differ from the reference ({bad} runs; outcomes "
        f"{dict(canon.outcomes)} vs {dict(ref.outcomes)})")
    return min(ref.planned, max(bad, 1))


def reference(workload, threads, scratch):
    """The workload's reference records: the same campaign run as two
    `--shard i/2` processes and merged -- a different run-index split,
    replay plan and store path from every measured invocation."""
    workdir = scratch.new("reference")
    half = max(1, threads // 2)
    shards = [Proc([CAMPAIGN, "run", *campaign_flags(workload), "--threads", half,
                    "--shard", f"{i}/2", "--store", workdir / f"ref{i}.jsonl", "--overwrite"],
                   workdir, f"ref{i}") for i in range(2)]
    if not wait_all(shards, time.perf_counter() + INVOCATION_TIMEOUT) or \
            any(not s.ok for s in shards):
        tails = "\n".join(s.stderr_tail() for s in shards)
        raise BenchError(f"reference campaign failed:\n{tails}")
    ref = canonical([workdir / "ref0.jsonl", workdir / "ref1.jsonl"], workdir)
    scratch.drop(workdir)
    if ref is None or ref.planned == 0 or sorted(ref.runs) != list(range(ref.planned)):
        raise BenchError("reference campaign did not produce a complete record set")
    return ref


class Invocation:
    """One campaign from launch to exit, as the user sees it."""

    def __init__(self, procs, ok, setup_s=None, total_s=None, stores=()):
        self.procs = procs
        self.ok = ok
        self.setup_s = setup_s
        self.total_s = total_s
        self.stores = list(stores)
        self.rss_mb = sum(p.rss_kib for p in procs) / 1024.0


def run_single(workload, threads, workdir, extra=()):
    store = workdir / "store.jsonl"
    proc = Proc([CAMPAIGN, "run", *campaign_flags(workload), "--threads", threads,
                 "--store", store, "--overwrite", *extra], workdir, "run", marker="planned runs")
    if not wait_all([proc], time.perf_counter() + INVOCATION_TIMEOUT) or not proc.ok:
        log(f"perfbench: campaign failed (exit {proc.returncode}):\n{proc.stderr_tail()}")
        return Invocation([proc], False)
    return Invocation([proc], True, proc.marker_at - proc.launched_at,
                      proc.exit_at - proc.launched_at, [store])


def run_fleet(workload, workers, workdir, traced=False):
    flags = [*campaign_flags(workload), "--threads", "1"]
    master = workdir / "master.jsonl"
    port_file = workdir / "port"
    trace_flags = ["--trace-out", workdir / "coord.trace.json"] if traced else []
    coord = Proc([CAMPAIGND, *flags, "--listen", "127.0.0.1:0", "--port-file", port_file,
                  "--store", master, "--overwrite", "--quiet", "--lease-runs", LEASE_RUNS,
                  *trace_flags], workdir, "coord", marker="coordinator listening")
    deadline = time.perf_counter() + INVOCATION_TIMEOUT
    if not coord.wait_marker(INVOCATION_TIMEOUT) or coord.marker_at is None:
        coord.kill()
        log(f"perfbench: coordinator did not start:\n{coord.stderr_tail()}")
        return Invocation([coord], False)
    port = int(port_file.read_text().strip())
    procs = [coord] + [
        Proc([CAMPAIGN, "worker", "--connect", f"127.0.0.1:{port}", *flags,
              "--store", workdir / f"w{i}.jsonl", "--name", f"w{i}"],
             workdir, f"w{i}", marker="connecting to")
        for i in range(workers)]
    if not wait_all(procs, deadline) or any(not p.ok for p in procs):
        for proc in procs:
            if not proc.ok:
                log(f"perfbench: {proc.name} failed (exit {proc.returncode}):\n{proc.stderr_tail()}")
        return Invocation(procs, False)
    setup = max(p.marker_at for p in procs) - coord.launched_at
    total = max(p.exit_at for p in procs) - coord.launched_at
    return Invocation(procs, True, setup, total, [master])


def invoke(workload, env, workdir, traced=False):
    if WORKLOADS[workload]["fleet"]:
        return run_fleet(workload, env["workers"], workdir, traced)
    extra = ["--trace-out", workdir / "trace.json"] if traced else []
    return run_single(workload, env["threads"], workdir, extra)


# ---- end-to-end measurement (--trace 0) -----------------------------------

def measure(workload, env, ref, scenes, seconds, run_started, scratch):
    samples, durations = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        workdir = scratch.new("campaign")
        inv = invoke(workload, env, workdir)
        canon = canonical(inv.stores, workdir) if inv.ok else None
        scratch.drop(workdir)
        attempted += ref.planned
        failed += failed_runs(canon, ref)
        if inv.ok:
            samples.append(inv)
        now = time.perf_counter()
        durations.append(now - began)
        estimate = statistics.median(durations)
        if len(durations) >= MIN_SAMPLES and now - started + estimate > seconds:
            break
        if now - run_started + estimate > RUN_DEADLINE:
            break
    metrics = {}
    if samples:
        replay = [s.total_s - s.setup_s for s in samples]
        values = {
            "setup_s": [s.setup_s for s in samples],
            "total_s": [s.total_s for s in samples],
            "replays_per_s": [ref.planned / r for r in replay],
            "scenes_per_s": [scenes / r for r in replay],
            "peak_rss_mb": [s.rss_mb for s in samples],
        }
        metrics = {name: statistics.median(v) for name, v in values.items()}
    return metrics, attempted, failed, len(samples)


# ---- traced run (--trace 1) -----------------------------------------------

def load_spans(path):
    """(start_s, end_s, name) of every complete event in a trace file."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    return [(e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6, e["name"])
            for e in events if e.get("ph") == "X"]


def self_times(spans, wall):
    """Per-layer self time of one process's spans: each span's duration less
    the spans nested inside it. Raises BenchError if spans overlap without
    nesting (work ran concurrently, so self times could not add up to the
    wall time) or fall outside [0, wall]."""
    layers = collections.Counter()
    overlap = 0.0
    stack = []
    for start, end, name in sorted(spans, key=lambda s: (s[0], -s[1])):
        if start < -1e-3 or end > wall + 1e-3:
            raise BenchError(f"span {name} [{start:.6f}, {end:.6f}] lies outside the "
                             f"run's wall time {wall:.6f} s")
        while stack and stack[-1][1] <= start:
            stack.pop()
        layer = SPAN_LAYER.get(name, "other")
        if stack:
            parent_end, parent_layer = stack[-1][1], stack[-1][2]
            overlap += max(0.0, end - parent_end)
            layers[parent_layer] -= min(end, parent_end) - start
        layers[layer] += end - start
        stack.append((start, end, layer))
    if overlap > 0.01 * wall:
        raise BenchError(f"{overlap:.3f} s of spans overlap without nesting")
    return layers


def ledger_metrics(layers, wall):
    attributed = sum(layers.values())
    unattributed = wall - attributed
    if unattributed < -0.01 * wall:
        raise BenchError(f"layers sum to {attributed:.3f} s, more than the wall time {wall:.3f} s")
    metrics = {f"ledger.{layer}_s": layers.get(layer, 0.0) for layer in LEDGER_LAYERS}
    metrics["ledger.unattributed_s"] = unattributed
    metrics["ledger.wall_s"] = wall
    total = sum(metrics[f"ledger.{layer}_s"] for layer in LEDGER_LAYERS) + unattributed
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise BenchError(f"ledger does not reconcile: {total} s vs wall {wall} s")
    return metrics


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def histogram_quantile(telemetries, name, q):
    """Quantile of a program histogram summed over processes, interpolated
    geometrically inside its 4x-wide bucket (bounds 1e-6 * 4^i s)."""
    bounds, counts = [], []
    first = telemetries[0]
    prefix = f"{name}.le_"
    keys = sorted((k for k in first if k.startswith(prefix) and k != prefix + "inf"),
                  key=lambda k: float(k[len(prefix):]))
    for key in keys:
        bounds.append(float(key[len(prefix):]))
        counts.append(sum(t.get(key, 0) for t in telemetries))
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, count in enumerate(counts):
        if count > 0 and seen + count >= rank:
            low = bounds[i - 1] if i > 0 else bounds[0] / 4
            return low * (bounds[i] / low) ** ((rank - seen) / count)
        seen += count
    return bounds[-1]


def run_probe(args, workdir, name):
    proc = Proc([PROBE, *args], workdir, name)
    if not wait_all([proc], time.perf_counter() + INVOCATION_TIMEOUT) or not proc.ok:
        raise BenchError(f"perfbench_probe {args[0]} failed:\n{proc.stderr_tail()}")
    return json.loads(proc.lines[-1])


def module_metrics(modules):
    return {
        "ads.step_us": modules["step_us"], "ads.snapshot_us": modules["snapshot_us"],
        "ads.restore_us": modules["restore_us"],
        "ads.state_matches_us": modules["state_matches_us"],
        "ads.snapshot_bytes": modules["snapshot_bytes"],
    }


def zero(*names):
    return {name: 0.0 for name in names}


NET_METRICS = ("net.frames", "net.bytes_per_record", "coord.merge_append_s", "coord.grant_s",
               "fleet.leases_granted", "fleet.leases_stolen", "fleet.duplicates_frac")
BN_METRICS = ("bn.fit_s", "bn.select_s", "bn.inferences", "bn.inferences_per_s")


def traced_single(workload, env, ref, scratch):
    """Ledger run: the probe drives the campaign at one executor thread with
    tracing on. Overhead baseline: the same probe campaign untraced.
    Executor metrics: the CLI at full thread count with --trace-out."""
    attempted = failed = 0
    workdir = scratch.new("ledger")
    store, trace = workdir / "store.jsonl", workdir / "trace.json"
    run = run_probe(["campaign", *campaign_flags(workload), "--threads", 1,
                            "--store", store, "--trace", trace], workdir, "probe")
    attempted += ref.planned
    failed += failed_runs(canonical([store], workdir), ref)
    spans = load_spans(trace)
    wall = run["wall_s"]
    ledger = ledger_metrics(self_times(spans, wall), wall)
    scratch.drop(workdir)

    workdir = scratch.new("untraced")
    store = workdir / "store.jsonl"
    base = run_probe(["campaign", *campaign_flags(workload), "--threads", 1,
                             "--store", store], workdir, "probe")
    attempted += ref.planned
    failed += failed_runs(canonical([store], workdir), ref)
    scratch.drop(workdir)

    workdir = scratch.new("executor")
    inv = invoke(workload, env, workdir, traced=True)
    attempted += ref.planned
    if not inv.ok:
        raise BenchError("traced full-thread campaign failed")
    failed += failed_runs(canonical(inv.stores, workdir), ref)
    wide = load_spans(workdir / "trace.json")
    wide_telemetry = inv.procs[0].telemetry()
    scratch.drop(workdir)

    workdir = scratch.new("modules")
    modules = run_probe(["modules"], workdir, "modules")
    scratch.drop(workdir)

    tel = run["telemetry"]
    durations = {name: [e - s for s, e, n in spans if n == name]
                 for name in ("golden", "trunk", "replay", "perfbench.store_append")}
    span_total = {name: sum(v) for name, v in durations.items()}
    replay_ms = [1e3 * d for d in durations["replay"]]
    busy = sum(e - s for s, e, n in wide if n in ("replay", "trunk"))
    metrics = {
        "golden.precompute_s": span_total["golden"],
        "golden.scenes": run["golden_scenes"],
        "golden.checkpoint_bytes": run["golden_checkpoint_bytes"],
        "plan.build_s": run["plan_build_s"],
        "plan.groups": run["plan_groups"],
        "plan.runs_per_group": run["plan_nodes"] / max(1, run["plan_groups"]),
        "tree.trunk_s": span_total["trunk"],
        "tree.trunk_scenes": tel.get("replay_tree.trunk_scenes_simulated", 0),
        "tree.snapshots_taken": tel.get("replay_tree.snapshots_taken", 0),
        "replay.busy_s": span_total["replay"],
        "replay.p50_ms": quantile(replay_ms, 0.50),
        "replay.p99_ms": quantile(replay_ms, 0.99),
        "replay.samples": len(replay_ms),
        "replay.spliced_frac": tel.get("experiment.replays_spliced", 0)
        / max(1, tel.get("experiment.replays_forked", 0)),
        "executor.busy_frac": busy / (env["threads"] * wide_telemetry["wall_seconds"]),
        "executor.idle_wait_s": wide_telemetry.get("executor.idle_wait_seconds.sum_seconds", 0.0),
        "store.append_s": span_total["perfbench.store_append"],
        "store.appends": run["appends"],
        "store.bytes_per_record": run["store_bytes"] / max(1, run["appends"]),
        "trace.overhead_frac": wall / base["wall_s"] - 1.0,
        **module_metrics(modules),
        **ledger,
        **zero(*NET_METRICS),
    }
    if "bn_fit_s" in run:
        metrics.update({
            "bn.fit_s": run["bn_fit_s"], "bn.select_s": run["bn_select_s"],
            "bn.inferences": run["bn_inferences"],
            "bn.inferences_per_s": run["bn_inferences"] / run["bn_select_s"],
        })
    else:
        metrics.update(zero(*BN_METRICS))
    return metrics, attempted, failed


def traced_fleet(workload, env, ref, scratch):
    """Ledger run: the real fleet (one thread per worker), the coordinator
    traced. Workers export no spans, so their ledger comes from their
    telemetry histograms and launch-to-ready time. Overhead baseline: the
    same fleet untraced."""
    attempted = failed = 0
    workdir = scratch.new("ledger")
    inv = run_fleet(workload, env["workers"], workdir, traced=True)
    attempted += ref.planned
    if not inv.ok:
        raise BenchError("traced fleet campaign failed")
    failed += failed_runs(canonical(inv.stores, workdir), ref)
    coord, workers = inv.procs[0], inv.procs[1:]
    coord_spans = load_spans(workdir / "coord.trace.json")
    coord_tel = coord.telemetry()
    worker_tel = [w.telemetry() for w in workers]
    store_bytes = sum(p.stat().st_size for p in workdir.glob("*.jsonl")
                      if p.name != "canonical.jsonl")
    scratch.drop(workdir)

    layers = collections.Counter()
    wall = sum(proc.exit_at - proc.launched_at for proc in inv.procs)
    layers.update(self_times(coord_spans, coord.exit_at - coord.launched_at))
    for proc, tel in zip(workers, worker_tel):
        own = {
            "golden": proc.marker_at - proc.launched_at,
            "replay": tel.get("experiment.run_wall_seconds.sum_seconds", 0.0),
            "store": tel.get("store.append_seconds.sum_seconds", 0.0),
        }
        if sum(own.values()) > (proc.exit_at - proc.launched_at) * 1.01:
            raise BenchError(f"{proc.name}: layers exceed its wall time")
        layers.update(own)
    ledger = ledger_metrics(layers, wall)

    workdir = scratch.new("untraced")
    base = run_fleet(workload, env["workers"], workdir)
    attempted += ref.planned
    failed += failed_runs(canonical(base.stores, workdir) if base.ok else None, ref)
    scratch.drop(workdir)
    if not base.ok:
        raise BenchError("untraced fleet campaign failed")

    workdir = scratch.new("modules")
    modules = run_probe(["modules", *campaign_flags(workload), "--lease-runs", LEASE_RUNS],
                        workdir, "modules")
    scratch.drop(workdir)

    everyone = [coord_tel] + worker_tel

    def total(key):
        return sum(t.get(key, 0) for t in everyone)

    coord_span = collections.Counter()
    for start, end, name in coord_spans:
        coord_span[name] += end - start
    worker_wall = sum(t["wall_seconds"] for t in worker_tel)
    busy = sum(t.get("experiment.run_wall_seconds.sum_seconds", 0.0) for t in worker_tel)
    processes = len(inv.procs)
    metrics = {
        "golden.precompute_s": coord_span["golden"]
        + sum(w.marker_at - w.launched_at for w in workers),
        "golden.scenes": modules["golden_scenes"] * processes,
        "golden.checkpoint_bytes": modules["golden_checkpoint_bytes"] * processes,
        "plan.build_s": modules["plan_build_s"],
        "plan.groups": modules["plan_groups"],
        "plan.runs_per_group": modules["plan_nodes"] / max(1, modules["plan_groups"]),
        "tree.trunk_s": modules["trunk_s"],
        "tree.trunk_scenes": total("replay_tree.trunk_scenes_simulated"),
        "tree.snapshots_taken": total("replay_tree.snapshots_taken"),
        "replay.busy_s": busy,
        "replay.p50_ms": 1e3 * histogram_quantile(worker_tel, "experiment.run_wall_seconds", 0.50),
        "replay.p99_ms": 1e3 * histogram_quantile(worker_tel, "experiment.run_wall_seconds", 0.99),
        "replay.samples": total("experiment.run_wall_seconds.count"),
        "replay.spliced_frac": total("experiment.replays_spliced")
        / max(1, total("experiment.replays_forked")),
        "executor.busy_frac": busy / worker_wall,
        "executor.idle_wait_s": total("executor.idle_wait_seconds.sum_seconds"),
        "store.append_s": coord_span["store.append"]
        + sum(t.get("store.append_seconds.sum_seconds", 0.0) for t in worker_tel),
        "store.appends": total("store.appends"),
        "store.bytes_per_record": store_bytes / ref.planned,
        "net.frames": total("net.frames_out"),
        "net.bytes_per_record": total("net.bytes_out") / ref.planned,
        "coord.merge_append_s": coord_span["coord.merge_append"],
        "coord.grant_s": coord_span["coord.grant"],
        "fleet.leases_granted": coord_tel.get("fleet.leases_granted", 0),
        "fleet.leases_stolen": coord_tel.get("fleet.leases_stolen", 0),
        "fleet.duplicates_frac": coord_tel.get("coord.duplicates_dropped", 0)
        / max(1, coord_tel.get("coord.records_stored", 0)),
        "trace.overhead_frac": inv.total_s / base.total_s - 1.0,
        **module_metrics(modules),
        **ledger,
        **zero(*BN_METRICS),
    }
    return metrics, attempted, failed


# ---- main ------------------------------------------------------------------

def declared_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def emit(correct, attempted, failed, metrics, units, env):
    print(f"perfbench {env['workload']}: seed {env['seed']}, {env['threads']} threads, "
          f"nproc {env['nproc']}, {env['compiler']}, {env['build_type']}, "
          f"git {env['git_sha'] or 'n/a'}, sources {env['source_digest']}")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:>16.6f} {units[name]}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'runs_failed_frac':28s} {frac:>16.6f} fraction  ({failed} of {attempted} runs)")
    print(json.dumps({"type": "perfbench.env", **env}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    preflight()
    # Compilers and children keep their temp files inside the checkout too.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_THREADS, nproc)
    stamp = build(threads)
    info = probe_info()
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "threads": threads,
        "workers": max(1, threads - 1) if WORKLOADS[args.workload]["fleet"] else 0,
        "compiler": stamp.get("compiler", "?"), "build_type": stamp.get("build_type"),
        "cxx_flags": stamp.get("cxx_flags", "").strip(),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "campaign": " ".join(campaign_flags(args.workload)),
    }

    scratch = Scratch()
    try:
        run_started = time.perf_counter()
        ref = reference(args.workload, threads, scratch)
        env["planned_runs"] = ref.planned
        env["outcomes"] = dict(ref.outcomes)
        if args.trace:
            traced = traced_fleet if WORKLOADS[args.workload]["fleet"] else traced_single
            metrics, attempted, failed = traced(args.workload, env, ref, scratch)
            samples = 1
        else:
            scenes = sum(info["scenario_scenes"][i] for i in ref.scenario_indices())
            metrics, attempted, failed, samples = measure(
                args.workload, env, ref, scenes, args.seconds, run_started, scratch)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if metrics and set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             + ", ".join(sorted(set(metrics) ^ set(units))))
        env["samples"] = samples
        correct = failed == 0 and bool(metrics)
        emit(correct, attempted, failed, metrics, units, env)
        return 0
    finally:
        kill_all()
        scratch.close()


def on_signal(signum, frame):
    kill_all()
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        sys.exit(main())
    except BenchError as error:
        log(f"perfbench: error: {error}")
        sys.exit(1)
