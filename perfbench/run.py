#!/usr/bin/env python3
"""Campaign benchmark: paper-scale workloads submitted to ao_campaignd.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the daemon, its
worker, the control client and the layer driver from source (into
$CARGO_TARGET_DIR, default .bench_build), starts ao_campaignd, submits the
workload's campaigns in a closed loop from one client over the daemon's
socket protocol for --seconds seconds, checks every streamed output and
prints a table of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: it runs the self-timed layer driver (perf_layers), then the
workload for half of --seconds untraced and for the other half with the
daemon's --profile-dir phase spans on, and derives the tracing overhead
from the two. perfbench/README.md
describes the workloads, the metrics and the layer-to-end-to-end map.

Every input derives from --seed: the same seed gives the same campaigns. The
script reads and writes only inside the checkout (the build directory and
.bench_run/), stops every process it starts and exits non-zero, without a
result line, when it cannot build or run.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

IMPLS = "cpu-single,cpu-omp,cpu-accelerate,gpu-naive,gpu-cutlass,gpu-mps"
PAPER_SIZES = "32,64,128,256,512,1024,2048,4096,8192,16384"
KERNEL_VERIFY_MAX = 256
BUILD_TARGETS = ["ao_campaignd", "ao_worker", "ao_campaignctl", "perf_layers"]
SETUP_LAUNCHES = 8      # setup-only daemon launches per run (median setup_s)
READER_PAUSE_S = 0.005  # think time of the concurrent reader between pages
QUERY_LIMIT = 64
PREFILL_SIZES = ",".join(str(n) for n in range(16, 1040, 16))


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- requests --

def paper_sweep_request(i, seed):
    """The Fig. 2/4 grid, model-only: operand memory does all the work."""
    return [f"begin paper-sweep-{i}", "chips m1,m2,m4", f"impls {IMPLS}",
            f"sizes {PAPER_SIZES}", "repetitions 2", "functional-max 0",
            "workers 4", f"seed {seed}", "run"]


def kernels_request(i, seed):
    """Host numerics: functional kernels plus verification up to n=256."""
    return [f"begin kernels-{i}", "chips m1,m2,m3,m4", f"impls {IMPLS}",
            "sizes 128,256,512,1024", "repetitions 5", "functional-max 1024",
            f"verify-max {KERNEL_VERIFY_MAX}", "workers 4", f"seed {seed}",
            "run"]


def sharded_store_request(i, seed):
    """Every JobKind over two local shards; the seedless kinds repeat."""
    return [f"begin sharded-store-{i}", "chips m1,m2,m3,m4", f"impls {IMPLS}",
            "sizes 256,512,1024,2048", "repetitions 2", f"seed {seed}",
            "stream 1,4 10 2097152", "gpu-stream 20 4194304",
            f"precision 128 {seed % 1000 + 1}",
            "ane 256", f"fp64emu 64 {seed % 997 + 1}",
            f"sme 128 {seed % 991 + 1}", "power 0.5", "shards 2", "workers 2",
            "run"]


# `reference`: check each campaign's records against an untimed in-process
# run of the same request (the sharded workload's bit-identity check).
WORKLOADS = {
    "paper-sweep": {"request": paper_sweep_request, "reference": False},
    "kernels": {"request": kernels_request, "reference": False},
    "sharded-store": {"request": sharded_store_request, "reference": True},
}


def prefill_store(bins, workdir, store, rng):
    """Writes a fresh store of 3072 records from two model-only GEMM
    campaigns, untimed."""
    blocks = []
    for j in range(2):
        blocks += [f"begin prefill-{j}", "chips m1,m2,m3,m4", f"impls {IMPLS}",
                   f"sizes {PREFILL_SIZES}", "repetitions 1",
                   "functional-max 0", "workers 4",
                   f"seed {rng.randrange(1, 2**31)}", "run"]
    (workdir / store).unlink(missing_ok=True)
    proc = subprocess.run([str(bins["ao_campaignd"]), "--stdio", "--store",
                           store], cwd=workdir, text=True,
                          input="\n".join(blocks) + "\n",
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=120)
    if proc.returncode != 0 or proc.stdout.count("done campaign") != 2:
        raise BenchError("store prefill failed")


# -------------------------------------------------------------------- spans --

class Spans:
    """Client-side spans, kept in memory and written out at exit."""

    def __init__(self):
        self.items = []
        self.lock = threading.Lock()
        self.t0 = time.perf_counter_ns()

    def add(self, name, start_ns, end_ns, **attrs):
        with self.lock:
            self.items.append({"name": name, "start_ns": start_ns - self.t0,
                               "end_ns": end_ns - self.t0, **attrs})

    def write(self, path):
        with open(path, "w") as out:
            json.dump({"schema": "perfbench-client-spans/1",
                       "spans": self.items}, out)


# ------------------------------------------------------------------- build --

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/ "
                         "(run from the root of a full checkout)")
    # Compiler and tool temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_run" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(bdir), "--target", *BUILD_TARGETS,
                 "-j", jobs], 840)
    bins = {name: bdir / "ao" / name for name in BUILD_TARGETS[:3]}
    bins["perf_layers"] = bdir / "perf_layers"
    for name, path in bins.items():
        if not path.is_file():
            raise BenchError(f"build produced no {name} at {path}")
    return bins


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"command failed ({proc.returncode}): {cmd[:3]}")


# ------------------------------------------------------------------ daemon --

class Session:
    """One protocol session over the daemon's unix socket."""

    def __init__(self, path, timeout=120):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def send(self, lines):
        self.sock.sendall(("\n".join(lines) + "\n").encode())

    def readline(self):
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the session")
        return line.rstrip("\n")

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """ao_campaignd started from this process and reaped with wait4."""

    SOCKET = "d.sock"

    def __init__(self, bins, workdir, store, profile_dir=None):
        if (workdir / self.SOCKET).exists():
            (workdir / self.SOCKET).unlink()
        cmd = [str(bins["ao_campaignd"]), "--socket", self.SOCKET,
               "--shard-dir", "shards", "--store", store]
        if profile_dir is not None:
            cmd += ["--profile-dir", profile_dir]
        (workdir / "shards").mkdir(exist_ok=True)
        self.log = open(workdir / "daemon.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=workdir, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.rusage = None
        self.setup_s = self._wait_ready(workdir / self.SOCKET)

    def _wait_ready(self, path):
        deadline = self.started + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("ao_campaignd exited during start-up")
            try:
                session = Session(str(path.name), timeout=10)
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0001)
                continue
            session.send(["ping"])
            reply = session.readline()
            ready = time.perf_counter()
            session.close()
            if reply != "pong":
                raise BenchError(f"ping answered {reply!r}")
            return ready - self.started
        raise BenchError("ao_campaignd did not answer ping within 60 s")

    def command(self, line, terminal):
        session = Session(self.SOCKET)
        session.send([line])
        lines = []
        while True:
            reply = session.readline()
            lines.append(reply)
            if terminal(reply):
                break
        session.close()
        return lines

    def stats(self):
        lines = self.command("stats", lambda l: l.startswith("stats "))
        words = lines[-1].split()
        return {words[i]: int(words[i + 1]) for i in range(1, len(words) - 1, 2)}

    def shutdown(self):
        self.command("shutdown", lambda l: l.startswith("ok shutdown"))
        self.reap(timeout=60)

    def reap(self, timeout):
        """wait4 the daemon: its own usage plus every child it reaped."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == self.proc.pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                break
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError("ao_campaignd did not exit after shutdown")
            time.sleep(0.005)
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"ao_campaignd exited {self.proc.returncode}")

    def kill(self):
        if self.proc.returncode is None and self.rusage is None:
            self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = usage
        if not self.log.closed:
            self.log.close()


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


# ------------------------------------------------------------------ checks --

def fnv1a(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def entry_digest_ok(entry):
    payload, sep, digest = entry.rpartition(" # ")
    return bool(sep) and fnv1a(payload.encode()) == int(digest, 16)


def entry_key(entry):
    return tuple(int(tok, 16) for tok in entry.split()[1:7])


def gemm_verified(entry):
    """(n, verified) of a GEMM entry line, None for other record kinds."""
    tokens = entry.split(" # ")[0].split()
    if tokens[7] != "gemm":
        return None
    n = int(tokens[10], 16)
    count = int(tokens[11], 16)
    flags = tokens[12 + count + 6: 12 + count + 8]
    return n, flags[1] == "1"


class Outcome:
    """One submitted campaign as the client saw it."""

    def __init__(self, index, request):
        self.index = index
        self.request = request
        self.announced = None
        self.records = []
        self.done = None
        self.start_ns = self.end_ns = None
        self.seconds = None
        self.problems = []


def run_campaign(session, index, request, spans):
    outcome = Outcome(index, request)
    start = time.perf_counter_ns()
    session.send(request)
    while True:
        line = session.readline()
        if line.startswith("record "):
            outcome.records.append(line[7:])
        elif line.startswith("ok campaign "):
            outcome.announced = int(line.split()[6])
        elif line.startswith("done campaign "):
            outcome.done = int(line.split()[4])
            break
        elif line.startswith("error "):
            outcome.problems.append(line)
            break
    end = time.perf_counter_ns()
    outcome.start_ns, outcome.end_ns = start, end
    outcome.seconds = (end - start) / 1e9
    spans.add("campaign", start, end, index=index, records=len(outcome.records))
    return outcome


def check_stream(outcome, workload):
    """Checks every campaign's stream; returns the list of problems."""
    problems = list(outcome.problems)
    if outcome.done is None:
        problems.append("no done campaign line")
        return problems
    if outcome.announced is None or outcome.done != outcome.announced:
        problems.append(f"done {outcome.done} != announced {outcome.announced}")
    if len(outcome.records) != outcome.done:
        problems.append(f"{len(outcome.records)} record lines for "
                        f"done {outcome.done}")
    if len(set(outcome.records)) != len(outcome.records):
        problems.append("duplicate record lines")
    bad = sum(1 for entry in outcome.records if not entry_digest_ok(entry))
    if bad:
        problems.append(f"{bad} record lines fail their digest")
    if workload == "kernels":
        for entry in outcome.records:
            verdict = gemm_verified(entry)
            if verdict and verdict[0] <= KERNEL_VERIFY_MAX and not verdict[1]:
                problems.append(f"unverified n={verdict[0]} record")
                break
    return problems


def reference_records(bins, workdir, outcomes):
    """Record sets of the same requests run in-process (shards 1), untimed."""
    lines = []
    for outcome in outcomes:
        lines += [l for l in outcome.request
                  if not l.startswith(("shards", "workers"))][:-1]
        lines += ["workers 4", "run"]
    proc = subprocess.run([str(bins["ao_campaignd"]), "--stdio"], cwd=workdir,
                          input="\n".join(lines) + "\n", text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=150)
    sets, current = [], set()
    for line in proc.stdout.splitlines():
        if line.startswith("record "):
            current.add(line[7:])
        elif line.startswith("done campaign ") or line.startswith("error "):
            sets.append(current)
            current = set()
    if proc.returncode != 0 or len(sets) != len(outcomes):
        raise BenchError("in-process reference run failed")
    return sets


# ------------------------------------------------------------------ reader --

class Reader(threading.Thread):
    """The second client: pages the store with cursor-chained `query`
    commands while campaigns run, restarting a traversal at the end of the
    store or on stale-cursor."""

    def __init__(self, path, spans):
        super().__init__(daemon=True)
        self.session = Session(path)
        self.spans = spans
        self.stop = threading.Event()
        self.samples = []  # (start_ns, round trip in ms)
        self.attempted = 0
        self.failed = 0
        self.restarts = 0
        self.error = None

    def run(self):
        try:
            cursor, last_key = None, None
            while not self.stop.is_set():
                cmd = f"query limit {QUERY_LIMIT}"
                if cursor:
                    cmd += f" cursor {cursor}"
                start = time.perf_counter_ns()
                self.session.send([cmd])
                ok, cursor, last_key = self._read_page(last_key)
                end = time.perf_counter_ns()
                self.attempted += 1
                self.failed += 0 if ok else 1
                self.samples.append((start, (end - start) / 1e6))
                self.spans.add("read", start, end, ok=ok)
                self.stop.wait(READER_PAUSE_S)
        except Exception as exc:  # surfaced by the main thread
            self.error = exc
        finally:
            self.session.close()

    def _read_page(self, last_key):
        records = []
        while True:
            line = self.session.readline()
            if line.startswith("query-record "):
                records.append(line[13:])
            elif line.startswith("query-page "):
                words = line.split()
                break
            elif line.startswith("error stale-cursor"):
                self.restarts += 1
                return True, None, None
            else:
                return False, None, None
        ok = int(words[2]) == len(records)
        for entry in records:
            key = entry_key(entry)
            ok = ok and (last_key is None or key > last_key)
            last_key = key
        cursor = words[words.index("cursor") + 1]
        if cursor == "end":
            return ok, None, None
        return ok, cursor, last_key


# ---------------------------------------------------------------- workload --

def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def reader_windows(outcomes, reader):
    """The reader's round trips (ms) grouped by the campaign they overlapped."""
    return [[ms for start, ms in reader.samples
             if outcome.start_ns <= start < outcome.end_ns]
            for outcome in outcomes]


def per_campaign_percentile(windows, q):
    """Median over campaigns of the q-th percentile of each campaign's reader
    samples. A campaign that met a burst of outside load then moves the
    figure less than it would move one percentile over all samples."""
    return statistics.median(percentile(w, q) for w in windows if w)


def measure(bins, workdir, workload, seed, seconds, spans, profile_dir=None):
    """Runs one workload pass; returns (metrics, details, attempted, failed)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    store = "store.aocache"
    start = time.perf_counter_ns()
    prefill_store(bins, workdir, store, rng)
    spans.add("prefill", start, time.perf_counter_ns())

    # Set-up cost: launch to first pong, on daemons that then shut down.
    setup_times, setup_cpu, setup_user, setup_faults = [], [], [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter_ns()
        daemon = Daemon(bins, workdir, store=store, profile_dir=profile_dir)
        try:
            daemon.shutdown()
        finally:
            daemon.kill()
        spans.add("setup", start, time.perf_counter_ns(), setup_s=daemon.setup_s)
        setup_times.append(daemon.setup_s)
        setup_cpu.append(cpu_seconds(daemon.rusage))
        setup_user.append(daemon.rusage.ru_utime)
        setup_faults.append(daemon.rusage.ru_minflt)

    daemon = Daemon(bins, workdir, store=store, profile_dir=profile_dir)
    setup_times.append(daemon.setup_s)
    outcomes, reader = [], None
    try:
        session = Session(Daemon.SOCKET, timeout=150)
        # Campaign 0 warms the daemon up (System pool, allocator arenas, the
        # seedless records in the warm cache) and is not timed: a
        # long-running daemon pays that once, not per campaign.
        while True:
            request = spec["request"](len(outcomes), rng.randrange(1, 2**31))
            outcome = run_campaign(session, len(outcomes), request, spans)
            outcomes.append(outcome)
            if outcome.done is None:
                break
            if reader is None:
                reader = Reader(Daemon.SOCKET, spans=spans)
                reader.start()
                window_start = time.perf_counter()
            elif time.perf_counter() - window_start >= seconds:
                break
        session.close()
        if reader is None:
            raise BenchError(f"warm-up campaign failed: {outcome.problems}")
        reader.stop.set()
        reader.join(timeout=60)
        if reader.is_alive() or reader.error is not None:
            raise BenchError(f"reader failed: {reader.error}")
        stats = daemon.stats()
        daemon.shutdown()
    finally:
        if reader is not None:
            reader.stop.set()
        daemon.kill()

    timed = outcomes[1:]
    failed = 0
    problems = []
    for outcome in outcomes:
        found = check_stream(outcome, workload)
        problems += [f"campaign {outcome.index}: {p}" for p in found]
        failed += 1 if found else 0
    if spec["reference"]:
        references = reference_records(bins, workdir, outcomes)
        for outcome, reference in zip(outcomes, references):
            if set(outcome.records) != reference:
                problems.append(f"campaign {outcome.index}: merged records "
                                "differ from the in-process run")
                failed += 1
    check = subprocess.run([str(bins["ao_campaignctl"]), "--verify-store",
                            store], cwd=workdir, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=60)
    if check.returncode != 0 or " 0 rejected" not in check.stdout:
        problems.append("store fails --verify-store: " + check.stdout.strip())
        failed += 1
    if reader.failed:
        problems.append(f"{reader.failed} reader pages failed their checks")
    # At least 100 samples per campaign leave 10 beyond its p90.
    windows = reader_windows(timed, reader)
    thin = [len(w) for w in windows if len(w) < 100]
    if thin:
        problems.append(f"campaigns with fewer than 100 reader samples: {thin}")
        failed += 1

    # The resource figures cover the daemon's whole life, so the set-up
    # share is taken out and the rest spread over every campaign, the
    # warm-up included. Time figures cover the timed campaigns only.
    count = len(outcomes)
    usage = daemon.rusage
    times = [o.seconds for o in timed]
    records = sum(len(o.records) for o in timed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "campaign_s": statistics.median(times),
        "records_per_s": records / sum(times),
        "cpu_s": (cpu_seconds(usage) - statistics.median(setup_cpu)) / count,
        "user_cpu_s": (usage.ru_utime - statistics.median(setup_user)) / count,
        "minor_faults": (usage.ru_minflt - statistics.median(setup_faults))
                        / count,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "query_page_p50_ms": per_campaign_percentile(windows, 50),
    }
    details = {"campaigns": len(timed), "campaigns_total": count,
               "records": records, "stats": stats,
               "reader_samples": len(reader.samples),
               "reader_restarts": reader.restarts, "problems": problems,
               "campaign_times": times, "setup_times": setup_times,
               "query_page_p90_ms": per_campaign_percentile(windows, 90)}
    attempted = count + reader.attempted + 1  # + the store check
    return metrics, details, attempted, failed + reader.failed


# ------------------------------------------------------------------- trace --

def self_time_ms(spans, phase):
    """Sum of self time (duration minus children's covered part) of every
    span of `phase`, in ms."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    total = 0
    for span in spans:
        if span["phase"] != phase:
            continue
        lo, hi = span["start_ns"], span["start_ns"] + span["duration_ns"]
        covered, cursor = 0, lo
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_ns"]):
            c_lo = max(child["start_ns"], cursor)
            c_hi = min(child["start_ns"] + child["duration_ns"], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        total += hi - lo - covered
    return total / 1e6


def traced(bins, workdir, workload, seed, seconds, spans):
    """The per-layer run: layer driver, then the workload untraced and
    traced. Returns (metrics, details, attempted, failed)."""
    request = workdir / "layers.request"
    request.write_text("\n".join(sharded_store_request(0, seed)) + "\n")
    store = workdir / "layers.aocache"
    prefill_store(bins, workdir, store.name, random.Random(f"layers:{seed}"))
    layer_dir = workdir / "layers"
    layer_dir.mkdir()
    start = time.perf_counter_ns()
    proc = subprocess.run([str(bins["perf_layers"]), "--workdir", "layers",
                           "--request", request.name, "--store", store.name],
                          cwd=workdir, stdout=subprocess.PIPE, text=True,
                          timeout=150)
    spans.add("perf_layers", start, time.perf_counter_ns())
    if proc.returncode != 0:
        raise BenchError("perf_layers failed")
    layers = json.loads(proc.stdout)["metrics"]

    # Each pass gets half the window, so the traced run stays well inside
    # its time limit.
    untraced, untraced_details, att0, fail0 = measure(
        bins, workdir, workload, seed, seconds / 2, spans)
    profiles = workdir / "profiles"
    shutil.rmtree(profiles, ignore_errors=True)
    traced_m, details, att1, fail1 = measure(
        bins, workdir, workload, seed, seconds / 2, spans,
        profile_dir="profiles")

    shard_ms, transport_ms = [], []
    files = sorted(profiles.glob("*.profile.json"))
    for path in files:
        timeline = json.loads(path.read_text())["spans"]
        shard_ms.append(self_time_ms(timeline, "shard"))
        transport_ms.append(self_time_ms(timeline, "transport"))
    # stats and profiles cover every campaign, the warm-up included.
    campaigns = details["campaigns_total"]
    if len(files) != campaigns:
        raise BenchError(f"{len(files)} profiles for {campaigns} campaigns")
    stats = details["stats"]
    plans = stats["plan-hits"] + stats["plan-misses"]
    per_layer = metric_units(trace=1)
    metrics = {name: v["value"] for name, v in layers.items()
               if name in per_layer}
    metrics.update({
        "orchestrator.jobs_executed": stats["executed"] / campaigns,
        "orchestrator.cache_hit_ratio": stats["hits"] / max(1, stats["records"]),
        "orchestrator.plan_hit_ratio": stats["plan-hits"] / max(1, plans),
        "store.merged_entries": stats["merged"] / campaigns,
        "wire.shard_self_ms": statistics.median(shard_ms),
        "wire.transport_self_ms": statistics.median(transport_ms),
        "service.outbox_blocked": stats["outbox-blocked"],
        "service.query_page_p90_ms": untraced_details["query_page_p90_ms"],
        "service.tracing_overhead":
            traced_m["campaign_s"] / untraced["campaign_s"],
    })
    details["layer_context"] = {name: (v["value"], v["unit"])
                                for name, v in layers.items()
                                if name not in per_layer}
    details["problems"] = untraced_details["problems"] + details["problems"]
    details["end_to_end_untraced"] = untraced
    details["end_to_end_traced"] = traced_m
    return metrics, details, att0 + att1, fail0 + fail1




# -------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
        workdir = ROOT / ".bench_run" / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        os.chdir(workdir)  # keeps the socket path short
        spans = Spans()
        try:
            if args.trace:
                metrics, details, attempted, failed = traced(
                    bins, workdir, args.workload, args.seed, args.seconds,
                    spans)
            else:
                metrics, details, attempted, failed = measure(
                    bins, workdir, args.workload, args.seed, args.seconds,
                    spans)
        finally:
            spans.write(workdir / "client_spans.json")
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        log(f"perfbench: {exc}")
        return 2

    units = metric_units(args.trace)
    if set(metrics) != set(units):
        log(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json")
        return 2
    log(f"perfbench: campaign seconds {details['campaign_times']}")
    log(f"perfbench: setup seconds {details['setup_times']}")
    for problem in details["problems"]:
        log(f"perfbench: CHECK FAILED {problem}")
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{details['campaigns']} campaigns, {details['records']} records, "
          f"{details['reader_samples']} reader pages "
          f"({details['reader_restarts']} stale-cursor restarts), "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    for name, value in details.get("layer_context", {}).items():
        print(f"  {name:42s} {value[0]:>16.6g} {value[1]}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  {'query_page_p90_ms (not gated)':42s} "
              f"{details['query_page_p90_ms']:>16.6g} ms")
    correct = failed == 0 and not details["problems"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as spec:
        listed = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


if __name__ == "__main__":
    sys.exit(main())
