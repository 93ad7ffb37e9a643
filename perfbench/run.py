#!/usr/bin/env python3
"""Repository benchmark: drives the shipped graphr binaries end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a graphr checkout. The first run builds
graphr_run, graphr_serve and the traced probe graphr_trace (Release)
into $CARGO_TARGET_DIR (default .bench_build); scratch files go to
.bench_work. With --trace 0 the last stdout line holds the end-to-end
metrics of untraced runs; with --trace 1 it holds the per-layer
breakdown from graphr_trace. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
NPROC = os.cpu_count() or 1
REQUEST_TIMEOUT_S = 120.0

WORKLOADS = ("cli_cold", "cli_warm_store", "serve_steady", "functional")

# One-shot CLI mix: every graphr workload on the single node, PageRank
# on the other two GraphR backends, and CF on a rating graph. PageRank,
# the paper's headline workload, appears twice: each request kind's
# latencies form a narrow cluster, and with an even number of kinds the
# median would sit in the gap between two clusters and jump across it
# from run to run; with an odd count it lands inside one cluster.
CLI_MIX = (
    ("pagerank", "graphr", "main"),
    ("pagerank", "graphr", "main"),
    ("bfs", "graphr", "main"),
    ("sssp", "graphr", "main"),
    ("wcc", "graphr", "main"),
    ("spmv", "graphr", "main"),
    ("pagerank", "outofcore", "main"),
    ("pagerank", "multinode", "main"),
    ("cf", "graphr", "ratings"),
)
# Functional mix: the MAC/MVM path (pagerank, spmv) and the add-op path
# (bfs, sssp). SpMV appears twice, for the same reason as PageRank above;
# PageRank itself is no candidate here, as its functional run time
# follows its seed-dependent iteration count.
FUNCTIONAL_MIX = ("pagerank", "spmv", "spmv", "bfs", "sssp")
# Daemon request kinds, on the hot graphs and on fresh (miss) graphs.
SERVE_KINDS = (("pagerank", "graphr"), ("bfs", "graphr"),
               ("sssp", "outofcore"))
SERVE_CONNECTIONS = min(4, NPROC)
# Miss graphs per seed with a recorded digest; a serve_steady window
# sends about 30, so later miss indices are rare and only self-checked.
REFERENCE_MISSES = 64
SERVE_JOBS = 2
SETUP_REPEATS = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------- inputs
def derive(seed, label):
    """Generator seed for one dataset, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 2_000_000_000 + 1


def datasets(seed):
    rmat = "rmat:vertices=65536,edges=1048576,seed={}"
    return {
        "main": rmat.format(derive(seed, "main")),
        "hot1": rmat.format(derive(seed, "hot1")),
        "ratings": "bipartite:users=32768,items=32768,ratings=1048576,"
                   "seed={}".format(derive(seed, "ratings")),
        "functional": "rmat:vertices=8192,edges=65536,seed={}".format(
            derive(seed, "functional")),
    }


def miss_dataset(seed, index):
    return "rmat:vertices=65536,edges=1048576,seed={}".format(
        derive(seed, f"miss{index}"))


def key_of(workload, backend, dataset, functional=False):
    return f"{workload}/{backend}/{dataset}" + ("/functional"
                                                 if functional else "")


def digest_results(results):
    """Digest of the simulated results, independent of JSON layout."""
    text = json.dumps(results, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ---------------------------------------------------------------- build
def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def read_cache(build):
    cache = {}
    path = build / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(
                    ("#", "//")):
                name, value = line.split("=", 1)
                cache[name.split(":", 1)[0]] = value
    return cache


def build():
    """Build the binaries (Release) and refuse any other build type."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a graphr checkout")
    out = build_dir()
    if read_cache(out).get("CMAKE_BUILD_TYPE") != "Release":
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(NPROC), "--target",
         "graphr_run", "graphr_serve", "graphr_trace"],
        check=True, stdout=subprocess.DEVNULL, stderr=sys.stderr)
    cache = read_cache(out)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to measure a non-Release build "
                         f"({cache.get('CMAKE_BUILD_TYPE')!r})")
    return {
        "run": out / "graphr" / "graphr_run",
        "serve": out / "graphr" / "graphr_serve",
        "trace": out / "graphr_trace",
        "cache": cache,
        "dir": out,
    }


def environment(bins):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = bins["cache"].get("CMAKE_CXX_COMPILER", "")
    for found in bins["dir"].glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = found.read_text()
        for field in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
            marker = f'set({field} "'
            if marker in text:
                compiler += " " + text.split(marker, 1)[1].split('"', 1)[0]
        break
    simd = json.loads(subprocess.run(
        [str(bins["trace"]), "env"], check=True, capture_output=True,
        text=True).stdout)["simd"]
    sources = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            sources.update(str(f.relative_to(ROOT)).encode())
            sources.update(f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": NPROC, "cpu": cpu, "compiler": compiler.strip(),
        "build_type": bins["cache"].get("CMAKE_BUILD_TYPE"),
        "simd": simd, "commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
    }


# ------------------------------------------------------------ processes
def spawn(args, workdir, env=None, timeout=REQUEST_TIMEOUT_S):
    """Run one process; return (seconds, returncode, stdout, stderr,
    peak RSS in KiB). Time runs from spawn to exit."""
    full_env = dict(os.environ)
    full_env.update(env or {})
    with open(workdir / "stdout", "w+b") as out, \
            open(workdir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], stdout=out,
                                stderr=err, env=full_env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (elapsed, proc.returncode, out.read().decode(),
                err.read().decode(), usage.ru_maxrss)


def perf_counts(stderr):
    counts = {}
    for line in stderr.splitlines():
        if line.startswith("perf-counter ") and "=" in line:
            name, value = line[len("perf-counter "):].split("=", 1)
            counts[name] = int(value)
    return counts


class Checker:
    """Output check: every answer is compared with the recorded digest of
    its key (or, for a key without one, with its first answer here)."""

    def __init__(self):
        reference = json.loads(REFERENCE.read_text()) \
            if REFERENCE.exists() else {}
        self.reference = reference.get("digests", {})
        self.fingerprints = reference.get("fingerprints", {})
        self.seen = {}
        self.mismatches = []
        self.unreferenced = set()
        self.lock = threading.Lock()

    def check(self, key, results):
        digest = digest_results(results)
        with self.lock:
            expected = self.reference.get(key)
            if expected is None:
                self.unreferenced.add(key)
                expected = self.seen.setdefault(key, digest)
            if digest != expected:
                self.mismatches.append(key)
                return False
            return True


class Tally:
    """Request outcomes of one timed window."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.peak_kib = 0
        self.per_key = {}         # key -> latencies of its ok answers
        self.counts = {}          # key -> list of perf-counter dicts
        self.lock = threading.Lock()

    def record(self, key, seconds, ok, counts=None, rss_kib=0):
        with self.lock:
            self.attempted += 1
            if ok:
                self.latencies.append(seconds)
                self.per_key.setdefault(key, []).append(seconds)
            else:
                self.failed += 1
            self.peak_kib = max(self.peak_kib, rss_kib)
            if counts is not None:
                self.counts.setdefault(key, []).append(counts)


def cli_request(bins, checker, tally, workdir, key, args):
    env = {"GRAPHR_PERF_DUMP": "1"}
    seconds, rc, out, err, rss = spawn([bins["run"], *args, "--out", "-"],
                                       workdir, env)
    ok = rc == 0
    if ok:
        try:
            ok = checker.check(key, json.loads(out)["results"])
        except (ValueError, KeyError):
            ok = False
    if not ok:
        log(f"request failed: {key} rc={rc} {err.strip()[-300:]}")
    tally.record(key, seconds, ok, perf_counts(err), rss)


# ------------------------------------------------------- CLI workloads
def cli_requests(name, specs):
    """(key, argv) of one round of a CLI workload's mix."""
    if name == "functional":
        return [(key_of(w, "graphr", specs["functional"], True),
                 ["--algo", w, "--backend", "graphr", "--functional",
                  "--dataset", specs["functional"]])
                for w in FUNCTIONAL_MIX]
    return [(key_of(w, b, specs[d]),
             ["--algo", w, "--backend", b, "--dataset", specs[d]])
            for w, b, d in CLI_MIX]


def request_args(name, args, workdir, plans):
    """A CLI request's plan store: a fresh empty one per cold request,
    the prepared one for warm-store requests, none in functional mode."""
    if name == "cli_cold":
        plans = workdir / "cold_plans"
        shutil.rmtree(plans, ignore_errors=True)
        plans.mkdir()
    return args + (["--plan-dir", str(plans)] if plans else [])


def cli_setup(name, bins, specs, workdir):
    """Per-workload set-up; returns the prepared plan dir (warm store)."""
    if name != "cli_warm_store":
        # Warm-up: one untimed request (binary and page cache).
        _, args = cli_requests(name, specs)[0]
        _, rc, _, err, _ = spawn(
            [bins["run"], *request_args(name, args, workdir, None),
             "--out", os.devnull], workdir)
        if rc != 0:
            raise BenchError(f"warm-up failed: {err.strip()[-300:]}")
        return None
    plans = workdir / "plans"
    shutil.rmtree(plans, ignore_errors=True)
    plans.mkdir()
    _, rc, _, err, _ = spawn(
        [bins["run"], "prepare", "--dataset", specs["main"], "--dataset",
         specs["ratings"], "--plan-dir", plans, "--jobs", "2"], workdir)
    if rc != 0:
        raise BenchError(f"prepare failed: {err.strip()[-300:]}")
    # prepare covers the single-node tiling; the multinode stripes are
    # written through by one warm-up run.
    _, rc, _, err, _ = spawn(
        [bins["run"], "--algo", "pagerank", "--backend", "multinode",
         "--dataset", specs["main"], "--plan-dir", plans, "--out",
         os.devnull], workdir)
    if rc != 0:
        raise BenchError(f"warm-up failed: {err.strip()[-300:]}")
    return plans


def run_cli(name, bins, specs, seconds, workdir, checker):
    setups = []
    plans = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plans = cli_setup(name, bins, specs, workdir)
        round_ = cli_requests(name, specs)
        setups.append(time.perf_counter() - start)
    tally = Tally()
    window_start = time.perf_counter()
    # Whole rounds of the mix, so every run weighs the keys alike; stop
    # at the round boundary nearest to the requested window length.
    while True:
        round_start = time.perf_counter()
        for key, args in round_:
            cli_request(bins, checker, tally, workdir, key,
                        request_args(name, args, workdir, plans))
        now = time.perf_counter()
        if now - window_start + (now - round_start) / 2 >= seconds:
            break
    window = time.perf_counter() - window_start
    return {"setups": setups, "tally": tally, "window": window,
            "plans": plans}


# ------------------------------------------------------- serve workload
class Daemon:
    """One graphr_serve --port 0 process."""

    def __init__(self, bins, workdir):
        self.log_path = workdir / "serve.log"
        self.log_file = open(self.log_path, "w+b")
        self.proc = subprocess.Popen(
            [str(bins["serve"]), "--port", "0", "--jobs", str(SERVE_JOBS)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log_file, cwd=ROOT)
        self.port = None
        deadline = time.monotonic() + 30
        marker = "listening on 127.0.0.1:"
        while self.port is None:
            text = self.log_path.read_text(errors="replace")
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("graphr_serve did not start: " + text)
            else:
                time.sleep(0.01)

    def peak_rss_kib(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self):
        """SIGTERM and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_file.close()
        return self.proc.returncode


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_TIMEOUT_S)
        self.buffer = b""
        self.next_id = 0

    def call(self, request):
        self.next_id += 1
        request = dict(request, id=f"r{self.next_id}")
        self.sock.sendall((json.dumps(request) + "\n").encode())
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        response = json.loads(line)
        if response.get("id") != request["id"]:
            raise ConnectionError("response id mismatch")
        return response

    def close(self):
        self.sock.close()


def run_request(workload, backend, dataset):
    return {"type": "run", "workload": workload, "backend": backend,
            "dataset": dataset}


def serve_call(conn, checker, tally, workload, backend, dataset):
    """One run request; False on a failed answer, None when the
    connection is broken."""
    key = key_of(workload, backend, dataset)
    start = time.perf_counter()
    try:
        response = conn.call(run_request(workload, backend, dataset))
        ok = response.get("ok") is True and checker.check(
            key, response["results"])
        if not ok:
            log(f"request failed: {key} {str(response)[:300]}")
    except (OSError, ValueError, KeyError) as err:
        log(f"request failed: {key} {err}")
        ok = None
    tally.record(key, time.perf_counter() - start, bool(ok))
    return ok


def serve_setup(bins, specs, workdir, checker):
    """Start the daemon and warm the hot graphs (one request per key)."""
    daemon = Daemon(bins, workdir)
    try:
        conns = [Connection(daemon.port) for _ in range(SERVE_CONNECTIONS)]
        warm = [(w, b, specs[g]) for g in ("main", "hot1")
                for w, b in SERVE_KINDS]
        errors = []

        def warm_up(conn, items):
            for w, b, d in items:
                if not serve_call(conn, checker, Tally(), w, b, d):
                    errors.append(key_of(w, b, d))

        threads = [threading.Thread(target=warm_up,
                                    args=(c, warm[i::len(conns)]))
                   for i, c in enumerate(conns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise BenchError(f"warm-up failed: {errors}")
        return daemon, conns
    except BaseException:
        daemon.stop()
        raise


def run_serve(bins, specs, seed, seconds, workdir, checker):
    setups = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        daemon, conns = serve_setup(bins, specs, workdir, checker)
        setups.append(time.perf_counter() - start)
        if attempt + 1 < SETUP_REPEATS:
            for c in conns:
                c.close()
            if daemon.stop() != 0:
                raise BenchError("graphr_serve exited non-zero on SIGTERM")
    try:
        run = serve_window(daemon, conns, specs, seed, seconds, checker)
    finally:
        for c in conns:
            c.close()
        code = daemon.stop()
    if code != 0:
        raise BenchError("graphr_serve exited non-zero on SIGTERM")
    run["setups"] = setups
    return run


def serve_window(daemon, conns, specs, seed, seconds, checker):
    status_conn = Connection(daemon.port)
    try:
        before = status_conn.call({"type": "status"})
        run = serve_traffic(conns, specs, seed, seconds, checker)
        run["status"] = (before, status_conn.call({"type": "status"}))
    finally:
        status_conn.close()
    run["tally"].peak_kib = daemon.peak_rss_kib()
    return run


def serve_traffic(conns, specs, seed, seconds, checker):
    """The timed window: closed-loop clients, one per connection."""
    tally = Tally()
    hot = [0]
    miss_counter = [0]
    lock = threading.Lock()
    window_start = time.perf_counter()
    deadline = window_start + seconds

    def client(index, conn):
        # Closed loop: the next request goes out when the reply is in.
        # Three requests in four hit a hot graph; the fourth names a
        # graph the daemon has not seen (the next fresh derived seed).
        # Connections are staggered so their misses do not bunch up.
        step = 0
        while time.perf_counter() < deadline:
            if (step + index) % 4 == 3:
                with lock:
                    miss = miss_counter[0]
                    miss_counter[0] += 1
                w, b = SERVE_KINDS[miss % len(SERVE_KINDS)]
                d = miss_dataset(seed, miss)
            else:
                pick = (index + step) % (2 * len(SERVE_KINDS))
                w, b = SERVE_KINDS[pick % len(SERVE_KINDS)]
                d = specs["main" if pick < len(SERVE_KINDS) else "hot1"]
                with lock:
                    hot[0] += 1
            if serve_call(conn, checker, tally, w, b, d) is None:
                break
            step += 1

    threads = [threading.Thread(target=client, args=(i, c))
               for i, c in enumerate(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - window_start
    return {"tally": tally, "window": window,
            "hot_share": hot[0] / max(1, tally.attempted),
            "misses": miss_counter[0]}


# ------------------------------------------------------------- metrics
def end_to_end(run):
    tally = run["tally"]
    # A failed request misses any latency limit: with no answer at all,
    # report the request timeout.
    lat = tally.latencies or [REQUEST_TIMEOUT_S]
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "req_p50_s": (statistics.median(lat), "s"),
        "throughput_rps": (len(tally.latencies) / run["window"], "1/s"),
        "ok_frac": (len(tally.latencies) / max(1, tally.attempted), "frac"),
        "peak_rss_mib": (tally.peak_kib / 1024.0, "MiB"),
    }


def check_counts(name, seed, run, sources):
    """Work counts must repeat exactly: across the repetitions of a key
    in this run, and against an earlier run of the same seed on the same
    sources (a change to the program may change its counts)."""
    flagged = []
    merged = {}
    for key, samples in run["tally"].counts.items():
        for sample in samples[1:]:
            if sample != samples[0]:
                flagged.append(f"{key}: {sample} != {samples[0]}")
        merged[key] = samples[0]
    if not merged:
        return flagged
    path = WORK / f"counts-{name}-{seed}-{sources}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key, counts in merged.items():
            if key in earlier and earlier[key] != counts:
                flagged.append(f"{key}: {counts} != earlier {earlier[key]}")
    else:
        path.write_text(json.dumps(merged, sort_keys=True))
    return flagged


def fingerprint_guard(bins, specs, checker, workdir):
    """Re-resolving a derived spec must give the same fingerprint (and the
    recorded one, when this seed was recorded)."""
    problems = []
    for spec in specs:
        _, rc, out, err, _ = spawn(
            [bins["trace"], "fingerprint", "--dataset", spec], workdir)
        if rc != 0:
            problems.append(f"{spec}: {err.strip()[-200:]}")
            continue
        first, second = json.loads(out)["fingerprints"]
        recorded = checker.fingerprints.get(spec, first)
        if not first == second == recorded:
            problems.append(f"{spec}: {first} {second} recorded {recorded}")
    return problems


# ---------------------------------------------------------- traced run
def traced_keys(name, specs, seed):
    """(key, weight, argv extras, mode) of the requests to trace."""
    if name == "functional":
        return [(key_of(w, "graphr", specs["functional"], True),
                 FUNCTIONAL_MIX.count(w),
                 [w, "graphr", specs["functional"], "--functional"],
                 "functional")
                for w in dict.fromkeys(FUNCTIONAL_MIX)]
    if name == "serve_steady":
        # Three in four requests are hot, one in four misses: weight
        # the traced hot kinds and the one traced miss accordingly.
        hot = [(key_of(w, b, specs["main"]), 0.75 / len(SERVE_KINDS),
                [w, b, specs["main"], "--warm-memory"], "hot")
               for w, b in SERVE_KINDS]
        miss = (key_of("pagerank", "graphr", miss_dataset(seed, 0)), 0.25,
                ["pagerank", "graphr", miss_dataset(seed, 0)], "miss")
        return hot + [miss]
    mode = "cold" if name == "cli_cold" else "warm"
    return [(key_of(w, b, specs[d]), CLI_MIX.count((w, b, d)),
             [w, b, specs[d]], mode)
            for w, b, d in dict.fromkeys(CLI_MIX)]


def span_totals(spans):
    """Summed duration per span name. Every layer span is a leaf (only
    the replay groups have children), so this is also its self time."""
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end_s"] - s[
            "start_s"]
    return total


PER_LAYER_TIMES = (
    "driver.resolve_s", "graph.fingerprint_s", "graph.sort_s",
    "graphr.tile_meta_s", "graph.csr_s", "store.save_s", "store.load_s",
    "store.decode_s", "algorithms.golden_s", "algorithms.symmetrize_s",
    "graphr.walk_s", "graphr.functional_walk_s", "rram.program_s",
    "rram.mvm_s", "service.exec_s")
GOLDEN_ALGOS = ("pagerank", "spmv", "bfs", "sssp", "wcc")


def layer_breakdown(key, mode, trace, start_s):
    """Per-request layer times on the request's path (0 off it), the
    traced latency and the attributed part of it."""
    total = span_totals(trace["spans"])
    counts = trace["counts"]
    scaled = lambda seconds, done, replayed: (
        seconds * done / replayed if replayed else 0.0)
    workload = key.split("/", 1)[0]
    t = lambda name: total.get(name, 0.0)
    cold_plan = mode in ("cold", "miss", "functional")
    functional = mode == "functional"
    # A timing-mode node run computes the golden result itself, except
    # for CF, whose golden model no request runs.
    golden = 0.0 if functional or workload == "cf" \
        else t("algorithms.golden")
    contained = t("graph.fingerprint") + golden + (
        t("algorithms.symmetrize") if workload == "wcc" else 0.0)
    walk = t("graphr.node_run") - contained
    layers = {
        "driver.resolve_s": t("driver.resolve"),
        "graph.fingerprint_s": t("graph.fingerprint"),
        "graph.sort_s": t("graph.sort") if cold_plan else 0.0,
        "graphr.tile_meta_s": t("graphr.tile_meta")
        if cold_plan or mode == "warm" else 0.0,
        "graph.csr_s": t("graph.csr")
        if workload in ("bfs", "sssp", "wcc") else 0.0,
        "store.save_s": t("store.save") if mode == "cold" else 0.0,
        "store.load_s": t("store.load") if mode == "warm" else 0.0,
        "store.decode_s": t("store.decode") if mode == "warm" else 0.0,
        "algorithms.golden_s": golden,
        "algorithms.symmetrize_s": t("algorithms.symmetrize"),
        "graphr.walk_s": 0.0 if functional else walk,
        "graphr.functional_walk_s": walk if functional else 0.0,
        # One replay pass over the plan's tiles, scaled to the number
        # of tile programs and MVM rows the node run itself performed.
        "rram.program_s": scaled(t("rram.program"),
                                 counts.get("engine.tile_programs"),
                                 counts.get("rram.replay_tiles")),
        "rram.mvm_s": scaled(t("rram.mvm"),
                             counts.get("rram.mvm_rows"),
                             counts.get("rram.replay_mvm_rows")),
        "service.exec_s": t("request") if mode == "hot" else 0.0,
    }
    # Attributed path: process start, resolve, the plan layers not inside
    # the node run, and the node run (fingerprint + golden + walk).
    attributed = (start_s + layers["driver.resolve_s"]
                  + (layers["graph.sort_s"] + layers["graphr.tile_meta_s"]
                     if cold_plan else 0.0)
                  + layers["store.save_s"] + layers["store.load_s"]
                  + t("graphr.node_run"))
    latency = start_s + t("request")
    return layers, latency, attributed


def weighted_mean(pairs):
    weight = sum(w for w, _ in pairs)
    return sum(w * v for w, v in pairs) / weight if weight else 0.0


def run_traced(name, bins, specs, seed, run, workdir, checker):
    """Per-layer metrics from graphr_trace, beside the untraced run."""
    cli = name != "serve_steady"
    start_s = statistics.median(
        spawn([bins["run"], "--list"], workdir)[0] for _ in range(5))
    serial = Tally()
    if not cli:
        # Untraced single-connection latency of each traced key, for the
        # tracing overhead (the daemon's window includes queue wait).
        daemon = Daemon(bins, workdir)
        try:
            conn = Connection(daemon.port)
            for key, _, argv, _ in traced_keys(name, specs, seed):
                w, b, d = argv[:3]
                if argv[-1] == "--warm-memory":
                    conn.call(run_request(w, b, d))
                serve_call(conn, checker, serial, w, b, d)
            conn.close()
        finally:
            if daemon.stop() != 0:
                raise BenchError("graphr_serve exited non-zero on SIGTERM")
    rows = []
    counts = {}
    per_request = {}
    for key, weight, argv, mode in traced_keys(name, specs, seed):
        scratch = workdir / "trace"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        extra = list(argv[3:])
        if mode == "cold":
            (scratch / "plans").mkdir()
            extra += ["--plan-dir", str(scratch / "plans")]
        elif mode == "warm":
            extra += ["--plan-dir", str(run["plans"])]
        out = scratch / "trace.json"
        _, rc, _, err, _ = spawn(
            [bins["trace"], "request", "--workload", argv[0], "--backend",
             argv[1], "--dataset", argv[2], "--scratch", scratch, "--out",
             out, *extra], workdir)
        if rc != 0:
            raise BenchError(f"graphr_trace failed on {key}: "
                             f"{err.strip()[-300:]}")
        trace = json.loads(out.read_text())
        if not checker.check(key, trace["results"]["results"]):
            raise BenchError(f"traced results differ for {key}")
        layers, latency, attributed = layer_breakdown(
            key, mode, trace, start_s if cli else 0.0)
        untraced = statistics.median(
            (run["tally"] if cli else serial).per_key[key])
        rows.append((weight, layers, latency, attributed, untraced, mode))
        per_request[key] = {m: round(v, 4) for m, v in layers.items()
                            if v and not m.startswith("algorithms.golden.")}
        per_request[key]["latency_s"] = round(latency, 4)
        for name_, value in trace["counts"].items():
            counts.setdefault(name_, []).append((weight, value))

    metrics = {metric: weighted_mean([(r[0], r[1][metric]) for r in rows])
               for metric in rows[0][1]}
    # The in-process request on warm caches: the hot rows only, as the
    # hot requests are the three in four the client p50 falls among.
    metrics["service.exec_s"] = weighted_mean(
        [(r[0], r[1]["service.exec_s"]) for r in rows if r[5] == "hot"])
    # Golden time per algorithm: the mean over the requests running it.
    for algo in GOLDEN_ALGOS:
        metrics[f"algorithms.golden.{algo}_s"] = weighted_mean(
            [(r[0], r[1]["algorithms.golden_s"]) for r, key in
             zip(rows, per_request) if key.startswith(algo + "/")])
    latency = weighted_mean([(r[0], r[2]) for r in rows])
    attributed = weighted_mean([(r[0], r[3]) for r in rows])
    untraced = weighted_mean([(r[0], r[4]) for r in rows])
    metrics["trace.unattributed_frac"] = 1.0 - attributed / latency
    metrics["trace.overhead_frac"] = (latency - untraced) / untraced
    metrics["process.start_s"] = start_s if cli else 0.0

    edges = weighted_mean(counts.get("edges", []))
    payload = weighted_mean(counts.get("store.payload_bytes", []))
    metrics["store.bytes_per_edge"] = payload / edges if edges else 0.0
    metrics["engine.tile_programs"] = weighted_mean(
        counts.get("engine.tile_programs", []))

    # Work counts per request, from the untraced run.
    tally = run["tally"]
    samples = [c for per in tally.counts.values() for c in per]
    per_req = lambda counter: (sum(c.get(counter, 0) for c in samples)
                               / len(samples)) if samples else 0.0
    metrics["graph.sorts_per_req"] = per_req("preprocess.sorts")
    metrics["engine.plan_cache_misses_per_req"] = per_req(
        "plan_cache.misses")
    metrics["store.load_hits_per_req"] = per_req("store.load_hits")
    metrics["store.saves_per_req"] = per_req("store.saves")
    metrics["store.decoded_edges_per_req"] = per_req(
        "store.codec.decoded_edges")
    metrics["rram.mvm_rows"] = per_req("crossbar.mvm_rows_processed")

    client_p50 = statistics.median(tally.latencies)
    metrics["service.wait_s"] = 0.0
    for ratio in ("plan_cache", "golden_cache"):
        metrics[f"service.{ratio}_hit_ratio"] = 0.0
    metrics["service.hot_request_share"] = 0.0
    if not cli:
        before, after = run["status"]
        requests = max(1, tally.attempted)
        plan_misses = (after["plan_cache"]["misses"]
                       - before["plan_cache"]["misses"])
        metrics["engine.plan_cache_misses_per_req"] = plan_misses / requests
        # Without a store every plan-cache miss is a fresh sort.
        metrics["graph.sorts_per_req"] = plan_misses / requests
        for ratio in ("plan_cache", "golden_cache"):
            hits = after[ratio]["hits"] - before[ratio]["hits"]
            misses = after[ratio]["misses"] - before[ratio]["misses"]
            metrics[f"service.{ratio}_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
        metrics["service.wait_s"] = client_p50 - metrics["service.exec_s"]
        metrics["service.hot_request_share"] = run["hot_share"]
    units = {}
    for metric in metrics:
        if metric.endswith("_s"):
            units[metric] = "s"
        elif metric.endswith(("_frac", "_ratio", "_share")):
            units[metric] = "frac"
        elif metric == "store.bytes_per_edge":
            units[metric] = "B/edge"
        else:
            units[metric] = "count"
    hot_layers = {m: rows[0][1][m] for m in PER_LAYER_TIMES
                  if m != "service.exec_s"}
    detail = {"largest_layer_first_traced_request":
              max(hot_layers, key=hot_layers.get),
              "traced_requests": per_request}
    return {m: (v, units[m]) for m, v in metrics.items()}, detail


# ---------------------------------------------------------------- main
def run_workload(name, bins, seed, seconds, trace, workdir, sources):
    specs = datasets(seed)
    checker = Checker()
    if name == "serve_steady":
        run = run_serve(bins, specs, seed, seconds, workdir, checker)
        guarded = [specs["main"], specs["hot1"]]
    else:
        run = run_cli(name, bins, specs, seconds, workdir, checker)
        guarded = ([specs["functional"]] if name == "functional"
                   else [specs["main"], specs["ratings"]])
    problems = fingerprint_guard(bins, guarded, checker, workdir)
    problems += check_counts(name, seed, run, sources)
    detail = {}
    if trace:
        metrics, detail = run_traced(name, bins, specs, seed, run, workdir,
                                     checker)
    else:
        metrics = end_to_end(run)
    tally = run["tally"]
    failed = tally.failed
    for key in set(checker.mismatches):
        log(f"digest mismatch: {key}")
    detail.update({
        "workload": name, "seed": seed,
        "requests": tally.attempted, "window_s": run["window"],
        "setup_samples": len(run["setups"]),
        "latency_samples": len(tally.latencies),
        # p90 is not a metric: no workload yields the >= 100 requests a
        # run needs for ten samples beyond it. Shown here for reference.
        "req_p90_s": statistics.quantiles(tally.latencies, n=10)[-1]
        if len(tally.latencies) >= 2 else None,
        "per_key_samples": {k: len(v)
                            for k, v in tally.per_key.items()},
        "unreferenced_keys": len(checker.unreferenced),
        "problems": problems,
    })
    if name == "serve_steady":
        detail["hot_share"] = run["hot_share"]
        detail["miss_requests"] = run["misses"]
    return metrics, detail, failed, tally.attempted, not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        bins = build()
        env = environment(bins)
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            metrics, detail, failed, attempted, consistent = run_workload(
                args.workload, bins, args.seed, args.seconds,
                bool(args.trace), workdir, env["source_sha256"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError,
            statistics.StatisticsError) as err:
        log(f"error: {err}")
        return 1
    detail["environment"] = env
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
