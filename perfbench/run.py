#!/usr/bin/env python3
"""Serving benchmark of the rts robust-scheduling stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve_ga --seed 1 --seconds 10 --trace 0

Builds rts, rts_serve and the layer tracer (perfbench/trace.cpp) into
.bench_build, generates the workload's inputs from --seed into .bench_work,
starts the program the way a user would, drives it closed-loop from this one
single-threaded process, checks every response, and prints one JSON result
object as the last line of stdout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 serves a
fixed number of requests and replays the same lines in process through each
layer's public functions for the per-layer metrics. The line before the
result is a JSON report: host header, thread budget, tail percentile and
sample count, the checks made, and (trace) the layer predictions.
"""

import argparse
import bisect
import collections
import gc
import hashlib
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

WORK_ROOT = ".bench_work"
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
APPS = os.path.join(BUILD_DIR, "rts", "apps")
RTS = os.path.join(APPS, "rts")
RTS_SERVE = os.path.join(APPS, "rts_serve")
TRACER = os.path.join(BUILD_DIR, "rts_bench_trace")

CLIENT_THREADS = 1
SETUP_REPEATS = 7
PROBE_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
EPSILONS = (1.0, 1.2, 1.5)

# Thread counts are for a 4-core host; smaller hosts get fewer solver
# threads (never more). `loop_busy`: the rts_serve event-loop thread carries
# this workload, so it counts against the budget. `window_s`: the measured
# time is cut into sub-windows this long; the end-to-end timings are taken
# over the quiet ones (see quiet_windows).
WORKLOADS = {
    "solve_ga": dict(kind="serve", conns=3, window=1, workers=3, loop_busy=False,
                     window_s=0.5, trace_requests=300),
    "mc_eval": dict(kind="serve", conns=3, window=1, workers=3, loop_busy=False,
                    window_s=0.5, trace_requests=300),
    "serve_hits": dict(kind="serve", conns=3, window=2, workers=2, loop_busy=True,
                       window_s=0.25, trace_requests=20000),
    "resched_drop": dict(kind="resched", threads=3, realizations=12, window_s=0.5,
                         trace_requests=40),
}
# GA generations per request (the stagnation exit) vary widely between
# problems, so a seed's mean work per request settles only over many
# problems: with 48 the mean GA generations over 900 lines spread 6% (IQR
# over median) between seeds, with 240 it spread 2%.
SERVE_PROBLEMS = 240   # n=100, m=8, alpha=1, CCR 0.1
HOT_LINES = 8          # serve_hits: one hot line per problem
RESCHED_PROBLEMS = 32  # n=60, m=4
TRACE_LINES = 4000     # distinct request lines per served trace (> 256 cache)
TAIL_BLOCK = 1000      # latency samples per tail block (see quiet_windows)
WARM_IN_FLIGHT = 32    # below rts_serve's default per-connection quota of 64


class BenchError(Exception):
    pass


LIVE = set()   # Popen objects and pids of programs still running


def stop_live():
    for child in list(LIVE):
        if isinstance(child, int):
            try:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        elif child.poll() is None:
            child.kill()
            child.communicate()
        LIVE.discard(child)


def on_signal(signum, _frame):
    # Turns the run's time limit (SIGALRM) and a SIGTERM into an exception,
    # so the programs it started are stopped on the way out.
    raise BenchError(f"stopped by signal {signum}")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sub_seed(seed, tag):
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).hexdigest()
    return int(digest[:12], 16) % (2**31 - 1) + 1


def clean_env(**overrides):
    # rts::Options reads RTS_<OPTION> variables as option defaults and
    # RTS_CHECK switches on the validator; none of them may leak in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("RTS_", "OMP_", "GOMP_"))}
    env.update({k: str(v) for k, v in overrides.items()})
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0 or pct == 50.0:
            rank = max(1, min(n, -(-int(pct * n) // 100)))
            return pct, ordered[rank - 1]
    raise AssertionError("unreachable")


# --------------------------------------------------------------------------
# Build and host header

def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("no rts source tree in the working directory")
    os.makedirs(WORK_ROOT, exist_ok=True)
    with open(os.path.join(WORK_ROOT, "build.log"), "w") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()), "--target",
                      "rts_cli", "rts_serve", "rts_bench_trace"])
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(step)} "
                                 f"(see {build_log.name})")


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_header():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    sha = None
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or None
    return {
        "cores": nproc(),
        "cpu_model": model,
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "rts_native_arch": cache.get("RTS_NATIVE_ARCH", ""),
        "git_sha": sha,
        "source_sha256_16": source_digest(),
    }


def probe_ms():
    """Median of a few runs of the tracer's fixed CPU-and-memory loop."""
    out = subprocess.run([TRACER, "probe", "--repeats", str(PROBE_REPEATS)],
                         capture_output=True, text=True, env=clean_env(), timeout=60)
    if out.returncode != 0:
        raise BenchError("host probe failed: " + out.stderr)
    return json.loads(out.stdout)["probe_ms"]


def cpu_times():
    """The machine-wide /proc/stat CPU counters (user ... steal)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


# --------------------------------------------------------------------------
# /proc readings

def proc_cpu_s(pid, tid=None):
    path = f"/proc/{pid}/stat" if tid is None else f"/proc/{pid}/task/{tid}/stat"
    with open(path) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def thread_cpu_s(pid):
    cpu = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            cpu[int(tid)] = proc_cpu_s(pid, tid)
        except FileNotFoundError:
            pass
    return cpu


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the program under test")


# --------------------------------------------------------------------------
# Inputs

def generate_problems(work, seed, prefix, count, tasks, procs):
    paths = []
    for i in range(count):
        path = f"{prefix}{i}.rts"
        subprocess.run([RTS, "generate", "--tasks", str(tasks), "--procs", str(procs),
                        "--alpha", "1", "--ccr", "0.1",
                        "--seed", str(sub_seed(seed, f"{prefix}{i}")),
                        "--out", os.path.join(work, path)],
                       check=True, stdout=subprocess.DEVNULL, env=clean_env())
        paths.append(path)
    return paths


class Line:
    """One request line and what its response must say."""

    def __init__(self, text, problem, epsilon, iters):
        self.text = text
        self.wire = (text + "\n").encode()
        self.problem = problem
        self.epsilon = epsilon
        self.iters = iters


def served_inputs(name, work, seed):
    """(warm-up lines, measured lines) of a served workload."""
    hits = name == "serve_hits"
    problems = generate_problems(work, seed, "p", HOT_LINES if hits else SERVE_PROBLEMS,
                                 100, 8)

    def line(k, problem, extra, iters):
        # Each pass over the problems shifts their epsilons by one, so any
        # prefix of the trace holds the three epsilons in equal parts.
        eps = EPSILONS[(k + k // len(problems)) % len(EPSILONS)]
        text = f"{problem} --epsilon {eps} --seed {sub_seed(seed, f'ga{k}')}{extra}"
        return Line(text, problem, eps, iters)

    if hits:
        hot = [line(k, problems[k], " --iters 50", 50) for k in range(HOT_LINES)]
        return hot, hot
    warm = [Line(f"{p} --iters 1 --realizations 16 --seed {sub_seed(seed, 'warm' + p)}",
                 p, 1.0, 1) for p in problems]
    lines = []
    for k in range(TRACE_LINES):
        problem = problems[k % len(problems)]
        if name == "mc_eval":
            extra = (f" --iters 20 --realizations 100000"
                     f" --mc-seed {sub_seed(seed, f'mc{k}')}")
            lines.append(line(k, problem, extra, 20))
        else:
            lines.append(line(k, problem, "", 1000))
    return warm, lines


# --------------------------------------------------------------------------
# Served workloads: rts_serve --listen and a closed-loop client

def strip_job(raw):
    """Response bytes after the per-connection job index."""
    if not raw.startswith(b'{"job":'):
        return raw
    return raw[raw.index(b",") + 1:]


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = b""
        self.wbuf = bytearray()
        self.pending = collections.deque()   # (send time, Line), in send order
        self.next_job = 0                    # per-connection job index

    def send(self, line, now):
        self.pending.append((now, line))
        self.wbuf += line.wire

    def flush(self):
        while self.wbuf:
            try:
                sent = self.sock.send(self.wbuf)
            except BlockingIOError:
                return False
            del self.wbuf[:sent]
        return True

    def read_lines(self):
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not data:
            raise BenchError("server closed a connection")
        self.rbuf += data
        *lines, self.rbuf = self.rbuf.split(b"\n")
        return lines


class Verifier:
    """Checks every response line; tallies failures by reason."""

    def __init__(self, expect_hit, references=None):
        self.expect_hit = expect_hit
        self.references = references or {}   # line text -> stripped bytes
        self.failures = collections.Counter()
        self.sample = {}                      # line text -> raw response
        self.generations = 0                  # GA generations over ok lines

    def check(self, conn, line, raw):
        job = conn.next_job
        conn.next_job += 1
        try:
            resp = json.loads(raw)
        except ValueError:
            return self.fail("unparseable")
        if resp.get("status") != "ok":
            return self.fail(str(resp.get("status")) + ":" + str(resp.get("error")))
        if resp.get("job") != job:
            return self.fail("job_order")
        if resp.get("problem") != line.problem:
            return self.fail("problem")
        if resp.get("cache_hit") is not self.expect_hit:
            return self.fail("cache_hit")
        try:
            if line.epsilon >= 1.0 and not (
                    resp["makespan"] <= line.epsilon * resp["heft_makespan"] * (1 + 1e-12)):
                return self.fail("epsilon_constraint")
            if not 1 <= resp["ga_iterations"] <= line.iters:
                return self.fail("ga_iterations")
        except (KeyError, TypeError):
            return self.fail("missing_fields")
        ref = self.references.get(line.text)
        if ref is not None and strip_job(raw) != ref:
            return self.fail("bytes_vs_reference")
        self.sample.setdefault(line.text, raw)
        self.generations += resp["ga_iterations"]
        return True

    def fail(self, reason):
        self.failures[reason] += 1
        return False


class Server:
    def __init__(self, work, workers, omp_threads):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.abspath(RTS_SERVE), "--listen", "0", "--threads", str(workers),
             "--stats"],
            cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=clean_env(OMP_NUM_THREADS=omp_threads))
        LIVE.add(self.proc)
        # Readiness: a blocking read of the line rts_serve prints once bound.
        ready = self.proc.stderr.readline().decode()
        prefix = "rts_serve: listening on 127.0.0.1:"
        if not ready.startswith(prefix):
            stop_live()
            raise BenchError("rts_serve did not start: " + ready.strip())
        self.port = int(ready[len(prefix):])
        self.pid = self.proc.pid

    def stop(self):
        """Graceful drain; returns the --stats JSON."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("rts_serve did not drain within 60 s")
        LIVE.discard(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"rts_serve exited with {self.proc.returncode}")
        return json.loads(err.decode().strip().splitlines()[-1])


def run_closed_loop(conns, lines, window, verifier, stop_at=None, count=None,
                    on_poll=None):
    """Keep `window` lines in flight per connection until `stop_at` (a
    perf_counter time) or until `count` lines were sent, then drain.
    Returns (completion time, latency s, verified ok) per response."""
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    events = []
    sent = 0

    def may_send(now):
        return sent < count if count is not None else now < stop_at

    now = time.perf_counter()
    for conn in conns:
        for _ in range(window):
            if may_send(now):
                conn.send(lines[sent % len(lines)], now)
                sent += 1
        conn.flush()
    while any(conn.pending for conn in conns):
        for key, _ in sel.select(timeout=0.05):
            conn = key.data
            was_blocked = bool(conn.wbuf)
            refill = 0
            for raw in conn.read_lines():
                now = time.perf_counter()
                t_send, line = conn.pending.popleft()
                events.append((now, now - t_send, verifier.check(conn, line, raw)))
                refill += 1
            now = time.perf_counter()
            for _ in range(refill):
                if may_send(now):
                    conn.send(lines[sent % len(lines)], now)
                    sent += 1
            blocked = not conn.flush()
            if blocked != was_blocked:
                sel.modify(conn.sock, selectors.EVENT_READ |
                           (selectors.EVENT_WRITE if blocked else 0), conn)
        if on_poll is not None:
            on_poll(time.perf_counter())
    sel.close()
    if sent > len(lines) and not verifier.expect_hit:
        # A distinct-line trace must not wrap: a repeat would be a cache hit.
        raise BenchError("request trace exhausted; lengthen TRACE_LINES")
    return events


class Marks:
    """Readings at the sub-window edges of a run: the time, the CPU time of
    the program under test (when it is one long-lived process) and the
    machine's /proc/stat counters. Call it with the time whenever the
    driver's loop comes round; it reads once per passed edge."""

    def __init__(self, t_start, seconds, window_s, pid=None):
        self.pid = pid
        count = max(1, round(seconds / window_s))
        self.edges = [t_start + seconds * (j + 1) / count for j in range(count)]
        self.marks = [self.read(t_start)]

    def read(self, now):
        return (now, proc_cpu_s(self.pid) if self.pid else None, cpu_times())

    def __call__(self, now):
        if self.edges and now >= self.edges[0]:
            while self.edges and now >= self.edges[0]:
                self.edges.pop(0)
            self.marks.append(self.read(now))


def quiet_windows(events, marks):
    """End-to-end figures over the run's quiet sub-windows.

    events: (completion time, latency s, ok[, CPU s]) per request, in
    completion order; marks: Marks.marks. A shared host takes CPU from the
    benchmark in bursts (steal time): in quarter-second windows of one
    serve_hits run, those with no steal served 5600-7000 req/s and those
    with 10-24% of the machine stolen 900-4300. So the figures are pooled
    over the windows whose steal share is at most the median window's (on a
    host that steals nothing, every window): ok responses per second of
    kept time, the median and tail of the latencies completed in them, and
    CPU per ok response (the program's CPU across the kept windows, or
    without a pid the per-request CPU). Returns (figures, summary, window
    rows)."""
    times = [e[0] for e in events]
    rows, inside = [], []
    for (lo, cpu_lo, stat_lo), (hi, cpu_hi, stat_hi) in zip(marks, marks[1:]):
        part = events[bisect.bisect_right(times, lo):bisect.bisect_right(times, hi)]
        ok = [e for e in part if e[2]]
        rows.append({"seconds": hi - lo, "steal_share": steal_share(stat_lo, stat_hi),
                     "samples": len(part), "ok": len(ok),
                     "cpu_s": cpu_hi - cpu_lo if cpu_lo is not None
                     else sum(e[3] for e in ok)})
        inside.append(part)
    cut = median([r["steal_share"] for r in rows])
    kept = [j for j, r in enumerate(rows) if r["steal_share"] <= cut]
    for j in kept:
        rows[j]["kept"] = True
    latencies = [e[1] for j in kept for e in inside[j]]
    ok = sum(rows[j]["ok"] for j in kept)
    if not ok:
        raise BenchError("no verified response in the quiet windows")
    # The tail is taken per block of consecutive kept samples and the median
    # over blocks is reported: over 60k samples the rule would pick p99.9,
    # which a couple of host stalls set (1.7-2.2 ms over four quiet
    # serve_hits runs on a 4-core KVM guest, against 1.21-1.26 ms for the
    # block median). Blocks hold TAIL_BLOCK to 2 * TAIL_BLOCK - 1 samples,
    # so each block's tail is p99; with fewer samples there is one block.
    count = max(1, len(latencies) // TAIL_BLOCK)
    blocks = [tail(latencies[j * len(latencies) // count:
                             (j + 1) * len(latencies) // count]) for j in range(count)]
    figures = {
        "throughput_rps": ok / sum(rows[j]["seconds"] for j in kept),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": median([t for _, t in blocks]) * 1e3,
        "cpu_ms_per_req": sum(rows[j]["cpu_s"] for j in kept) * 1e3 / ok,
    }
    summary = {"windows": len(rows), "kept": len(kept), "steal_cut": cut,
               "kept_samples": len(latencies), "tail_blocks": count,
               "tail_percentile": min(p for p, _ in blocks),
               "kept_steal_share": median([rows[j]["steal_share"] for j in kept])}
    return figures, summary, rows


def start_and_warm(work, spec, warm):
    """Spawn rts_serve, connect, answer the warm-up lines. Returns
    (server, conns, setup seconds, warm-up responses)."""
    server = Server(work, spec["workers"], spec["omp"])
    try:
        conns = [Conn(server.port) for _ in range(spec["conns"])]
        responses = {}
        conn = conns[0]
        todo = collections.deque(warm)
        conn.sock.setblocking(True)
        while todo or conn.pending:
            # Stay within rts_serve's per-connection quota of in-flight jobs.
            while todo and len(conn.pending) < WARM_IN_FLIGHT:
                conn.send(todo.popleft(), 0.0)
            conn.flush()
            for raw in conn.read_lines():
                _, line = conn.pending.popleft()
                resp = json.loads(raw)
                if resp.get("status") != "ok" or resp.get("cache_hit") is not False:
                    raise BenchError("warm-up line failed: " + raw.decode())
                responses[line.text] = raw
                conn.next_job += 1
        conn.sock.setblocking(False)
        return server, conns, time.perf_counter() - server.t0, responses
    except BaseException:
        stop_live()
        raise


def close_all(conns):
    for conn in conns:
        conn.sock.close()


def check_stats(stats):
    closure = stats["rejected"] + stats["hits"] + stats["solved"] + stats["coalesced"]
    problems = []
    if stats["submitted"] != closure:
        problems.append("stats_closure")
    if stats["failed"] or stats["rejected"] or stats["quota_rejected"]:
        problems.append("stats_failed_or_rejected")
    return problems


def batch_and_composed(work, spec, sample_lines):
    """rts_serve --requests and the tracer's composed outcome for the same
    lines, each as a list of raw lines."""
    req = os.path.join(work, "sample.txt")
    with open(req, "w") as f:
        f.writelines(line.text + "\n" for line in sample_lines)
    batch = subprocess.run(
        [os.path.abspath(RTS_SERVE), "--requests", os.path.basename(req), "--threads",
         str(spec["workers"])], cwd=work, capture_output=True,
        env=clean_env(OMP_NUM_THREADS=1), timeout=120)
    if batch.returncode != 0:
        raise BenchError("batch rts_serve failed: " + batch.stderr.decode())
    composed_path = "composed.txt"
    traced = subprocess.run(
        [os.path.abspath(TRACER), "serve", os.path.basename(req), "--out", composed_path,
         "--spans", "spans-sample.json", "--min-lines", str(len(sample_lines)),
         "--render-count", str(len(sample_lines))],
        cwd=work, capture_output=True, env=clean_env(OMP_NUM_THREADS=1), timeout=120)
    if traced.returncode != 0:
        raise BenchError("tracer compose failed: " + traced.stderr.decode())
    with open(os.path.join(work, composed_path), "rb") as f:
        composed = f.read().splitlines()
    return batch.stdout.splitlines(), composed


def run_served(name, spec, work, seed, seconds, trace):
    warm, lines = served_inputs(name, work, seed)
    hits = name == "serve_hits"
    report = {}

    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for attempt in range(repeats):
        server, conns, setup, warm_responses = start_and_warm(work, spec, warm)
        setups.append(setup)
        if attempt + 1 < repeats:
            close_all(conns)
            server.stop()
    references = {}
    if hits:
        # Every measured line is a hot-set line: its bytes must equal the
        # warm-up solve's, flagged as a cache hit.
        references = {text: strip_job(raw).replace(b'"cache_hit":false', b'"cache_hit":true', 1)
                      for text, raw in warm_responses.items()}
    verifier = Verifier(expect_hit=hits, references=references)

    try:
        threads_before = thread_cpu_s(server.pid)
        client_before = time.process_time()
        t_start = time.perf_counter()
        if trace:
            marks = None
            events = run_closed_loop(conns, lines, spec["window"], verifier,
                                     count=spec["trace_requests"])
        else:
            marks = Marks(t_start, seconds, spec["window_s"], server.pid)
            events = run_closed_loop(conns, lines, spec["window"], verifier,
                                     stop_at=t_start + seconds, on_poll=marks)
        threads_after = thread_cpu_s(server.pid)
        client_cpu = time.process_time() - client_before
        wall = time.perf_counter() - t_start
        peak_rss = vm_hwm_mb(server.pid)
        close_all(conns)
        stats = server.stop()
    except BaseException:
        stop_live()
        raise

    # Thread budget as observed: threads of rts_serve that did work.
    busy = {tid: threads_after.get(tid, 0.0) - threads_before.get(tid, 0.0)
            for tid in threads_after}
    report["observed_threads"] = len(threads_after)
    report["busy_threads"] = sum(1 for cpu in busy.values() if cpu > 0.05 * wall)
    report["client_cpu_share"] = client_cpu / wall

    attempted = len(events)
    failed = sum(1 for e in events if not e[2])
    # Work per request differs between seeds' inputs; this tells that apart
    # from a slower program or host.
    report["mean_ga_generations"] = verifier.generations / max(attempted - failed, 1)
    stat_problems = check_stats(stats)
    for reason in stat_problems:
        verifier.failures[reason] += 1

    # Outside the timed window: a fixed sample of lines, byte-compared against
    # batch mode and against the tracer's composed outcome.
    sample_lines = lines[:3]
    batch, composed = batch_and_composed(work, spec, sample_lines)
    mismatches = 0
    for i, line in enumerate(sample_lines):
        served = verifier.sample.get(line.text)
        batch_raw = batch[i] if i < len(batch) else b""
        if served is None:
            mismatches += 1
            continue
        served_norm = strip_job(served).replace(b'"cache_hit":true', b'"cache_hit":false', 1)
        if served_norm != strip_job(batch_raw):
            mismatches += 1
        if i >= len(composed) or composed[i] != batch_raw:
            mismatches += 1
    report["checks"] = {
        "responses_checked": attempted,
        "failures": dict(verifier.failures),
        "sample_lines_compared": len(sample_lines),
        "sample_mismatches": mismatches,
        "stats": {k: stats[k] for k in ("submitted", "hits", "solved", "coalesced",
                                        "rejected", "quota_rejected", "failed")},
    }
    verified_ok = max(0, attempted - failed - mismatches)
    result = {
        "correct": failed == 0 and mismatches == 0 and not stat_problems,
        "attempted": attempted,
        "failed": attempted - verified_ok,
    }
    if not trace:
        report["setup_s_all"] = setups
        metrics = end_to_end(report, events, marks.marks)
        metrics.update({
            "ok_share": verified_ok / attempted,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
        })
        return result, metrics, report

    # Per-layer: served-phase readings, then the in-process replay.
    loop_cpu = busy.get(server.pid, 0.0)
    worker_cpu = sum(cpu for tid, cpu in busy.items() if tid != server.pid)
    # The warm-up lines are all cache misses; the ratio covers the rest.
    lookups = stats["cache_hits"] + stats["cache_misses"] - len(warm)
    layer = {
        "net.loop_cpu_share": loop_cpu / wall,
        "service.cache_hit_ratio": stats["cache_hits"] / max(lookups, 1),
        "service.cache_evictions": stats["cache_evictions"],
        "service.worker_cpu_share": worker_cpu / (spec["workers"] * wall),
        "client.cpu_share": client_cpu / wall,
    }
    replay = replay_served(name, spec, work, lines, seconds)
    spans = replay["spans"]

    def self_us(span):
        return spans[span]["self_ms"] * 1e3 if span in spans else 0.0

    def self_ms(span):
        return spans[span]["self_ms"] if span in spans else 0.0

    solve = spans.get("core.solve", {})
    solve_sum = solve.get("self_sum_ms", 0.0) + sum(
        spans[s]["self_sum_ms"] for s in ("sched.heft", "ga", "sim.mc") if s in spans)
    ga_share = spans["ga"]["self_sum_ms"] / solve_sum if solve_sum else 0.0
    mc_share = spans["sim.mc"]["self_sum_ms"] / solve_sum if solve_sum else 0.0
    loop_us_per_req = loop_cpu * 1e6 / attempted
    queue = replay.get("queue", {})
    mc_threads = replay.get("mc_threads", {})
    layer.update({
        "net.frame_us": self_us("net.frame"),
        "net.parse_us": self_us("net.parse"),
        "net.render_us": self_us("net.render"),
        "net.digest_loop_share":
            self_us("service.digest") / loop_us_per_req if hits else 0.0,
        "workload.load_ms": replay["load_ms_median"],
        "service.digest_us": self_us("service.digest"),
        "service.queue_wait_ms_p50": queue.get("p50_ms", 0.0),
        "service.queue_wait_ms_tail": queue.get("tail_ms", 0.0),
        "sched.heft_ms": self_ms("sched.heft"),
        "ga.ms": self_ms("ga"),
        "ga.us_per_generation":
            0.0 if hits else replay["ga_ms"] * 1e3 / replay["ga_generations"],
        "ga.generations": 0 if hits else replay["ga_generations"],
        "sim.mc_ms": self_ms("sim.mc"),
        "sim.realizations_per_s":
            mc_threads["realizations"] * 1e3 / mc_threads["one_thread_ms"]
            if mc_threads else 0.0,
        "sim.thread_speedup":
            mc_threads["one_thread_ms"] / mc_threads["n_thread_ms"] if mc_threads else 0.0,
        "core.solve_ms": solve.get("whole_ms", 0.0),
        "core.unattributed_ms": solve.get("self_ms", 0.0),
        "core.ga_share": ga_share,
        "core.mc_share": mc_share,
        "trace.overhead_pct":
            (replay["traced_ms_median"] / replay["untraced_ms_median"] - 1.0) * 100.0,
    })
    report["trace"] = {
        "lines_replayed": replay["lines_replayed"],
        "count_lines": replay["count_lines"],
        "traced_ms_per_request": replay["traced_ms_median"],
        "untraced_ms_per_request": replay["untraced_ms_median"],
        "composition_matches": replay["composition_matches"],
        "loop_us_per_request": loop_us_per_req,
        "queue_jobs": queue.get("jobs", 0),
        "queue_tail_percentile": queue.get("tail_pct"),
        "mc_threads": mc_threads or None,
    }
    predictions = {}
    if name == "solve_ga":
        predictions["ga.ms >= 95% of core.solve_ms on solve_ga"] = (ga_share >= 0.95, ga_share)
    if name == "mc_eval":
        predictions["sim.mc_ms >= 90% of core.solve_ms on mc_eval"] = (mc_share >= 0.90, mc_share)
    if hits:
        share = layer["net.digest_loop_share"]
        predictions["service.digest_us is most of the loop thread's per-request time "
                    "on serve_hits"] = (share > 0.5, share)
    report["predictions"] = {k: {"confirmed": ok, "measured_share": share}
                             for k, (ok, share) in predictions.items()}
    if not replay["composition_matches"] or (mc_threads and not mc_threads["bit_identical"]):
        result["correct"] = False
    return result, layer, report


def replay_served(name, spec, work, lines, seconds):
    path = os.path.join(work, "replay.txt")
    with open(path, "w") as f:
        f.writelines(line.text + "\n" for line in lines)
    cmd = [os.path.abspath(TRACER), "serve", "replay.txt", "--spans", "spans.json",
           "--seconds", str(seconds / 4)]
    if name == "serve_hits":
        cmd += ["--cached", "--min-lines", "2000"]
    else:
        cmd += ["--min-lines", "4", "--queue-workers", str(spec["workers"]),
                "--queue-lines", "60"]
        if name == "mc_eval":
            cmd += ["--speedup-threads", str(spec["workers"])]
    out = subprocess.run(cmd, cwd=work, capture_output=True, timeout=150,
                         env=clean_env(OMP_NUM_THREADS=1))
    if out.returncode != 0:
        raise BenchError("tracer replay failed: " + out.stderr.decode())
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# resched_drop: one `rts resched` process per scenario

def resched_scenarios(work, seed, spec, count):
    problems = generate_problems(work, seed, "r", RESCHED_PROBLEMS, 60, 4)
    return [(os.path.join(work, problems[k % len(problems)]), 1.5,
             sub_seed(seed, f"rs{k}"), spec["realizations"]) for k in range(count)]


def spawn_resched(scenario, threads, json_path, extra=()):
    problem, oversub, seed, realizations = scenario
    argv = [RTS, "resched", "--problem", problem, "--oversub", str(oversub),
            "--drop", "probabilistic", "--seed", str(seed),
            "--realizations", str(realizations), "--threads", str(threads),
            "--json", json_path, *extra]
    env = clean_env(OMP_NUM_THREADS=threads, OMP_MAX_ACTIVE_LEVELS=1)
    t0 = time.perf_counter()
    pid = os.posix_spawn(RTS, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    LIVE.add(pid)
    _, status, usage = os.wait4(pid, 0)
    LIVE.discard(pid)
    elapsed = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError(f"rts resched exited with {os.waitstatus_to_exitcode(status)}")
    return elapsed, usage


def check_resched(raw, realizations):
    try:
        doc = json.loads(raw)
        base, online = doc["one_shot"], doc["resched"]
    except (ValueError, KeyError):
        return "unparseable"
    for part in (base, online):
        if part["realizations"] != realizations:
            return "realizations"
        if not 0.0 <= part["deadline_miss_rate"] <= 1.0:
            return "miss_rate"
        if part["mean_value_accrued"] > part["value_possible"] * (1 + 1e-12):
            return "value"
    if base["mean_dropped"] != 0 or base["mean_resolves"] != 0:
        return "one_shot_not_static"
    if not 0 <= online["mean_resolves"] <= 3:
        return "resolves"
    if base["value_possible"] != online["value_possible"]:
        return "value_possible"
    return None


def end_to_end(report, events, marks):
    """The quiet-window end-to-end figures; the windows, which were kept,
    and the whole run's sample count and tail go into the report."""
    figures, summary, rows = quiet_windows(events, marks)
    pct, tail_s = tail([e[1] for e in events])
    report["windows"] = rows
    report["quiet"] = summary
    report["all_samples"] = {"count": len(events), "tail_percentile": pct,
                             "tail_ms": tail_s * 1e3,
                             "p50_ms": median([e[1] for e in events]) * 1e3}
    return figures


def run_resched(spec, work, seed, seconds, trace):
    threads = spec["threads"]
    scenarios = resched_scenarios(work, seed, spec, 5000)
    report = {}
    out_json = os.path.join(work, "resched.json")

    setups = []
    problems = sorted({sc[0] for sc in scenarios})
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        for problem in problems:
            spawn_resched((problem, 1.5, 1, 1), threads, out_json, ("--max-resolves", "0"))
        setups.append(time.perf_counter() - t0)

    failures = collections.Counter()
    events, outputs = [], []   # events: (end time, latency s, ok, CPU s)
    rss_mb = 0.0
    client_before = time.process_time()
    t_start = time.perf_counter()
    stop_at = t_start + seconds
    marks = Marks(t_start, seconds, spec["window_s"])
    k = 0
    while (k < spec["trace_requests"]) if trace else (time.perf_counter() < stop_at):
        elapsed, usage = spawn_resched(scenarios[k], threads, out_json)
        done = time.perf_counter()
        with open(out_json, "rb") as f:
            raw = f.read().strip()
        rss_mb = max(rss_mb, usage.ru_maxrss / 1024.0)
        problem = check_resched(raw, scenarios[k][3])
        if problem:
            failures[problem] += 1
        events.append((done, elapsed, not problem, usage.ru_utime + usage.ru_stime))
        if k < 2:
            outputs.append(raw)
        k += 1
        marks(done)
    wall = time.perf_counter() - t_start
    client_cpu = time.process_time() - client_before
    attempted = k
    report["client_cpu_share"] = client_cpu / wall

    # Outside the timed window: the first scenarios' JSON, byte-compared with
    # the tracer's in-process composition (which also replays every
    # realization through run_online_reschedule).
    replay = replay_resched(work, scenarios, seconds / 4 if trace else 0.0,
                            min_scenarios=3 if trace else len(outputs),
                            render=len(outputs))
    with open(os.path.join(work, "composed-resched.txt"), "rb") as f:
        composed = f.read().splitlines()
    mismatches = sum(1 for i, raw in enumerate(outputs)
                     if i >= len(composed) or composed[i] != raw)
    if not replay["aggregates_match"]:
        mismatches += 1
    failed = sum(failures.values())
    verified_ok = max(0, attempted - failed - mismatches)
    report["checks"] = {"responses_checked": attempted, "failures": dict(failures),
                        "sample_lines_compared": len(outputs),
                        "sample_mismatches": mismatches}
    result = {"correct": failed == 0 and mismatches == 0, "attempted": attempted,
              "failed": attempted - verified_ok}
    if not trace:
        report["setup_s_all"] = setups
        metrics = end_to_end(report, events, marks.marks)
        metrics.update({
            "ok_share": verified_ok / attempted,
            "setup_s": median(setups),
            "peak_rss_mb": rss_mb,
        })
        return result, metrics, report

    spans = replay["spans"]
    layer = {
        "workload.load_ms": spans["workload.load"]["self_ms"],
        "sched.heft_ms": spans["sched.heft"]["self_ms"],
        "resched.run_ms": replay["run_ms_median"],
        "resched.resolves": replay["resolves"],
        "resched.ga_generations": replay["ga_generations"],
        "resched.dropped_tasks": replay["dropped_tasks"],
        "client.cpu_share": client_cpu / wall,
        "trace.overhead_pct":
            (replay["traced_ms_median"] / replay["untraced_ms_median"] - 1.0) * 100.0,
    }
    report["trace"] = {"scenarios_replayed": replay["scenarios_replayed"],
                       "count_realizations": replay["count_realizations"]}
    report["predictions"] = {}
    return result, layer, report


def replay_resched(work, scenarios, seconds, min_scenarios, render):
    path = os.path.join(work, "scenarios.txt")
    with open(path, "w") as f:
        for problem, oversub, seed, realizations in scenarios[:400]:
            f.write(f"{problem} {oversub} {seed} {realizations}\n")
    out = subprocess.run(
        [os.path.abspath(TRACER), "resched", path, "--out",
         os.path.join(work, "composed-resched.txt"), "--spans",
         os.path.join(work, "spans.json"), "--seconds", str(seconds),
         "--min-scenarios", str(min_scenarios), "--render-count", str(render)],
        capture_output=True, timeout=150, env=clean_env(OMP_NUM_THREADS=1))
    if out.returncode != 0:
        raise BenchError("tracer resched replay failed: " + out.stderr.decode())
    return json.loads(out.stdout)


# --------------------------------------------------------------------------

def thread_budget(name, spec):
    """Solver threads + busy event loop + client <= nproc, or refuse."""
    cores = nproc()
    spec = dict(spec)
    if spec["kind"] == "serve":
        spare = cores - CLIENT_THREADS - (1 if spec["loop_busy"] else 0)
        spec["workers"] = min(spec["workers"], spare)
        spec["omp"] = 1
        solver = spec["workers"] * spec["omp"]
        budget = {"rts_serve_threads": spec["workers"], "OMP_NUM_THREADS": 1,
                  "event_loop_counted": spec["loop_busy"]}
    else:
        spec["threads"] = min(spec["threads"], cores - CLIENT_THREADS)
        solver = spec["threads"]
        budget = {"rts_resched_threads": spec["threads"], "OMP_NUM_THREADS": spec["threads"],
                  "OMP_MAX_ACTIVE_LEVELS": 1}
    total = solver + (1 if spec.get("loop_busy") else 0) + CLIENT_THREADS
    budget.update({"client_threads": CLIENT_THREADS, "total": total, "nproc": cores})
    if solver < 1 or total > cores:
        raise BenchError(f"thread budget for {name}: {total} threads > nproc {cores}")
    return spec, budget


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    gc.disable()  # no collector pauses inside the client's timed loop

    try:
        signal.signal(signal.SIGTERM, on_signal)
        build()
        signal.signal(signal.SIGALRM, on_signal)
        signal.alarm(170)
        spec, budget = thread_budget(args.workload, WORKLOADS[args.workload])
        work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
        os.makedirs(work, exist_ok=True)
        header = host_header()
        probe_before = probe_ms()
        stat_before = cpu_times()
        if spec["kind"] == "serve":
            result, metrics, report = run_served(args.workload, spec, work, args.seed,
                                                 args.seconds, bool(args.trace))
        else:
            result, metrics, report = run_resched(spec, work, args.seed, args.seconds,
                                                  bool(args.trace))
        steal = steal_share(stat_before, cpu_times())
        probe_after = probe_ms()
        with open("BENCHMARK.json") as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing and not args.trace:
            raise BenchError("end-to-end metrics not measured: " + ", ".join(missing))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    finally:
        signal.alarm(0)
        stop_live()

    if args.trace:
        metrics["host.probe_ms"] = median([probe_before, probe_after])
        # Layers this workload does not run report 0.
        report["zero_metrics"] = sorted(m["name"] for m in declared
                                        if not metrics.get(m["name"]))
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": header, "thread_budget": budget,
                   "host_probe_ms": {"before": probe_before, "after": probe_after},
                   "host_steal_share": steal})
    print(json.dumps({"report": report}, sort_keys=True))
    result["metrics"] = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
