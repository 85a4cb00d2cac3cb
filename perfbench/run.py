#!/usr/bin/env python3
"""End-to-end benchmark of the mrsc simulators and services.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

It builds crnsim, crnsgate, crnserved and the in-process probe
with dune, runs one workload against the real front ends, checks every
output, and prints a report followed, on the last line of stdout, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from the probe's traced replay of the same inputs.
--self-test runs smoke-sized versions of every workload and checks the
benchmark itself. perfbench/NOTES.md says what each workload and metric
is for.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

BIN = "_build/default/bin/"
CRNSIM = BIN + "crnsim.exe"
GATE = BIN + "crnsgate.exe"
SERVED = BIN + "crnserved.exe"
PROBE = "_build/default/perfbench/probe/probe.exe"
RUNTIME = ".perfbench_run"
FLEET_EXES = ("crnserved.exe", "crnsgate.exe")

# every served request and every crnsim run is bounded; a miss is a
# failed request, never a hang
SERVE_DEADLINE_MS = 8000
CRNSIM_DEADLINE_MS = 60000
READ_GRACE_S = 30

SOLVE_DESIGNS = ["clock4", "counter2", "counter3", "lfsr3", "ma4", "iir",
                 "mult", "modseq4", "biquad", "rx-counter2"]
SMOKE_DESIGNS = ["clock4", "iir", "counter2"]

# serve_hot: one round of the mix, over both clock chassis and every
# served op; (op, design, t1, extra fields)
HOT_ABSENCE = ["counter2", "lfsr3", "ma4", "modseq4", "iir"]
HOT_RELAX = ["rx-counter2", "rx-lfsr3", "rx-ma4", "rx-modseq4"]
HOT_ROUND = (
    [("ssa", d, 30, {}) for d in HOT_ABSENCE]
    + [("ssa", d, 15, {}) for d in HOT_RELAX]
    + [("hybrid", d, 30, {}) for d in HOT_ABSENCE]
    + [("hybrid", d, 15, {}) for d in HOT_RELAX]
    + [("tau", "counter2", 30, {}), ("tau", "iir", 30, {}),
       ("ssa", "biquad", 5, {}),
       ("ensemble", "counter2", 20, {"runs": 4}),
       ("ode", "counter2", 10, {}),
       ("trace", "lfsr3", 20, {"engine": "ssa"}),
       ("trace", "rx-ma4", 10, {"engine": "ssa"}),
       ("validate", "counter3", None, {}),
       ("validate", "rx-lfsr3", None, {}),
       ("validate", "biquad", None, {})]
)
HOT_ROUND_S = 4.0  # nominal seconds per round on a 2-core host
# once every two rounds: tau on rx-lfsr3 to t = 30, the recorded case
# that can run away (see NOTES.md); its deadline bounds it
HOT_TAIL = [("tau", "rx-lfsr3", 30, {})]
WARM_BOOTS = 24  # serve_hot's setup_s is their median

# serve_cold: novel sources (design, count per COLD_MIX_S); the counts
# put the cold p50 inside the counter2 block and the cold p90 inside the
# counter3 block, not on a border; the biquads (8% of the sources) stay
# above p90, where their latency, the most sensitive to the host's speed,
# moves no percentile
COLD_MIX = [("iir", 10), ("mult", 10), ("modseq4", 10), ("rx-counter2", 10),
            ("lfsr3", 20), ("counter2", 30), ("rx-ma4", 10), ("ma4", 20),
            ("counter3", 18), ("biquad", 8), ("rx-biquad", 4)]
COLD_MIX_S = 9  # the counts above are per this many seconds
COLD_T1 = 1
SMALL = ("ssa", "counter2", 5)
PAIR_GAP_S = 0.002  # the small request follows once the gateway has the novel one

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
    ("cold_latency_ms_p50", "ms"), ("cold_latency_ms_p90", "ms"),
    ("hol_latency_ms_p50", "ms"), ("hol_latency_ms_p90", "ms"),
    ("ok_ratio", "ratio"), ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("designs.synth_ms", "ms"), ("crn.parse_ms", "ms"),
    ("crn.cache_key_ms", "ms"), ("crn.fingerprint_ms", "ms"),
    ("ode.integrate_s", "s"), ("ode.us_per_step", "us"),
    ("ode.steps", "count"), ("ode.rejected", "count"),
    ("ode.jac_evals", "count"), ("ode.factorizations", "count"),
    ("ode.compile_ms", "ms"), ("ssa.compile_ms", "ms"),
    ("exact.certify_ms", "ms"), ("ssa.events", "count"),
    ("ssa.events_per_s", "1/s"), ("tau.leaps", "count"),
    ("tau.exact_fallbacks", "count"), ("tau.leap_ratio", "ratio"),
    ("hybrid.ode_steps", "count"), ("hybrid.ssa_events", "count"),
    ("hybrid.rejected", "count"), ("hybrid.mode_switches", "count"),
    ("service.queue_wait_ms", "ms"), ("service.compile_ms", "ms"),
    ("service.run_ms", "ms"), ("service.encode_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"), ("service.warm_loaded", "count"),
    ("gateway.memo_hit_ratio", "ratio"), ("gateway.overhead_ms", "ms"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def percentile(xs, p):
    """Percentile interpolated linearly between order statistics (the
    usual type-7 definition), with the number of samples above it."""
    value = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return value, sum(x > value for x in xs)


# --------------------------------------------------------------- processes

def pgrp(pid):
    """Process group of a live process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[2])
    except (OSError, IndexError, ValueError):
        return None


def pids():
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def stale_fleet():
    """crnserved/crnsgate processes built in this checkout and still alive."""
    build = os.path.realpath("_build") + "/"
    found = []
    for pid in pids():
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            continue
        exe = exe.removesuffix(" (deleted)")
        if os.path.basename(exe) in FLEET_EXES and exe.startswith(build):
            found.append(pid)
    return found


def group_members(pgid):
    return [p for p in pids() if pgrp(p) == pgid]


def peak_rss_mib(pid_list):
    total = 0
    for pid in pid_list:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024


class Conn:
    """One wire-protocol connection: 4-byte big-endian length, JSON."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""
        self.streaming = False

    def close(self):
        self.sock.close()

    def fileno(self):
        return self.sock.fileno()

    def send(self, req):
        payload = json.dumps(req, separators=(",", ":")).encode()
        self.streaming = req.get("op") == "trace"
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)

    def _frame(self):
        if len(self.buf) < 4:
            return None
        n = struct.unpack(">I", self.buf[:4])[0]
        if len(self.buf) < 4 + n:
            return None
        frame, self.buf = self.buf[4:4 + n], self.buf[4 + n:]
        return frame

    def poll(self):
        """Read what is available; the final reply frame once complete.
        A trace reply streams header and chunk frames before the final
        envelope, which starts with {"done":."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise BenchError("connection closed by the gateway")
        self.buf += data
        while True:
            frame = self._frame()
            if frame is None:
                return None
            if not self.streaming or frame.startswith(b'{"done":'):
                return frame.decode()

    def call(self, req):
        self.send(req)
        while True:
            reply = self.poll()
            if reply is not None:
                return reply


def answers_ping(sock):
    try:
        c = Conn(sock, 10)
    except OSError:
        return False
    try:
        return bool(json.loads(c.call({"op": "ping"})).get("ok"))
    except (OSError, BenchError):
        return False
    finally:
        c.close()


class Fleet:
    """crnsgate -n 2 -j 1 in its own process group and runtime dir."""

    live = []

    def __init__(self, rundir, name, state_dir=None):
        self.dir = os.path.join(rundir, name)
        os.makedirs(self.dir)
        self.sock = self.dir + "/gate.sock"
        argv = [GATE, "--listen", self.sock, "-n", "2", "-j", "1",
                "--served", "./" + SERVED, "--dir", self.dir]
        if state_dir:
            argv += ["--state-dir", state_dir]
        self.logf = open(self.dir + "/gate.log", "wb")
        t0 = now()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=self.logf, stderr=self.logf,
                                     start_new_session=True)
        Fleet.live.append(self)
        # both shards answering is the shards' own boot, warm load
        # included, free of the gateway's 50 ms start-up poll
        shards = [f"{self.dir}/shard-{i}.sock" for i in range(2)]
        self.shards_s = self.await_pings(shards, t0) - t0
        self.await_pings([self.sock], t0)

    def await_pings(self, socks, t0):
        for sock in socks:
            while not answers_ping(sock):
                if self.proc.poll() is not None:
                    raise BenchError(f"crnsgate exited with {self.proc.returncode}")
                if now() > t0 + 60:
                    raise BenchError("fleet did not come up within 60 s")
                time.sleep(0.001)
        return now()

    def stats(self):
        c = Conn(self.sock, 30)
        try:
            reply = json.loads(c.call({"op": "stats"}))
        finally:
            c.close()
        if not reply.get("ok"):
            raise BenchError("stats failed")
        return reply["result"]

    def peak_rss_mib(self):
        return peak_rss_mib(group_members(self.proc.pid))

    def stop(self):
        if self not in Fleet.live:
            return
        Fleet.live.remove(self)
        pgid = self.proc.pid
        for sig, wait_s in ((signal.SIGTERM, 10), (signal.SIGKILL, 10)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = now() + wait_s
            while now() < deadline:
                self.proc.poll()
                if self.proc.returncode is not None and not group_members(pgid):
                    break
                time.sleep(0.01)
            else:
                continue
            break
        self.proc.wait()
        self.logf.close()
        if group_members(pgid):
            raise BenchError(f"fleet process group {pgid} would not exit")


def stop_all_fleets():
    for fleet in list(Fleet.live):
        try:
            fleet.stop()
        except BenchError as e:
            log(f"perfbench: {e}")


# ---------------------------------------------------------------- helpers

def probe(args, **kw):
    return subprocess.run([PROBE] + args, check=True, **kw)


def check_items(rundir, items, trace):
    """Hand the outputs to the probe; returns (why list, probe report)."""
    inp = os.path.join(rundir, "items.json")
    out = os.path.join(rundir, "check.json")
    with open(inp, "w") as f:
        json.dump(items, f)
    args = ["check", inp, out]
    if trace:
        # kept beside the run directory, until the next run starts
        args.append(rundir + ".spans.jsonl")
    probe(args)
    with open(out) as f:
        report = json.load(f)
    return report["why"], report


def request(op, design, t1, extra, seed):
    req = {"op": op, "network": {"catalog": design},
           "deadline_ms": SERVE_DEADLINE_MS}
    if t1 is not None:
        req["t1"] = t1
    if op not in ("validate", "ode"):
        req["seed"] = seed
    req.update(extra)
    return req


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0  # not ok: deadline miss or error
        self.wrong = 0  # ok, but the output failed its check
        self.notes = []
        self.metrics = {}
        self.layers = {}
        self.items = []  # the outputs handed to the probe's checks

    def judge(self, replies, whys):
        """replies: raw envelopes, or None where there is none (crnsim)."""
        for i, (reply, why) in enumerate(zip(replies, whys)):
            self.attempted += 1
            if why is None:
                continue
            if why == "not ok":
                self.failed += 1
                code = json.loads(reply).get("error", {}).get("code", "?") if reply else "?"
                self.notes.append(f"request {i} failed: {code}")
            else:
                self.wrong += 1
                self.notes.append(f"request {i} incorrect: {why}")

    def ok_ratio(self):
        return (self.attempted - self.failed - self.wrong) / self.attempted


def served_items(reqs, replies, paths, sample):
    return [{"kind": "served", "req": r, "resp": reply, "path": p,
             "sample": s}
            for r, reply, p, s in zip(reqs, replies, paths, sample)]


def seeded_sample(rng, n, k):
    chosen = set(rng.sample(range(n), min(k, n)))
    return [i in chosen for i in range(n)]


def metric_block(reply):
    m = json.loads(reply).get("metrics") or {}
    return {k: float(m.get(k, 0.0)) for k in ("queue_wait_ms", "compile_ms",
                                             "run_ms", "total_ms")}


def service_layers(res, replies, latencies_ms):
    """From each reply's metrics block: queue wait as a mean (the stalls
    live in its tail), compile time as the median over the requests that
    compiled, run time as the median; the gateway's share as the median
    of client latency minus the shard's total."""
    blocks = [metric_block(r) for r in replies]
    compiled = [b["compile_ms"] for b in blocks if b["compile_ms"] > 0]
    res.layers["service.queue_wait_ms"] = statistics.fmean(
        b["queue_wait_ms"] for b in blocks)
    res.layers["service.compile_ms"] = statistics.median(compiled) if compiled else 0.0
    res.layers["service.run_ms"] = statistics.median(b["run_ms"] for b in blocks)
    res.layers["gateway.overhead_ms"] = statistics.median(
        lat - b["total_ms"] for b, lat in zip(blocks, latencies_ms))


def stat_counts(stats):
    shards = [s["stats"] or {} for s in stats["shards"]]
    gw = stats["gateway"]
    return {
        "hits": sum(s.get("cache_hits_total", 0) for s in shards),
        "misses": sum(s.get("cache_misses_total", 0) for s in shards),
        "warm_loaded": sum(s.get("warm_loaded", 0) for s in shards),
        "snapshot_writes": sum(s.get("snapshot_writes", 0) for s in shards),
        "memo_hits": gw.get("route_memo_hits", 0),
        "memo_misses": gw.get("route_memo_misses", 0),
    }


def ratio(a, b):
    return a / (a + b) if a + b else 0.0


def probe_layers(res, report):
    """Per-layer numbers from the probe's traced replay: a stage's self
    time is its median per request that calls it; counts are totals."""
    median_ms, total_ms, counts = (report["median_ms"], report["total_ms"],
                                   report["counts"])
    for metric, stage in (("designs.synth_ms", "designs.synth"),
                          ("crn.parse_ms", "crn.parse"),
                          ("crn.cache_key_ms", "crn.cache_key"),
                          ("crn.fingerprint_ms", "crn.fingerprint"),
                          ("ode.compile_ms", "ode.compile"),
                          ("ssa.compile_ms", "ssa.compile"),
                          ("exact.certify_ms", "exact.certify"),
                          ("service.encode_ms", "service.encode")):
        res.layers[metric] = median_ms.get(stage, 0.0)
    integrate_ms = total_ms.get("ode.integrate", 0.0)
    steps = counts.get("ode.steps", 0.0)
    res.layers["ode.integrate_s"] = integrate_ms / 1000
    res.layers["ode.us_per_step"] = integrate_ms * 1000 / steps if steps else 0.0
    for name in ("ode.steps", "ode.rejected", "ode.jac_evals",
                 "ode.factorizations", "ssa.events", "tau.leaps",
                 "tau.exact_fallbacks", "hybrid.ode_steps",
                 "hybrid.ssa_events", "hybrid.rejected",
                 "hybrid.mode_switches"):
        res.layers[name] = counts.get(name, 0.0)
    ssa_ms = total_ms.get("ssa.run", 0.0)
    res.layers["ssa.events_per_s"] = (counts.get("ssa.events", 0.0) * 1000 / ssa_ms
                                      if ssa_ms else 0.0)
    res.layers["tau.leap_ratio"] = ratio(counts.get("tau.leaps", 0.0),
                                         counts.get("tau.exact_fallbacks", 0.0))
    res.layers["trace.overhead_s"] = report["traced_s"] - report["plain_s"]


def latency_metrics(res, prefix, xs):
    for p in (50, 90):
        value, beyond = percentile(xs, p)
        res.metrics[f"{prefix}_p{p}"] = value
        res.notes.append(f"{prefix}_p{p}: n={len(xs)}, {beyond} beyond")


# -------------------------------------------------------------- workloads

def solve_ode(rundir, seed, seconds, trace):
    """Closed loop of sequential crnsim runs on the stiff designs."""
    rng = random.Random(seed)
    # whole passes over the designs; a smoke run takes three small ones,
    # and a traced run one pass, which its replay then repeats twice
    pool = SOLVE_DESIGNS if seconds >= 10 else SMOKE_DESIGNS
    passes = 1 if trace else max(1, round(seconds / 10))
    designs = [d for _ in range(passes) for d in rng.sample(pool, len(pool))]
    res = Result()

    def warm_up():
        """Set-up: a short run of every design (synthesis, compile, the
        first tenth of the horizon), three times; half of the set-ups
        are made after the timed part (see NOTES.md)."""
        for _ in range(3):
            t0 = now()
            for d in pool:
                subprocess.run([CRNSIM, d, "--final", "-t", "3"], check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            setups.append(now() - t0)

    setups = []
    warm_up()
    lat, rss, items, rcs = [], 0, [], []
    t_start = now()
    for d in designs:
        t0 = now()
        p = subprocess.Popen([CRNSIM, d, "--final", "-t", "30",
                              "--deadline-ms", str(CRNSIM_DEADLINE_MS)],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        lat.append((now() - t0) * 1000)
        rss = max(rss, usage.ru_maxrss)
        rcs.append(p.returncode)
        items.append({"kind": "crnsim", "design": d, "t1": 30,
                      "stdout": out.decode()})
    res.metrics["wall_s"] = now() - t_start
    warm_up()
    res.metrics["setup_s"] = statistics.median(setups)
    # two seeded runs are also recomputed in-process and compared
    for it, s in zip(items, seeded_sample(random.Random(seed ^ 0x5EED),
                                          len(items), 2)):
        it["sample"] = s
    res.items = items
    whys, report = check_items(rundir, items, trace)
    # the runs are deterministic: every pass prints the same final state
    first = {}
    for i, it in enumerate(items):
        if first.setdefault(it["design"], it["stdout"]) != it["stdout"] and whys[i] is None:
            whys[i] = "final state differs from an earlier run of the design"
    res.judge([None] * len(items),
              ["not ok" if rc else why for rc, why in zip(rcs, whys)])
    # a closed loop over ten designs cannot put ten samples beyond a p90,
    # so here every latency figure is the mean run time, wall_s per run;
    # the six copies are one measurement
    mean_ms = statistics.fmean(lat)
    for name in ("latency_ms", "cold_latency_ms", "hol_latency_ms"):
        for p in ("_p50", "_p90"):
            res.metrics[name + p] = mean_ms
    res.notes.append(f"latency figures: mean of {len(lat)} crnsim runs, not percentiles")
    res.metrics["peak_rss_mb"] = rss / 1024
    if trace:
        probe_layers(res, report)
        for name in ("service.queue_wait_ms", "service.compile_ms",
                     "service.run_ms", "service.cache_hit_ratio",
                     "service.warm_loaded", "gateway.memo_hit_ratio",
                     "gateway.overhead_ms"):
            res.layers[name] = 0.0
    return res


def hot_requests(seed, seconds):
    rng = random.Random(seed)
    rounds = max(1, round(seconds / HOT_ROUND_S))
    mix = [t for _ in range(rounds) for t in HOT_ROUND]
    mix += [t for _ in range(max(1, rounds // 2)) for t in HOT_TAIL]
    rng.shuffle(mix)
    return [request(op, d, t1, extra, rng.randrange(1, 1 << 30))
            for op, d, t1, extra in mix]


def warm_boots(rundir, state, first):
    """WARM_BOOTS / 2 warm boots back to back, each timed from spawning
    crnsgate until both shards answer."""
    boots = []
    for i in range(first, first + WARM_BOOTS // 2):
        fleet = Fleet(rundir, f"warm{i}", state)
        boots.append(fleet.shards_s)
        fleet.stop()
    return boots


def serve_hot(rundir, seed, seconds, trace):
    """One connection, closed loop, every model warm from a state dir."""
    res = Result()
    reqs = hot_requests(seed, seconds)
    designs = sorted({r["network"]["catalog"] for r in reqs})
    state = os.path.join(rundir, "state")
    # priming fleet (untimed): compile every design into the state dir
    prime = Fleet(rundir, "prime", state)
    c = Conn(prime.sock, SERVE_DEADLINE_MS / 1000 + READ_GRACE_S)
    for d in designs:
        reply = json.loads(c.call({"op": "parse", "network": {"catalog": d}}))
        if not reply.get("ok"):
            raise BenchError(f"priming {d} failed")
    c.close()
    deadline = now() + 30
    while stat_counts(prime.stats())["snapshot_writes"] < len(designs):
        if now() > deadline:
            raise BenchError("snapshots were not written")
        time.sleep(0.02)
    prime.stop()
    # set-up: warm boots of fresh fleets from the state dir, half of them
    # now and half after the timed part (see NOTES.md)
    boots = warm_boots(rundir, state, 0)
    fleet = Fleet(rundir, "hot", state)
    warm = stat_counts(fleet.stats())["warm_loaded"]
    if warm != len(designs):
        raise BenchError(f"warm boot loaded {warm} of {len(designs)} models")
    c = Conn(fleet.sock, SERVE_DEADLINE_MS / 1000 + READ_GRACE_S)
    # fill the gateway's routing memo, as any running gateway has it
    for d in designs:
        c.call({"op": "parse", "network": {"catalog": d}})
    before = stat_counts(fleet.stats())
    replies, lat = [], []
    t_start = now()
    for r in reqs:
        t0 = now()
        replies.append(c.call(r))
        lat.append((now() - t0) * 1000)
    res.metrics["wall_s"] = now() - t_start
    c.close()
    after = stat_counts(fleet.stats())
    res.metrics["peak_rss_mb"] = fleet.peak_rss_mib()
    fleet.stop()
    boots += warm_boots(rundir, state, len(boots))
    res.metrics["setup_s"] = statistics.median(boots)
    res.notes.append("warm boots (s): " + " ".join(f"{b:.3f}" for b in boots))
    compiles = after["misses"] - before["misses"]
    rng = random.Random(seed ^ 0x5EED)
    paths = ["validate" if r["op"] == "validate" else "hot" for r in reqs]
    items = served_items(reqs, replies, paths,
                         seeded_sample(rng, len(reqs), 8))
    res.items = items
    whys, report = check_items(rundir, items, trace)
    res.judge(replies, whys)
    if compiles:
        res.wrong += 1
        res.notes.append(f"timed part compiled {compiles} models; expected 0")
    latency_metrics(res, "latency_ms", lat)
    # nothing is cold and one connection queues behind nothing
    for name in ("cold_latency_ms", "hol_latency_ms"):
        for p in ("_p50", "_p90"):
            res.metrics[name + p] = res.metrics["latency_ms" + p]
    if trace:
        probe_layers(res, report)
        service_layers(res, replies, lat)
        res.layers["service.cache_hit_ratio"] = ratio(
            after["hits"] - before["hits"], compiles)
        res.layers["service.warm_loaded"] = warm
        res.layers["gateway.memo_hit_ratio"] = ratio(
            after["memo_hits"] - before["memo_hits"],
            after["memo_misses"] - before["memo_misses"])
    return res


def cold_requests(seed, seconds):
    """Lock-step pairs: a novel source, then the small cached request.
    Each novel source is a catalog design with every species renamed by a
    tag unique in the run; the seed orders the pairs and seeds the runs."""
    rng = random.Random(seed)
    specs = [f"{d}:q{k}" for d, n in COLD_MIX
             for k in range(max(1, round(n * seconds / COLD_MIX_S)))]
    texts = json.loads(probe(["sources"] + specs, capture_output=True).stdout)
    order = list(range(len(specs)))
    rng.shuffle(order)
    pairs = []
    for i in order:
        novel = {"op": "ssa", "network": {"text": texts[i]}, "t1": COLD_T1,
                 "seed": rng.randrange(1, 1 << 30),
                 "deadline_ms": SERVE_DEADLINE_MS}
        small = request(SMALL[0], SMALL[1], SMALL[2], {}, rng.randrange(1, 1 << 30))
        pairs.append((novel, small))
    return pairs


def serve_cold(rundir, seed, seconds, trace):
    """Two connections in lock-step pairs: novel source, small request."""
    res = Result()
    setups = []

    def set_up():
        """Make the novel sources and boot a cold fleet, four times; half
        of the set-ups are made after the timed part (see NOTES.md)."""
        for _ in range(4):
            t0 = now()
            pairs = cold_requests(seed, seconds)
            sources_s = now() - t0
            fleet = Fleet(rundir, f"cold{len(setups)}")
            setups.append(sources_s + fleet.shards_s)
            fleet.stop()
        return pairs

    pairs = set_up()
    fleet = Fleet(rundir, "cold")
    timeout = SERVE_DEADLINE_MS / 1000 + READ_GRACE_S
    ca, cb = Conn(fleet.sock, timeout), Conn(fleet.sock, timeout)
    # the small request's model is cached before timing starts
    cb.call(pairs[0][1])
    before = stat_counts(fleet.stats())
    cold_lat, hol_lat, pair_lat, replies = [], [], [], []
    t_start = now()
    for novel, small in pairs:
        t0 = now()
        ca.send(novel)
        time.sleep(PAIR_GAP_S)
        t1 = now()
        cb.send(small)
        done = {}
        while len(done) < 2:
            ready, _, _ = select.select([c for c in (ca, cb) if c not in done],
                                        [], [], timeout)
            if not ready:
                raise BenchError("no reply within the read deadline")
            for c in ready:
                reply = c.poll()
                if reply is not None:
                    done[c] = (now(), reply)
        cold_lat.append((done[ca][0] - t0) * 1000)
        hol_lat.append((done[cb][0] - t1) * 1000)
        pair_lat.append((max(done[ca][0], done[cb][0]) - t0) * 1000)
        replies += [done[ca][1], done[cb][1]]
    res.metrics["wall_s"] = now() - t_start
    ca.close()
    cb.close()
    after = stat_counts(fleet.stats())
    res.metrics["peak_rss_mb"] = fleet.peak_rss_mib()
    fleet.stop()
    set_up()
    res.metrics["setup_s"] = statistics.median(setups)
    reqs = [r for pair in pairs for r in pair]
    rng = random.Random(seed ^ 0x5EED)
    items = served_items(reqs, replies, ["cold", "hot"] * len(pairs),
                         seeded_sample(rng, len(reqs), 8))
    res.items = items
    whys, report = check_items(rundir, items, trace)
    res.judge(replies, whys)
    latency_metrics(res, "latency_ms", pair_lat)
    latency_metrics(res, "cold_latency_ms", cold_lat)
    latency_metrics(res, "hol_latency_ms", hol_lat)
    if trace:
        probe_layers(res, report)
        service_layers(res, replies, [x for pair in zip(cold_lat, hol_lat) for x in pair])
        res.layers["service.cache_hit_ratio"] = ratio(
            after["hits"] - before["hits"], after["misses"] - before["misses"])
        res.layers["service.warm_loaded"] = after["warm_loaded"]
        res.layers["gateway.memo_hit_ratio"] = ratio(
            after["memo_hits"] - before["memo_hits"],
            after["memo_misses"] - before["memo_misses"])
    return res


WORKLOADS = {"solve_ode": solve_ode, "serve_hot": serve_hot,
             "serve_cold": serve_cold}


# ------------------------------------------------------------------- main

def prepare():
    """Refuse to run beside a live fleet; build from source."""
    for f in ("dune-project", "bin/dune", "perfbench/probe/dune"):
        if not os.path.isfile(f):
            raise BenchError(f"run from the root of a source checkout ({f} missing)")
    stale = stale_fleet()
    if stale:
        raise BenchError(f"an earlier run's fleet is still alive (pids {stale})")
    shutil.rmtree(RUNTIME, ignore_errors=True)
    targets = ["./bin/crnsim.exe", "./bin/crnsgate.exe", "./bin/crnserved.exe",
               "./perfbench/probe/probe.exe"]
    if subprocess.run(["dune", "build", "--root", "."] + targets,
                      stdout=sys.stderr).returncode:
        raise BenchError("build failed")


def run_workload(name, seed, seconds, trace):
    rundir = os.path.join(RUNTIME, f"{name}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        return WORKLOADS[name](rundir, seed, seconds, trace)
    finally:
        stop_all_fleets()
        shutil.rmtree(rundir, ignore_errors=True)


def report(name, res, trace, host):
    wanted = PER_LAYER if trace else END_TO_END
    values = dict(res.layers if trace else res.metrics)
    if not trace:
        values["ok_ratio"] = res.ok_ratio()
    print(f"perfbench {name}: host {json.dumps(host)}")
    for note in res.notes:
        print(f"  {note}")
    if trace:
        # the traced run's own wall time, to set the layer totals beside
        print(f"  wall_s of this traced run: {res.metrics['wall_s']:.6g} s")
    for metric, unit in wanted:
        print(f"  {metric:28s} {values[metric]:14.6g} {unit}")
    return {
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed + res.wrong,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in wanted},
    }


def tamper(item, rng, qualifies):
    """A copy of the item with one species of its final state raised by 1,
    the species drawn from those that qualify(design, name); None when a
    catalog final state has none."""
    item = dict(item)
    if item["kind"] == "crnsim":
        lines = item["stdout"].split("\n")
        rows = [k for k in range(1, len(lines))
                if lines[k].split() and qualifies(item["design"], lines[k].split()[0])]
        if not rows:
            return None
        k = rng.choice(rows)
        name, value = lines[k].split()
        lines[k] = "  %-24s %10.4f" % (name, float(value) + 1.0)
        item["stdout"] = "\n".join(lines)
        return item
    design = item["req"]["network"].get("catalog")
    env = json.loads(item["resp"])
    result = env.get("result") or {}
    vec = result.get("final") or result.get("mean")
    if design is None or not env.get("ok") or vec is None:
        return None
    rows = [k for k, name in enumerate(result["species"]) if qualifies(design, name)]
    if not rows:
        return None
    vec[rng.choice(rows)] += 1.0
    item["resp"] = json.dumps(env, separators=(",", ":"))
    return item


def tamper_test(name, items):
    """One species of one result raised by 1 must make exactly that
    result incorrect: a species in a conservation law, in a result outside
    the served = direct sample; a species outside every law, in a sampled
    result; and the same outside the sample, in a traced run, which
    compares every result."""
    designs = sorted({it.get("design") or it["req"]["network"].get("catalog")
                      for it in items} - {None})
    laws = json.loads(probe(["laws"] + designs, capture_output=True).stdout)
    rng = random.Random(7)
    rundir = os.path.join(RUNTIME, f"selftest-{name}")
    os.makedirs(rundir, exist_ok=True)
    for in_law, sampled, trace in ((True, False, 0), (False, True, 0),
                                   (False, False, 1)):
        qualifies = lambda d, sp: (sp in laws[d]) == in_law
        order = list(range(len(items)))
        rng.shuffle(order)
        k, bad = next(((k, t) for k in order
                       if (t := tamper(items[k], rng, qualifies)) is not None),
                      (None, None))
        if bad is None:
            raise BenchError(f"{name}: no result to tamper with")
        bad["sample"] = sampled
        copy = [dict(it, sample=False) for it in items]
        copy[k] = bad
        whys, _ = check_items(rundir, copy, trace)
        caught = [i for i, why in enumerate(whys) if why is not None]
        assert caught == [k], (name, in_law, sampled, trace, caught, k)
    shutil.rmtree(rundir, ignore_errors=True)


def self_test(host):
    """Smoke-sized runs: every metric printed with its unit, and a
    tampered result counted as not ok, on every workload."""
    for name in WORKLOADS:
        for trace in (1, 0):
            res = run_workload(name, 7, 5, trace)
            out = report(name, res, trace, host)
            wanted = PER_LAYER if trace else END_TO_END
            assert list(out["metrics"]) == [m for m, _ in wanted], name
            for m, u in wanted:
                assert out["metrics"][m]["unit"] == u
            assert out["correct"], (name, trace, res.notes)
        tamper_test(name, res.items)
        log(f"self-test {name}: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    # a signal still tears the fleets down through the finally blocks
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda s, _f: sys.exit(128 + s))
    host = {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}
    try:
        prepare()
        if args.self_test:
            self_test(host)
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(report(args.workload, res, args.trace, host)))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        stop_all_fleets()


if __name__ == "__main__":
    sys.exit(main())
