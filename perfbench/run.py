#!/usr/bin/env python3
"""The qsyn benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 25 --trace 0

Run from the root of a qsyn checkout. The first run configures and
builds the library, `qsync` and the in-process harness into
`.bench_build/`; later runs only check the build is current. Workloads
(see README.md): cli_small, wide96, daemon_mix, cli_batch; `--workload
all` runs the four one after another, each ending with its own JSON
line.

With `--trace 0` the run measures the end-to-end metrics; with
`--trace 1` it replays the workload's compiles stage by stage and
reports the per-layer metrics. Every emitted output is re-parsed and
checked outside the timed region. Human-readable lines come first; the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("cli_small", "wide96", "daemon_mix", "cli_batch")
NPROC = len(os.sched_getaffinity(0))
QSYNC = os.path.join(BUILD, "qsyn_tools", "qsync")
HARNESS = os.path.join(BUILD, "perfbench_harness")

# daemon_mix: half the cores serve, the rest carry client connections.
WORKERS = max(1, NPROC // 2)
CLIENTS = max(1, NPROC - WORKERS)
# Open-loop request rates (requests/s), chosen below saturation of the
# seed commit and then frozen; the probe ladder multiplies the peak.
# At the steady rate the two client connections are rarely both busy.
STEADY_RATE = 50.0
PEAK_RATE = 600.0
PROBE_FACTORS = (1.25, 1.5, 1.75, 2.0)
# Tail-latency limit for max_rate_per_s, ms.
LATENCY_LIMIT_MS = 100.0
# Request mix: repeats of pool sources (cache hits), fresh sources
# (misses: a full compile and a cache store), analyze ops. The shares,
# like the pool and its Zipf skew (inputs.py), are assumptions: no
# recorded qsynd traffic exists. The gated latency and throughput are
# taken per kind, so they do not depend on the shares.
MIX = (("hit", 0.85), ("miss", 0.10), ("analyze", 0.05))
KIND = {"hit": 0, "miss": 1, "analyze": 2}
# The saturation phase: fresh compiles only, offered at SATURATE_RATE
# (about three times the 400-500/s the seed commit completes on 4
# cores) for SATURATE_SHARE of the run, so the server stays busy for
# about three times that and the achieved rate is its compile
# capacity.
SATURATE_RATE = 1400.0
SATURATE_SHARE = 0.1
# cli_small takes a set-up sample before every SETUP_EVERY-th compile
# (15 per pass over its 163 pairs).
SETUP_EVERY = 11

# Units of measured (not exactly repeating) per-layer values.
TIMED_UNITS = ("ms", "MB/s")
PASSES = ("cancellation", "rotation_merge", "hadamard_rules",
          "window_identity")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build():
    """Configure (once) and build qsync and the harness; quiet unless
    the build fails."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no qsyn sources at %s: run from a qsyn checkout"
                         % ROOT)
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "qsync", "perfbench_harness"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def source_hash():
    """Digest of everything that decides the program's outputs."""
    h = hashlib.sha256()
    for top in ("src", "tools", "data", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------- processes

ENV = {k: v for k, v in os.environ.items() if not k.startswith("QSYN_")}


def spawn(argv, stdout, stderr):
    """Run a child to completion; returns (exit code, wall ms, rusage)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, ENV, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return os.waitstatus_to_exitcode(status), wall_ms, usage


def harness(mode, manifest, work, name):
    mpath = os.path.join(work, name + ".manifest.json")
    rpath = os.path.join(work, name + ".result.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    proc = subprocess.run([HARNESS, mode, mpath, rpath], cwd=work,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError("harness %s failed (%d): %s"
                         % (mode, proc.returncode, proc.stderr.strip()))
    with open(rpath) as f:
        return json.load(f)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# ------------------------------------------------------------- results

class Run:
    """What one invocation measured."""

    def __init__(self):
        self.metrics = {}   # name -> (value, unit); BENCHMARK.json's set
        self.extras = {}    # name -> (value, unit, note); printed only
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.structural = {}

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def extra(self, name, value, unit, note=""):
        self.extras[name] = (value, unit, note)

    def fail(self, why, count=1):
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def latency(self, samples, suffix="", tail_samples=None):
        """p50 of `samples` into the metrics (unsuffixed) or extras, and
        the tail of `tail_samples` (default: the same) into the extras."""
        if suffix:
            self.extra("latency_p50_ms" + suffix, stats.median(samples), "ms",
                       "n=%d" % len(samples))
        else:
            self.metric("latency_p50_ms", stats.median(samples), "ms")
        samples = samples if tail_samples is None else tail_samples
        t = stats.tail(samples)
        if t is None:
            self.extra("latency_tail_ms" + suffix, None, "ms",
                       "too few samples for a tail (n=%d)" % len(samples))
        else:
            pct, value, n = t
            self.extra("latency_tail_ms" + suffix, value, "ms",
                       "p%g of n=%d" % (pct, n))


def startup_sample(run, work, walls):
    """One CLI set-up sample: the wall time of starting qsync and listing
    its devices (process start, static init, device registry). The CLI
    workloads take these all through the run, so their median sees the
    same machine conditions as the compiles."""
    code, wall, _ = spawn([QSYNC, "--list-devices"], os.devnull,
                          os.path.join(work, "setup.err"))
    run.attempted += 1
    if code != 0:
        run.fail("qsync --list-devices exited %d" % code)
    walls.append(wall)


def add_out(run, check):
    run.metric("out_gates", check["out_gates"], "gates")
    run.metric("out_cost", check["out_cost"], "cost")
    run.metric("out_depth", check["out_depth"], "layers")
    run.structural["out"] = [check["out_gates"], check["out_cost"],
                             check["out_depth"]]


def absorb_check(run, check, what):
    for job_id, j in sorted(check["jobs"].items()):
        if not j["ok"]:
            run.fail("%s %s: %s" % (what, job_id, j["error"]))


def layer_metrics(run, passes, exact_qmdd=True):
    """The per-layer metrics of BENCHMARK.json from per-pass totals: the
    median pass for times, exact (pass-invariant) values for counts.
    `exact_qmdd` is false where concurrent workers share a package, so
    its node and table counts depend on the interleaving."""

    def med(key):
        return statistics.median(p.get(key, 0.0) for p in passes)

    def count(key):
        values = {p.get(key, 0.0) for p in passes}
        if len(values) != 1:
            run.fail("count %s changed between passes: %s"
                     % (key, sorted(values)))
        return passes[0].get(key, 0.0)

    ms = lambda name: run.metric(name, med(name), "ms")  # noqa: E731
    ms("frontend.parse_ms")
    parse_s = med("frontend.parse_ms") / 1e3
    run.metric("frontend.parse_mb_per_s",
               count("frontend.bytes") / 1e6 / parse_s if parse_s else 0.0,
               "MB/s")
    ms("decompose.ms")
    run.metric("decompose.gates_out", count("decompose.gates_out"), "gates")
    ms("opt.ti_ms")
    ms("opt.td_ms")
    run.metric("opt.rounds", count("opt.rounds"), "count")
    for p in PASSES:
        key = "opt." + p
        ms(key + "_ms")
        removed = count(key + ".gates_removed")
        run.metric(key + ".gates_removed", removed, "gates")
        run.metric(key + ".yield", removed / max(1.0, count(key + ".invocations")),
                   "gates/call")
    ms("route.place_ms")
    ms("route.route_ms")
    for key in ("route.swaps", "route.reversed_cnots"):
        run.metric(key, count(key), "count")
    for key in ("qmdd.fixed_ms", "qmdd.check_ms", "qmdd.build_reference_ms",
                "qmdd.build_candidate_ms"):
        ms(key)
    qmdd_count = count if exact_qmdd else med
    run.metric("qmdd.peak_nodes", qmdd_count("qmdd.peak_nodes"), "nodes")
    for key in ("qmdd.rehashes", "qmdd.gc_runs"):
        run.metric(key, qmdd_count(key), "count")
    run.structural["layers"] = {
        k: v for k, (v, u) in run.metrics.items()
        if u not in TIMED_UNITS and (exact_qmdd or not k.startswith("qmdd."))}
    # Table traffic depends on where nodes land in memory (pointer
    # hashing), so it varies slightly between passes: median, unguarded.
    for table in ("unique", "compute"):
        run.metric("qmdd.%s_hit_rate" % table, statistics.median(
            p.get("qmdd.%s_hits" % table, 0.0)
            / max(1.0, p.get("qmdd.%s_lookups" % table, 0.0))
            for p in passes), "ratio")
    run.metric("qmdd.evictions", med("qmdd.evictions"), "count")
    ms("trace.compile_ms")
    run.metric("trace.remainder_ms", statistics.median(
        p.get("trace.compile_ms", 0.0) - p.get("trace.staged_ms", 0.0)
        for p in passes), "ms")
    ms("trace.overhead_ms")


def replay_layers(run, replay):
    """Per-layer metrics of a harness replay; the calls the program
    makes inside one compile only (so that `cli_batch` cannot time them
    from outside) are printed as extras."""
    passes = replay["passes"]
    for p in passes:
        p["trace.overhead_ms"] = p["trace.traced_staged_ms"] - p["trace.staged_ms"]
    layer_metrics(run, passes)

    def med(key):
        return statistics.median(p.get(key, 0.0) for p in passes)

    for key in ("frontend.write_ms", "analysis.measure_ms", "qmdd.setup_ms",
                "qmdd.teardown_ms"):
        run.extra(key, med(key), "ms", "median pass")
    restore = {p["route.restore_swaps"] for p in passes}
    if len(restore) != 1:
        run.fail("count route.restore_swaps changed between passes")
    run.extra("route.restore_swaps", passes[0]["route.restore_swaps"], "count")
    run.structural["layers"]["route.restore_swaps"] = passes[0]["route.restore_swaps"]
    jobs = passes[0]["jobs"]
    run.attempted += int(jobs) * len(passes)
    run.extra("replay.identical", min(p["replay.identical"] for p in passes),
              "count", "of %d compiles per pass, %d passes" % (jobs, len(passes)))
    if passes[0].get("esop.inputs"):
        run.extra("esop.synth_ms", med("esop.synth_ms"), "ms",
                  "%d PLA inputs per pass" % passes[0]["esop.inputs"])
    for why in replay["failures"]:
        run.fail("replay " + why)


# ------------------------------------------------------------ workloads

def replay_jobs(pairs, outputs=None):
    jobs = []
    for i, (path, device) in enumerate(pairs):
        job = {"id": "%03d:%s@%s" % (i, os.path.basename(path), device),
               "input": path, "device": device}
        if outputs:
            job["output"] = outputs[i]
        jobs.append(job)
    return jobs


def cli_small(run, work, seed, seconds, trace):
    pairs, skipped = inputs.cli_pairs(ROOT, os.path.join(work, "in"), seed)
    run.extra("pairs", len(pairs), "count", "%d N/A pairs left out: %s" % (
        len(skipped), ", ".join("%s@%s" % (os.path.basename(p), d)
                                for p, d in skipped)))
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    err = os.path.join(work, "qsync.err")
    outputs = [os.path.join(out_dir, "%d.qasm" % i) for i in range(len(pairs))]

    def compile_pass(first, setup=None):
        walls, rss = [], []
        for i, (path, device) in enumerate(pairs):
            if setup is not None and i % SETUP_EVERY == 0:
                startup_sample(run, work, setup)
            code, wall, usage = spawn(
                [QSYNC, path, "-d", device, "-o", outputs[i]], os.devnull, err)
            run.attempted += 1
            if code != 0:
                with open(err) as f:
                    run.fail("qsync %s -d %s exited %d: %s"
                             % (path, device, code, f.read().strip()))
                continue
            walls.append(wall)
            rss.append(usage.ru_maxrss)
            data = read_bytes(outputs[i])
            if first.setdefault(i, data) != data:
                run.fail("nondeterministic output: %s -d %s" % (path, device))
        return walls, rss

    first = {}
    if trace:
        walls, _ = compile_pass(first)
        left = max(1.0, seconds - sum(walls) / 1e3)
        replay = harness("replay", {"seconds": left,
                                    "jobs": replay_jobs(pairs, outputs)},
                         work, "replay")
        replay_layers(run, replay)
        in_process = sum(j["compile_ms"] for j in replay["jobs"].values())
        run.extra("cli.process_overhead_ms", sum(walls) - in_process, "ms",
                  "spawned wall minus in-process compile, %d compiles"
                  % len(walls))
        return

    latencies, rss, setup, passes = [], [], [], 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        walls, sizes = compile_pass(first, setup)
        latencies += walls
        rss += sizes
        passes += 1
    run.metric("setup_s", statistics.median(setup) / 1e3, "s")
    run.latency(latencies)
    run.metric("throughput_per_s", len(latencies) / (sum(latencies) / 1e3),
               "1/s")
    run.metric("peak_rss_mb", max(rss) / 1024.0, "MB")
    check = harness("check", {"seed": seed, "jobs": [
        dict(job, output=outputs[i])
        for i, job in enumerate(replay_jobs(pairs))]}, work, "check")
    absorb_check(run, check, "output")
    add_out(run, check)
    run.extra("passes", passes, "count", "%d compiles" % len(latencies))


def wide96(run, work, seed, seconds, trace):
    in_dir = os.path.join(work, "in")
    out_dir = os.path.join(work, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    jobs = []
    for n in inputs.TABLE7_KEPT:
        path = os.path.join(in_dir, "T%d_b.real" % n)
        inputs.write(path, inputs.table7_real(n))
        jobs.append({"id": "T%d_b" % n, "input": path,
                     "device": "proposed_96",
                     "output": os.path.join(out_dir, "T%d_b.qasm" % n)})
    if trace:
        replay = harness("replay", {"seconds": seconds,
                                    "jobs": [dict(j, output="") for j in jobs]},
                         work, "replay")
        replay_layers(run, replay)
        return
    # Two passes per harness process, processes until the time is up: a
    # process's heap layout and thread placement set its speed for its
    # whole life, so the run averages over several.
    setup, latency, compiles, wall_ms, rss, first = [], [], 0, 0.0, 0, None
    start = time.perf_counter()
    while compiles == 0 or time.perf_counter() - start < seconds:
        res = harness("compile", {"jobs": jobs}, work, "compile")
        setup += res["setup_ms"]
        latency += res["latency_ms"]
        compiles += int(res["compiles"])
        wall_ms += res["wall_ms"]
        rss = max(rss, res["peak_rss_kb"])
        for why in res["failures"]:
            run.fail(why)
        outputs = [read_bytes(j["output"]) for j in jobs]
        if first is None:
            first = outputs
        elif outputs != first:
            run.fail("outputs differ between harness processes")
    run.attempted += compiles
    run.metric("setup_s", statistics.median(setup) / 1e3, "s")
    # The latency sample is one pass over both cascades: the per-circuit
    # times are bimodal (T7_b takes twice T6_b), so their median would
    # sit between the modes.
    run.latency(latency)
    run.metric("throughput_per_s", compiles / (wall_ms / 1e3), "1/s")
    run.metric("peak_rss_mb", rss / 1024.0, "MB")
    check = harness("check", {"seed": seed, "jobs": jobs}, work, "check")
    absorb_check(run, check, "output")
    add_out(run, check)
    run.extra("passes", len(latency), "count", "%d compiles" % compiles)


def daemon_requests(rng, pick, fresh, analyze, rate, seconds, mix=MIX):
    """Seeded arrivals for one phase: a Poisson process conditioned on
    exactly rate * seconds requests (uniform order statistics), with
    the `mix` shares of kinds in seeded order."""
    count = round(rate * seconds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds = []
    for kind, share in mix:
        kinds += [kind] * round(share * count)
    kinds = (kinds + ["hit"] * count)[:count]
    rng.shuffle(kinds)
    requests = []
    for t, kind in zip(times, kinds):
        if kind == "hit":
            index = pick()
        elif kind == "miss":
            index = len(fresh)
            fresh.append(inputs.fresh_source(rng, index))
        else:
            index = rng.randrange(len(analyze))
        requests.append([t, KIND[kind], index])
    return requests


def daemon_manifest(seed, phases_spec):
    rng = random.Random(seed)
    pool = inputs.daemon_pool(ROOT)
    pick = inputs.skewed_picker(rng, len(pool))
    analyze = [inputs.fresh_source(rng, 10000 + i) for i in range(32)]
    fresh, phases = [], []
    for name, rate, secs, mix in phases_spec:
        # Each steady slice starts on a fresh server with a primed cache
        # (a set-up sample): earlier phases' fresh compiles would have
        # pushed pool entries out of the cache's memory tier.
        phases.append({"name": name, "rate": rate, "seconds": secs,
                       "setup": name == "steady",
                       "requests": daemon_requests(rng, pick, fresh, analyze,
                                                   rate, secs, mix)})
    return {"seed": seed, "socket": "qsynd.sock", "workers": WORKERS,
            "clients": CLIENTS, "pool": pool, "fresh": fresh,
            "analyze": analyze, "phases": phases}


def phase_summary(phase):
    latency, wait, lag = stats.open_loop(phase)
    ok = sum(phase["ok"])
    achieved = ok / (phase["wall_ms"] / 1e3)
    t = stats.tail(latency)
    last = sorted(zip(phase["due"], latency))[-max(1, len(latency) // 10):]
    backlog = stats.median([l for _, l in last]) > LATENCY_LIMIT_MS
    meets = (t is not None and t[1] <= LATENCY_LIMIT_MS and not backlog
             and ok == len(latency))
    return latency, wait, lag, achieved, meets


def of_kind(phase, values, kind):
    return [v for v, k in zip(values, phase["kind"]) if k == KIND[kind]]


def merged(res, name):
    """Kinds, round-trip times and open-loop timings of every phase
    called `name`, concatenated."""
    out = {"kind": [], "rtt": [], "latency": [], "wait": [], "lag": []}
    for p in res["phases"]:
        if p["name"] != name:
            continue
        latency, wait, lag, _, _ = phase_summary(p)
        out["kind"] += p["kind"]
        out["rtt"] += [d - s for d, s in zip(p["done"], p["sent"])]
        out["latency"] += latency
        out["wait"] += wait
        out["lag"] += lag
    return out


def daemon_mix(run, work, seed, seconds, trace):
    if trace:
        spec = [("steady", STEADY_RATE, 0.35 * seconds, MIX)]
    else:
        # Four rounds, each a harness process with a fresh server: a
        # steady slice, a share of the higher rates, then a saturate
        # slice. A process's thread placement and heap layout set its
        # speed for its whole life, so one process per round averages
        # over four; equal rounds keep the slices comparable.
        part = ("steady", STEADY_RATE, 0.35 * seconds / 4, MIX)
        half_peak = ("peak", PEAK_RATE, 0.15 * seconds / 2, MIX)
        sat = ("saturate", SATURATE_RATE, SATURATE_SHARE * seconds / 4,
               (("miss", 1.0),))
        probes = [("probe%g" % f, PEAK_RATE * f,
                   0.15 * seconds / len(PROBE_FACTORS), MIX)
                  for f in PROBE_FACTORS]
        spec = []
        for load in ([half_peak], probes[:2], probes[2:], [half_peak]):
            spec += [part] + load + [sat]
    manifest = daemon_manifest(seed, spec)
    rounds = []
    for phase in manifest["phases"]:
        if phase["setup"]:
            rounds.append([])
        rounds[-1].append(phase)
    res = {"phases": [], "setup_ms": [], "overloaded": 0, "peak_rss_kb": 0}
    for i, phases in enumerate(rounds):
        got = harness("daemon", dict(manifest, phases=phases), work,
                      "daemon%d" % i)
        run.attempted += (int(got["attempted"]) +
                          len(got["setup_ms"]) * len(manifest["pool"]))
        run.failed += int(got["failed"])
        run.failures += got["failures"]
        for key in ("phases", "setup_ms"):
            res[key] += got[key]
        res["overloaded"] += got["overloaded"]
        res["peak_rss_kb"] = max(res["peak_rss_kb"], got["peak_rss_kb"])
        res["fresh_out_gates"] = (res.get("fresh_out_gates", 0)
                                  + got["fresh_out_gates"])
        out = [got[k] for k in ("out_gates", "out_cost", "out_depth")]
        if res.setdefault("out", out) != out:
            run.fail("pool outputs differ between rounds: %s vs %s"
                     % (res["out"], out))
    steady = merged(res, "steady")

    if trace:
        hits = of_kind(steady, steady["rtt"], "hit")
        misses = of_kind(steady, steady["rtt"], "miss")
        b, a = res["phases"][0]["cache_before"], res["phases"][0]["cache_after"]
        looked = (a["hits"] - b["hits"]) + (a["misses"] - b["misses"])
        run.extra("cache.hit_frac", (a["hits"] - b["hits"]) / max(1, looked),
                  "ratio", "%d lookups in the steady phase" % looked)
        run.extra("cache.entries", a["memory_entries"], "count")
        run.extra("service.hit_rtt_ms", stats.median(hits), "ms",
                  "n=%d" % len(hits))
        run.extra("service.miss_rtt_ms", stats.median(misses), "ms",
                  "n=%d" % len(misses))
        run.extra("service.overloaded", res["overloaded"], "count")
        run.extra("service.client_wait_ms", statistics.mean(steady["wait"]),
                  "ms", "mean over %d requests" % len(steady["wait"]))
        # Replay the pool and a slice of the fresh sources in-process.
        in_dir = os.path.join(work, "in")
        os.makedirs(in_dir)
        jobs = []
        for i, s in enumerate(manifest["pool"] + manifest["fresh"][:40]):
            path = os.path.join(in_dir, "%03d_%s.%s" % (
                i, s["name"].replace(".", "_"), s["format"]))
            inputs.write(path, s["source"])
            jobs.append({"id": "%03d:%s@%s/%s/%s" % (
                i, s["name"], s["device"], s["router"], s["placement"]),
                "input": path, "device": s["device"], "router": s["router"],
                "placement": s["placement"]})
        replay = harness("replay", {"seconds": 0.55 * seconds,
                                    "service_options": True, "jobs": jobs},
                         work, "replay")
        replay_layers(run, replay)
        return

    # Latency is taken per kind, so the gated p50 (cache hits) does not
    # depend on the assumed shares; the miss p50 and the tail over every
    # kind, which misses set, are printed.
    run.metric("setup_s", statistics.median(res["setup_ms"]) / 1e3, "s")
    peak = merged(res, "peak")
    for phase, suffix in ((steady, ""), (peak, ".peak")):
        latency = phase["latency"]
        run.latency(of_kind(phase, latency, "hit"), suffix,
                    tail_samples=latency)
        misses = of_kind(phase, latency, "miss")
        run.extra("latency_p50_ms.miss" + suffix, stats.median(misses), "ms",
                  "n=%d" % len(misses))
    best = None
    ladder = [p for p in res["phases"] if p["name"] != "saturate"]
    for p in sorted(ladder, key=lambda p: p["rate"]):
        _, _, _, achieved, meets = phase_summary(p)
        if not meets:
            break
        best = (achieved, p["rate"])
    run.extra("max_rate_per_s", best and best[0], "1/s",
              "achieved at offered %s/s; tail limit %g ms"
              % (best and best[1], LATENCY_LIMIT_MS))
    # Throughput is the server's compile capacity: fresh compiles
    # completed per second while offered far more than it can take.
    saturate = [p for p in res["phases"] if p["name"] == "saturate"]
    done = sum(sum(p["ok"]) for p in saturate)
    wall_s = sum(p["wall_ms"] for p in saturate) / 1e3
    run.metric("throughput_per_s", done / wall_s, "1/s")
    run.extra("saturate.offered", sum(len(p["ok"]) for p in saturate),
              "count", "fresh compiles offered at %g/s over %.3g s, done in "
              "%.3g s" % (SATURATE_RATE, sum(p["seconds"] for p in saturate),
                          wall_s))
    run.metric("peak_rss_mb", res["peak_rss_kb"] / 1024.0, "MB")
    run.extra("gen_lag_ms", statistics.mean(steady["lag"] + peak["lag"]),
              "ms", "mean over steady and peak")
    run.extra("service.client_wait_ms",
              statistics.mean(steady["wait"] + peak["wait"]), "ms",
              "mean over steady and peak")
    add_out(run, dict(zip(("out_gates", "out_cost", "out_depth"), res["out"])))
    run.structural["fresh_out_gates"] = res["fresh_out_gates"]


def split_batch(text):
    """Per-input QASM texts of a `qsync --jobs` stdout stream."""
    chunks, current = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("// qsyn: "):
            current = line[len("// qsyn: "):].rsplit(" mapped to ", 1)[0]
            chunks[current] = ""
        if current is not None:
            chunks[current] += line
    return chunks


def batch_layers(totals, metrics_path, trace_path):
    """Add one traced `qsync --jobs` run to the per-layer totals of a
    pass, from the spans and metrics the program writes itself."""
    with open(trace_path) as f:
        events = json.load(f)
    events = events.get("traceEvents", []) if isinstance(events, dict) else events
    with open(metrics_path) as f:
        m = json.load(f)
    counters, gauges = m.get("counters", {}), m.get("gauges", {})
    span_ms = {}
    parsed = 0
    for e in events:
        if e.get("ph") != "X":
            continue
        span_ms[e["name"]] = span_ms.get(e["name"], 0.0) + e["dur"] / 1e3
        if e["name"] == "compile.decompose":
            # The span's count is taken after the technology-independent
            # pass, which the decompose span encloses.
            totals["decompose.gates_out"] = (
                totals.get("decompose.gates_out", 0) + e["args"]["gates_out"])
        elif e["name"] == "frontend.parse":
            parsed += os.path.getsize(e["args"]["path"])
        elif e["name"] == "opt.round":
            totals["opt.rounds"] = totals.get("opt.rounds", 0) + 1
    span = lambda name: span_ms.get(name, 0.0)  # noqa: E731
    check = span("qmdd.equivalence_check")
    stages = (span("compile.decompose") + span("compile.place") +
              span("compile.route") + span("compile.optimize") +
              span("compile.verify"))
    add = {
        "frontend.parse_ms": span("frontend.parse"),
        "frontend.bytes": parsed,
        # The decompose span holds the technology-independent pass.
        "decompose.ms": span("compile.decompose") - span("compile.ti_optimize"),
        "opt.ti_ms": span("compile.ti_optimize"),
        "opt.td_ms": span("compile.optimize"),
        "route.place_ms": span("compile.place"),
        "route.route_ms": span("compile.route"),
        "route.swaps": counters.get("route.swaps_inserted", 0),
        "route.reversed_cnots": counters.get("route.reversed_cnots", 0),
        "qmdd.check_ms": check,
        "qmdd.build_reference_ms": span("qmdd.build_reference"),
        "qmdd.build_candidate_ms": span("qmdd.build_candidate"),
        "qmdd.fixed_ms": (check - span("qmdd.build_reference")
                          - span("qmdd.build_candidate")),
        "qmdd.unique_hits": gauges.get("qmdd.unique_hits", 0),
        "qmdd.unique_lookups": gauges.get("qmdd.unique_lookups", 0),
        "qmdd.compute_hits": gauges.get("qmdd.compute_hits", 0),
        "qmdd.compute_lookups": gauges.get("qmdd.compute_lookups", 0),
        "qmdd.evictions": sum(gauges.get("qmdd.%s_evictions" % k, 0)
                              for k in ("mul", "add", "ct")),
        "qmdd.rehashes": gauges.get("qmdd.unique_rehashes", 0),
        "qmdd.gc_runs": gauges.get("qmdd.gc_runs", 0),
        "trace.compile_ms": span("compile"),
        "trace.staged_ms": stages,
    }
    for p in PASSES:
        key = "opt." + p
        add[key + "_ms"] = span(key)
        add[key + ".gates_removed"] = counters.get(key + ".gates_removed", 0)
        add[key + ".invocations"] = counters.get(key + ".invocations", 0)
    for key, value in add.items():
        totals[key] = totals.get(key, 0) + value
    totals["qmdd.peak_nodes"] = max(totals.get("qmdd.peak_nodes", 0),
                                    gauges.get("qmdd.peak_nodes", 0))


def cli_batch(run, work, seed, seconds, trace):
    pairs, _ = inputs.cli_pairs(ROOT, os.path.join(work, "in"), seed)
    devices = []
    for _, device in pairs:
        if device not in devices:
            devices.append(device)
    batches = [(d, [p for p, dev in pairs if dev == d]) for d in devices]
    err = os.path.join(work, "qsync.err")
    out = os.path.join(work, "batch.qasm")
    first, cpu = {}, []

    def invoke(device, paths, flags=()):
        """One batch; returns (wall ms, rusage), or None if it failed."""
        code, wall, usage = spawn(
            [QSYNC, "--jobs", str(NPROC), "-d", device] + list(flags) + paths,
            out, err)
        run.attempted += len(paths)
        if code != 0:
            with open(err) as f:
                run.fail("qsync --jobs batch on %s exited %d: %s"
                         % (device, code, f.read().strip()), len(paths))
            return None
        cpu.append((usage.ru_utime + usage.ru_stime) * 1e3 / wall / NPROC)
        data = read_bytes(out)
        if first.setdefault(device, data) != data:
            run.fail("nondeterministic batch output on " + device)
        return wall, usage

    def batch_pass(setup=None):
        walls, rss = [], []
        for device, paths in batches:
            for _ in range(3 if setup is not None else 0):
                startup_sample(run, work, setup)
            done = invoke(device, paths)
            if done is not None:
                walls.append(done[0])
                rss.append(done[1].ru_maxrss)
        return walls, rss

    if trace:
        # Each device batch runs untraced, then with the program's own
        # --metrics-json and --trace-json, whose spans and counters come
        # from the shared package and the concurrent workers.
        metrics = os.path.join(work, "metrics.json")
        spans = os.path.join(work, "trace.json")
        passes = []
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            totals = {}
            for device, paths in batches:
                plain = invoke(device, paths)
                traced = invoke(device, paths, ["--metrics-json", metrics,
                                                "--trace-json", spans])
                if plain is None or traced is None:
                    continue
                batch_layers(totals, metrics, spans)
                totals["trace.overhead_ms"] = (totals.get("trace.overhead_ms", 0)
                                               + traced[0] - plain[0])
            passes.append(totals)
        layer_metrics(run, passes, exact_qmdd=False)
        run.extra("batch.cpu_util", statistics.median(cpu), "ratio",
                  "child CPU / wall / %d jobs" % NPROC)
        return

    latencies, rss, setup, passes = [], [], [], 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        walls, sizes = batch_pass(setup)
        latencies += walls
        rss += sizes
        passes += 1
    run.metric("setup_s", statistics.median(setup) / 1e3, "s")
    run.latency(latencies)
    run.metric("throughput_per_s", passes * len(pairs) / (sum(latencies) / 1e3),
               "1/s")
    run.metric("peak_rss_mb", max(rss) / 1024.0, "MB")
    run.extra("batch.cpu_util", statistics.median(cpu), "ratio",
              "child CPU / wall / %d jobs" % NPROC)
    jobs = []
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    for device, data in first.items():
        chunks = split_batch(data.decode())
        for path in dict(batches)[device]:
            target = os.path.join(out_dir, "%s@%s.qasm"
                                  % (os.path.basename(path), device))
            if path not in chunks:
                run.fail("batch output lacks %s on %s" % (path, device))
                continue
            inputs.write(target, chunks[path])
            jobs.append({"id": os.path.basename(target), "input": path,
                         "device": device, "output": target})
    check = harness("check", {"seed": seed, "jobs": jobs}, work, "check")
    absorb_check(run, check, "output")
    add_out(run, check)
    run.extra("passes", passes, "count", "%d batch invocations"
              % len(latencies))


# ----------------------------------------------------------------- main

def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def guard_determinism(run, workload, seed, trace):
    """Structural results must repeat exactly for one seed and source
    tree, across invocations as well as within one."""
    directory = os.path.join(BUILD, "determinism")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-s%d-t%d-%s.json"
                        % (workload, seed, trace, source_hash()))
    current = json.loads(json.dumps(run.structural))
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != current:
            run.fail("DETERMINISM: structural results differ from an "
                     "earlier run of the same seed: %s vs %s"
                     % (previous, current))
    else:
        with open(path, "w") as f:
            json.dump(current, f)


def run_one(workload, seed, seconds, trace):
    """Measure one workload, print its lines, and return the JSON object
    of its last line. Raises BenchError when the run cannot be made."""
    build()
    work = os.path.join(BUILD, "work", "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run()
    globals()[workload](run, work, seed, seconds, bool(trace))
    if run.failed == 0:
        guard_determinism(run, workload, seed, trace)

    expected = expected_metrics(trace)
    if expected is not None:
        missing = [m for m in expected if m not in run.metrics]
        if missing:
            raise BenchError("%s produced no %s" % (workload, missing))
        run.metrics = {m: run.metrics[m] for m in expected}

    for name, (value, unit) in run.metrics.items():
        print("%-10s %-34s %14.6g %s" % (workload, name, value, unit))
    for name, (value, unit, note) in run.extras.items():
        shown = "n/a" if value is None else "%.6g" % value
        print("%-10s %-34s %14s %s  %s" % (workload, name, shown, unit, note))
    frac = run.failed / max(1, run.attempted)
    print("%-10s %-34s %14.6g %s  %d of %d" % (
        workload, "failed_frac", frac, "ratio", run.failed, run.attempted))
    for why in run.failures:
        print("FAILED: " + why, file=sys.stderr)

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in run.metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(dict(result, extras={k: {"value": v, "unit": u, "note": n}
                                       for k, (v, u, n) in run.extras.items()},
                       failures=run.failures), f, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_one(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
