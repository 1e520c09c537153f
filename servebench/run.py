#!/usr/bin/env python3
"""Out-of-process serving benchmark for ropuf_serve.

Run from the repository root:

    python3 servebench/run.py --workload hot_v1_defended --seed 1 \
        --seconds 10 --trace 0

The script builds ropuf_serve, ropuf_cli and servebench_loadgen from source
(Release, under $CARGO_TARGET_DIR or .bench_build), mints the workload's
fleet registry from the seed with `ropuf_cli registry-build`, starts
ropuf_serve as its own process (2 reactor shards, inline verification), and
drives it from one load-generator process over loopback TCP: a closed loop
for throughput and server CPU, then an open loop at the workload's fixed
rate for latency. Every answer is checked against the in-process verdict
for the same request and registry.

--trace 1 instead measures the per-layer metrics: it repeats the untraced
phases, serves the same stream again with --metrics-out for the server's
counters, times each layer's public calls in-process on the same request
stream, and prints the layer ladder and the tracing overhead.

Human-readable tables go to stdout first; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}. A verdict mismatch
exits 1 (after printing the result with "correct": false); a missing
source tree or failed build exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The server configuration every workload runs: two reactor shards with
# round-robin connection placement (connection k on shard k mod 2), and
# verification inline on each reactor thread. The pending queue (v1) and
# the session map (v2) hold 8192 requests per shard and connection, so that
# a short stall of the host under the open loop shows as latency instead of
# kOverloaded rejections.
# The shard count must match kShards in workload.h, which the layer timer
# reports back; the generator's own shape (connections, window, cycles,
# warm-up) is fixed there too and echoed in its result.
SHARDS = 2
SERVER_FLAGS = ["--shards", str(SHARDS), "--threads", "1", "--dispatch", "roundrobin",
                "--max-pending", "8192", "--max-sessions", "8192"]
SETUP_SPAWNS = 21  # server start-ups timed per run; setup_s is their median
# A run measures CYCLES fresh servers in turn, each through one closed and
# one open loop, and pools their windows. The cost per request of one server
# process stays within a few percent over its life but differs by about 9%
# (IQR/median) from one process to the next on a 4-CPU VM, so a single
# server per run would carry that whole spread into the result. Alternating
# the loops also means a stall of the host spoils a few windows of each
# loop, not most of one.
CYCLES = 5

# Admission and the stream detector on, with knobs loose enough that the
# whole benign stream is admitted: a one-tick token refill, a huge burst and
# distinct-challenge/reuse budgets no device reaches.
DEFENDED_FLAGS = [
    "--rate-burst", "1000000", "--rate-interval", "1",
    "--crp-budget", "1000000000", "--reuse-budget", "1000000000",
    "--detector", "on",
]

# name -> fleet size, protocol, server flags and open-loop rate. The rate is
# a fixed number of requests per second, about a quarter of the closed-loop
# throughput measured on the parent build with 4 CPUs: at half the
# throughput the run-to-run spread of the latency percentiles on such a host
# reached 25-30%, at a quarter it stays near 8%. Why each workload exists
# is written beside its name in BENCHMARK.json.
WORKLOADS = {
    "hot_v1_defended": {
        "devices": 2048, "protocol": 1, "flags": DEFENDED_FLAGS,
        "rate": 150000,
    },
    "cold_v1": {
        "devices": 65536, "protocol": 1, "flags": [],
        "rate": 28000,
    },
    "v2_proofs": {
        "devices": 2048, "protocol": 2, "flags": [],
        "rate": 50000,
    },
}

END_TO_END = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("server_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("net.wire.encode_request_ns", "ns"),
    ("net.wire.decode_request_ns", "ns"),
    ("net.wire.encode_response_ns", "ns"),
    ("net.wire.decode_response_ns", "ns"),
    ("net.batch_size_mean", "count"),
    ("net.queue_depth_p50", "count"),
    ("net.overload_rejections", "count"),
    ("net.reactor_cpu_us_per_req", "us"),
    ("registry.find_ns", "ns"),
    ("registry.records_decoded_per_req", "count"),
    ("registry.load_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.verify_batch_ns_per_req", "ns"),
    ("service.admission_ns_per_req", "ns"),
    ("service.detector_ns_per_req", "ns"),
    ("service.denied", "count"),
    ("auth.verify_proof_ns", "ns"),
    ("auth.key_derive_ns", "ns"),
    ("auth.nonce_ns", "ns"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.cpu_us_per_req", "us"),
    ("trace.throughput_rps_untraced", "1/s"),
    ("trace.throughput_rps_traced", "1/s"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "servebench")


def build():
    """Configures (once) and builds the Release tree; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the repository root: no CMakeLists.txt/src here")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    build_type = cache_value(out, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type or 'default'} build; Release only")
    return out


def cache_value(out, key):
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


# ------------------------------------------------------------- processes


class Server:
    """One ropuf_serve process; stop() sends SIGTERM and waits."""

    def __init__(self, binary, registry, flags, workdir, tag, metrics_out=None):
        self.port_file = os.path.join(workdir, f"port-{tag}")
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [binary, "--registry", registry, "--port-file", self.port_file]
        cmd += SERVER_FLAGS + flags
        if metrics_out:
            cmd += ["--metrics-out", metrics_out]
        self.log = open(self.log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        self.port = self._wait_port(start)
        self.setup_s = time.perf_counter() - start

    def _wait_port(self, start):
        while True:
            try:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            if self.proc.poll() is not None:
                self.log.close()
                raise BenchError(f"ropuf_serve exited early: {self.tail()}")
            if time.perf_counter() - start > 60:
                self.stop()
                raise BenchError("ropuf_serve did not write its port file in 60 s")
            time.sleep(0.00005)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def tail(self):
        with open(self.log_path) as f:
            return f.read()[-400:]


def loadgen(binary, mode, options, timeout):
    cmd = [binary, mode]
    for key, value in options:
        cmd += [key, str(value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError(f"loadgen {mode} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------- runs


def service_options(workload):
    """The server flags the load generator parses to mirror its options."""
    flags = workload["flags"]
    return [(flags[i], flags[i + 1]) for i in range(0, len(flags), 2)]


def drive(bins, workload, registry, server, seed, closed_s, open_s, corrupt):
    options = [
        ("--registry", registry), ("--port", server.port),
        ("--server-pid", server.proc.pid), ("--protocol", workload["protocol"]),
        ("--seed", seed), ("--rate", workload["rate"]),
        ("--closed-s", closed_s), ("--open-s", open_s),
        ("--corrupt-expected", 1 if corrupt else 0),
    ] + service_options(workload)
    return loadgen(bins["loadgen"], "drive", options, timeout=closed_s + open_s + 120)


def interquartile_mean(values):
    """Mean of the middle half: as robust to a few stalled windows as the
    median, but not quantized to one window's count."""
    values = sorted(values)
    middle = values[len(values) // 4:len(values) - len(values) // 4]
    return sum(middle) / len(middle)


def lower_quartile(values):
    """Nearest-rank 25th percentile: the latency a quiet quarter of the
    windows stays under."""
    return sorted(values)[len(values) // 4]


def pool_cycles(cycles):
    """Pools the drive results of one or more servers into one figure set."""
    first = cycles[0]
    total = lambda key: sum(c[key] for c in cycles)
    windows = lambda key: [w for c in cycles for w in c[key]]
    pooled = {key: first[key] for key in ("connections", "closed_threads", "open_threads",
                                          "window", "warmup_s")}
    for key in ("attempted", "failed", "denied", "mismatches", "checked_proofs",
                "latency_samples"):
        pooled[key] = total(key)
    pooled["first_mismatch"] = next((c["first_mismatch"] for c in cycles
                                     if c["first_mismatch"]), "")
    answered = total("answered")
    pooled["throughput_rps"] = interquartile_mean(windows("window_rates"))
    pooled["server_cpu_us_per_req"] = total("server_cpu_us") / answered
    pooled["loadgen_cpu_us_per_req"] = total("loadgen_cpu_us") / answered
    # Interference from the host (a descheduled vCPU, a slow wake-up) only
    # adds latency, and on a shared 4-CPU VM it comes and goes for seconds
    # at a time: the median window of a run followed it, by up to 35% over
    # ten runs. The lower quartile of the windows leaves out windows the
    # host disturbed, while a change in the server's own latency moves
    # every window.
    for q in ("p50", "p90", "p99"):
        per_window = windows(f"latency_{q}s_us")
        pooled[f"latency_{q}_us"] = lower_quartile(per_window) if per_window else 0.0
    pooled["lag_p99_us"] = statistics.median(c["lag_p99_us"] for c in cycles)
    return pooled


def histogram_p50(histogram):
    """Lower edge of the bucket holding the median record (0 if empty).

    obs histogram bucket i holds [bounds[i-1], bounds[i]), so the lower edge
    is the largest value the median is known to reach.
    """
    total = histogram["count"]
    if total == 0:
        return 0.0
    seen = 0
    bounds = histogram["upper_bounds"]
    for i, count in enumerate(histogram["counts"]):
        seen += count
        if 2 * seen >= total:
            return float(bounds[i - 1]) if i > 0 else 0.0
    return float(bounds[-1])


def layer_ladder(workload, base_us, layers, counters):
    """Splits server CPU per request into attributed layer costs.

    Each row is a per-call cost from the in-process timing times how often
    the server made that call per request (from its own counters); the
    remainder of server_cpu_us_per_req is the reactor's: poll, syscalls,
    buffers, queueing, and the contention between the two shards that the
    single-threaded call timings leave out.
    """
    v2 = workload["protocol"] == 2
    served = counters.get("service.requests", 0) + counters.get("service.proof_requests", 0)
    per_req = (lambda name: counters.get(name, 0) / served) if served else (lambda name: 0.0)
    lookups = per_req("registry.lookups")
    decoded = per_req("registry.records_decoded")
    registry_us = layers["registry.find_ns"] * lookups / 1e3
    derive_us = layers["auth.key_derive_ns"] * decoded / 1e3
    rows = [
        ("net.wire", "decode_request + encode_response",
         (layers["net.wire.decode_request_ns"] + layers["net.wire.encode_response_ns"]) / 1e3),
        ("registry.find", f"find_ns x {lookups:.4f} lookups/req", registry_us),
        ("auth.key_derive", f"key_derive_ns x {decoded:.4f} fills/req", derive_us),
    ]
    if v2:
        rows += [
            ("auth.verify_proof", "verify_proof_ns - registry - key_derive",
             max(0.0, layers["auth.verify_proof_ns"] / 1e3 - registry_us - derive_us)),
            ("auth.nonce", "nonce_ns per challenge", layers["auth.nonce_ns"] / 1e3),
        ]
    else:
        admission_us = layers["service.admission_ns_per_req"] / 1e3
        detector_us = layers["service.detector_ns_per_req"] / 1e3
        rows += [
            ("service.admission", "admission_ns_per_req", admission_us),
            ("service.detector", "detector_ns_per_req", detector_us),
            ("service.verify", "verify_batch - registry - key_derive - admission - detector",
             max(0.0, layers["service.verify_batch_ns_per_req"] / 1e3 - registry_us
                 - derive_us - admission_us - detector_us)),
        ]
    attributed = sum(row[2] for row in rows)
    rows.append(("net.reactor", "server_cpu_us_per_req - attributed (incl. contention)",
                 base_us - attributed))
    return rows


def print_ladder(name, base_us, rows):
    print(f"layer ladder [{name}]: share of server_cpu_us_per_req "
          f"(base {base_us:.4f} us/req, untraced closed loop)")
    print(f"  {'layer':<18} {'us/req':>10} {'share':>8}  derivation")
    for layer, how, us in rows:
        share = 100.0 * us / base_us if base_us else 0.0
        print(f"  {layer:<18} {us:>10.4f} {share:>7.2f}%  {how}")
    print(f"  {'total':<18} {sum(r[2] for r in rows):>10.4f} {100.0:>7.2f}%  "
          f"= base {base_us:.4f} us/req")


def print_metrics(title, metrics):
    print(title)
    for key, entry in metrics.items():
        print(f"  {key:<34} {entry['value']:>16.6g} {entry['unit']}")


def run(args):
    workload = WORKLOADS[args.workload]
    bins_dir = build()
    bins = {
        "serve": os.path.join(bins_dir, "ropuf", "tools", "ropuf_serve"),
        "cli": os.path.join(bins_dir, "ropuf", "tools", "ropuf_cli"),
        "loadgen": os.path.join(bins_dir, "servebench_loadgen"),
    }
    facts = host_facts()
    workdir = os.path.join(bins_dir, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    servers = []
    try:
        registry = os.path.join(workdir, "fleet.ropuf")
        mint = [bins["cli"], "registry-build", "--devices", str(workload["devices"]),
                "--seed", str(args.seed), "--out", registry]
        if subprocess.run(mint, stdout=sys.stderr, stderr=sys.stderr, timeout=300).returncode:
            raise BenchError("ropuf_cli registry-build failed")
        return measure(args, workload, bins, facts, workdir, registry, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, bins, facts, workdir, registry, servers):
    seconds = float(args.seconds)
    # Tail latency needs the longest look; the traced run spends its time
    # on the traced server and the in-process timings instead.
    if args.trace:
        closed_s, open_s = 0.2 * seconds, 0.2 * seconds
    else:
        closed_s, open_s = 0.4 * seconds, 0.6 * seconds
    setup_times, rss_mbs, cycles = [], [], []
    for i in range(SETUP_SPAWNS):
        server = Server(bins["serve"], registry, workload["flags"], workdir, f"s{i}")
        servers.append(server)
        setup_times.append(server.setup_s)
        # The last CYCLES servers started are measured as well.
        if i >= SETUP_SPAWNS - CYCLES:
            cycles.append(drive(bins, workload, registry, server, args.seed,
                                closed_s / CYCLES, open_s / CYCLES, args.corrupt_expected))
            rss_mbs.append(server.peak_rss_mb())
        server.stop()
    untraced = pool_cycles(cycles)
    runs = [untraced]

    print(f"servebench: workload {args.workload}, seed {args.seed}, {args.seconds} s")
    print(f"host: nproc {facts['nproc']}, cpu '{facts['cpu_model']}', build Release, "
          f"transport tcp loopback 127.0.0.1")
    print(f"server: ropuf_serve {' '.join(SERVER_FLAGS + workload['flags'])}; "
          f"{workload['devices']} devices, protocol v{workload['protocol']}")
    print(f"generator: 1 process, {untraced['connections']} connections; closed loop "
          f"{untraced['closed_threads']} threads, window {untraced['window']}/connection; "
          f"open loop {untraced['open_threads']} thread, {workload['rate']} req/s "
          f"(exponential gaps)")

    end_to_end = {
        "throughput_rps": untraced["throughput_rps"],
        "latency_p50_us": untraced["latency_p50_us"],
        "server_cpu_us_per_req": untraced["server_cpu_us_per_req"],
        "server_rss_mb": statistics.median(rss_mbs),
        "setup_s": statistics.median(setup_times),
    }
    units = dict(END_TO_END)
    table = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    attempted = untraced["attempted"]
    failed = untraced["failed"]
    # Printed, not part of the result: across ten runs of one build on a
    # 4-CPU VM the tail percentiles spread by up to 0.7 (p90) and 2.2 (p99)
    # of their median whenever the host stalled the VM, past any bound a
    # regression gate could use; and a run without failures has an
    # error_ratio of exactly 0.
    for tail in ("latency_p90_us", "latency_p99_us"):
        table[tail] = {"value": untraced[tail], "unit": "us"}
    table["error_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    # How late the open-loop sender ran: the generator was not the limit.
    table["loadgen.lag_p99_us"] = {"value": untraced["lag_p99_us"], "unit": "us"}
    print_metrics(f"end-to-end (closed loop {closed_s:g} s, open loop {open_s:g} s at "
                  f"{workload['rate']} req/s, split over {CYCLES} fresh servers "
                  f"with {untraced['warmup_s']:g} s warm-up per loop; "
                  f"{untraced['latency_samples']} latency samples; "
                  f"setup and rss medians of {SETUP_SPAWNS} and {CYCLES} servers)", table)

    metrics = {k: table[k] for k, _ in END_TO_END}
    if args.trace:
        metrics_path = os.path.join(workdir, "metrics.json")
        traced_server = Server(bins["serve"], registry, workload["flags"], workdir,
                               "traced", metrics_out=metrics_path)
        servers.append(traced_server)
        traced = pool_cycles([drive(bins, workload, registry, traced_server, args.seed,
                                    closed_s, 0.0, args.corrupt_expected)])
        traced_server.stop()
        runs.append(traced)
        with open(metrics_path) as f:
            snapshot = json.load(f)
        layers = loadgen(bins["loadgen"], "layers",
                         [("--registry", registry), ("--protocol", workload["protocol"]),
                          ("--seed", args.seed), ("--seconds", 0.4 * seconds)]
                         + service_options(workload),
                         timeout=seconds + 120)
        if layers["shards"] != SHARDS:
            raise BenchError(f"layer timer assumes {layers['shards']} shards, "
                             f"the server runs {SHARDS}")
        metrics = per_layer_metrics(args.workload, workload, untraced, traced, snapshot, layers)
        print_metrics("per-layer (in-process timing on the same request stream + "
                      "server --metrics-out counters)", metrics)
        print(f"tracing overhead: traced throughput_rps {traced['throughput_rps']:.1f} vs "
              f"untraced {untraced['throughput_rps']:.1f}: "
              f"difference {untraced['throughput_rps'] - traced['throughput_rps']:.1f} 1/s "
              f"({metrics['trace.overhead_pct']['value']:.2f}% of untraced)")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = sum(r["mismatches"] for r in runs)
    denied = sum(r["denied"] for r in runs)
    checked = "every answered verdict" if workload["protocol"] == 1 else \
        f"{sum(r['checked_proofs'] for r in runs)} proofs"
    print(f"correctness: {mismatches} verdict mismatches over {checked}; "
          f"{failed} failed of {attempted} attempted ({denied} admission denials)")
    for r in runs:
        if r["first_mismatch"]:
            print(f"  first mismatch: {r['first_mismatch']}")
    return {"correct": mismatches == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_metrics(name, workload, untraced, traced, snapshot, layers):
    counters = snapshot["counters"]
    v2 = workload["protocol"] == 2
    batches = counters.get("service.batches", 0)
    # v2 proofs are verified one at a time as they arrive (batch size 1).
    batch_mean = counters.get("service.batch_items", 0) / batches if batches else (
        1.0 if v2 else 0.0)
    served = counters.get("service.requests", 0) + counters.get("service.proof_requests", 0)
    decoded = counters.get("registry.records_decoded", 0)
    hits = counters.get("service.cache_hits", 0)
    base_us = untraced["server_cpu_us_per_req"]
    rows = layer_ladder(workload, base_us, layers, counters)
    print_ladder(name, base_us, rows)
    untraced_rps, traced_rps = untraced["throughput_rps"], traced["throughput_rps"]
    values = dict(layers)
    values.update({
        "net.batch_size_mean": batch_mean,
        "net.queue_depth_p50": histogram_p50(snapshot["histograms"]["net.queue_depth"])
        if "net.queue_depth" in snapshot["histograms"] else 0.0,
        "net.overload_rejections": counters.get("net.overload_rejections", 0),
        "net.reactor_cpu_us_per_req": rows[-1][2],
        "registry.records_decoded_per_req": decoded / served if served else 0.0,
        # Enrolled-device lookups answered from the enrollment cache; the
        # denominator is every such lookup (a hit, or a miss that decoded).
        "service.cache_hit_ratio": hits / (hits + decoded) if hits + decoded else 0.0,
        "service.denied": counters.get("service.rate_limited", 0)
        + counters.get("service.budget_exhausted", 0),
        "loadgen.lag_p99_us": untraced["lag_p99_us"],
        "loadgen.cpu_us_per_req": untraced["loadgen_cpu_us_per_req"],
        "trace.throughput_rps_untraced": untraced_rps,
        "trace.throughput_rps_traced": traced_rps,
        "trace.overhead_pct": 100.0 * (untraced_rps - traced_rps) / untraced_rps,
    })
    return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: flips one expected verdict so the correctness gate must trip.
    parser.add_argument("--corrupt-expected", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"servebench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
