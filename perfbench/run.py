#!/usr/bin/env python3
"""The CoREC benchmark: builds this checkout, runs one workload, checks
its outputs and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload served_small --seed 1 \
        --seconds 10 --trace 0

Workloads: served_small and served_large drive a live corec-server over
loopback; s3d_failure runs the S3D workflow in-process with a server
failure. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PERFBENCH = os.path.join(BUILD, "perfbench")
SERVER = os.path.join(BUILD, "corec-server")

# corec-server's one event loop gets a CPU of its own; the driver's
# load threads take the others in this order (thread i on the i-th).
SERVER_CPU = 1
LOAD_CPUS = (3, 2, 0)

# Workload and metric names and units come from BENCHMARK.json. Every
# workload prints every metric; a per-layer metric of a layer the
# workload does not run reads 0.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def log(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.stderr.flush()


def build():
    """Configures once and builds the driver and corec-server."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD],
                             stdout=sys.stderr, cwd=ROOT)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench", "corec_server_cli"],
        stdout=sys.stderr, cwd=ROOT)
    return rc == 0


def reap(proc, timeout_s):
    """Waits for `proc` (killing it after `timeout_s`) and returns its
    exit code and rusage."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def cpu_plan():
    """The server's CPU and the load threads' CPUs, or None when the
    host has fewer than 4 CPUs to give them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None
    return cpus[SERVER_CPU], [cpus[i] for i in LOAD_CPUS]


def run_child(cmd, timeout_s):
    """Runs `cmd`, returning (exit code, stdout text, rusage)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    out = ""
    try:
        out = proc.stdout.read().decode()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        rc, usage = reap(proc, 30)
    return rc, out, usage


class Server:
    """A corec-server on a kernel-assigned loopback port; always stopped
    and reaped, whatever happens in between."""

    def __init__(self, cpu):
        pin = None if cpu is None else (
            lambda: os.sched_setaffinity(0, {cpu}))
        self.proc = subprocess.Popen([SERVER, "--port", "0", "--loops", "1"],
                                     stdout=subprocess.PIPE, cwd=ROOT,
                                     preexec_fn=pin)
        self.port = None
        self.output = ""
        self.usage = None
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        m = re.search(r"listening on [^ ]+:(\d+)", line)
        if m:
            self.port = int(m.group(1))

    def stop(self):
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            rc, self.usage = reap(self.proc, 20)
            self.output = self.proc.stdout.read().decode()
            self.proc.stdout.close()
            return rc
        return self.proc.returncode

    def stats(self):
        m = re.search(r"corec-server stats (\{.*\})", self.output)
        return json.loads(m.group(1)) if m else None


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def per_frame(num, den):
    return num / den if den else 0.0


def run(args):
    cmd = [PERFBENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    plan = cpu_plan()
    if plan is not None:
        cmd += ["--cpus", ",".join(str(c) for c in plan[1])]
    timeout = 150
    problems = []
    t0 = time.monotonic()
    if args.workload == "s3d_failure":
        rc, out, usage = run_child(cmd, timeout)
        rss_kib = usage.ru_maxrss
        stats = None
    else:
        server = Server(None if plan is None else plan[0])
        try:
            if server.port is None:
                log("corec-server did not start")
                return 1
            rc, out, _ = run_child(cmd + ["--port", str(server.port)],
                                   timeout)
        finally:
            server_rc = server.stop()
        rss_kib = server.usage.ru_maxrss if server.usage else 0
        stats = server.stats()
        if server_rc != 0 or stats is None:
            log("corec-server exited with %s" % server_rc)
            return 1
        # How busy the server was over its life (set-up included): near
        # 1 when it, and not the load threads, sets the pace.
        u = server.usage
        log("corec-server CPU time %.2f s over %.2f s"
            % (u.ru_utime + u.ru_stime, time.monotonic() - t0))
    if rc != 0:
        log("perfbench exited with %d" % rc)
        return 1
    res = last_json(out)
    if res is None:
        log("perfbench printed no result")
        return 1
    problems.extend(res["problems"])
    correct = bool(res["correct"])

    measured = dict(res["metrics"])
    if stats is not None:
        # Every request the driver sent, and nothing else, reached the
        # server.
        if stats["frames_in"] != res["requests_sent"]:
            correct = False
            problems.append("server frames_in %d != requests sent %d" %
                            (stats["frames_in"], res["requests_sent"]))
        if args.trace:
            fin, fout = stats["frames_in"], stats["frames_out"]
            measured.update({
                "rpc.recv_per_frame": per_frame(stats["recv_data_calls"], fin),
                "rpc.eagain_per_frame":
                    per_frame(stats["recv_eagain_calls"], fin),
                "rpc.writev_per_frame": per_frame(stats["writev_calls"], fout),
                "common.slab.miss_per_frame":
                    per_frame(stats["pool_misses"], fin),
                "common.slab.oversize_per_frame":
                    per_frame(stats["pool_oversize"], fin),
            })

    if args.trace:
        metrics = {n: {"value": float(measured.get(n, 0.0)), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        measured["setup_s"] = res["measure_start"] - t0
        measured["server_rss_mib"] = rss_kib / 1024.0
        missing = [n for n in END_TO_END if n not in measured]
        if missing:
            log("metrics not measured: %s" % ", ".join(missing))
            return 1
        metrics = {n: {"value": float(measured[n]), "unit": u}
                   for n, u in END_TO_END.items()}
    for p in problems:
        log("check failed: %s" % p)
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


def main():
    # A SIGTERM unwinds through the finally blocks, so the children are
    # stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        log("build failed")
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
