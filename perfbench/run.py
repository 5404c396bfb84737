#!/usr/bin/env python3
"""aqsim whole-run benchmark.

Runs one workload as a closed loop — one aqsim run at a time, each a
fresh driver process — for --seconds, checks every simulated result
against a reference run of the same configuration and seed on another
engine (see WORKLOADS), and prints the metrics as the last line of stdout:

  {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, loop_s,
peak_rss_mb; medians over the runs). --trace 1 alternates plain and
traced runs and reports the per-layer metrics (medians over the traced
runs). Host-noise diagnostics and the full layer report go to the
lines before it. See perfbench/README.md.

Usage: python3 perfbench/run.py --workload NAME [--seed N]
           [--seconds S] [--trace 0|1]
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# One run may never take longer than this; the whole invocation must
# end within 180 s.
RUN_TIMEOUT_S = 120.0
INVOCATION_BUDGET_S = 170.0

# Each workload: aqsim_cli flags (the driver accepts the same ones),
# whether it needs a fresh checkpoint directory, and what a correct run
# must additionally show beyond matching the reference. (A recovered
# run's RunResult counts only the last attempt's checkpoint writes;
# restored_from proves the failed attempt wrote the one restored.)
# --checkpoint-keep 0 keeps every image a run writes, in any attempt,
# so the directory after the run shows them all.
#
# The reference engine is SequentialEngine, except for the adaptive
# (non-conservative) is256.thr.dyn: there straggler handling differs
# between the engines by design, and the threaded engine's contract is
# that its result is the same at any worker count, so the reference is
# the threaded engine with one worker.
WORKLOADS = {
    "is256.thr.dyn": {
        "args": ["--workload", "nas.is", "--nodes", "256",
                 "--policy", "dyn:1.03:0.02:1us:1000us",
                 "--engine", "threaded", "--workers", "2",
                 "--scale", "0.25", "--watchdog", "0"],
        "ckpt": False,
        "reference": ["--engine", "threaded", "--workers", "1"],
        "expect": {"attempts": 0, "ckpt_writes": 0},
    },
    "ep2048.thr.recover": {
        "args": ["--workload", "nas.ep", "--nodes", "2048",
                 "--policy", "fixed:1us",
                 "--engine", "threaded", "--workers", "2",
                 "--scale", "1", "--watchdog", "0",
                 "--checkpoint-every", "60", "--checkpoint-keep", "0",
                 "--supervise", "--inject-fail", "1:130",
                 "--backoff", "0"],
        "ckpt": True,
        "expect": {"attempts": 2, "restored_from": 120},
    },
    "cg512.dist.ckpt": {
        "args": ["--workload", "nas.cg", "--nodes", "512",
                 "--policy", "fixed:1us",
                 "--engine", "distributed", "--workers", "2",
                 "--scale", "1", "--watchdog", "0",
                 "--checkpoint-every", "500", "--checkpoint-keep", "0"],
        "ckpt": True,
        "expect": {"attempts": 0},
        "at_least": {"ckpt_writes": 1},
    },
}

# RunResult fields a run must reproduce exactly.
CHECKED = ["sim", "quanta", "packets", "stragglers", "next_quantum",
           "metric", "hash"]
# The workload-defining flags, reused for the reference run.
REFERENCE_FLAGS = ["--workload", "--nodes", "--policy", "--scale", "--seed"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def child_env(bdir):
    env = dict(os.environ)
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build(bdir, targets):
    """Configure (once) and build @p targets; exit 1 on failure."""
    bdir.mkdir(parents=True, exist_ok=True)
    env = child_env(bdir)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(os.cpu_count() or 2), "--target", *targets])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"perfbench: build failed (see {log})")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _reap_group(pgid):
    """SIGKILL what is left of a run's process group; wait until gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv, out_path, err_path, env, timeout):
    """Run one process; @return (status, wall_s, rusage, t_spawn) or
    None on timeout. Wall time spans spawn to reap."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    signal.signal(signal.SIGALRM, _on_alarm)
    t_spawn = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions,
                         setpgroup=0)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, rusage = os.wait4(pid, 0)
        wall = time.monotonic() - t_spawn
        signal.setitimer(signal.ITIMER_REAL, 0)
    except _Timeout:
        _reap_group(pid)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        return None
    # Workers of a distributed run belong to the group; none may
    # outlive the run.
    _reap_group(pid)
    return status, wall, rusage, t_spawn


def host_snapshot():
    """Host-noise diagnostics (not metrics): steal ticks, loadavg."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    return steal, load


def calibration_s():
    """Time of a fixed CPU-bound loop (host speed diagnostic)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - start


def load_json_line(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if ln]
    return json.loads(lines[-1]) if lines else None


class Runner:
    def __init__(self, name, seed, bdir):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.bdir = bdir
        self.work = bdir / "runs" / name
        self.env = child_env(bdir)
        self.binary = bdir / "aqsim_perf"
        self.counter = 0

    def args(self):
        return self.cfg["args"] + ["--seed", str(self.seed)]

    def flag(self, name, default):
        args = self.cfg["args"]
        return int(args[args.index(name) + 1]) if name in args else default

    def reference_args(self):
        args, out = self.args(), []
        for i, flag in enumerate(args):
            if flag in REFERENCE_FLAGS:
                out += [flag, args[i + 1]]
        return out + self.cfg.get("reference", ["--engine", "sequential"])

    def reference(self):
        """Reference result for this config and seed; computed once per
        binary and cached (never timed)."""
        st = self.binary.stat()
        key = " ".join(self.reference_args()) + \
            f" bin={st.st_mtime_ns}:{st.st_size}"
        cache = self.bdir / "ref" / f"{self.name}-seed{self.seed}.json"
        if cache.exists():
            cached = json.loads(cache.read_text())
            if cached.get("key") == key:
                return cached["result"]
        op = self.run_once(self.reference_args(), traced=False,
                           ckpt=False)
        if not op["ok"]:
            sys.exit(f"perfbench: reference run failed: {op['error']}")
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps({"key": key, "result": op["result"]}))
        return op["result"]

    def run_once(self, args, traced, ckpt, timeout=RUN_TIMEOUT_S):
        """One driver process in a fresh directory (created and deleted
        outside the timed interval)."""
        self.counter += 1
        rundir = self.work / f"run{self.counter}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        argv = [str(self.binary)] + args
        if ckpt:
            argv += ["--checkpoint-dir", str(rundir / "ckpt")]
        if traced:
            argv += ["--spans", "--image-dir", str(rundir / "image")]
        out, err = rundir / "stdout", rundir / "stderr"
        spawned = spawn(argv, out, err, self.env, timeout)
        op = {"ok": False, "traced": traced}
        try:
            if spawned is None:
                op["error"] = f"timeout after {timeout:.0f} s"
                return op
            status, wall, ru, t_spawn = spawned
            if os.waitstatus_to_exitcode(status) != 0:
                op["error"] = (f"exit {os.waitstatus_to_exitcode(status)}"
                               f": {err.read_text()[-800:]}")
                return op
            result = load_json_line(out)
            if result is None:
                op["error"] = "no result line"
                return op
            images = sorted((rundir / "ckpt").glob("ckpt-q*.aqc"))
            op.update(ok=True, result=result, wall=wall,
                      cpu=ru.ru_utime + ru.ru_stime,
                      rss_mb=ru.ru_maxrss / 1024.0,
                      setup=result["t_first_quantum"] * 1e-9 - t_spawn,
                      loop=(result["t_run_end"] -
                            result["t_first_quantum"]) * 1e-9,
                      ckpt_images=len(images),
                      ckpt_image_bytes=sum(p.stat().st_size
                                           for p in images))
            return op
        finally:
            shutil.rmtree(rundir, ignore_errors=True)

    def check(self, op, ref):
        """Mark @p op failed unless it reproduces the reference."""
        if not op["ok"]:
            return
        res = op["result"]
        bad = [f"{k}={res[k]} (reference {ref[k]})"
               for k in CHECKED if res[k] != ref[k]]
        bad += [f"{k}={res[k]} (expected {v})"
                for k, v in self.cfg["expect"].items() if res[k] != v]
        bad += [f"{k}={res[k]} (expected at least {v})"
                for k, v in self.cfg.get("at_least", {}).items()
                if res[k] < v]
        if bad:
            op["ok"] = False
            op["error"] = "result mismatch: " + ", ".join(bad)


def median(values):
    return statistics.median(values) if values else 0.0


def span_index(result):
    """Durations (s) by span name, and the summed top-level spans."""
    spans = result["spans"]
    by_name = {}
    top = 0.0
    for s in spans:
        d = (s["end"] - s["start"]) * 1e-9
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + d
        if s["parent"] < 0:
            top += d
    return by_name, top


def readout_s(op):
    """Time a traced run spends in its layer readout (or, distributed,
    its probe): part of the traced wall time, but not tracing cost."""
    by_name, _ = span_index(op["result"])
    return by_name.get("readout", 0.0) + by_name.get("probe", 0.0)


def self_times(spans):
    """Self time (s) of each span: its duration minus its children's
    (a span's children never overlap each other)."""
    dur = [(s["end"] - s["start"]) * 1e-9 for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            covered[s["parent"]] += d
    return {s["name"]: d - c for s, d, c in zip(spans, dur, covered)}


def checkpoint_loop_s(res, every):
    """Checkpoint work inside the loop, seen from outside: a checkpoint
    taken after quantum q lands in the span of quantum q+1, so sum the
    excess of those spans over the median quantum span. Unlike the
    RunResult counters, this covers every attempt of a recovered run."""
    spans = res["quantum_ns"]
    if not every or not spans:
        return 0.0
    typical = statistics.median(spans)
    excess, pos = 0, 0
    for n in res["attempt_quanta"]:
        for q in range(every, n, every):
            excess += max(0, spans[pos + q] - typical)
        pos += n
    return excess * 1e-9


def layer_metrics(op, plain, every):
    """Per-layer metrics of one traced run (@p plain: untraced runs,
    @p every: the checkpoint cadence in quanta, 0 = none)."""
    res = op["result"]
    spans, top = span_index(res)
    layers = res["layers"]
    qns = res["quantum_ns"]
    cuts = statistics.quantiles(qns, n=100)
    p50, p99 = cuts[49], cuts[98]
    phase_ms = {k: v * 1e-6 for k, v in res["phase_ns"].items()}
    exchange_s = sum(res["phase_ns"].values()) * 1e-9
    policy_s = res["policy_ns"] * 1e-9
    ckpt_s = checkpoint_loop_s(res, every)
    recover_s = spans.get("supervise.recover", 0.0)
    in_process = "sim.events" in layers
    # The engine hashes the final state once inside the loop; its cost
    # is the readout's state_hash (same function, same state).
    hash_s = spans["engine.state_hash"] if in_process else 0.0
    node_exec_s = (spans["run.loop"] - exchange_s - policy_s - ckpt_s -
                   hash_s - recover_s)
    m = {
        "workloads.make_s": spans["workloads.make"],
        "engine.build_s": spans["engine.build"],
        "engine.build_rss_mb": layers["engine.build_rss_mb"],
        "engine.bytes_per_node": layers["engine.bytes_per_node"],
        "engine.teardown_s": spans["engine.teardown"],
        "engine.state_hash_s": spans["engine.state_hash"],
        "engine.quanta": res["quanta"],
        "engine.quantum_us.p50": p50 * 1e-3,
        "engine.quantum_us.p99": p99 * 1e-3,
        "engine.cpu_s": median([p["cpu"] for p in plain]),
        "engine.self_cpu_s": median(
            [p["result"]["self_cpu_s"] for p in plain]),
        "core.policy_calls": len(qns),
        "core.policy_ns": res["policy_ns"] / max(1, len(qns)),
    }
    for sec in ["nodes", "mpi", "net", "fault", "workload"]:
        m[f"ckpt.section_bytes.{sec}"] = layers[f"ckpt.section_bytes.{sec}"]
        m[f"ckpt.serialize_s.{sec}"] = spans[f"ckpt.serialize.{sec}"]
    m.update({
        "ckpt.encode_s": spans["ckpt.encode"],
        "ckpt.decode_s": spans["ckpt.decode"],
        "ckpt.write_s": spans["ckpt.write"],
        "ckpt.load_s": spans["ckpt.load"],
        "ckpt.writes": op["ckpt_images"],
        "ckpt.bytes": op["ckpt_image_bytes"],
        "supervise.attempts": max(1, res["attempts"]),
        "net.packets": res["packets"],
        "net.stragglers": res["stragglers"],
        "net.next_quantum": res["next_quantum"],
        "unattributed_s": op["wall"] - top,
    })
    # Reported, not contracted: layers that run on some workloads only,
    # and the simulated mean quantum (a constant under a fixed policy).
    extra = {"core.mean_quantum_us": res["mean_quantum_ticks"] * 1e-3}
    if exchange_s > 0:
        for k, v in phase_ms.items():
            extra[f"engine.exchange.{k}_ms"] = v
    if in_process:
        extra["engine.node_exec_s"] = node_exec_s
        extra["sim.events"] = layers["sim.events"]
        extra["sim.ns_per_event"] = \
            node_exec_s * 1e9 / max(1.0, layers["sim.events"])
        extra["mpi.msgs_sent"] = layers["mpi.msgs_sent"]
        extra["mpi.bytes_sent"] = layers["mpi.bytes_sent"]
    if every:
        extra["ckpt.loop_s"] = ckpt_s
    if res["ckpt_writes"]:
        extra["ckpt.run_write_s"] = res["ckpt_write_ns"] * 1e-9
    if "supervise.recover" in spans:
        extra["supervise.recover_s"] = recover_s
        extra["supervise.replay_s"] = spans.get("supervise.replay", 0.0)
    if not in_process:
        extra["transport.quantum_us.p50"] = p50 * 1e-3
        extra["transport.quantum_us.p99"] = p99 * 1e-3
        extra["transport.peer_cpu_s"] = median(
            [p["result"]["child_cpu_s"] for p in plain])
        extra["transport.coord_cpu_s"] = m["engine.self_cpu_s"]
    return m, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no aqsim sources under {ROOT}; run from a "
                 "full checkout")
    bdir = build_dir()
    build(bdir, ["aqsim_perf"])
    # The first invocation in a checkout may spend minutes building;
    # the time budget of an invocation starts after the build.
    started = time.monotonic()
    runner = Runner(args.workload, args.seed, bdir)
    shutil.rmtree(runner.work, ignore_errors=True)
    ref = runner.reference()

    calib_before = calibration_s()
    steal0, load0 = host_snapshot()
    window_start = time.monotonic()
    deadline = window_start + args.seconds
    ops = []
    while True:
        plain_done = any(not o["traced"] for o in ops)
        traced_done = any(o["traced"] for o in ops)
        enough = plain_done and (traced_done or not args.trace)
        # Start no run expected to end past the deadline.
        typical = median([o["wall"] for o in ops if o["ok"]])
        if enough and time.monotonic() + typical >= deadline:
            break
        left = INVOCATION_BUDGET_S - (time.monotonic() - started)
        if left < 5.0:
            break
        traced = bool(args.trace) and len(ops) % 2 == 1
        op = runner.run_once(runner.args(), traced,
                             ckpt=runner.cfg["ckpt"],
                             timeout=min(RUN_TIMEOUT_S, left))
        runner.check(op, ref)
        ops.append(op)
    window_s = time.monotonic() - window_start
    steal1, load1 = host_snapshot()
    calib_after = calibration_s()
    shutil.rmtree(runner.work, ignore_errors=True)

    good = [o for o in ops if o["ok"]]
    plain = [o for o in good if not o["traced"]]
    traced = [o for o in good if o["traced"]]
    failed = len(ops) - len(good)
    for o in ops:
        if not o["ok"]:
            print(f"perfbench: failed run: {o['error']}", file=sys.stderr)

    diag = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "window_s": round(window_s, 3),
        "runs": len(ops), "traced_runs": len(traced),
        "reference": {k: ref[k] for k in CHECKED},
        "host": {
            "calibration_s": [round(calib_before, 4),
                              round(calib_after, 4)],
            "loadavg": [load0, load1],
            "steal_s": (steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
        },
        "wall_s": [round(o["wall"], 4) for o in plain],
    }
    print("perfbench-diagnostics " + json.dumps(diag))

    if args.trace:
        every = runner.flag("--checkpoint-every", 0)
        per_run = [layer_metrics(o, plain, every) for o in traced]
        names = list(per_run[0][0]) if per_run else []
        metrics = {n: median([m[n] for m, _ in per_run]) for n in names}
        extra_names = list(per_run[0][1]) if per_run else []
        extra = {n: median([e[n] for _, e in per_run])
                 for n in extra_names}
        metrics["trace.overhead_s"] = (
            median([o["wall"] - readout_s(o) for o in traced]) -
            median([o["wall"] for o in plain]))
        spans = traced[0]["result"]["spans"] if traced else []
        report = {"workload": args.workload, "seed": args.seed,
                  "layers": metrics, "workload_layers": extra,
                  "self_s": self_times(spans), "spans": spans}
        trace_file = bdir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(report, indent=1))
        print("perfbench-layers " + json.dumps(
            {"workload_layers": extra, "trace_file": str(trace_file)}))
    else:
        metrics = {
            "wall_s": median([o["wall"] for o in plain]),
            "setup_s": median([o["setup"] for o in plain]),
            "loop_s": median([o["loop"] for o in plain]),
            "peak_rss_mb": median([o["rss_mb"] for o in plain]),
        }

    print(json.dumps({
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)}
                    for n, v in metrics.items()},
    }))
    return 0


def unit_of(name):
    """Unit of a metric, from its name's suffix."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ns"):
        return "ns"
    if "_us" in name:
        return "us"
    if "bytes" in name:
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
