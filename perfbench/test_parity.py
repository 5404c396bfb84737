#!/usr/bin/env python3
"""Driver/CLI parity self-test of the benchmark.

Runs every benchmark workload through both aqsim_cli and the benchmark
driver with identical flags, and requires identical sim, quanta, pkts,
stragglers and metric fields in their summaries, so the driver cannot
drift off the path an aqsim_cli user takes. The workloads run at their
benchmark scale (about 15 s in all): a tiny scale would end
ep2048.thr.recover before its injected failure, leaving the recovery
path unchecked.

Usage: python3 perfbench/test_parity.py   (exit 0 = parity holds)
"""

import json
import re
import shutil
import subprocess
import sys

import run

FIELDS = re.compile(r"\b(sim|quanta|pkts|stragglers|metric)=(\S+)")


def fields(summary):
    return dict(FIELDS.findall(summary))


def main():
    bdir = run.build_dir()
    run.build(bdir, ["aqsim_perf", "aqsim_cli"])
    env = run.child_env(bdir)
    work = bdir / "parity"
    failures = 0
    for name, cfg in run.WORKLOADS.items():
        args = cfg["args"]
        summaries = {}
        for tool in ["aqsim_cli", "aqsim_perf"]:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            argv = [str(bdir / tool)] + args
            if cfg["ckpt"]:
                argv += ["--checkpoint-dir", str(work / "ckpt")]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{name}: {tool} exited {proc.returncode}: "
                         f"{proc.stderr[-800:]}")
            out = proc.stdout.splitlines()
            summaries[tool] = (out[0] if tool == "aqsim_cli" else
                               json.loads(out[-1])["summary"])
        shutil.rmtree(work, ignore_errors=True)
        cli = fields(summaries["aqsim_cli"])
        drv = fields(summaries["aqsim_perf"])
        ok = len(cli) == 5 and cli == drv
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: cli {cli} driver {drv}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
