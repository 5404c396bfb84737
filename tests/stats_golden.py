#!/usr/bin/env python3
"""Check aqsim_cli's --stats and --stats-csv dumps against committed goldens.

Usage:
    stats_golden.py CLI GOLDEN_DIR            # diff every case
    stats_golden.py CLI GOLDEN_DIR --write    # regenerate the goldens
    stats_golden.py CLI --distributed K       # distributed == threaded

Every case is a conservative 16-node nas.cg run; the distributed check
also runs it over a lossy network (faults.* are summed over the
processes). The one measured value in a dump, cluster.sync.hostNs on
the threaded and distributed engines (host wall-clock, not modeled), is
masked before comparing; every other row must match byte for byte.
"""

import difflib
import subprocess
import sys
from pathlib import Path

RUN = ["--workload", "nas.cg", "--nodes", "16", "--policy", "fixed:1us",
       "--quiet"]

CASES = {
    "sequential": ["--engine", "sequential"],
    "threaded-k1": ["--engine", "threaded", "--workers", "1"],
    "threaded-k2": ["--engine", "threaded", "--workers", "2"],
    "threaded-k4": ["--engine", "threaded", "--workers", "4"],
}

FORMATS = {"txt": "--stats", "csv": "--stats-csv"}

MEASURED = "cluster.sync.hostNs"


def mask(text, fmt):
    """Replace the measured host time with a placeholder."""
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith(MEASURED):
            if fmt == "csv":
                fields = line.split(",")
                fields[2] = "<measured>"
                line = ",".join(fields)
            else:
                line = MEASURED + " <measured>\n"
        out.append(line)
    return "".join(out)


def dump(cli, engine_args, fmt):
    proc = subprocess.run([cli] + RUN + engine_args + [FORMATS[fmt]],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(engine_args)} {FORMATS[fmt]} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    text = proc.stdout
    return text if engine_args[1] == "sequential" else mask(text, fmt)


def differs(name, want, got):
    if want == got:
        return False
    diff = difflib.unified_diff(want.splitlines(keepends=True),
                                got.splitlines(keepends=True),
                                fromfile=f"{name} (expected)",
                                tofile=f"{name} (actual)", n=1)
    sys.stdout.writelines(list(diff)[:60])
    return True


def check_goldens(cli, golden_dir, write):
    bad = 0
    for case, engine_args in CASES.items():
        for fmt in FORMATS:
            path = golden_dir / f"cg16.{case}.stats.{fmt}.golden"
            got = dump(cli, engine_args, fmt)
            if write:
                path.write_text(got)
                continue
            bad += differs(path.name, path.read_text(), got)
    return bad


LOSSY = ["--drop", "0.02", "--duplicate", "0.01", "--reliable"]


def check_distributed(cli, k):
    bad = 0
    for net in ([], LOSSY):
        for fmt in FORMATS:
            want = dump(cli, CASES["threaded-k2"] + net, fmt)
            got = dump(cli, ["--engine", "distributed", "--workers",
                             str(k)] + net, fmt)
            bad += differs(f"distributed K={k} {' '.join(net)} "
                           f"{FORMATS[fmt]}", want, got)
    return bad


def main(argv):
    if len(argv) >= 3 and argv[2] == "--distributed":
        bad = check_distributed(argv[1], int(argv[3]))
    elif len(argv) in (3, 4):
        bad = check_goldens(argv[1], Path(argv[2]),
                            len(argv) == 4 and argv[3] == "--write")
    else:
        sys.exit(__doc__)
    if bad:
        sys.exit(f"{bad} stats dump(s) differ")
    print("stats dumps match")


if __name__ == "__main__":
    main(sys.argv)
