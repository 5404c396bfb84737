#!/usr/bin/env python3
"""aqsim repository lint: header hygiene, determinism, naming.

Checks (each file, line numbers reported):

  guards     every .hh carries the canonical include guard
             AQSIM_<RELPATH>_HH (src/ stripped), with a matching
             #define and a trailing ``#endif // GUARD`` comment,
             and never ``#pragma once``
  determinism banned nondeterminism sources outside base/random:
             rand()/srand(), time()/gettimeofday()/clock(),
             std::random_device, and the std <random> engines
             (mt19937 & friends) — a run must be a pure function of
             its seed, drawn through base/random.hh Rng streams
  naming     snake_case file names, .hh/.cc extensions only,
             no ``using namespace std``
  hygiene    a foo.cc with a sibling foo.hh includes it first;
             no trailing whitespace or tab indentation
  hotpath    no std::function (or <functional> include) under
             src/sim/ — the event kernel is allocation-free; use
             sim::SmallCallback (docs/performance.md); no
             std::dynamic_pointer_cast under src/mpi/ or src/net/ —
             the per-packet path casts the raw pointer its owner keeps
             alive instead of copying the shared_ptr (two atomic
             operations on another worker's control block); no
             std::make_shared/std::shared_ptr of a packet or payload
             type under src/net/, src/mpi/, src/node/nic_model.* or
             src/engine/delivery_batch.* — a frame is a trivially
             copyable value from NicModel::send to Endpoint::handleRx,
             so no heap object is shared between workers
  persistence no raw file I/O (fopen/fwrite/fread, std::ofstream/
             ifstream/fstream) under src/ outside src/ckpt/ — all
             persistent simulator state goes through the versioned,
             CRC-guarded ckpt_io layer (docs/checkpoint-restore.md);
             tools/tests/bench report writers are exempt, as is
             src/supervise/incident_log.cc (an append-only JSONL
             diagnostics stream, not simulator state)
  engine-seam no direct engine use (SequentialEngine/ThreadedEngine/
             DistributedEngine) under src/harness/ — the harness reaches an engine only
             through supervise::RunSupervisor, so every harness run
             gets the restore/retry/escalate lifecycle and the
             supervision seam stays the one place engines are driven
             (docs/supervision.md); mirrors the queue-seam rule
  layout     no checkpoint section name (ckpt::section*) and no
             ckpt::sectionsHash under src/ outside src/ckpt/ and
             src/engine/cluster.cc — the image framing lives in ckpt,
             the cluster-state sections in Cluster, so no engine keeps
             a second copy of the layout (docs/checkpoint-restore.md)

Usage: lint.py [--root DIR] [paths...]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

DEFAULT_DIRS = ["src", "tests", "bench", "tools", "examples"]
SOURCE_EXTS = {".hh", ".cc", ".cpp"}

# Deliberately-broken inputs for the self-tests of lint.py and
# aqsim_analyze; skipped when expanding directories (still lintable
# when named explicitly on the command line).
EXCLUDED_DIRS = [
    "tools/lint/fixtures",
    "tests/analyze_fixtures",
]

# Nondeterminism sources; base/random is the only place allowed to
# touch the underlying generators. std::chrono is deliberately not
# banned: wall-clock timing of *host* execution is measurement, not
# simulation input.
#
# The call patterns are matched against *qualification-normalized*
# code (std:: and global :: prefixes removed first), so std::time(
# and ::time( are caught; the lookbehind then only has to exclude
# member access (.time/->time) and other-namespace qualification,
# both of which are a different function by definition.
BANNED = [
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    # The std <random> engines fork unmanaged streams: seeding and
    # stream assignment would escape the Rng::fork() discipline that
    # keeps runs reproducible across engines and worker counts.
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\branlux(24|48)(_base)?\b"), "std::ranlux"),
    (re.compile(r"\bknuth_b\b"), "std::knuth_b"),
]

SNAKE_CASE = re.compile(r"^[a-z0-9_.]+$")

# A checkpoint section name (ckpt::sectionNodes & co.) or the section
# hash; the modules allowed to name them.
LAYOUT_NAME = re.compile(r"\bsection(sHash\b|[A-Z]\w*)")
LAYOUT_OWNERS = ("src/ckpt/", "src/engine/cluster.cc")

# A shared_ptr (or a make_shared/allocate_shared) whose element type
# names a packet or a payload: net::Packet, const Packet, the mpi
# FragmentPayload/ControlPayload, any *Packet*/*Payload* type.
SHARED_FRAME = re.compile(
    r"\b(make_shared|allocate_shared|shared_ptr)\s*<\s*"
    r"(const\s+)?(\w+\s*::\s*)*\w*(Packet|Payload)\w*\b")


def findings_for(path: Path, rel: str, text: str):
    lines = text.splitlines()
    out = []

    def finding(lineno, rule, message):
        out.append((rel, lineno, rule, message))

    # --- naming ---
    if not SNAKE_CASE.match(path.name):
        finding(1, "naming", f"file name '{path.name}' is not snake_case")

    is_header = path.suffix == ".hh"
    posix_rel = rel.replace("\\", "/")
    in_base_random = posix_rel.startswith("src/base/random")
    in_sim_kernel = posix_rel.startswith("src/sim/")
    in_packet_path = posix_rel.startswith(("src/mpi/", "src/net/"))
    in_value_frame_path = in_packet_path or posix_rel.startswith(
        ("src/node/nic_model.", "src/engine/delivery_batch."))
    # The incident log is an append-only JSONL diagnostics stream —
    # recovery telemetry, not simulator state — so it writes directly.
    state_serialization_banned = (
        posix_rel.startswith("src/") and
        not posix_rel.startswith("src/ckpt/") and
        posix_rel != "src/supervise/incident_log.cc")
    in_harness = posix_rel.startswith("src/harness/")
    layout_banned = (posix_rel.startswith("src/") and
                     not posix_rel.startswith(LAYOUT_OWNERS))

    # --- guards ---
    if is_header:
        guard_rel = rel[len("src/"):] if rel.startswith("src/") else rel
        guard = "AQSIM_" + re.sub(r"[^A-Za-z0-9]", "_", guard_rel).upper()
        if f"#ifndef {guard}" not in text:
            finding(1, "guards", f"missing include guard '{guard}'")
        elif f"#define {guard}" not in text:
            finding(1, "guards", f"#ifndef {guard} without matching #define")
        else:
            tail = [ln.strip() for ln in lines if ln.strip()][-1]
            if tail != f"#endif // {guard}":
                finding(len(lines), "guards",
                        f"file must end with '#endif // {guard}'")
        for i, line in enumerate(lines, 1):
            if re.match(r"\s*#\s*pragma\s+once", line):
                finding(i, "guards", "#pragma once (use include guards)")

    # --- hygiene: own header first ---
    if path.suffix in (".cc", ".cpp") and path.with_suffix(".hh").exists():
        own = None
        if rel.startswith("src/"):
            own = rel[len("src/"):].rsplit(".", 1)[0] + ".hh"
        else:
            own = path.name.rsplit(".", 1)[0] + ".hh"
        includes = [ln for ln in lines if ln.lstrip().startswith("#include")]
        if includes and f'"{own}"' not in includes[0]:
            finding(lines.index(includes[0]) + 1, "hygiene",
                    f"first include must be the file's own header "
                    f'("{own}")')

    in_block_comment = False
    for i, line in enumerate(lines, 1):
        # --- hygiene: whitespace ---
        if line != line.rstrip():
            finding(i, "hygiene", "trailing whitespace")
        if line.startswith("\t"):
            finding(i, "hygiene", "tab indentation")

        # Strip comments/strings crudely before token checks so prose
        # mentioning rand()/time() does not trip the determinism rule.
        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        code = re.sub(r'"(\\.|[^"\\])*"', '""', code)
        start = code.find("/*")
        while start >= 0:
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block_comment = True
                break
            code = code[:start] + code[end + 2:]
            start = code.find("/*")
        code = code.split("//", 1)[0]

        # --- naming: using namespace std ---
        if re.search(r"\busing\s+namespace\s+std\b", code):
            finding(i, "naming", "'using namespace std' is banned")

        # --- determinism ---
        if not in_base_random:
            # Normalize away std:: and global :: qualification so
            # qualified calls (std::time(nullptr)) cannot slip past
            # the lookbehinds, which exist to skip *member* access
            # and *other*-namespace qualification only.
            norm = re.sub(r"\bstd\s*::\s*", "", code)
            norm = re.sub(r"(?<![\w>])::\s*", "", norm)
            for pattern, what in BANNED:
                if pattern.search(norm):
                    finding(i, "determinism",
                            f"{what} is banned outside base/random "
                            "(runs must be pure functions of the seed)")
            if re.search(r"#\s*include\s*<random>", line):
                finding(i, "determinism",
                        "<random> is banned outside base/random "
                        "(draw through base/random.hh Rng streams)")

        # --- hotpath: the event kernel must stay allocation-free ---
        if in_sim_kernel:
            if re.search(r"\bstd\s*::\s*function\b", code):
                finding(i, "hotpath",
                        "std::function is banned under src/sim/ "
                        "(use sim::SmallCallback; "
                        "see docs/performance.md)")
            if re.search(r'#\s*include\s*<functional>', line):
                finding(i, "hotpath",
                        "<functional> is banned under src/sim/ "
                        "(the event kernel must not type-erase "
                        "through std::function)")

        # --- hotpath: no shared_ptr copies to downcast a packet ---
        if in_packet_path and \
                re.search(r"\bdynamic_pointer_cast\b", code):
            finding(i, "hotpath",
                    "std::dynamic_pointer_cast is banned under src/mpi/ "
                    "and src/net/ (dynamic_cast the raw pointer; see "
                    "docs/performance.md)")

        # --- hotpath: frames are values, never shared heap objects ---
        if in_value_frame_path and SHARED_FRAME.search(code):
            finding(i, "hotpath",
                    "std::make_shared/std::shared_ptr of a packet or "
                    "payload is banned on the frame path (src/net/, "
                    "src/mpi/, src/node/nic_model.*, "
                    "src/engine/delivery_batch.*): a frame is a "
                    "trivially copyable value; see docs/performance.md")

        # --- engine-seam: the harness drives engines only through the
        # --- run supervisor ---
        if in_harness:
            if re.search(r"\b(SequentialEngine|ThreadedEngine|DistributedEngine)\b",
                         code):
                finding(i, "engine-seam",
                        "direct engine use is banned under "
                        "src/harness/ (run through "
                        "supervise::RunSupervisor so every run gets "
                        "the recovery lifecycle; see "
                        "docs/supervision.md)")

        # --- layout: one owner for the checkpoint sections ---
        if layout_banned and LAYOUT_NAME.search(code):
            finding(i, "layout",
                    "checkpoint section names and sectionsHash are "
                    "banned under src/ outside src/ckpt/ and "
                    "src/engine/cluster.cc (build images with "
                    "ckpt::buildImage over Cluster::state or "
                    "Cluster::splice; see docs/checkpoint-restore.md)")

        # --- persistence: state serialization goes through ckpt_io ---
        if state_serialization_banned:
            if re.search(r"\bf(open|write|read)\s*\(", code) or \
               re.search(r"\b(std\s*::\s*)?[oi]?fstream\b", code):
                finding(i, "persistence",
                        "raw file I/O is banned under src/ outside "
                        "src/ckpt/ (persist state through the "
                        "versioned, CRC-guarded ckpt_io layer; see "
                        "docs/checkpoint-restore.md)")

    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs to lint (default: "
                             f"{' '.join(DEFAULT_DIRS)})")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    targets = args.paths or DEFAULT_DIRS
    files = []
    for target in targets:
        p = (root / target) if not Path(target).is_absolute() \
            else Path(target)
        if p.is_dir():
            excluded = [root / d for d in EXCLUDED_DIRS]
            files.extend(sorted(
                q for q in p.rglob("*")
                if q.suffix in SOURCE_EXTS and
                not any(q.is_relative_to(e) for e in excluded)))
        elif p.is_file():
            files.append(p)
        else:
            print(f"lint: no such path: {target}", file=sys.stderr)
            return 2

    all_findings = []
    for path in files:
        rel = str(path.relative_to(root)) if path.is_relative_to(root) \
            else str(path)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            all_findings.append((rel, 1, "hygiene", "not valid UTF-8"))
            continue
        all_findings.extend(findings_for(path, rel, text))

    for rel, lineno, rule, message in all_findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    print(f"lint: {len(files)} files, {len(all_findings)} findings",
          file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
