#!/usr/bin/env python3
"""Self-test for tools/lint/lint.py.

Regression anchor: the determinism rule's lookbehind `(?<![\\w:.])`
excluded ':' to skip other-namespace qualification, which also made
`std::time(nullptr)` invisible — the exact call the rule exists to
catch. These tests pin the fixed behavior (qualification-normalized
matching) for every banned pattern, the non-matches that motivated
the lookbehinds, and the fixture-directory exclusion.

Run directly (registered as the `lint_selftest` ctest).
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import lint  # noqa: E402


def determinism(line):
    """Determinism findings for a one-line .cc body."""
    found = lint.findings_for(Path("src/core/x.cc"), "src/core/x.cc",
                              line + "\n")
    return [f for f in found if f[2] == "determinism"]


class QualifiedCallRegression(unittest.TestCase):
    """std::time(nullptr) & friends must be flagged (the old bug)."""

    def test_qualified_time(self):
        self.assertTrue(determinism("std::time(nullptr);"))

    def test_global_scope_time(self):
        self.assertTrue(determinism("::time(0);"))

    def test_unqualified_time(self):
        self.assertTrue(determinism("time(NULL);"))

    def test_qualified_rand(self):
        self.assertTrue(determinism("int x = std::rand();"))

    def test_unqualified_srand(self):
        self.assertTrue(determinism("srand(42);"))

    def test_qualified_clock(self):
        self.assertTrue(determinism("auto c = std::clock();"))

    def test_spaced_qualification(self):
        self.assertTrue(determinism("std :: time ( nullptr );"))


class LookbehindNonMatches(unittest.TestCase):
    """The spellings the lookbehinds exist to skip stay unflagged."""

    def test_member_call(self):
        self.assertFalse(determinism("sim.time();"))

    def test_member_call_through_pointer(self):
        self.assertFalse(determinism("clk->time(nullptr);"))

    def test_other_namespace(self):
        self.assertFalse(determinism("hw::clock();"))

    def test_identifier_suffix(self):
        self.assertFalse(determinism("runtime(0);"))

    def test_steady_clock_now(self):
        self.assertFalse(
            determinism("auto t = std::chrono::steady_clock::now();"))

    def test_comment(self):
        self.assertFalse(determinism("// prose about time(nullptr)"))

    def test_string_literal(self):
        self.assertFalse(determinism('log("time(NULL)");'))


class OtherRules(unittest.TestCase):
    def test_random_device_qualified(self):
        self.assertTrue(determinism("std::random_device rd;"))

    def test_mt19937(self):
        self.assertTrue(determinism("std::mt19937_64 gen(seed);"))

    def test_base_random_exempt(self):
        found = lint.findings_for(Path("src/base/random.cc"),
                                  "src/base/random.cc",
                                  "std::mt19937_64 gen(seed);\n")
        self.assertFalse([f for f in found if f[2] == "determinism"])


def findings(rel, body, rule):
    """Findings of one rule for a file body attributed to rel."""
    found = lint.findings_for(Path(rel), rel, body)
    return [f for f in found if f[2] == rule]


class EngineSeam(unittest.TestCase):
    """src/harness/ must reach engines only through the supervisor."""

    def test_sequential_engine_flagged_in_harness(self):
        self.assertTrue(findings(
            "src/harness/x.cc",
            "engine::SequentialEngine engine(options);\n",
            "engine-seam"))

    def test_threaded_engine_flagged_in_harness(self):
        self.assertTrue(findings(
            "src/harness/x.cc",
            "engine::ThreadedEngine engine(options);\n",
            "engine-seam"))

    def test_distributed_engine_flagged_in_harness(self):
        self.assertTrue(findings(
            "src/harness/x.cc",
            "engine::DistributedEngine engine(options);\n",
            "engine-seam"))

    def test_comment_and_string_not_flagged(self):
        body = ('// SequentialEngine in prose\n'
                'const char *s = "ThreadedEngine";\n')
        self.assertFalse(findings("src/harness/x.cc", body,
                                  "engine-seam"))

    def test_supervisor_itself_exempt(self):
        self.assertTrue(not findings(
            "src/supervise/run_supervisor.cc",
            "engine::SequentialEngine engine(options);\n",
            "engine-seam"))

    def test_identifier_suffix_not_flagged(self):
        self.assertFalse(findings(
            "src/harness/x.cc",
            "MySequentialEngineView v;\n",
            "engine-seam"))

    def test_fixture_body_fires_when_attributed_to_harness(self):
        body = (HERE / "fixtures" / "engine_seam_bad.cc").read_text()
        found = findings("src/harness/bad.cc", body, "engine-seam")
        self.assertEqual(len(found), 3, found)


class PacketPathCasts(unittest.TestCase):
    """src/mpi/ and src/net/ downcast payloads without shared_ptr copies."""

    def test_flagged_under_mpi(self):
        self.assertTrue(findings(
            "src/mpi/x.cc",
            "auto f = std::dynamic_pointer_cast<const F>(pkt->payload);\n",
            "hotpath"))

    def test_flagged_under_net(self):
        self.assertTrue(findings(
            "src/net/x.cc",
            "auto f = dynamic_pointer_cast<const F>(p);\n",
            "hotpath"))

    def test_raw_dynamic_cast_allowed(self):
        self.assertFalse(findings(
            "src/mpi/x.cc",
            "const auto *f = dynamic_cast<const F *>(p.get());\n",
            "hotpath"))

    def test_other_directories_exempt(self):
        self.assertFalse(findings(
            "src/engine/x.cc",
            "auto f = std::dynamic_pointer_cast<const F>(p);\n",
            "hotpath"))

    def test_fixture_body_fires_when_attributed_to_mpi(self):
        body = (HERE / "fixtures" / "packet_cast_bad.cc").read_text()
        found = findings("src/mpi/bad.cc", body, "hotpath")
        self.assertEqual(len(found), 2, found)


class ValueFrames(unittest.TestCase):
    """The frame path never puts a packet or payload on the heap."""

    def test_make_shared_packet_flagged_under_net(self):
        self.assertTrue(findings(
            "src/net/x.cc",
            "auto copy = std::make_shared<Packet>(*pkt);\n",
            "hotpath"))

    def test_shared_ptr_payload_flagged_under_mpi(self):
        self.assertTrue(findings(
            "src/mpi/x.hh",
            "using PayloadPtr = std::shared_ptr<const net::Payload>;\n",
            "hotpath"))

    def test_make_shared_payload_flagged_under_mpi(self):
        self.assertTrue(findings(
            "src/mpi/x.cc",
            "nic.send(d, b, std::make_shared<FragmentPayload>(h, i, n));\n",
            "hotpath"))

    def test_flagged_in_nic_model(self):
        self.assertTrue(findings(
            "src/node/nic_model.hh",
            "void deliverAt(std::shared_ptr<net::Packet> pkt, Tick when);\n",
            "hotpath"))

    def test_flagged_in_delivery_batch(self):
        self.assertTrue(findings(
            "src/engine/delivery_batch.hh",
            "std::vector<std::shared_ptr<net::Packet>> payload;\n",
            "hotpath"))

    def test_other_shared_ptrs_allowed(self):
        self.assertFalse(findings(
            "src/net/x.cc",
            "switch_ = std::make_shared<PerfectSwitch>();\n",
            "hotpath"))
        self.assertFalse(findings(
            "src/mpi/x.cc",
            "std::shared_ptr<RecvRequest::State> request;\n",
            "hotpath"))

    def test_other_files_exempt(self):
        for rel in ("src/engine/threaded_engine.cc",
                    "src/node/cpu_model.cc", "tests/test_x.cc"):
            self.assertFalse(findings(
                rel, "auto p = std::make_shared<net::Packet>();\n",
                "hotpath"), rel)

    def test_fixture_body_fires_when_attributed_to_net(self):
        body = (HERE / "fixtures" / "packet_shared_bad.cc").read_text()
        found = findings("src/net/bad.cc", body, "hotpath")
        self.assertEqual([f[1] for f in found], [12, 13, 19, 20, 21],
                         found)


class LayoutOwners(unittest.TestCase):
    """Only ckpt and Cluster name checkpoint sections."""

    def test_section_name_flagged_in_an_engine(self):
        self.assertTrue(findings(
            "src/engine/distributed_engine.cc",
            "image.sections.push_back({ckpt::sectionSync, w.buffer()});\n",
            "layout"))

    def test_sections_hash_flagged_in_an_engine(self):
        self.assertTrue(findings(
            "src/engine/quantum_driver.cc",
            "result.finalStateHash = ckpt::sectionsHash(sections);\n",
            "layout"))

    def test_owners_and_non_src_exempt(self):
        for rel in ("src/ckpt/checkpoint.cc", "src/engine/cluster.cc",
                    "tests/test_checkpoint.cc", "perfbench/driver.cc"):
            self.assertFalse(findings(
                rel, "add(ckpt::sectionNodes, sectionsHash(s));\n",
                "layout"), rel)

    def test_other_identifiers_not_flagged(self):
        self.assertFalse(findings(
            "src/engine/x.cc",
            "for (const ckpt::Section &s : image.sections) use(s);\n",
            "layout"))

    def test_fixture_body_fires_when_attributed_to_an_engine(self):
        body = (HERE / "fixtures" / "layout_bad.cc").read_text()
        found = findings("src/engine/bad.cc", body, "layout")
        self.assertEqual([f[1] for f in found], [13, 14, 15], found)


class PersistenceExemption(unittest.TestCase):
    """The incident log's JSONL append is diagnostics, not state."""

    def test_incident_log_exempt(self):
        self.assertFalse(findings(
            "src/supervise/incident_log.cc",
            "std::ofstream out(path_, std::ios::app);\n",
            "persistence"))

    def test_other_supervise_files_still_banned(self):
        self.assertTrue(findings(
            "src/supervise/run_supervisor.cc",
            "std::ofstream out(path);\n",
            "persistence"))


class Fixtures(unittest.TestCase):
    """End-to-end over the fixture files via the CLI."""

    def run_lint(self, *paths):
        proc = subprocess.run(
            [sys.executable, str(HERE / "lint.py"),
             "--root", str(ROOT), *paths],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_bad_fixture_flags_every_banned_call(self):
        code, out = self.run_lint("tools/lint/fixtures/determinism_bad.cc")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[determinism]"), 6, out)

    def test_ok_fixture_is_clean(self):
        code, out = self.run_lint("tools/lint/fixtures/determinism_ok.cc")
        self.assertEqual(code, 0, out)

    def test_fixture_dirs_excluded_from_directory_scan(self):
        # Scanning tools/ must skip the deliberately-broken fixtures.
        code, out = self.run_lint("tools")
        self.assertEqual(code, 0, out)
        self.assertNotIn("fixtures", out)


if __name__ == "__main__":
    unittest.main()
