"""Self-tests for scripts/nurd_lint.py.

Fixtures under scripts/tests/fixtures/ mirror the repo's src/ layout with
known-bad snippets (each invariant rule must FIRE) and known-good snippets
(scope boundaries and allowlists must SUPPRESS). Run via

  python3 -m unittest discover -s scripts/tests -v

or through the `nurd_lint_selftest` ctest entry.
"""

import os
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SCRIPTS_DIR)

import nurd_lint  # noqa: E402

FIXTURES = os.path.join(SCRIPTS_DIR, "tests", "fixtures")


def lint(relpath, allowlist_text=None):
    """Lints one fixture file; returns the surviving findings."""
    allowlist = None
    if allowlist_text is not None:
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False, encoding="utf-8")
        tmp.write(allowlist_text)
        tmp.close()
        allowlist = tmp.name
    try:
        findings, unused = nurd_lint.run(FIXTURES, allowlist, [relpath])
        return findings, unused
    finally:
        if allowlist:
            os.unlink(allowlist)


class WallClockRule(unittest.TestCase):
    def test_fires_on_every_marked_line(self):
        findings, _ = lint("src/core/bad_wallclock.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [7, 9, 13])

    def test_comments_and_strings_do_not_fire(self):
        findings, _ = lint("src/core/bad_wallclock.cpp")
        lines = {f.line for f in findings}
        self.assertNotIn(16, lines)  # comment mentioning system_clock
        self.assertNotIn(17, lines)  # string literal mentioning std::rand

    def test_serve_layer_is_out_of_scope(self):
        findings, _ = lint("src/serve/good_timing.cpp")
        self.assertEqual(findings, [])

    def test_scenario_subsystem_is_in_scope(self):
        findings, _ = lint("src/scenario/bad_entropy.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [8, 13])
        self.assertNotIn(17, {f.line for f in findings})  # comment

    def test_kernel_layer_is_in_scope(self):
        findings, _ = lint("src/kernel/bad_env.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [9, 13])
        self.assertNotIn(17, {f.line for f in findings})  # comment


class UnorderedIterationRule(unittest.TestCase):
    def test_fires_on_iteration_not_lookup(self):
        findings, _ = lint("src/eval/bad_unordered.cpp")
        unordered = [f for f in findings if f.rule == "unordered-iter"]
        self.assertEqual([f.line for f in unordered], [14, 17])

    def test_ordered_iteration_is_fine(self):
        findings, _ = lint("src/eval/bad_unordered.cpp")
        self.assertNotIn(20, {f.line for f in findings})


class TraceAccessRule(unittest.TestCase):
    def test_fires_outside_trace_layer(self):
        findings, _ = lint("src/eval/bad_trace_access.cpp")
        trace = [f for f in findings if f.rule == "trace-access"]
        self.assertEqual([f.line for f in trace], [14, 15])

    def test_trace_layer_itself_is_exempt(self):
        findings, _ = lint("src/trace/good_internal.cpp")
        self.assertEqual(findings, [])


class LockTableRule(unittest.TestCase):
    def test_undocumented_mutex_fires_at_declaration(self):
        findings, _ = lint("src/serve/bad_mutex.cpp")
        table = [f for f in findings if f.rule == "lock-table"]
        self.assertEqual([(f.path, f.line) for f in table],
                         [("src/serve/bad_mutex.cpp", 6)])
        self.assertIn("serve/bad_mutex.cpp::undocumented_",
                      table[0].message)

    def test_documented_mutex_is_quiet(self):
        findings, _ = lint("src/serve/good_mutex.cpp")
        self.assertEqual([f for f in findings if f.rule == "lock-table"], [])

    def test_partial_lint_never_reports_stale_entries(self):
        findings, _ = lint("src/serve/good_mutex.cpp")
        self.assertEqual(findings, [])

    def test_full_tree_lint_reports_stale_entries(self):
        findings, _ = nurd_lint.run(FIXTURES, None, None)
        stale = [f for f in findings
                 if f.rule == "lock-table" and "stale" in f.message]
        self.assertEqual([f.path for f in stale], ["src/common/sync.h"])
        self.assertIn("serve/gone.cpp::mutex_", stale[0].message)

    def test_commented_declaration_does_not_fire(self):
        findings, _ = lint("src/serve/bad_mutex.cpp")
        self.assertNotIn(10, {f.line for f in findings})


class ThreadSpawnRule(unittest.TestCase):
    PATH = "src/serve/bad_spawn.cpp"

    def test_fires_on_thread_jthread_and_async(self):
        findings, _ = lint(self.PATH)
        spawn = [f for f in findings if f.rule == "thread-spawn"]
        self.assertEqual([f.line for f in spawn], [7, 9, 10])

    def test_static_members_comments_and_strings_do_not_fire(self):
        findings, _ = lint(self.PATH)
        lines = {f.line for f in findings}
        for exempt in (6, 8, 11, 12):
            self.assertNotIn(exempt, lines)

    def test_owner_entry_suppresses_its_token_only(self):
        findings, unused = lint(
            self.PATH,
            "thread-spawn src/serve/bad_spawn.cpp std::thread"
            "  # owner of t, test fixture\n")
        self.assertEqual([f.line for f in findings
                          if f.rule == "thread-spawn"], [9, 10])
        self.assertEqual(unused, [])

    def test_real_tree_spawns_only_in_owners(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        findings, unused = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings
                          if f.rule == "thread-spawn"], [])
        with open(allowlist, encoding="utf-8") as f:
            entries = nurd_lint.parse_allowlist(f.read())
        owners = sorted(e.path for e in entries if e.rule == "thread-spawn")
        self.assertEqual(owners, ["src/common/thread_pool.h",
                                  "src/core/task_dag.cpp",
                                  "src/serve/shard_pool.cpp"])
        self.assertEqual([e.path for e in unused
                          if e.rule == "thread-spawn"], [])


class SortSiteRule(unittest.TestCase):
    PATH = "src/ml/tree.cpp"

    def sort_findings(self, allowlist_text=None):
        findings, unused = lint(self.PATH, allowlist_text)
        return [f for f in findings if f.rule == "sort-site"], unused

    def test_fires_on_every_sort_with_its_site(self):
        findings, _ = self.sort_findings()
        self.assertEqual([(f.line, f.site) for f in findings],
                         [(7, "Grower"), (12, "presort"), (14, "presort")])

    def test_comments_strings_and_lookalikes_do_not_fire(self):
        findings, _ = self.sort_findings()
        lines = {f.line for f in findings}
        for exempt in (17, 18, 19):
            self.assertNotIn(exempt, lines)

    def test_site_entry_suppresses_only_its_site(self):
        findings, unused = self.sort_findings(
            "sort-site src/ml/tree.cpp presort  # sorts once, fixture\n")
        self.assertEqual([f.line for f in findings], [7])
        self.assertEqual(unused, [])

    def test_line_text_is_not_a_site(self):
        findings, unused = self.sort_findings(
            "sort-site src/ml/tree.cpp v.begin()  # not a site, fixture\n")
        self.assertEqual([f.line for f in findings], [7, 12, 14])
        self.assertEqual(len(unused), 1)

    def test_other_files_are_out_of_scope(self):
        text = "void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }"
        self.assertEqual(nurd_lint.check_sort_site("src/ml/gbt.cpp", text),
                         [])

    def test_real_tree_sorts_only_at_allowlisted_sites(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        with open(os.path.join(root, self.PATH), encoding="utf-8") as f:
            sites = {f.site for f in
                     nurd_lint.check_sort_site(self.PATH, f.read())}
        self.assertEqual(sites, {"FeatureBinner::FeatureBinner",
                                 "RegressionTree::presort"})
        findings, unused = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings
                          if f.rule == "sort-site"], [])
        self.assertEqual([e.token for e in unused
                          if e.rule == "sort-site"], [])


class TestOnlyHeaderRule(unittest.TestCase):
    @staticmethod
    def flagged(allowlist=None):
        findings, unused = nurd_lint.run(FIXTURES, allowlist, None)
        return {f.path for f in findings
                if f.rule == "test-only-header"}, unused

    def test_fires_on_header_only_tests_include(self):
        # core/test_only.h is included by its own .cpp and by a fixture
        # tests/ file; neither keeps it alive.
        flagged, _ = self.flagged()
        self.assertIn("src/core/test_only.h", flagged)

    def test_header_a_src_file_includes_is_quiet(self):
        flagged, _ = self.flagged()
        self.assertNotIn("src/core/shipped.h", flagged)

    def test_partial_lint_never_reports_headers(self):
        findings, _ = lint("src/core/test_only.h")
        self.assertEqual(findings, [])

    def test_entry_suppresses_finding(self):
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False, encoding="utf-8")
        tmp.write("test-only-header src/core/test_only.h"
                  "  # test seam, fixture\n")
        tmp.close()
        try:
            flagged, unused = self.flagged(tmp.name)
        finally:
            os.unlink(tmp.name)
        self.assertNotIn("src/core/test_only.h", flagged)
        self.assertEqual(unused, [])

    def test_real_tree_has_no_test_only_header(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        findings, _ = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings
                          if f.rule == "test-only-header"], [])


class Allowlist(unittest.TestCase):
    PATH = "src/core/allowlisted_access.cpp"

    def test_finding_reported_without_entry(self):
        findings, _ = lint(self.PATH)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "trace-access")

    def test_entry_suppresses_finding(self):
        findings, unused = lint(
            self.PATH,
            "trace-access src/core/allowlisted_access.cpp .store()"
            "  # refresh-grid read, test fixture\n")
        self.assertEqual(findings, [])
        self.assertEqual(unused, [])

    def test_token_scoping_is_respected(self):
        findings, unused = lint(
            self.PATH,
            "trace-access src/core/allowlisted_access.cpp .latencies()"
            "  # wrong token, must not suppress\n")
        self.assertEqual(len(findings), 1)
        self.assertEqual(len(unused), 1)  # and the entry reports as unused

    def test_unjustified_entry_rejected(self):
        with self.assertRaises(ValueError):
            nurd_lint.parse_allowlist(
                "trace-access src/core/allowlisted_access.cpp\n")


class SimdSiteRule(unittest.TestCase):
    PATH = "src/ml/bad_simd.cpp"

    def test_fires_on_header_attribute_and_intrinsics(self):
        findings, _ = lint(self.PATH)
        simd = [f for f in findings if f.rule == "simd-site"]
        self.assertEqual([f.line for f in simd], [3, 6, 7, 8])

    def test_comments_strings_and_lookalikes_do_not_fire(self):
        findings, _ = lint(self.PATH)
        lines = {f.line for f in findings}
        for exempt in (11, 12, 13):
            self.assertNotIn(exempt, lines)

    def test_kernel_layer_is_exempt(self):
        findings, _ = lint("src/kernel/good_simd.cpp")
        self.assertEqual(findings, [])

    def test_other_intrinsics_headers_fire(self):
        for header in ("x86intrin.h", "emmintrin.h"):
            text = f"#include <{header}>\n"
            self.assertEqual(
                [f.rule for f in nurd_lint.check_simd_site(
                    "src/common/x.cpp", text)], ["simd-site"])

    def test_real_tree_keeps_simd_in_the_kernel_layer(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        findings, _ = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings
                          if f.rule == "simd-site"], [])
        with open(os.path.join(root, "src", "kernel", "kernel_avx2.cpp"),
                  encoding="utf-8") as f:
            self.assertNotEqual(nurd_lint.check_simd_site(
                "src/ml/moved_out_of_kernel.cpp", f.read()), [])


class RepoIsClean(unittest.TestCase):
    """The real src/ tree plus the checked-in allowlist must lint clean —
    this is the same invariant the CI leg enforces."""

    def test_src_lints_clean_with_checked_in_allowlist(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        findings, unused = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings], [])
        self.assertEqual([e.path for e in unused], [])


if __name__ == "__main__":
    unittest.main()
