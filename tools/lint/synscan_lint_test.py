#!/usr/bin/env python3
"""Self-tests for synscan_lint.py against the fixture trees under
tools/lint/testdata/: every rule fires on the seeded violations, every
violation is suppressible with the documented annotations, and a clean
tree produces no findings. Registered with ctest as `lint_selftest`."""

import re
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINTER = HERE / "synscan_lint.py"
TESTDATA = HERE / "testdata"

FINDING = re.compile(r"^(.+?):(\d+): \[([a-z-]+)\] ")

# Rule -> findings seeded into testdata/violations.
EXPECTED = {
    "hot-path-container": 10,  # include + use in hot_map.cpp, hot_sensor.cpp,
                               # hot_registry.cpp (enrich), hot_evidence.cpp
                               # (fingerprint), hot_daemon.cpp (server)
    "metric-doc-sync": 2,     # undocumented tracker.ghost + ghost doc entry
    "pragma-once": 1,         # missing_pragma.h
    "include-order": 2,       # own header not first + unsorted block
    "naked-new": 2,           # new + delete in naked.cpp
    "test-registration": 2,   # orphan_test.cpp + missing gone_test.cpp
    "raw-sync-primitive": 4,  # locking.cpp: 2 includes, member, lock_guard
    "guarded-by": 2,          # guarded.h: open_ + draining_ unannotated
    "temp-dir-literal": 2,    # scratch_paths.cpp: two temp_directory_path() calls
    "frame-decode-outside-net": 2,  # decoded_sensor.cpp: DecodedFrame + decode_frame
}


def run_lint(repo, *extra):
    return subprocess.run(
        [sys.executable, str(LINTER), "--repo", str(repo), *extra],
        capture_output=True,
        text=True,
        check=False,
    )


def findings_by_rule(stdout):
    counts = Counter()
    for line in stdout.splitlines():
        m = FINDING.match(line)
        if m:
            counts[m.group(3)] += 1
    return counts


class ViolationsFire(unittest.TestCase):
    """Each rule detects its seeded violation."""

    @classmethod
    def setUpClass(cls):
        cls.result = run_lint(TESTDATA / "violations")
        cls.counts = findings_by_rule(cls.result.stdout)

    def test_exit_status_signals_findings(self):
        self.assertEqual(self.result.returncode, 1, self.result.stdout)

    def test_expected_findings_per_rule(self):
        self.assertEqual(dict(self.counts), EXPECTED, self.result.stdout)

    def test_findings_carry_path_and_line(self):
        for line in self.result.stdout.splitlines():
            if line and not line.startswith("synscan-lint:"):
                self.assertRegex(line, FINDING)

    def test_single_rule_selection(self):
        for rule, expected in EXPECTED.items():
            with self.subTest(rule=rule):
                result = run_lint(TESTDATA / "violations", "--rule", rule)
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertEqual(
                    findings_by_rule(result.stdout), {rule: expected}, result.stdout
                )


class SuppressionsWork(unittest.TestCase):
    """The same violations annotated with allow()/allow-file() are clean."""

    def test_suppressed_tree_is_clean(self):
        result = run_lint(TESTDATA / "suppressed")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(findings_by_rule(result.stdout), {})


class CleanTree(unittest.TestCase):
    def test_clean_tree_has_no_findings(self):
        result = run_lint(TESTDATA / "clean")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_min_doc_names_floor_trips(self):
        result = run_lint(
            TESTDATA / "clean", "--rule", "metric-doc-sync", "--min-doc-names", "99"
        )
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("floor 99", result.stdout)


class BadInvocation(unittest.TestCase):
    def test_missing_repo_is_usage_error(self):
        result = run_lint(TESTDATA / "no-such-tree")
        self.assertEqual(result.returncode, 2, result.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
