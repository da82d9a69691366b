#!/usr/bin/env python3
"""Unit tests for tools/lint.py (ctest: lint.selftest).

Each rule is exercised on fixture snippets in both directions: a
violation must be reported, and the idiomatic form (or a suppressed
violation) must pass. Fixtures are written into a synthetic src/ tree so
the path-scoping logic (sync.hpp exemption, src/sat/ exemption) is under
test too.
"""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def run_lint(self, rel_path: str, text: str, disabled=()):
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return lint.lint_file(path, self.root, set(disabled))

    def rules_of(self, findings):
        return sorted(f.rule for f in findings)


class StripTest(LintFixture):
    def test_line_and_block_comments_are_blanked(self):
        code = lint.strip_comments_and_strings(
            "int a; // std::mutex\n/* sat::Solver */ int b;\n")
        self.assertNotIn("mutex", code)
        self.assertNotIn("Solver", code)
        self.assertIn("int a;", code)
        self.assertIn("int b;", code)

    def test_strings_are_blanked_and_newlines_survive(self):
        code = lint.strip_comments_and_strings(
            'f("std::mutex");\ng(\'x\');\nh(R"(new delete)");\n')
        self.assertNotIn("mutex", code)
        self.assertNotIn("new", code)
        self.assertEqual(code.count("\n"), 3)

    def test_escaped_quote_does_not_end_string(self):
        code = lint.strip_comments_and_strings('f("a\\"b std::mutex");int z;')
        self.assertNotIn("mutex", code)
        self.assertIn("int z;", code)


class RawMutexTest(LintFixture):
    def test_raw_mutex_in_src_is_flagged(self):
        findings = self.run_lint("src/foo/a.cpp", "std::mutex mu;\n")
        self.assertEqual(self.rules_of(findings), ["raw-mutex"])

    def test_condition_variable_and_lock_guard_are_flagged(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "std::condition_variable cv;\nstd::lock_guard<std::mutex> l(m);\n")
        self.assertEqual(len(findings), 2)  # one finding per offending line

    def test_sync_hpp_itself_is_exempt(self):
        findings = self.run_lint(
            "src/util/sync.hpp", "std::mutex mu_;\nstd::condition_variable_any cv_;\n")
        self.assertEqual(findings, [])

    def test_util_wrappers_pass(self):
        findings = self.run_lint(
            "src/foo/a.cpp", "util::Mutex mu;\nutil::MutexLock lock(mu);\n")
        self.assertEqual(findings, [])

    def test_mention_in_comment_or_string_passes(self):
        findings = self.run_lint(
            "src/foo/a.cpp", '// std::mutex is banned\nf("std::mutex");\n')
        self.assertEqual(findings, [])


class SolverInterfaceTest(LintFixture):
    def test_concrete_solver_outside_sat_is_flagged(self):
        findings = self.run_lint("src/timeprint/x.cpp", "sat::Solver s;\n")
        self.assertEqual(self.rules_of(findings), ["solver-interface-only"])

    def test_solver_header_include_outside_sat_is_flagged(self):
        findings = self.run_lint(
            "src/timeprint/x.cpp", '#include "sat/solver.hpp"\n')
        self.assertEqual(self.rules_of(findings), ["solver-interface-only"])

    def test_commented_out_include_passes(self):
        findings = self.run_lint(
            "src/timeprint/x.cpp", '// #include "sat/solver.hpp"\n')
        self.assertEqual(findings, [])

    def test_interface_names_pass(self):
        findings = self.run_lint(
            "src/timeprint/x.cpp",
            "sat::SolverInterface* s;\nsat::SolverOptions o;\n"
            "sat::SolverFactory::make(o);\nsat::SolverStats st;\n")
        self.assertEqual(findings, [])

    def test_inside_sat_is_exempt(self):
        findings = self.run_lint("src/sat/x.cpp",
                                 '#include "sat/solver.hpp"\nsat::Solver s;\n')
        self.assertEqual(findings, [])


class NolintReasonTest(LintFixture):
    def test_bare_nolint_is_flagged(self):
        findings = self.run_lint("src/foo/a.hpp", "int x;  // NOLINT\n")
        self.assertEqual(self.rules_of(findings), ["nolint-reason"])

    def test_named_nolint_without_reason_is_flagged(self):
        findings = self.run_lint(
            "src/foo/a.hpp", "int x;  // NOLINT(bugprone-foo)\n")
        self.assertEqual(self.rules_of(findings), ["nolint-reason"])

    def test_named_nolint_with_reason_passes(self):
        findings = self.run_lint(
            "src/foo/a.hpp",
            "int x;  // NOLINT(bugprone-foo): field aliases the arena\n")
        self.assertEqual(findings, [])

    def test_nolintbegin_needs_reason_end_does_not(self):
        text = ("// NOLINTBEGIN(google-explicit-constructor): implicit API\n"
                "Json(bool v);\n"
                "// NOLINTEND(google-explicit-constructor)\n")
        self.assertEqual(self.run_lint("src/foo/a.hpp", text), [])
        findings = self.run_lint(
            "src/foo/b.hpp", "// NOLINTBEGIN(google-explicit-constructor)\n")
        self.assertEqual(self.rules_of(findings), ["nolint-reason"])


class OptionsConstRefTest(LintFixture):
    def test_by_value_param_is_flagged(self):
        findings = self.run_lint(
            "src/foo/a.hpp", "void run(BatchOptions options);\n")
        self.assertEqual(self.rules_of(findings), ["options-const-ref"])

    def test_by_value_in_multiline_param_list_is_flagged(self):
        findings = self.run_lint(
            "src/foo/a.hpp",
            "void run(int entries,\n         sat::SolverOptions opts);\n")
        self.assertEqual(self.rules_of(findings), ["options-const-ref"])
        self.assertEqual(findings[0].line, 2)

    def test_const_ref_param_passes(self):
        findings = self.run_lint(
            "src/foo/a.hpp",
            "void run(const BatchOptions& options);\n"
            "void go(const sat::SolverOptions& o, int k);\n")
        self.assertEqual(findings, [])

    def test_local_declaration_and_member_field_pass(self):
        findings = self.run_lint(
            "src/foo/a.hpp",
            "struct BatchOptions {\n  ReconstructionOptions recon;\n};\n"
            "void f() {\n  SolverOptions o = base;\n}\n")
        self.assertEqual(findings, [])


class NakedNewTest(LintFixture):
    def test_naked_new_and_delete_are_flagged(self):
        findings = self.run_lint(
            "src/foo/a.cpp", "int* p = new int;\ndelete p;\n")
        self.assertEqual(self.rules_of(findings), ["naked-new", "naked-new"])

    def test_wrapped_clone_idiom_passes(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "return std::unique_ptr<SolverInterface>(new PortfolioSolver(*this));\n")
        self.assertEqual(findings, [])

    def test_deleted_function_passes(self):
        findings = self.run_lint(
            "src/foo/a.hpp",
            "ThreadPool(const ThreadPool&) = delete;\n"
            "ThreadPool& operator=(const ThreadPool&) = delete;\n")
        self.assertEqual(findings, [])

    def test_identifiers_containing_new_pass(self):
        findings = self.run_lint(
            "src/foo/a.cpp", "Var v = new_var();\nint renewed = 0;\n")
        self.assertEqual(findings, [])


class SuppressionTest(LintFixture):
    def test_trailing_marker_with_reason_suppresses(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "std::mutex mu;  // tp-lint: allow(raw-mutex) FFI boundary\n")
        self.assertEqual(findings, [])

    def test_comment_line_marker_suppresses_next_line(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "// tp-lint: allow(raw-mutex) FFI boundary\nstd::mutex mu;\n")
        self.assertEqual(findings, [])

    def test_marker_without_reason_is_a_finding(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "std::mutex mu;  // tp-lint: allow(raw-mutex)\n")
        self.assertIn("allow-requires-reason", self.rules_of(findings))
        self.assertIn("raw-mutex", self.rules_of(findings))

    def test_marker_with_unknown_rule_is_a_finding(self):
        findings = self.run_lint(
            "src/foo/a.cpp", "int x;  // tp-lint: allow(no-such-rule) why\n")
        self.assertEqual(self.rules_of(findings), ["allow-requires-reason"])

    def test_disable_flag_silences_rule(self):
        findings = self.run_lint("src/foo/a.cpp", "std::mutex mu;\n",
                                 disabled=["raw-mutex"])
        self.assertEqual(findings, [])

    def test_marker_does_not_leak_to_other_lines(self):
        findings = self.run_lint(
            "src/foo/a.cpp",
            "std::mutex a;  // tp-lint: allow(raw-mutex) shim\n"
            "std::mutex b;\n")
        self.assertEqual(self.rules_of(findings), ["raw-mutex"])
        self.assertEqual(findings[0].line, 2)


class ScanBuildCheckerTest(LintFixture):
    """tools/check_scan_build.py on a synthetic plist + baseline."""

    PLIST = {
        "files": ["/ci/workspace/repo/src/sat/solver.cpp"],
        "diagnostics": [{
            "check_name": "core.NullDereference",
            "description": "Dereference of null pointer",
            "location": {"line": 42, "col": 3, "file": 0},
        }],
    }

    def write_results(self):
        import plistlib
        results = self.root / "results"
        results.mkdir()
        with open(results / "report.plist", "wb") as fh:
            plistlib.dump(self.PLIST, fh)
        return results

    def write_baseline(self, findings):
        import json
        path = self.root / "baseline.json"
        path.write_text(json.dumps({"findings": findings}))
        return path

    def test_unbaselined_finding_fails(self):
        import check_scan_build
        results = self.write_results()
        baseline = self.write_baseline([])
        rc = check_scan_build.main([str(results), "--baseline", str(baseline)])
        self.assertEqual(rc, 1)

    def test_baselined_finding_passes_and_paths_are_normalized(self):
        import check_scan_build
        results = self.write_results()
        baseline = self.write_baseline([{
            "checker": "core.NullDereference",
            "file": "src/sat/solver.cpp",
            "description": "Dereference of null pointer",
            "why": "fixture",
        }])
        rc = check_scan_build.main([str(results), "--baseline", str(baseline)])
        self.assertEqual(rc, 0)

    def test_stale_baseline_entry_still_passes(self):
        import check_scan_build
        results = self.root / "empty"
        results.mkdir()
        baseline = self.write_baseline([{
            "checker": "deadcode.DeadStores",
            "file": "src/f2/matrix.cpp",
            "description": "gone",
            "why": "fixture",
        }])
        rc = check_scan_build.main([str(results), "--baseline", str(baseline)])
        self.assertEqual(rc, 0)

    def test_repo_baseline_is_well_formed(self):
        import check_scan_build
        repo_baseline = pathlib.Path(__file__).resolve().parent / \
            "scan_build_baseline.json"
        entries = check_scan_build.load_baseline(repo_baseline)
        self.assertIsInstance(entries, list)


if __name__ == "__main__":
    unittest.main()
