#!/usr/bin/env python3
"""Project-invariant linter for the timeprints tree (CI `lint` job).

Checks the conventions that keep the codebase reviewable but that no
compiler flag enforces. Every rule has a name; every finding prints as

    path:line: [rule-name] message

and any finding makes the exit status 1. Rules are individually
suppressible, either globally (--disable RULE) or per line with a marker
comment that *must* carry a rationale:

    util::Mutex legacy_;  // tp-lint: allow(raw-mutex) migration shim, PR 9

A marker without a rationale is itself a finding (allow-requires-reason),
mirroring the NOLINT policy checked by nolint-reason.

The linter is text-based but token-aware: comments and string literals are
blanked before code rules run, so prose mentioning `std::mutex` or
`sat::Solver` never trips a rule. Scope is src/**/*.{hpp,cpp} — tests,
bench and examples may use raw primitives and concrete classes
deliberately (they exercise them).

Run `tools/lint.py --list-rules` for the rule catalogue; unit tests live
in tools/test_lint.py (registered with ctest as lint.selftest, while
lint.tree runs this script over the repository).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Callable, List


@dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One file plus its comment/string-stripped shadow."""

    path: pathlib.Path
    rel: str  # path relative to the repo root, with forward slashes
    raw: str
    code: str  # raw with comments and string/char literals blanked

    @property
    def raw_lines(self) -> List[str]:
        return self.raw.splitlines()

    @property
    def code_lines(self) -> List[str]:
        return self.code.splitlines()


def strip_comments_and_strings(text: str) -> str:
    """Blank comments, string literals and char literals with spaces.

    Newlines are preserved so line numbers survive. Handles //, block
    comments, escape sequences and simple raw strings R"delim(...)delim".
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m is None:
                out.append(c)
                i += 1
                continue
            closer = f"){m.group(1)}\""
            end = text.find(closer, i + m.end())
            end = n if end < 0 else end + len(closer)
            out.extend("\n" if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppression markers
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(r"tp-lint:\s*allow\(([a-z0-9-]+)\)\s*(.*)")


def parse_allows(sf: SourceFile, rule_names: set,
                 findings: List[Finding]) -> dict:
    """Per-line rule suppressions; malformed markers become findings.

    A marker trailing code suppresses its own line; a marker on a pure
    comment line suppresses the next line (the NOLINTNEXTLINE shape).
    """
    allows: dict = {}
    code_lines = sf.code_lines
    for idx, line in enumerate(sf.raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            if "tp-lint" in line and "allow" in line:
                findings.append(Finding(
                    sf.path, idx, "allow-requires-reason",
                    "malformed suppression; use `tp-lint: allow(rule) reason`"))
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in rule_names:
            findings.append(Finding(
                sf.path, idx, "allow-requires-reason",
                f"unknown rule '{rule}' in suppression marker"))
            continue
        if not reason:
            findings.append(Finding(
                sf.path, idx, "allow-requires-reason",
                f"suppression of '{rule}' needs a rationale on the same line"))
            continue
        comment_only = (idx <= len(code_lines)
                        and not code_lines[idx - 1].strip())
        allows.setdefault(idx + 1 if comment_only else idx, set()).add(rule)
    return allows


# --------------------------------------------------------------------------
# Rules. Each returns findings for one file; scope filtering is inside the
# rule so the catalogue below stays flat.
# --------------------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")


def rule_raw_mutex(sf: SourceFile) -> List[Finding]:
    """No raw std synchronization outside src/util/sync.hpp.

    util::Mutex / util::MutexLock / util::CondVar carry the thread-safety
    capability annotations and the debug lock-rank check; a raw std::mutex
    is invisible to both, so the compile-time concurrency proofs would
    silently stop covering whatever it guards.
    """
    if sf.rel == "src/util/sync.hpp":
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = RAW_SYNC_RE.search(line)
        if m is not None:
            out.append(Finding(
                sf.path, idx, "raw-mutex",
                f"std::{m.group(1)} outside util/sync.hpp; use the "
                "annotated util::Mutex/MutexLock/CondVar wrappers"))
    return out


SOLVER_TYPE_RE = re.compile(r"\bsat::Solver\b(?![A-Za-z0-9_])")
SOLVER_INCLUDE_RE = re.compile(r'#\s*include\s*"sat/solver\.hpp"')


def rule_solver_interface_only(sf: SourceFile) -> List[Finding]:
    """Outside src/sat/, solvers are reached through SolverInterface.

    Reconstruction code builds backends via sat::SolverFactory and talks
    to sat::SolverInterface only; naming the concrete sat::Solver (or
    including its header) couples callers to one backend and bypasses the
    portfolio backend.
    """
    if sf.rel.startswith("src/sat/"):
        return []
    out = []
    raw_lines = sf.raw_lines
    for idx, line in enumerate(sf.code_lines, start=1):
        # Include paths are string literals, blanked in the code shadow —
        # match the raw line, gated on the code line still being a real
        # preprocessor include (not a commented-out one).
        if (re.match(r"\s*#\s*include\b", line)
                and SOLVER_INCLUDE_RE.search(raw_lines[idx - 1])):
            out.append(Finding(
                sf.path, idx, "solver-interface-only",
                'include of "sat/solver.hpp" outside src/sat/; program '
                "against sat/interface.hpp (SolverInterface/SolverFactory)"))
        if SOLVER_TYPE_RE.search(line):
            out.append(Finding(
                sf.path, idx, "solver-interface-only",
                "concrete sat::Solver use outside src/sat/; go through "
                "SolverInterface"))
    return out


NOLINT_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?\b(\([^)]*\))?(.*)")


def rule_nolint_reason(sf: SourceFile) -> List[Finding]:
    """Every NOLINT names the silenced check and carries a rationale.

    A bare NOLINT suppresses *everything* on the line forever, with no
    record of why; `NOLINT(check-name): reason` keeps the suppression
    narrow and auditable. NOLINTEND only closes a region, so it needs the
    check name but no fresh rationale.
    """
    out = []
    for idx, line in enumerate(sf.raw_lines, start=1):
        for m in NOLINT_RE.finditer(line):
            kind = m.group(1) or ""
            names = m.group(2)
            trail = (m.group(3) or "").strip()
            if names is None or not names.strip("() \t"):
                out.append(Finding(
                    sf.path, idx, "nolint-reason",
                    f"NOLINT{kind} without a check name; write "
                    "NOLINT(check-name): reason"))
                continue
            if kind == "END":
                continue
            if not re.match(r"^[:—-]\s*\S", trail):
                out.append(Finding(
                    sf.path, idx, "nolint-reason",
                    f"NOLINT{kind}{names} without a rationale; append "
                    "`: why this is safe`"))
    return out


OPTIONS_BY_VALUE_RE = re.compile(
    r"[(,]\s*((?:\w+::)*\w*Options)\s+(\w+)\s*(?=[,)=])")


def rule_options_const_ref(sf: SourceFile) -> List[Finding]:
    """Options structs are passed by const reference, not by value.

    The knob structs (SolverOptions, BatchOptions, ...) are dozens of
    fields and growing; copying one per call hides real cost and lets a
    callee silently diverge from the caller's configuration. Heuristic:
    a parameter-position `FooOptions name` not preceded by const& shape.
    """
    out = []
    for m in OPTIONS_BY_VALUE_RE.finditer(sf.code):
        line = sf.code.count("\n", 0, m.start(1)) + 1
        out.append(Finding(
            sf.path, line, "options-const-ref",
            f"{m.group(1)} parameter '{m.group(2)}' passed by value; "
            f"take `const {m.group(1)}&`"))
    return out


NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?")
WRAPPED_NEW_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;={]*>\s*\(\s*new\b")
DELETED_FN_RE = re.compile(r"=\s*delete\b")


def rule_naked_new(sf: SourceFile) -> List[Finding]:
    """No naked new/delete in src/.

    Ownership lives in smart pointers and containers. `new` is tolerated
    only when the result lands directly in a unique_ptr/shared_ptr on the
    same line (the private-copy-constructor clone() idiom make_unique
    cannot express); every `delete` (except `= delete`) is a finding.
    """
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        if NEW_RE.search(line) and not WRAPPED_NEW_RE.search(line):
            out.append(Finding(
                sf.path, idx, "naked-new",
                "naked new; use make_unique or wrap in a smart pointer "
                "on the same line"))
        for m in DELETE_RE.finditer(line):
            before = line[:m.start()]
            if DELETED_FN_RE.search(before + "delete"):
                continue
            out.append(Finding(
                sf.path, idx, "naked-new",
                "naked delete; ownership belongs in a smart pointer"))
    return out


RULES: List[Callable[[SourceFile], List[Finding]]] = [
    rule_raw_mutex,
    rule_solver_interface_only,
    rule_nolint_reason,
    rule_options_const_ref,
    rule_naked_new,
]


def rule_name(rule: Callable) -> str:
    return rule.__name__.removeprefix("rule_").replace("_", "-")


RULE_NAMES = {rule_name(r) for r in RULES} | {"allow-requires-reason"}


def lint_file(path: pathlib.Path, root: pathlib.Path,
              disabled: set) -> List[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    rel = path.relative_to(root).as_posix()
    sf = SourceFile(path=path, rel=rel, raw=raw,
                    code=strip_comments_and_strings(raw))
    findings: List[Finding] = []
    allows = parse_allows(sf, RULE_NAMES, findings)
    for rule in RULES:
        name = rule_name(rule)
        if name in disabled:
            continue
        for f in rule(sf):
            if name in allows.get(f.line, set()):
                continue
            findings.append(f)
    return [f for f in findings if f.rule not in disabled]


def collect_files(root: pathlib.Path) -> List[pathlib.Path]:
    src = root / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in (".hpp", ".cpp"))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files to lint (default: src/ under --root)")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the linter's repo)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", help="disable a rule by name")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule_name(rule):24} {doc}")
        print(f"{'allow-requires-reason':24} "
              "suppression markers must name a known rule and give a reason")
        return 0

    root = args.root.resolve()
    unknown = [d for d in args.disable if d not in RULE_NAMES]
    if unknown:
        print(f"lint.py: unknown rule(s) in --disable: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    files = [p.resolve() for p in args.paths] or collect_files(root)
    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path, root, set(args.disable)))

    for f in sorted(findings, key=lambda f: (str(f.path), f.line, f.rule)):
        print(f)
    if findings:
        print(f"\nlint.py: {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
