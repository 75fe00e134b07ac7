#!/usr/bin/env python3
"""ecas-lint: project-convention linter for the ecas tree.

Complements clang-tidy and the Clang thread-safety build with rules that
are about *this* project's conventions (DESIGN.md §9), so they stay
enforced even under toolchains that cannot run the Clang analyses:

  naked-mutex            No std::mutex / std::lock_guard / std::unique_lock
                         (or friends) outside src/ecas/support/. Shared
                         state uses AnnotatedMutex + LockGuard/UniqueLock so
                         the thread-safety analysis and the lock-order
                         validator both see every acquisition.
  unchecked-value        No .value() on an ErrorOr variable without a prior
                         ok() / truthiness check of that variable.
  wait-under-lock-guard  No blocking call (condition wait, sleep, join,
                         queue finish) inside a LockGuard/std::lock_guard
                         scope. Blocking scopes must use UniqueLock, which
                         is the reviewable marker that a wait happens with
                         a lock held.
  include-hygiene        A .cpp includes its own header first; no <bits/...>
                         internals; headers carry an ECAS_ include guard or
                         #pragma once; no duplicate includes in one file.
  no-std-rand            No std::rand/srand/random_shuffle; randomness goes
                         through support/Random.h so runs stay reproducible.
  no-raw-output          No std::cout/std::cerr/printf/fprintf/puts/fputs
                         (or <iostream>) inside src/ecas/: library code
                         reports through Status/ErrorOr and the obs layer,
                         never by writing to the process's streams.
                         snprintf-into-a-buffer (support/Format) is fine.
  unbounded-queue        No std::deque / std::queue / std::priority_queue /
                         std::list inside src/ecas/service/: every service
                         queue must have a capacity fixed at construction
                         (service/Bounded.h) so overload becomes typed
                         backpressure instead of unbounded memory growth.
  atomic-write           No raw std::rename/::rename or bare fsync inside
                         src/ecas outside the blessed durability modules
                         (support/AtomicFile.cpp, core/HistoryJournal.cpp):
                         a rename without the parent-directory fsync is the
                         crash-consistency hole DESIGN.md §13 closed, so
                         every durable write goes through
                         support/AtomicFile.h.
  metric-name            Metric names are lowercase snake_case with the
                         eas_ prefix and live in src/ecas/obs/MetricNames.h:
                         the literals there must match ^eas_[a-z][a-z0-9_]*$,
                         and no other file under src/ecas may register an
                         instrument (.counter/.gauge/.histogram) with an
                         inline string literal — add a names:: constant
                         instead so DESIGN.md §11 stays the complete
                         taxonomy. Tests/tools/bench register freely.
  signal-unsafe-in-handler
                         Functions marked ECAS_SIGNAL_SAFE (the crash
                         handlers of obs/LastGasp.cpp) may only call the
                         async-signal-safe syscall set on pre-serialized
                         data: no malloc/free/new/delete, no std::string
                         or container construction, no stdio, no locks.
                         DESIGN.md §16's crash write depends on it.
  stale-suppression      An // ecas-lint: allow(...) whose rule can no
                         longer fire on that line (or allow-file whose
                         rule fires nowhere in the file, or either form
                         naming an unknown rule) is dead documentation
                         that licenses a future regression; delete it.

Suppressions (use sparingly, justify in a comment on the same line):
  // ecas-lint: allow(rule-name)         on the offending line
  // ecas-lint: allow-file(rule-name)    anywhere in the first 15 lines

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors. Run from anywhere: paths are resolved against --root (defaults
to the repository root containing this script's parent directory).
"""

import argparse
import json
import os
import re
import sys

DEFAULT_DIRS = ["src", "tools", "tests", "bench", "examples"]
CXX_EXTENSIONS = (".h", ".cpp")

ALLOW_LINE = re.compile(r"//\s*ecas-lint:\s*allow\(([\w-]+)\)")
ALLOW_FILE = re.compile(r"//\s*ecas-lint:\s*allow-file\(([\w-]+)\)")

NAKED_MUTEX = re.compile(
    r"\bstd::(mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
ERROROR_DECL = re.compile(r"\bErrorOr<[^;=]*?>\s+(\w+)\s*[=({]")
VALUE_CALL = re.compile(r"\b(\w+)\.value\(\)")
CHECKED_OK = re.compile(r"\b(\w+)\.ok\(\)")
CHECKED_TRUTHY = re.compile(r"(?:if\s*\(|while\s*\(|&&\s*|\|\|\s*|!\s*)\(?(\w+)\)")
LOCK_GUARD_DECL = re.compile(r"\b(?:LockGuard|std::lock_guard(?:<[^>]*>)?)\s+\w+\s*[({]")
BLOCKING_CALL = re.compile(
    r"(\.|->)(wait|wait_for|wait_until|join|finish)\s*\(|"
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|\bstd::this_thread::yield\s*\(\)"
)
STD_RAND = re.compile(r"\b(?:std::)?(?:rand|srand)\s*\(|\bstd::random_shuffle\b")
UNBOUNDED_QUEUE = re.compile(r"\bstd::(deque|queue|priority_queue|list)\s*<")
# \bprintf cannot match inside snprintf/vsnprintf (preceded by a word
# character), so buffer-formatting helpers stay legal.
RAW_OUTPUT = re.compile(
    r"\bstd::(cout|cerr|clog)\b|"
    r"\b(?:std::)?(printf|fprintf|puts|fputs|putchar|fputc)\s*\("
)
# <cstdio> stays legal: snprintf/vsnprintf formatting needs it.
IOSTREAM_INCLUDE = re.compile(r"^\s*#\s*include\s*<(iostream|syncstream)>")
METRIC_NAME_VALID = re.compile(r"^eas_[a-z][a-z0-9_]*$")
STRING_LITERAL = re.compile(r'"([^"\\]*)"')
METRIC_INLINE_REG = re.compile(r"(?:\.|->)\s*(counter|gauge|histogram)\s*\(\s*\"")
INCLUDE = re.compile(r'^\s*#\s*include\s*([<"])([^">]+)[">]')
PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
GUARD = re.compile(r"^\s*#\s*ifndef\s+ECAS_\w+")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line, in_block_comment):
    """Replaces comment and string-literal contents with spaces so the
    rule regexes cannot match inside them. Returns (code, in_block)."""
    out = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if in_block_comment:
            if c == "*" and nxt == "/":
                in_block_comment = False
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            i += 1
            continue
        if in_string:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == in_string:
                in_string = None
                out.append(c)
                i += 1
                continue
            out.append(" ")
            i += 1
            continue
        if c == "/" and nxt == "/":
            out.append(" " * (n - i))
            break
        if c == "/" and nxt == "*":
            in_block_comment = True
            out.append("  ")
            i += 2
            continue
        if c in "\"'":
            in_string = c
            out.append(c)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def line_allows(raw_line, rule):
    m = ALLOW_LINE.search(raw_line)
    return bool(m) and m.group(1) == rule


def file_allows(raw_lines, rule):
    for raw in raw_lines[:15]:
        m = ALLOW_FILE.search(raw)
        if m and m.group(1) == rule:
            return True
    return False


def check_naked_mutex(path, raw_lines, code_lines, findings):
    if os.sep + os.path.join("src", "ecas", "support") + os.sep in path:
        return  # The wrappers themselves live here.
    rule = "naked-mutex"
    if file_allows(raw_lines, rule):
        return
    for ln, code in enumerate(code_lines, 1):
        m = NAKED_MUTEX.search(code)
        if m and not line_allows(raw_lines[ln - 1], rule):
            findings.append(Finding(
                path, ln, rule,
                f"std::{m.group(1)} outside src/ecas/support/; use "
                "AnnotatedMutex/LockGuard/UniqueLock from "
                "ecas/support/ThreadAnnotations.h"))


def check_unchecked_value(path, raw_lines, code_lines, findings):
    rule = "unchecked-value"
    if file_allows(raw_lines, rule):
        return
    # Variables declared as ErrorOr<...> in this file, mapped to the set
    # of line numbers where they were declared; a variable is "checked"
    # once an ok()/truthiness test of it appears after the declaration.
    declared = {}
    checked = set()
    for ln, code in enumerate(code_lines, 1):
        for m in ERROROR_DECL.finditer(code):
            declared[m.group(1)] = ln
            checked.discard(m.group(1))
        for m in CHECKED_OK.finditer(code):
            checked.add(m.group(1))
        for m in CHECKED_TRUTHY.finditer(code):
            if m.group(1) in declared:
                checked.add(m.group(1))
        if "ECAS_CHECK" in code or "ECAS_ASSERT" in code or "ASSERT_TRUE" in code or "EXPECT_TRUE" in code:
            for name in declared:
                if re.search(rf"\b{re.escape(name)}\b", code):
                    checked.add(name)
        for m in VALUE_CALL.finditer(code):
            name = m.group(1)
            if name in declared and name not in checked:
                if not line_allows(raw_lines[ln - 1], rule):
                    findings.append(Finding(
                        path, ln, rule,
                        f"'{name}.value()' without a prior '{name}.ok()' "
                        f"(declared ErrorOr at line {declared[name]})"))


def check_wait_under_lock_guard(path, raw_lines, code_lines, findings):
    rule = "wait-under-lock-guard"
    if file_allows(raw_lines, rule):
        return
    depth = 0
    guard_depths = []  # brace depth at each active LockGuard declaration
    for ln, code in enumerate(code_lines, 1):
        if guard_depths and not line_allows(raw_lines[ln - 1], rule):
            m = BLOCKING_CALL.search(code)
            if m and not LOCK_GUARD_DECL.search(code):
                findings.append(Finding(
                    path, ln, rule,
                    "blocking call inside a LockGuard scope; scopes that "
                    "wait use UniqueLock (see DESIGN.md §9)"))
        if LOCK_GUARD_DECL.search(code):
            guard_depths.append(depth)
        for c in code:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                while guard_depths and depth <= guard_depths[-1]:
                    guard_depths.pop()
    # Unbalanced braces (macro tricks) simply end analysis at EOF.


def check_include_hygiene(path, raw_lines, code_lines, findings):
    rule = "include-hygiene"
    if file_allows(raw_lines, rule):
        return
    seen = {}
    first_include = None
    for ln, raw in enumerate(raw_lines, 1):
        # Match the raw line: the string stripper blanks quoted include
        # paths. A commented-out include is skipped via the code line.
        if not INCLUDE.match(code_lines[ln - 1]):
            continue
        m = INCLUDE.match(raw)
        if not m:
            continue
        style, target = m.groups()
        if first_include is None:
            first_include = (ln, style, target)
        if target.startswith("bits/"):
            if not line_allows(raw_lines[ln - 1], rule):
                findings.append(Finding(
                    path, ln, rule,
                    f"libstdc++ internal header <{target}>; include the "
                    "standard header instead"))
        if target in seen:
            if not line_allows(raw_lines[ln - 1], rule):
                findings.append(Finding(
                    path, ln, rule,
                    f"duplicate include of '{target}' "
                    f"(first at line {seen[target]})"))
        else:
            seen[target] = ln

    norm = path.replace(os.sep, "/")
    if path.endswith(".cpp") and "/src/ecas/" in norm:
        own = os.path.basename(path)[:-4] + ".h"
        sibling = os.path.join(os.path.dirname(path), own)
        if os.path.exists(sibling):
            subpath = norm.split("/src/", 1)[1]  # ecas/<dir>/<Name>.cpp
            expected = subpath[:-4] + ".h"
            if first_include is None or first_include[2] != expected:
                where = first_include[0] if first_include else 1
                findings.append(Finding(
                    path, where, rule,
                    f'first include must be the unit\'s own header '
                    f'"{expected}"'))

    if path.endswith(".h"):
        has_guard = any(GUARD.match(c) or PRAGMA_ONCE.match(c)
                        for c in code_lines[:60])
        if not has_guard:
            findings.append(Finding(
                path, 1, rule,
                "header lacks an ECAS_ include guard or #pragma once"))


def check_no_std_rand(path, raw_lines, code_lines, findings):
    rule = "no-std-rand"
    if file_allows(raw_lines, rule):
        return
    for ln, code in enumerate(code_lines, 1):
        if STD_RAND.search(code) and not line_allows(raw_lines[ln - 1], rule):
            findings.append(Finding(
                path, ln, rule,
                "std::rand/srand/random_shuffle; use the seeded generators "
                "in ecas/support/Random.h"))


def check_unbounded_queue(path, raw_lines, code_lines, findings):
    rule = "unbounded-queue"
    norm = path.replace(os.sep, "/")
    if "/src/ecas/service/" not in norm:
        return  # Only the service layer promises bounded queues.
    if file_allows(raw_lines, rule):
        return
    for ln, code in enumerate(code_lines, 1):
        m = UNBOUNDED_QUEUE.search(code)
        if m and not line_allows(raw_lines[ln - 1], rule):
            findings.append(Finding(
                path, ln, rule,
                f"std::{m.group(1)} in the service layer grows without "
                "bound under overload; use BoundedRing "
                "(ecas/service/Bounded.h) so a full queue becomes typed "
                "backpressure"))


def check_no_raw_output(path, raw_lines, code_lines, findings):
    rule = "no-raw-output"
    norm = path.replace(os.sep, "/")
    if "/src/ecas/" not in norm:
        return  # Tools, tests, benches, and examples print freely.
    if file_allows(raw_lines, rule):
        return
    for ln, code in enumerate(code_lines, 1):
        if line_allows(raw_lines[ln - 1], rule):
            continue
        m = IOSTREAM_INCLUDE.match(code)
        if m:
            findings.append(Finding(
                path, ln, rule,
                f"<{m.group(1)}> in library code; report through Status/"
                "ErrorOr or the obs layer instead of a stream"))
            continue
        m = RAW_OUTPUT.search(code)
        if m:
            what = m.group(1) or m.group(2)
            findings.append(Finding(
                path, ln, rule,
                f"raw '{what}' output in library code; report through "
                "Status/ErrorOr or the obs layer (snprintf into a buffer "
                "via support/Format is fine)"))


ATOMIC_WRITE = re.compile(r"\b(?:std::)?rename\s*\(|(?<![\w.>])fsync\s*\(")
ATOMIC_WRITE_BLESSED = (
    "/src/ecas/support/AtomicFile.cpp",
    "/src/ecas/core/HistoryJournal.cpp",
)


def check_atomic_write(path, raw_lines, code_lines, findings):
    rule = "atomic-write"
    norm = path.replace(os.sep, "/")
    if "/src/ecas/" not in norm:
        return  # Tools, tests, and benches manage their own files.
    if any(norm.endswith(b) for b in ATOMIC_WRITE_BLESSED):
        return
    if file_allows(raw_lines, rule):
        return
    for ln, code in enumerate(code_lines, 1):
        m = ATOMIC_WRITE.search(code)
        if m and not line_allows(raw_lines[ln - 1], rule):
            what = m.group(0).rstrip("(").strip()
            findings.append(Finding(
                path, ln, rule,
                f"raw '{what}(' outside the blessed durability modules; "
                "use writeFileAtomic/syncParentDir from "
                "ecas/support/AtomicFile.h so the rename survives a crash "
                "(DESIGN.md §13)"))


SIGNAL_SAFE_MARK = re.compile(r"\bECAS_SIGNAL_SAFE\b")
SIGNAL_UNSAFE = re.compile(
    r"\b(?:std::)?(?:malloc|calloc|realloc|free|aligned_alloc)\s*\(|"
    r"\bnew\b|\bdelete\b|"
    r"\bstd::(?:string|vector|deque|map|unordered_map|set|function)\b|"
    r"\b(?:std::)?(?:printf|fprintf|snprintf|sprintf|puts|fputs|fopen|"
    r"fclose|fwrite|fflush|fputc|putchar)\s*\(|"
    r"\bstd::(?:cout|cerr|clog)\b|"
    r"\b(?:LockGuard|UniqueLock|AnnotatedMutex)\b|"
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock|mutex)\b|"
    r"(?:\.|->)lock\s*\("
)


def check_signal_unsafe_in_handler(path, raw_lines, code_lines, findings):
    rule = "signal-unsafe-in-handler"
    if file_allows(raw_lines, rule):
        return
    pending = False      # marker seen, body brace not yet opened
    region_depth = None  # brace depth of the marked function's body
    depth = 0
    for ln, code in enumerate(code_lines, 1):
        if SIGNAL_SAFE_MARK.search(code) and \
                not re.match(r"\s*#\s*(?:define|undef|ifn?def)\b", code):
            pending = True
        if region_depth is not None and \
                not line_allows(raw_lines[ln - 1], rule):
            m = SIGNAL_UNSAFE.search(code)
            if m:
                findings.append(Finding(
                    path, ln, rule,
                    f"'{m.group(0).strip()}' inside an ECAS_SIGNAL_SAFE "
                    "function; a crash handler may only issue "
                    "async-signal-safe syscalls (write/open/close/raise/"
                    "_exit) over pre-serialized bytes (DESIGN.md §16)"))
        for c in code:
            if c == "{":
                depth += 1
                if pending:
                    region_depth = depth
                    pending = False
            elif c == "}":
                depth -= 1
                if region_depth is not None and depth < region_depth:
                    region_depth = None
    # Unbalanced braces (macro tricks) simply end analysis at EOF.


def check_metric_name(path, raw_lines, code_lines, findings):
    rule = "metric-name"
    if file_allows(raw_lines, rule):
        return
    norm = path.replace(os.sep, "/")
    if norm.endswith("/src/ecas/obs/MetricNames.h"):
        # Every string literal in the canonical-names header is a metric
        # name; quotes survive comment stripping, so a quote in the code
        # line marks a real literal on the raw line.
        for ln, code in enumerate(code_lines, 1):
            if '"' not in code or line_allows(raw_lines[ln - 1], rule):
                continue
            for m in STRING_LITERAL.finditer(raw_lines[ln - 1]):
                name = m.group(1)
                if not METRIC_NAME_VALID.match(name):
                    findings.append(Finding(
                        path, ln, rule,
                        f'metric name "{name}" must match '
                        "^eas_[a-z][a-z0-9_]*$ (lowercase snake_case, "
                        "eas_ prefix)"))
        return
    if "/src/ecas/" not in norm:
        return  # Tests, tools, and benches may register ad-hoc metrics.
    for ln, code in enumerate(code_lines, 1):
        if METRIC_INLINE_REG.search(code) and \
                not line_allows(raw_lines[ln - 1], rule):
            findings.append(Finding(
                path, ln, rule,
                "instrument registered with an inline string literal; add "
                "the name to ecas/obs/MetricNames.h and pass the names:: "
                "constant"))


# --- stale-suppression -----------------------------------------------------
# A suppression is a claim: "this rule fires here, and here is why that
# is fine". When the code changes and the rule no longer fires, the
# comment becomes dead documentation that licenses a future regression.
# Each rule maps to the line trigger its check uses (would it even look
# at this line?) and, where the rule is path-scoped, a scope predicate.

def _in_ecas(norm):
    return "/src/ecas/" in norm


STALE_TRIGGERS = {
    "naked-mutex": lambda code: NAKED_MUTEX.search(code),
    "unchecked-value": lambda code: VALUE_CALL.search(code),
    "wait-under-lock-guard": lambda code: BLOCKING_CALL.search(code),
    "include-hygiene": lambda code: INCLUDE.match(code),
    "no-std-rand": lambda code: STD_RAND.search(code),
    "unbounded-queue": lambda code: UNBOUNDED_QUEUE.search(code),
    "no-raw-output": lambda code: (RAW_OUTPUT.search(code) or
                                   IOSTREAM_INCLUDE.match(code)),
    "atomic-write": lambda code: ATOMIC_WRITE.search(code),
    "signal-unsafe-in-handler": lambda code: SIGNAL_UNSAFE.search(code),
    "metric-name": lambda code: (METRIC_INLINE_REG.search(code) or
                                 '"' in code),
}

STALE_SCOPE = {
    "naked-mutex": lambda norm: "/src/ecas/support/" not in norm,
    "unbounded-queue": lambda norm: "/src/ecas/service/" in norm,
    "no-raw-output": _in_ecas,
    "atomic-write": lambda norm: (_in_ecas(norm) and
                                  not any(norm.endswith(b)
                                          for b in ATOMIC_WRITE_BLESSED)),
    "metric-name": _in_ecas,
}


def check_stale_suppression(path, raw_lines, code_lines, findings):
    rule = "stale-suppression"
    if file_allows(raw_lines, rule):
        return
    norm = path.replace(os.sep, "/")
    known = {c.__name__.replace("check_", "").replace("_", "-")
             for c in CHECKS}

    def target_live(target, codes):
        scope = STALE_SCOPE.get(target)
        if scope and not scope(norm):
            return False
        trigger = STALE_TRIGGERS.get(target)
        if trigger is None:
            return True  # no trigger model: assume live
        return any(trigger(c) for c in codes)

    for ln, raw in enumerate(raw_lines, 1):
        m = ALLOW_LINE.search(raw)
        if m and m.group(1) != rule:
            target = m.group(1)
            if target not in known:
                findings.append(Finding(
                    path, ln, rule,
                    f"'allow({target})' names no known rule "
                    "(see --list-rules)"))
            elif not target_live(target, [code_lines[ln - 1]]):
                findings.append(Finding(
                    path, ln, rule,
                    f"'allow({target})' no longer suppresses anything on "
                    "this line; delete the comment"))
        m = ALLOW_FILE.search(raw)
        if m and m.group(1) != rule:
            target = m.group(1)
            if target not in known:
                findings.append(Finding(
                    path, ln, rule,
                    f"'allow-file({target})' names no known rule "
                    "(see --list-rules)"))
            elif not target_live(target, code_lines):
                findings.append(Finding(
                    path, ln, rule,
                    f"'allow-file({target})' suppresses nothing anywhere "
                    "in this file; delete the comment"))


CHECKS = [
    check_naked_mutex,
    check_unchecked_value,
    check_wait_under_lock_guard,
    check_include_hygiene,
    check_no_std_rand,
    check_unbounded_queue,
    check_no_raw_output,
    check_atomic_write,
    check_signal_unsafe_in_handler,
    check_metric_name,
    check_stale_suppression,
]


def lint_file(path, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        findings.append(Finding(path, 0, "io", str(e)))
        return
    code_lines = []
    in_block = False
    for raw in raw_lines:
        code, in_block = strip_comments_and_strings(raw, in_block)
        code_lines.append(code)
    for check in CHECKS:
        check(path, raw_lines, code_lines, findings)


def collect_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            # Fixture corpora under tools/ are deliberately rule-breaking
            # analyzer test inputs; the self-tests lint them explicitly.
            dirnames[:] = [d for d in dirnames
                           if not d.startswith("build")
                           and not d.endswith("_fixtures")]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def run_self_test(root):
    """Lints the fixture corpus (a miniature src/ecas tree full of
    deliberate violations plus honoured suppressions) and compares the
    multiset of (file, rule) findings against expected_findings.json.
    Any file named clean_* must produce nothing at all."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"ecas-lint: self-test fixtures missing at {fixtures}",
              file=sys.stderr)
        return 2
    findings = []
    for path in collect_files(fixtures, ["src"]):
        lint_file(path, findings)
    got = sorted((os.path.basename(f.path), f.rule) for f in findings)
    with open(os.path.join(fixtures, "expected_findings.json"),
              encoding="utf-8") as f:
        expected = sorted(tuple(e) for e in json.load(f))
    failures = []
    if got != expected:
        remaining = list(got)
        for e in expected:
            if e in remaining:
                remaining.remove(e)
            else:
                failures.append(f"missing expected finding: {e}")
        for g in remaining:
            failures.append(f"unexpected finding: {g}")
    clean = [f for f in findings
             if os.path.basename(f.path).startswith("clean_")]
    if clean:
        failures.append(f"clean fixture produced {len(clean)} finding(s)")
    if failures:
        for msg in failures:
            print(f"ecas-lint: SELF-TEST FAIL: {msg}", file=sys.stderr)
        for f in findings:
            print("  " + f.render(fixtures), file=sys.stderr)
        return 1
    print(f"ecas-lint: self-test OK ({len(expected)} expected findings "
          "matched, clean fixture clean, suppressions honoured)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories (default: the ecas tree)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for check in CHECKS:
            print(check.__name__.replace("check_", "").replace("_", "-"))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return run_self_test(root)

    paths = args.paths or [d for d in DEFAULT_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    findings = []
    files = collect_files(root, paths)
    if not files:
        print("ecas-lint: no input files", file=sys.stderr)
        return 2
    for path in files:
        lint_file(path, findings)

    for f in findings:
        print(f.render(root))
    print(f"ecas-lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
