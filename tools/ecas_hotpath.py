#!/usr/bin/env python3
"""ecas-hotpath: static analyzer proving the decision hot path stays
allocation-free, exception-free, and lock-disciplined (DESIGN.md §14).

Functions marked ECAS_HOT (ecas/support/HotPath.h) are hot-path roots:
the KernelHistory lock-free lookup and counter bumps, the TimeModel /
Metric / PowerCurve evaluations, the alpha search and its Minimize.h
kernels, the GpuHealth fast-path reads, and the three EasScheduler
helpers a warmed table hit runs: decideTableHit, dispatchRemainder and
finishInvocation. The analyzer walks the call graph from those roots
and reports:

  alloc        Heap allocation: new expressions, malloc and friends,
               make_unique/make_shared, growing container operations
               (push_back, emplace, resize, ...), string/format
               construction, and std::function construction from a
               callable (libstdc++'s 16-byte SBO overflows on multi-
               capture lambdas).
  throw        throw expressions and try/catch regions. The hot path
               must not unwind; errors travel as Status/ErrorOr values.
  lock         Mutex acquisition (LockGuard/UniqueLock/std::lock_guard/
               unique_lock/scoped_lock, .lock()). The single whitelisted
               acquisition is the KernelHistory leaf shard lock on the
               first-use insert slow path (KernelHistory::obtainEntry).
  io           Blocking calls and file IO: fopen/fwrite/fsync/...,
               sleeps, condition waits, joins.
  extern-call  A call that resolves to no function defined in src/ecas
               and no whitelisted standard utility: the analyzer cannot
               see whether it allocates or blocks, so it must be either
               annotated, whitelisted, or suppressed with a reason.

The engine is textual: regex + brace matching over src/ecas, with no
dependencies, so it runs everywhere; it is the CI gate and the
self-test subject. It is conservative: it walks every same-name
candidate definition for a method call.

Suppressions match ecas-lint's syntax, one comment per line:
  // ecas-hotpath: allow(rule)          on the offending line, or as a
                                        standalone comment line directly
                                        above it
  // ecas-hotpath: allow(rule1, rule2)  several rules at once
On an operation line the suppression kills that finding; on a call line
it kills findings of those rules discovered anywhere through that call
edge (the callee subtree), which is how gated slow paths — trace
formatting, journal flushes — are documented at their gate. A
suppression on (or directly above) a function's definition line applies
to the whole body and everything it calls: that is how opt-in
amortized subsystems (HistoryJournal::enqueue, maybeFlush) carry their
justification once, at the definition, instead of at every call site.

The textual engine walks definitions in the decision-path modules only
(WALK_MODULES below). obs/, runtime/, service/ and workloads/ are
architecturally off the steady-state decision path; calls that resolve
only there surface as extern-call findings unless the name is a
whitelisted null-gated obs entry point. This also keeps common method
names (enqueue, open, flush) from dragging the host thread pool or the
service front end into the hot walk.

Exit status: 0 clean, 1 findings, 2 usage/environment errors.
"""

import argparse
import json
import os
import re
import sys

RULES = ("alloc", "throw", "lock", "io", "extern-call")

# Modules the textual engine indexes and walks. Everything the decision
# hot path can touch lives here; obs/ (null-gated trace layer), runtime/
# (host thread pool), service/ and workloads/ are not reachable from an
# ECAS_HOT root by design, and excluding them keeps same-name methods
# (enqueue, flush, open, wait) from aliasing into their call graphs.
WALK_MODULES = ("core", "device", "fault", "hw", "math", "power",
                "profile", "sim", "support")

ALLOW_LINE = re.compile(r"//\s*ecas-hotpath:\s*allow\(([\w\s,-]+)\)")

# ---------------------------------------------------------------------------
# Rule tables.
# ---------------------------------------------------------------------------

# Call targets that allocate no matter who resolves them.
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "make_pair_heap",
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "resize", "reserve", "insert", "append", "assign",
    "to_string", "formatString", "substr", "str",
}

# Blocking / IO call targets.
IO_CALLS = {
    "fopen", "fwrite", "fread", "fclose", "fflush", "fsync", "fdatasync",
    "fprintf", "printf", "fscanf", "getline", "system", "popen",
    "sleep_for", "sleep_until", "usleep", "nanosleep", "sleep",
    "wait", "wait_for", "wait_until", "join",
}

# Lock-acquiring constructions / calls.
LOCK_TYPES = {
    "LockGuard", "UniqueLock", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock",
}

# Functional casts / fundamental-type constructions: never allocate.
PRIMITIVE_NAMES = {
    "bool", "char", "short", "int", "long", "unsigned", "float", "double",
    "void", "auto", "size_t", "ssize_t", "ptrdiff_t", "uintptr_t",
    "intptr_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "wchar_t",
}

# Value types whose declaration-with-arguments never touches the heap.
VALUE_TYPE_SKIP = {
    "unique_ptr", "shared_ptr", "weak_ptr", "optional", "pair", "tuple",
    "array", "atomic", "string_view", "span", "initializer_list",
    "duration", "time_point", "chrono",
}

# Container/string types whose construction WITH arguments allocates
# (empty construction '()' does not and is skipped at the call site).
CTOR_ALLOC_TYPES = {
    "string", "vector", "deque", "list", "map", "set", "unordered_map",
    "unordered_set", "multimap", "multiset", "ostringstream",
    "istringstream", "stringstream",
}

# The one blessed acquisition (DESIGN.md §14): table G's first-use insert
# takes the leaf shard lock once per kernel lifetime.
LOCK_WHITELIST_FUNCTIONS = {"obtainEntry"}

# External names the analyzer trusts: standard math/utility, atomic
# operations, and trivial container/optional reads that never allocate,
# lock, or block. Checked before index resolution for method-style calls,
# so a common accessor name here also skips walking same-name repo
# methods (the textual engine cannot see receiver types).
ALLOWED_EXTERNALS = {
    # <cmath>/<algorithm>/<utility>
    "min", "max", "floor", "ceil", "round", "abs", "fabs", "sqrt", "pow",
    "exp", "log", "log2", "isfinite", "isnan", "isinf", "fmod", "clamp",
    "move", "swap", "forward", "get", "trunc", "llround", "lround", "cbrt",
    # <cstring>: fixed-size byte ops, no heap
    "memcpy", "memmove", "memcmp", "memset", "strlen",
    # atomics
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "compare_exchange_strong", "compare_exchange_weak",
    # condition-variable wakes: non-blocking (waits stay in IO_CALLS)
    "notify_all", "notify_one",
    # <chrono> reads
    "time_since_epoch", "duration_cast",
    # non-growing container / string / optional reads
    "size", "empty", "clear", "begin", "end", "data", "front", "back",
    "pop_back", "pop_front", "erase", "find", "at", "c_str", "length",
    "has_value", "hasValue", "value", "value_or", "reset", "count",
    # obs layer entry points: the capture recorder (EasConfig::Trace) is
    # null unless tracing is on, and a bounded FlightRecorder records
    # into a preallocated ring; ObsTest pins bit-identity with the
    # recorders off and HotPathTest pins zero allocations with the
    # bounded one armed; VirtualTime is their one-double timestamp type
    "instant", "setEndDetail", "ScopedSpan", "VirtualTime",
    # project assertion macros: abort on failure, never throw/allocate
    "ECAS_CHECK", "ECAS_ASSERT",
    # template callable parameters (Minimize.h convention): the callable
    # is a stack lambda whose body the analyzer reads inline at the call
    # site that instantiates the template
    "Fn",
}

# Statement-level keywords the call regex must not treat as callees.
KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "defined", "noexcept", "new", "delete", "throw",
    "else", "do", "case", "static_assert", "alignas", "typeid", "assert",
    "operator", "co_return", "co_await", "co_yield", "explicit",
    "typename", "template", "using", "friend",
}

# Project struct/class/enum declarations. Constructing one that has no
# user-written constructor anywhere in the walked modules is memberwise
# initialization — no heap unless a member allocates, which the runtime
# AllocGuard regression would catch.
TYPE_DECL_RE = re.compile(
    r"\b(?:struct|class|enum(?:\s+(?:class|struct))?|union)\s+([A-Za-z_]\w*)")

CALL_RE = re.compile(r"([A-Za-z_][\w:]*)\s*\(")
NEW_EXPR_RE = re.compile(r"(?<!operator )\bnew\b(?!\s*\()")
PLACEMENT_NEW_RE = re.compile(r"\bnew\s*\(")
THROW_RE = re.compile(r"\bthrow\b")
TRY_RE = re.compile(r"\btry\s*\{|\bcatch\s*\(")
STD_FUNCTION_CTOR_RE = re.compile(r"\bstd::function<[^;{}]*?>\s*\(\s*[^)\s]")
LOCK_METHOD_RE = re.compile(r"(?:\.|->)lock\s*\(")
LAMBDA_DECL_RE = re.compile(r"\b(?:const\s+)?auto\s+(\w+)\s*=\s*\[")
DECL_BEFORE_CALL_RE = re.compile(r"[\w>]\s+$")
HOT_MARKER = "ECAS_HOT"


class Finding:
    def __init__(self, path, line, rule, message, chain):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.chain = chain  # list of function names, root first

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        via = " -> ".join(self.chain)
        return f"{rel}:{self.line}: [{self.rule}] {self.message} (via {via})"

    def as_dict(self, root):
        return {
            "file": os.path.relpath(self.path, root),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "chain": self.chain,
        }

    def key(self):
        return (self.path, self.line, self.rule, self.message)


def strip_comments_and_strings(line, in_block_comment):
    """Same contract as ecas_lint.strip_comments_and_strings: comment and
    string contents become spaces so rule regexes cannot match inside."""
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


def line_allowed_rules(raw_line):
    m = ALLOW_LINE.search(raw_line)
    if not m:
        return frozenset()
    return frozenset(r.strip() for r in m.group(1).split(",") if r.strip())


def allowed_rules_at(raw_lines, ln):
    """Rules suppressed at 1-based line ln: an allow on the line itself,
    or on a standalone comment line directly above it."""
    rules = line_allowed_rules(raw_lines[ln - 1])
    if ln >= 2:
        above = raw_lines[ln - 2].strip()
        if above.startswith("//"):
            rules = rules | line_allowed_rules(above)
    return rules


# ---------------------------------------------------------------------------
# Textual engine.
# ---------------------------------------------------------------------------

class SourceFile:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as f:
            self.raw_lines = f.read().splitlines()
        self.code_lines = []
        in_block = False
        for raw in self.raw_lines:
            code, in_block = strip_comments_and_strings(raw, in_block)
            self.code_lines.append(code)


class FunctionDef:
    """One brace-matched function body in a source file."""

    def __init__(self, name, source, header_line, body_start, body_end,
                 body_start_col=0, body_end_col=None):
        self.name = name  # last identifier of the declarator
        self.source = source
        self.header_line = header_line  # 1-based line of the declarator
        self.body_start = body_start  # 1-based first line of the body
        self.body_end = body_end  # 1-based line of the closing brace
        # Columns of the braces, so single-line definitions do not scan
        # their own declarator or constructor initializer list.
        self.body_start_col = body_start_col
        self.body_end_col = body_end_col

    def body_line_numbers(self):
        return range(self.body_start, self.body_end + 1)


HEADER_NAME_RE = re.compile(r"([A-Za-z_~]\w*)\s*\($")
CONTROL_HEADERS = {
    "if", "for", "while", "switch", "catch", "else", "do", "try",
    "class", "struct", "union", "enum", "namespace", "return",
}


def index_functions(source):
    """Finds function definitions by scanning for '{' tokens whose
    preceding declarator text ends in 'name(...)'. Nested inline class
    methods are found; control-flow blocks and aggregate initialization
    are filtered by keyword and shape."""
    defs = []
    # Flatten with a line map.
    text = []
    line_of = []
    for ln, code in enumerate(source.code_lines, 1):
        text.append(code)
        line_of.extend([ln] * (len(code) + 1))  # +1 for the newline
    flat = "\n".join(text)

    depth_stack = []
    i = 0
    n = len(flat)
    while i < n:
        c = flat[i]
        if c == "{":
            # Declarator: text since the previous ';', '{', or '}'.
            j = i - 1
            while j >= 0 and flat[j] not in ";{}":
                j -= 1
            header = flat[j + 1:i]
            name = _declarator_name(header)
            if name:
                end = _match_brace(flat, i)
                if end != -1:
                    defs.append(FunctionDef(
                        name, source,
                        line_of[min(j + 1 + _leading_ws(header),
                                    len(line_of) - 1)],
                        line_of[i], line_of[end],
                        i - flat.rfind("\n", 0, i) - 1,
                        end - flat.rfind("\n", 0, end) - 1))
                    # Do not skip the body: nested lambdas/classes inside
                    # still get indexed independently (harmless).
            depth_stack.append(i)
        elif c == "}":
            if depth_stack:
                depth_stack.pop()
        i += 1
    return defs


def _leading_ws(s):
    return len(s) - len(s.lstrip())


def _match_brace(flat, open_idx):
    depth = 0
    for k in range(open_idx, len(flat)):
        if flat[k] == "{":
            depth += 1
        elif flat[k] == "}":
            depth -= 1
            if depth == 0:
                return k
    return -1


def _declarator_name(header):
    """Extracts the function name from declarator text preceding '{', or
    None when the brace is not a function body."""
    h = header.strip()
    if not h or h.endswith("="):  # brace initialization
        return None
    # Constructor initializer list: ') : Member(init), ...' — truncate at
    # the parameter list so the ctor is indexed under its own name, not
    # the last initializer's. '::' is excluded so qualified names pass.
    init = re.search(r"\)\s*:(?!:)", h)
    if init:
        h = h[:init.start() + 1]
    # Trim trailing qualifiers after the parameter list ('const override',
    # 'const noexcept', a trailing return type, any combination).
    h = re.sub(r"\)\s*(?:(?:const|noexcept|override|final|mutable)\s*)*"
               r"(?:->\s*[\w:<>,\s*&]+)?\s*$",
               ")", h)
    if not h.endswith(")"):
        return None
    # Walk back over the balanced parameter list.
    depth = 0
    k = len(h) - 1
    while k >= 0:
        if h[k] == ")":
            depth += 1
        elif h[k] == "(":
            depth -= 1
            if depth == 0:
                break
        k -= 1
    if k <= 0:
        return None
    m = HEADER_NAME_RE.search(h[:k + 1].rstrip())
    if not m:
        return None
    name = m.group(1)
    if name in CONTROL_HEADERS or name in KEYWORDS:
        return None
    # Reject macro-style all-caps invocations used as statements.
    if name.isupper() and "_" in name:
        return None
    return name


def find_hot_roots(sources):
    """Names of functions annotated ECAS_HOT anywhere in the tree."""
    roots = set()
    for src in sources:
        if os.path.basename(src.path) == "HotPath.h":
            continue  # the macro definition itself
        flat_lines = src.code_lines
        for ln, code in enumerate(flat_lines, 1):
            if HOT_MARKER not in code or code.lstrip().startswith("#"):
                continue
            # Scan forward from the marker for 'name(' — the declarator
            # may continue on following lines.
            tail = code.split(HOT_MARKER, 1)[1]
            window = tail
            extra = 0
            while "(" not in window and extra < 5 and ln + extra < len(flat_lines):
                window += " " + flat_lines[ln + extra].strip()
                extra += 1
            m = re.search(r"([A-Za-z_]\w*)\s*\(", window)
            if m and m.group(1) not in KEYWORDS:
                roots.add(m.group(1))
    return roots


class TextualEngine:
    def __init__(self, root, src_dirs):
        self.root = root
        self.sources = []
        for d in src_dirs:
            base = os.path.join(root, d)
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = [x for x in dirnames
                               if not x.startswith("build")]
                for name in sorted(filenames):
                    if name.endswith((".h", ".cpp")):
                        self.sources.append(
                            SourceFile(os.path.join(dirpath, name)))
        self.index = {}
        self.type_names = set()
        for src in self.sources:
            for fd in index_functions(src):
                self.index.setdefault(fd.name, []).append(fd)
            for code in src.code_lines:
                for m in TYPE_DECL_RE.finditer(code):
                    self.type_names.add(m.group(1))
        self.roots = find_hot_roots(self.sources)
        self.findings = []
        self._seen_findings = set()
        self.walked = set()

    def run(self):
        if not self.roots:
            return None  # caller treats as configuration error
        for name in sorted(self.roots):
            for fd in self.index.get(name, []):
                self._walk(fd, frozenset(), [name], set())
        return self.findings

    def _emit(self, path, line, rule, message, chain):
        f = Finding(path, line, rule, message, list(chain))
        if f.key() in self._seen_findings:
            return
        self._seen_findings.add(f.key())
        self.findings.append(f)

    def _walk(self, fd, suppressed, chain, visiting):
        src = fd.source
        # A suppression on (or in the comment block above) the definition
        # line covers the whole body and its callees.
        probe_from = fd.header_line
        while probe_from > 1 and \
                src.raw_lines[probe_from - 2].strip().startswith("//"):
            probe_from -= 1
        for probe in range(probe_from, fd.body_start + 1):
            if 1 <= probe <= len(src.raw_lines):
                suppressed = suppressed | line_allowed_rules(
                    src.raw_lines[probe - 1])
        key = (fd.source.path, fd.body_start, suppressed)
        if key in visiting or key in self.walked:
            return
        visiting = visiting | {key}
        self.walked.add(key)
        local_lambdas = set()
        for ln in fd.body_line_numbers():
            code = src.code_lines[ln - 1]
            # Confine the scan to the brace-bounded body text.
            if ln == fd.body_end and fd.body_end_col is not None:
                code = code[:fd.body_end_col + 1]
            if ln == fd.body_start:
                code = code[fd.body_start_col:]
            raw = src.raw_lines[ln - 1]
            allowed = suppressed | allowed_rules_at(src.raw_lines, ln)
            for m in LAMBDA_DECL_RE.finditer(code):
                local_lambdas.add(m.group(1))
            self._check_ops(src, ln, code, allowed, chain)
            self._check_calls(src, ln, code, raw, allowed, chain,
                              local_lambdas, visiting)

    def _check_ops(self, src, ln, code, allowed, chain):
        if "alloc" not in allowed:
            if NEW_EXPR_RE.search(code) or PLACEMENT_NEW_RE.search(code):
                self._emit(src.path, ln, "alloc",
                           "new expression on the hot path", chain)
            if STD_FUNCTION_CTOR_RE.search(code):
                self._emit(src.path, ln, "alloc",
                           "std::function constructed from a callable "
                           "(SBO overflow heap-allocates)", chain)
        if "throw" not in allowed:
            if THROW_RE.search(code):
                self._emit(src.path, ln, "throw",
                           "throw on the hot path; return Status/ErrorOr",
                           chain)
            elif TRY_RE.search(code):
                self._emit(src.path, ln, "throw",
                           "try/catch region on the hot path", chain)
        if "lock" not in allowed:
            if LOCK_METHOD_RE.search(code):
                self._emit(src.path, ln, "lock",
                           "explicit .lock() on the hot path", chain)
            else:
                for ty in LOCK_TYPES:
                    if re.search(rf"\b(?:std::)?{ty}\b(?:<[^>]*>)?\s+\w+\s*[({{]",
                                 code):
                        fn = chain[-1]
                        if fn not in LOCK_WHITELIST_FUNCTIONS:
                            self._emit(
                                src.path, ln, "lock",
                                f"{ty} acquisition on the hot path (only "
                                "the KernelHistory shard insert is "
                                "whitelisted)", chain)
                        break

    def _check_calls(self, src, ln, code, raw, allowed, chain,
                     local_lambdas, visiting):
        for m in CALL_RE.finditer(code):
            full = m.group(1)
            last = full.rsplit("::", 1)[-1]
            if last in KEYWORDS or full in KEYWORDS:
                continue
            # Declaration with constructor-style initializer: the callee
            # is the declared variable's TYPE, not the variable name.
            prefix = code[:m.start(1)]
            is_decl = bool(DECL_BEFORE_CALL_RE.search(prefix)) and not \
                re.search(r"\b(return|case|throw|new|delete|in|and|or|not)\s+$",
                          prefix)
            if is_decl:
                tm = re.search(r"([A-Za-z_][\w:]*)(?:<[^<>]*>)?\s+$", prefix)
                if not tm:
                    continue
                full = tm.group(1)
                last = full.rsplit("::", 1)[-1]
                if last in KEYWORDS or last in PRIMITIVE_NAMES or \
                        last in VALUE_TYPE_SKIP:
                    continue
            if last in PRIMITIVE_NAMES or last in VALUE_TYPE_SKIP:
                continue  # functional cast / non-allocating construction
            if last in CTOR_ALLOC_TYPES:
                # 'std::string()' is empty (no heap); with arguments the
                # construction copies into fresh storage.
                if re.match(r"\s*\)", code[m.end():]):
                    continue
                if "alloc" not in allowed:
                    self._emit(src.path, ln, "alloc",
                               f"'{last}' constructed with arguments on "
                               "the hot path", chain)
                continue
            if last in local_lambdas:
                continue  # lambda body already scanned inline
            if last in ALLOC_CALLS:
                if "alloc" not in allowed:
                    self._emit(src.path, ln, "alloc",
                               f"allocating call '{last}(' on the hot path",
                               chain)
                continue
            if last in IO_CALLS:
                if "io" not in allowed:
                    self._emit(src.path, ln, "io",
                               f"blocking/IO call '{last}(' on the hot path",
                               chain)
                continue
            if last in LOCK_TYPES:
                continue  # handled as an op above
            if last in ALLOWED_EXTERNALS:
                continue
            defs = self.index.get(last)
            if defs:
                for fd in defs:
                    self._walk(fd, allowed, chain + [last], visiting)
                continue
            if last in self.type_names:
                continue  # memberwise construction of a project type
            if last.isupper() or (last.startswith("ECAS_")):
                continue  # project macros: assertion/annotation helpers
            if "extern-call" not in allowed:
                self._emit(src.path, ln, "extern-call",
                           f"call to '{full}(' which is neither defined in "
                           "src/ecas nor whitelisted; annotate, whitelist, "
                           "or suppress with a reason", chain)


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus.
# ---------------------------------------------------------------------------

def run_self_test(root):
    fixtures = os.path.join(root, "tools", "hotpath_fixtures")
    if not os.path.isdir(fixtures):
        print("ecas-hotpath: self-test fixtures missing at "
              f"{fixtures}", file=sys.stderr)
        return 2
    engine = TextualEngine(fixtures, ["."])
    findings = engine.run()
    if findings is None:
        print("ecas-hotpath: SELF-TEST FAIL: no ECAS_HOT roots found in "
              "fixtures", file=sys.stderr)
        return 1
    got = sorted((os.path.basename(f.path), f.rule) for f in findings)
    expect_path = os.path.join(fixtures, "expected_findings.json")
    with open(expect_path, encoding="utf-8") as f:
        expected = sorted(tuple(e) for e in json.load(f))
    failures = []
    for e in expected:
        if e not in got:
            failures.append(f"missing expected finding: {e}")
    for g in got:
        if g not in expected:
            failures.append(f"unexpected finding: {g}")
    clean = [f for f in findings
             if os.path.basename(f.path).startswith("clean_")]
    if clean:
        failures.append(f"clean fixture produced {len(clean)} finding(s)")
    if failures:
        for msg in failures:
            print(f"ecas-hotpath: SELF-TEST FAIL: {msg}", file=sys.stderr)
        for f in findings:
            print("  " + f.render(fixtures), file=sys.stderr)
        return 1
    print(f"ecas-hotpath: self-test OK "
          f"({len(expected)} expected findings matched, clean fixture "
          "clean, suppressions honoured)")
    return 0


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write findings as JSON to this path")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return run_self_test(root)

    engine = TextualEngine(
        root, [os.path.join("src", "ecas", mod) for mod in WALK_MODULES])
    findings = engine.run()

    if findings is None:
        print("ecas-hotpath: no ECAS_HOT roots found — is "
              "ecas/support/HotPath.h in place?", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render(root))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump({"engine": "textual",
                       "findings": [f.as_dict(root) for f in findings]},
                      out, indent=2)
            out.write("\n")
    print(f"ecas-hotpath: engine=textual, "
          f"{len(engine.roots)} root name(s), {len(engine.walked)} functions "
          f"walked, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
