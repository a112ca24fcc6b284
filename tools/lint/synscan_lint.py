#!/usr/bin/env python3
"""synscan-lint: repo-specific invariants clang-tidy cannot express.

Rules (see docs/STATIC_ANALYSIS.md for rationale and examples):

  hot-path-container  std::unordered_map/std::unordered_set/std::map and
                      friends are banned in the hot-path directories
                      (src/core, src/enrich, src/fingerprint, src/net,
                      src/pcap, src/server, src/telescope); the flat
                      containers from the tracker rewrite are mandatory
                      there.
  metric-doc-sync     every metric name registered in code appears in
                      docs/OBSERVABILITY.md and every documented name is
                      registered in code.
  pragma-once         every header's first significant line is
                      `#pragma once` (after the leading comment block).
  include-order       own header first in a .cpp, then system includes,
                      then project includes; each blank-line-separated
                      group homogeneous and sorted.
  naked-new           no `new` / `delete` outside allocator/pool code —
                      ownership lives in containers and smart pointers.
  test-registration   every tests/**/*_test.cpp is wired into
                      tests/CMakeLists.txt, and every file referenced
                      there exists.
  raw-sync-primitive  naked std::mutex / std::condition_variable /
                      std::lock_guard & friends are banned in the
                      annotated concurrent core (src/core, src/obs,
                      src/server); the capability-annotated wrappers in
                      src/core/sync.h (the one allowed owner of the
                      primitives) are mandatory so clang thread-safety
                      analysis sees every lock.
  guarded-by          in a class that directly owns a core/sync.h Mutex,
                      every mutable data member must carry
                      SYNSCAN_GUARDED_BY / SYNSCAN_PT_GUARDED_BY (locks,
                      condvars, atomics and threads are exempt) — or an
                      allow() naming the out-of-band exclusion.
  temp-dir-literal    no std::filesystem::temp_directory_path() in tests/
                      outside tests/test_support.h: scratch space comes
                      from its scratch_dir(), which names the dir per
                      test case and process so parallel ctest cases
                      never share (and delete) each other's files.
  frame-decode-outside-net
                      no net::decode_frame / net::DecodedFrame in src/
                      outside src/net: the sensor's one rule set is the
                      raw-byte classifier; the decode-based rule chain
                      lives in tests/ as the reference it is checked
                      against.

Suppression: append `// synscan-lint: allow(<rule>[, <rule>...])` to the
offending line (or put it on a comment line directly above), or add
`// synscan-lint: allow-file(<rule>)` anywhere in the file to waive a
rule file-wide.  In Markdown use `<!-- synscan-lint: allow(<rule>) -->`.
Every suppression should carry a reason in the surrounding comment.

Exit status: 0 clean, 1 findings, 2 bad invocation or broken tree.
"""

import argparse
import re
import sys
from pathlib import Path

HOT_PATH_DIRS = (
    "src/core",
    "src/enrich",
    "src/fingerprint",
    "src/net",
    "src/pcap",
    "src/server",
    "src/telescope",
)
SYNC_ANNOTATED_DIRS = ("src/core", "src/obs", "src/server")
SYNC_LAYER_HEADER = "src/core/sync.h"
METRIC_CODE_DIRS = ("src", "bench")
NAKED_NEW_DIRS = ("src", "bench", "examples")
HEADER_DIRS = ("src", "tests", "bench", "examples")
INCLUDE_ORDER_DIRS = ("src",)
SKIP_DIR_NAMES = {".git", "testdata", "fixtures"}
TEMP_DIR_DIRS = ("tests",)
TEMP_DIR_HELPER = "tests/test_support.h"

BANNED_CONTAINERS = re.compile(
    r"\bstd::(unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|map|multimap|multiset)\b"
)
BANNED_HEADERS = re.compile(r'#include\s*<(unordered_map|unordered_set|map)>')

METRIC_CALL = re.compile(
    r'\b(?:counter|gauge|histogram|timing)\(\s*"([a-z][a-z0-9_.]*)"\s*\)'
)
METRIC_TIMER = re.compile(
    r'ScopedTimer\s+[A-Za-z_]\w*\s*\(\s*(?:[A-Za-z_][\w.]*\s*,\s*)?"([a-z][a-z0-9_.]*)"'
)
METRIC_FRAGMENT = re.compile(
    r'\b(?:counter|gauge|histogram|timing)\(\s*[A-Za-z_]\w*\s*\+\s*"(\.[a-z0-9_.]*)"'
)
DOC_METRIC = re.compile(r"`([a-z]+(?:\.[a-z0-9_]+)+)`")

NEW_DELETE = re.compile(r"\b(new|delete)\b")

TEMP_DIR_CALL = re.compile(r"\btemp_directory_path\s*\(")

FRAME_DECODE = re.compile(r"\b(decode_frame|DecodedFrame)\b")
FRAME_DECODE_DIRS = ("src",)
FRAME_DECODE_HOME = "src/net/"

RAW_SYNC = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
RAW_SYNC_HEADER = re.compile(r"#include\s*<(mutex|condition_variable|shared_mutex)>")

# A direct data member of the annotated wrapper type from core/sync.h
# (std::mutex deliberately excluded: that is raw-sync-primitive's job).
MUTEX_OWNER = re.compile(r"^(?:mutable\s+)?(?:(?:synscan::)?core::)?Mutex\s+\w+")
# Member types that never need GUARDED_BY: the synchronization objects
# themselves, atomics (their own ordering), threads (handles, not data)
# and compile-time/immutable members.
GUARDED_EXEMPT = re.compile(
    r"^(?:mutable\s+)?(?:(?:synscan::)?core::)?(?:Mutex|CondVar)\b"
    r"|^(?:mutable\s+)?std::(?:atomic\b|thread\b|jthread\b)"
    r"|^(?:static|const|constexpr)\b"
)
CLASS_HEAD = re.compile(r"\b(class|struct)\s+(?:SYNSCAN_\w+(?:\([^)]*\))?\s+)*(\w+)")
ACCESS_LABEL = re.compile(r"^(?:\s*(?:public|private|protected)\s*:)+\s*")
MEMBER_SKIP = re.compile(r"^(?:using|typedef|friend|static|template|enum|class|struct)\b")

ALLOW_LINE = re.compile(r"synscan-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
ALLOW_FILE = re.compile(r"synscan-lint:\s*allow-file\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

RULES = (
    "hot-path-container",
    "metric-doc-sync",
    "pragma-once",
    "include-order",
    "naked-new",
    "test-registration",
    "raw-sync-primitive",
    "guarded-by",
    "temp-dir-literal",
    "frame-decode-outside-net",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so structural rules never fire on prose or data."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else 1
        elif c == "R" and text[i : i + 2] == 'R"':
            close = text.find("(", i + 2)
            if close == -1:
                i += 1
                continue
            delim = ")" + text[i + 2 : close] + '"'
            end = text.find(delim, close)
            end = n if end == -1 else end + len(delim)
            out.extend("\n" for ch in text[i:end] if ch == "\n")
            i = end
        elif c in ('"', "'"):
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class SourceFile:
    """A lazily-parsed source file plus its suppression annotations."""

    def __init__(self, root, path):
        self.root = root
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.text.splitlines()
        self.stripped = strip_comments_and_strings(self.text)
        self.stripped_lines = self.stripped.splitlines()
        self.file_allows = set()
        self.line_allows = set()  # (line_number, rule)
        self._parse_allows()

    def _parse_allows(self):
        for number, raw in enumerate(self.raw_lines, start=1):
            m = ALLOW_FILE.search(raw)
            if m:
                self.file_allows.update(r.strip() for r in m.group(1).split(","))
            m = ALLOW_LINE.search(raw)
            if m:
                rules = [r.strip() for r in m.group(1).split(",")]
                stripped = (
                    self.stripped_lines[number - 1]
                    if number - 1 < len(self.stripped_lines)
                    else ""
                )
                # An annotation on its own comment line covers the next
                # line; inline it covers its own line.
                target = number if stripped.strip() else number + 1
                for rule in rules:
                    self.line_allows.add((target, rule))

    def allowed(self, line, rule):
        return rule in self.file_allows or (line, rule) in self.line_allows


class Linter:
    def __init__(self, root, min_doc_names):
        self.root = root
        self.min_doc_names = min_doc_names
        self.findings = []
        self._cache = {}

    def load(self, path):
        if path not in self._cache:
            self._cache[path] = SourceFile(self.root, path)
        return self._cache[path]

    def emit(self, source, line, rule, message):
        if not source.allowed(line, rule):
            self.findings.append(Finding(source.rel, line, rule, message))

    def files_under(self, dirs, suffixes):
        for directory in dirs:
            base = self.root / directory
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in suffixes or not path.is_file():
                    continue
                if SKIP_DIR_NAMES.intersection(path.relative_to(self.root).parts):
                    continue
                yield path

    # --- hot-path-container ------------------------------------------------

    def check_hot_path_container(self):
        for path in self.files_under(HOT_PATH_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            for number, line in enumerate(source.stripped_lines, start=1):
                m = BANNED_CONTAINERS.search(line) or BANNED_HEADERS.search(line)
                if m:
                    self.emit(
                        source,
                        number,
                        "hot-path-container",
                        f"std::{m.group(1)} in hot-path dir — use the flat "
                        "containers (FlowIndexTable/HybridU32Set/PortPacketMap) "
                        "or annotate why this path is cold",
                    )

    # --- metric-doc-sync ---------------------------------------------------

    def check_metric_doc_sync(self):
        doc_path = self.root / "docs" / "OBSERVABILITY.md"
        if not doc_path.is_file():
            self.findings.append(
                Finding("docs/OBSERVABILITY.md", 1, "metric-doc-sync", "missing doc")
            )
            return
        doc = self.load(doc_path)

        code_names = {}  # name -> (source, line), first sighting
        fragments = set()
        for path in self.files_under(METRIC_CODE_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            for number, line in enumerate(source.raw_lines, start=1):
                for pattern in (METRIC_CALL, METRIC_TIMER):
                    for m in pattern.finditer(line):
                        code_names.setdefault(m.group(1), (source, number))
                for m in METRIC_FRAGMENT.finditer(line):
                    fragments.add(m.group(1))

        namespaces = {name.split(".", 1)[0] for name in code_names}
        doc_names = {}  # name -> line
        for number, line in enumerate(doc.raw_lines, start=1):
            for m in DOC_METRIC.finditer(line):
                doc_names.setdefault(m.group(1), number)

        if len(doc_names) < self.min_doc_names:
            self.findings.append(
                Finding(
                    doc.rel,
                    1,
                    "metric-doc-sync",
                    f"only {len(doc_names)} metric-like names parsed from the doc "
                    f"(floor {self.min_doc_names}) — extraction regex or doc broke",
                )
            )
            return

        for name, (source, number) in sorted(code_names.items()):
            if name not in doc_names:
                self.emit(
                    source,
                    number,
                    "metric-doc-sync",
                    f"metric `{name}` is registered here but not documented in "
                    "docs/OBSERVABILITY.md",
                )
        for name, number in sorted(doc_names.items()):
            if name.split(".", 1)[0] not in namespaces:
                continue  # prose like `span.outer` naming conventions
            if ".n." in name:
                suffix = "." + name.split(".n.", 1)[1]
                if suffix not in fragments:
                    self.emit(
                        doc,
                        number,
                        "metric-doc-sync",
                        f"documented per-worker metric `{name}` has no "
                        f'`prefix + "{suffix}"` registration in code',
                    )
            elif name not in code_names:
                self.emit(
                    doc,
                    number,
                    "metric-doc-sync",
                    f"documented metric `{name}` is not registered anywhere in "
                    "src/ or bench/",
                )

    # --- pragma-once -------------------------------------------------------

    def check_pragma_once(self):
        for path in self.files_under(HEADER_DIRS, {".h"}):
            source = self.load(path)
            for number, line in enumerate(source.stripped_lines, start=1):
                if not line.strip():
                    continue
                if line.strip() != "#pragma once":
                    self.emit(
                        source,
                        number,
                        "pragma-once",
                        "first significant line of a header must be `#pragma once`",
                    )
                break
            else:
                self.emit(source, 1, "pragma-once", "header lacks `#pragma once`")

    # --- include-order -----------------------------------------------------

    @staticmethod
    def _include_groups(raw_lines):
        """Yield maximal runs of consecutive #include lines as
        [(line_number, kind, path)] with kind 'system' or 'project'.

        Parses raw lines: the comment/string stripper blanks the quoted
        path of a project include, and a line-anchored match cannot fire
        inside a `//` comment anyway."""
        group = []
        for number, line in enumerate(raw_lines, start=1):
            m = re.match(r'\s*#\s*include\s*([<"])([^>"]+)[>"]', line)
            if m:
                kind = "system" if m.group(1) == "<" else "project"
                group.append((number, kind, m.group(2)))
            else:
                if group:
                    yield group
                group = []
        if group:
            yield group

    def check_include_order(self):
        for path in self.files_under(INCLUDE_ORDER_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            groups = list(self._include_groups(source.raw_lines))
            if not groups:
                continue

            if path.suffix == ".cpp":
                own = path.with_suffix(".h")
                if own.is_file():
                    own_rel = own.relative_to(self.root / "src").as_posix()
                    number, kind, first = groups[0][0]
                    if kind != "project" or first != own_rel:
                        self.emit(
                            source,
                            number,
                            "include-order",
                            f'first include must be the own header "{own_rel}"',
                        )
                    else:
                        rest = groups[0][1:]
                        groups = ([rest] if rest else []) + groups[1:]

            seen_project_group = False
            for group in groups:
                kinds = {kind for _, kind, _ in group}
                if len(kinds) > 1:
                    self.emit(
                        source,
                        group[0][0],
                        "include-order",
                        "mixed system and project includes in one block — "
                        "separate with a blank line",
                    )
                    continue
                kind = kinds.pop()
                if kind == "project":
                    seen_project_group = True
                elif seen_project_group:
                    self.emit(
                        source,
                        group[0][0],
                        "include-order",
                        "system include block after a project include block",
                    )
                paths = [include for _, _, include in group]
                if paths != sorted(paths):
                    self.emit(
                        source,
                        group[0][0],
                        "include-order",
                        "includes within a block must be sorted",
                    )

    # --- naked-new ---------------------------------------------------------

    def check_naked_new(self):
        for path in self.files_under(NAKED_NEW_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            for number, line in enumerate(source.stripped_lines, start=1):
                for m in NEW_DELETE.finditer(line):
                    before = line[: m.start()]
                    if not before.strip():
                        # Wrapped declaration: `... TrackerConfig = {}) =`
                        # newline `delete;`. Look back for the `=`.
                        for previous in reversed(source.stripped_lines[: number - 1]):
                            if previous.strip():
                                before = previous
                                break
                    # `= delete`, `operator new/delete`, and make_unique-
                    # style idioms do not own raw memory.
                    if re.search(r"=\s*$", before) or before.rstrip().endswith(
                        "operator"
                    ):
                        continue
                    self.emit(
                        source,
                        number,
                        "naked-new",
                        f"naked `{m.group(1)}` — ownership belongs in "
                        "containers, pools, or smart pointers",
                    )

    # --- raw-sync-primitive ------------------------------------------------

    def check_raw_sync_primitive(self):
        for path in self.files_under(SYNC_ANNOTATED_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            if source.rel == SYNC_LAYER_HEADER:
                continue  # the single allowed owner of the std primitives
            for number, line in enumerate(source.stripped_lines, start=1):
                m = RAW_SYNC.search(line) or RAW_SYNC_HEADER.search(line)
                if m:
                    self.emit(
                        source,
                        number,
                        "raw-sync-primitive",
                        f"`{m.group(0).strip()}` in the annotated concurrent core "
                        "— use the capability-annotated wrappers from core/sync.h "
                        "(Mutex, MutexLock, UniqueLock, CondVar) so the clang "
                        "thread-safety analysis sees this lock",
                    )

    # --- guarded-by --------------------------------------------------------

    @staticmethod
    def _class_members(source):
        """Yield (class_name, [(line, statement), ...]) for every class
        or struct in the stripped text, where statements are the
        member declarations at the class's own brace depth (function
        bodies and nested scopes contribute nothing).

        A textual brace tracker, not a parser: scopes whose closing
        brace is followed by `;` (brace-initialized members, nested type
        definitions) keep their head text so the terminating `;` yields
        one statement; other scopes (function bodies, namespaces)
        discard theirs."""
        text = source.stripped
        results = []
        stack = []  # {"name": str|None, "members": [...]} per open brace
        buf = []
        buf_line = 1  # line of the first non-space char in buf
        line = 1
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                if buf:
                    buf.append(" ")
            elif c == "{":
                head = "".join(buf).strip()
                m = CLASS_HEAD.search(ACCESS_LABEL.sub("", head))
                name = m.group(2) if m and not head.endswith("=") else None
                stack.append(
                    {"name": name, "members": [], "head": head, "head_line": buf_line}
                )
                buf = []
                buf_line = line
            elif c == "}":
                scope = stack.pop() if stack else None
                if scope and scope["name"] and scope["members"]:
                    results.append((scope["name"], scope["members"]))
                buf = []
                buf_line = line
                if scope:
                    j = i + 1
                    while j < n and text[j].isspace():
                        j += 1
                    if j < n and text[j] == ";":
                        # `Type member{init};` or a nested type: restore
                        # the head so the `;` terminates one statement.
                        buf = list(scope["head"] + "{}")
                        buf_line = scope["head_line"]
            elif c == ";":
                statement = ACCESS_LABEL.sub("", "".join(buf)).strip()
                if stack and stack[-1]["name"] and statement:
                    stack[-1]["members"].append((buf_line, statement))
                buf = []
                buf_line = line
            elif c.isspace():
                if buf:
                    buf.append(" ")
            else:
                if not buf:
                    buf_line = line
                buf.append(c)
            i += 1
        return results

    @staticmethod
    def _is_data_member(statement):
        """True for plain data-member declarations; functions, aliases
        and nested type declarations return False."""
        if MEMBER_SKIP.match(statement):
            return False
        # The annotation macros carry parentheses of their own; strip
        # them (and brace initializers) before testing for a signature.
        bare = re.sub(r"SYNSCAN_\w+\s*\([^)]*\)", "", statement)
        bare = re.sub(r"\{[^}]*\}", "", bare)
        return "(" not in bare

    def check_guarded_by(self):
        for path in self.files_under(SYNC_ANNOTATED_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            if source.rel == SYNC_LAYER_HEADER:
                continue  # the wrappers themselves hold the raw primitives
            for class_name, members in self._class_members(source):
                if not any(
                    MUTEX_OWNER.match(statement) for _, statement in members
                ):
                    continue
                for number, statement in members:
                    if not self._is_data_member(statement):
                        continue
                    if GUARDED_EXEMPT.match(statement):
                        continue
                    if "SYNSCAN_GUARDED_BY" in statement or (
                        "SYNSCAN_PT_GUARDED_BY" in statement
                    ):
                        continue
                    self.emit(
                        source,
                        number,
                        "guarded-by",
                        f"member of mutex-owning `{class_name}` lacks "
                        "SYNSCAN_GUARDED_BY — name the guarding mutex, or "
                        "allow(guarded-by) with a comment naming the "
                        "out-of-band exclusion (thread join, slot "
                        "disjointness)",
                    )

    # --- temp-dir-literal --------------------------------------------------

    def check_temp_dir_literal(self):
        for path in self.files_under(TEMP_DIR_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            if source.rel == TEMP_DIR_HELPER:
                continue  # the helper that names dirs per test case
            for number, line in enumerate(source.stripped_lines, start=1):
                if TEMP_DIR_CALL.search(line):
                    self.emit(
                        source,
                        number,
                        "temp-dir-literal",
                        "temp_directory_path() in a test — use "
                        "testing::scratch_dir() from tests/test_support.h so "
                        "parallel ctest cases never share a scratch dir",
                    )

    # --- frame-decode-outside-net ------------------------------------------

    def check_frame_decode_outside_net(self):
        for path in self.files_under(FRAME_DECODE_DIRS, {".h", ".cpp"}):
            source = self.load(path)
            if source.rel.startswith(FRAME_DECODE_HOME):
                continue  # the decoder itself
            for number, line in enumerate(source.stripped_lines, start=1):
                m = FRAME_DECODE.search(line)
                if m:
                    self.emit(
                        source,
                        number,
                        "frame-decode-outside-net",
                        f"{m.group(1)} outside src/net — classify with "
                        "telescope::detail::classify_raw (the one rule set); "
                        "decode-based references belong in tests/",
                    )

    # --- test-registration -------------------------------------------------

    def check_test_registration(self):
        cmake_path = self.root / "tests" / "CMakeLists.txt"
        if not cmake_path.is_file():
            return
        cmake = self.load(cmake_path)
        for path in self.files_under(("tests",), {".cpp"}):
            if not path.name.endswith("_test.cpp"):
                continue
            rel = path.relative_to(self.root / "tests").as_posix()
            if rel not in cmake.text:
                source = self.load(path)
                self.emit(
                    source,
                    1,
                    "test-registration",
                    f"{rel} is not registered in tests/CMakeLists.txt — "
                    "it never runs under ctest",
                )
        for number, line in enumerate(cmake.stripped_lines, start=1):
            for m in re.finditer(r"\b([\w/]+_test\.cpp)\b", line):
                if not (self.root / "tests" / m.group(1)).is_file():
                    self.emit(
                        cmake,
                        number,
                        "test-registration",
                        f"tests/CMakeLists.txt references missing {m.group(1)}",
                    )

    def run(self, rules):
        dispatch = {
            "hot-path-container": self.check_hot_path_container,
            "metric-doc-sync": self.check_metric_doc_sync,
            "pragma-once": self.check_pragma_once,
            "include-order": self.check_include_order,
            "naked-new": self.check_naked_new,
            "test-registration": self.check_test_registration,
            "raw-sync-primitive": self.check_raw_sync_primitive,
            "guarded-by": self.check_guarded_by,
            "temp-dir-literal": self.check_temp_dir_literal,
            "frame-decode-outside-net": self.check_frame_decode_outside_net,
        }
        for rule in rules:
            dispatch[rule]()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="synscan-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--repo",
        type=Path,
        default=Path(__file__).resolve().parent.parent.parent,
        help="repository root to lint (default: this checkout)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        choices=RULES,
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--min-doc-names",
        type=int,
        default=1,
        help="sanity floor for names parsed from docs/OBSERVABILITY.md "
        "(the repo run uses 20 to catch extraction rot)",
    )
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    root = args.repo.resolve()
    if not root.is_dir():
        print(f"synscan-lint: no such directory: {root}", file=sys.stderr)
        return 2

    linter = Linter(root, args.min_doc_names)
    findings = linter.run(args.rule or list(RULES))
    for finding in findings:
        print(finding)
    if findings:
        print(f"synscan-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
