#!/usr/bin/env python3
"""nurd_lint: the project-invariant linter.

Enforces the cross-cutting contracts the compiler cannot see (the
thread-safety annotations and clang-tidy cover lock discipline and generic
bug patterns; these rules are NURD-specific):

  wall-clock     Deterministic paths (src/core, src/eval, src/trace, src/ml,
                 src/sched, src/scenario, src/kernel) must not read
                 wall-clock time, the C random number generator, or
                 process-global environment state. The determinism contract
                 says every result is a function of the seeds; a stray
                 steady_clock::now() or std::rand() in a fit or scheduling
                 path silently breaks bit-identical replay.
                 Timing belongs to bench/ and src/serve (wall-clock serving
                 stats), which are outside the rule's scope or allowlisted.

  unordered-iter Files that feed flag emission or metric accumulation
                 (src/eval, src/serve, src/core) must not ITERATE an
                 unordered container: iteration order is
                 implementation-defined, so any fold over it (flag sets,
                 confusion counts, float accumulation) breaks the
                 "bit-identical at any thread count" contract. Keyed lookup
                 is fine; range-for / begin() over the container is not.

  trace-access   The paper's online-information discipline: outside
                 src/trace/, code must not reach through the predictor API
                 into TraceStore/CheckpointView internals. Banned tokens are
                 `.store()` (CheckpointView's escape hatch to the whole
                 store) and `.latencies()` (ground-truth latencies, running
                 tasks included — the oracle the discipline exists to deny).
                 The documented privileged sites (the cluster simulator,
                 which plays reality; the FitSession featurization layer)
                 are allowlisted with justifications in
                 scripts/nurd_lint_allowlist.txt.

  lock-table     src/common/sync.h's lock-ordering table is the authoritative
                 inventory of every `Mutex` under src/: each declaration must
                 have a `[mutex] <path-under-src>::<field>` entry documenting
                 its scope and nesting, and every entry must point at a live
                 declaration. Undocumented mutexes are reported at the
                 declaration site; stale entries at the table line (stale
                 detection only runs on a full-tree lint, since a partial
                 file list cannot prove absence).

  thread-spawn   Threads have owners: under src/, `std::thread`, `std::jthread`
                 and `std::async` may appear only in the allowlisted owners
                 (ThreadPool::run_indexed's lanes, the TaskDag's lanes, the
                 serving fleet's shard drivers). Everything else runs its
                 parallel work through ThreadPool::run_indexed or a TaskDag,
                 so every lane is accounted for.
                 `std::thread::hardware_concurrency` and `std::thread::id`
                 spawn nothing and are exempt.

  sort-site      Exact-greedy trees sort once per boosting call, not per
                 node: in the guarded files (src/ml/tree.cpp), `std::sort`
                 and `std::stable_sort` (ranges forms included) may appear
                 only inside allowlisted sites, the quantile binner's
                 constructor and RegressionTree::presort. A site is the
                 function or type whose definition opens at column 0 above
                 the call, so an allowlist token names the site (say
                 `RegressionTree::presort`), not text on the line; a sort
                 that creeps back into the node recursion reports the
                 `RegressionTree::Grower` site.

  simd-site      SIMD code lives in the kernel layer: under src/, the
                 intrinsics headers (<immintrin.h>, <x86intrin.h>,
                 <emmintrin.h>), `_mm*` intrinsics and
                 `__attribute__((target(...)))` may appear only in
                 src/kernel/. There every accelerated primitive sits beside
                 its reference body, behind CPUID dispatch, with a bitwise
                 parity test; an intrinsic elsewhere would bypass all three.

  test-only-header
                 Every header under src/ must be reached by code that ships:
                 some file under src/, bench/, benchmark/ or examples/ other
                 than the header's own .cpp must `#include "<path>"` it. A
                 header only tests include is surface nothing runs — delete
                 it, or allowlist it with a justification. Like stale
                 lock-table detection, this runs only on a full-tree lint.

Usage:
  python3 scripts/nurd_lint.py [--root DIR] [--allowlist FILE] [files...]

With no files, lints every .h/.cpp under <root>/src and runs the full-tree
checks (stale lock-table entries, test-only headers). Exit code 1 when any
finding is reported. Allowlist lines look like

  <rule> <path-relative-to-root> [token]  # justification

and suppress findings of that rule in that file (optionally only for lines
containing the token, or, for sort-site, only inside the site the token
names). Unused allowlist entries are reported as errors so
the file cannot rot.
"""

from __future__ import annotations

import argparse
import os
import posixpath
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# Directories whose results must be a pure function of the seeds.
DETERMINISTIC_DIRS = ("src/core", "src/eval", "src/trace", "src/ml",
                      "src/sched", "src/scenario", "src/kernel")

# Wall-clock / global-entropy / global-state tokens banned there.
WALL_CLOCK_TOKENS = [
    "std::chrono::system_clock",
    "std::chrono::steady_clock",
    "std::chrono::high_resolution_clock",
    "steady_clock::now",
    "system_clock::now",
    "high_resolution_clock::now",
    "std::rand",
    "std::srand",
    "std::random_device",
    "random_device",
    "std::getenv",
    "getenv(",
    "setenv(",
    "time(nullptr)",
    "time(NULL)",
    "clock()",
]

# Directories that feed flag emission / metric accumulation: iteration order
# there is part of the determinism contract.
ORDER_SENSITIVE_DIRS = ("src/eval", "src/serve", "src/core")

# Online-discipline tokens banned outside src/trace/.
TRACE_INTERNAL_TOKENS = [".store()", "->store()", ".latencies()",
                         "->latencies()"]
TRACE_DIR = "src/trace"

# Thread spawns outside the owners (thread-spawn); std::thread's static
# member hardware_concurrency and its id type spawn nothing.
_THREAD_SPAWN = re.compile(
    r"\bstd::(?:thread\b(?!\s*::\s*(?:hardware_concurrency|id)\b)"
    r"|jthread\b|async\b)")

# Files whose sorts are confined to allowlisted sites (sort-site).
SORT_GUARDED_FILES = ("src/ml/tree.cpp",)
_SORT_CALL = re.compile(r"\bstd::(?:ranges::)?(?:stable_)?sort\b")
# A definition opening at column 0: the first qualified name followed by
# '(' (a function), or the name after struct/class (a type).
_SITE_TYPE = re.compile(r"^(?:struct|class)\s+([A-Za-z_][\w:]*)")
_SITE_FUNC = re.compile(r"([A-Za-z_~][\w:~]*)\s*\(")

# SIMD tokens confined to the kernel layer (simd-site).
SIMD_DIR = "src/kernel"
_SIMD_TOKEN = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin)\.h>"
    r"|\b_mm\w*"
    r"|__attribute__\s*\(\(\s*target\s*\(")

# C++ files the linter reads.
SOURCE_SUFFIXES = (".h", ".cpp", ".cc", ".hpp")

# Directories whose includes keep a src/ header alive (test-only-header).
SHIPPING_DIRS = ("src", "bench", "benchmark", "examples")
_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# The lock-ordering table lives here; entries look like
#   [mutex] serve/shard_pool.cpp::mutex_
SYNC_HEADER = "src/common/sync.h"
_MUTEX_DECL = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")
_MUTEX_ENTRY = re.compile(r"\[mutex\]\s+([\w./-]+::\w+)")

_UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)")
_LINE_COMMENT = re.compile(r"//.*$")


@dataclass
class Finding:
    path: str  # root-relative
    line: int  # 1-based
    rule: str
    message: str
    # The enclosing definition, for rules whose allowlist tokens name a site
    # rather than text on the offending line.
    site: str | None = None

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class AllowEntry:
    rule: str
    path: str
    token: str | None
    reason: str
    lineno: int
    used: bool = field(default=False)


def parse_allowlist(text: str) -> list[AllowEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, reason = line.partition("#")
        parts = body.split()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"allowlist line {lineno}: want '<rule> <path> [token]  "
                f"# reason', got: {raw!r}")
        if not reason.strip():
            raise ValueError(
                f"allowlist line {lineno}: entry needs a '# justification'")
        entries.append(
            AllowEntry(rule=parts[0], path=parts[1],
                       token=parts[2] if len(parts) == 3 else None,
                       reason=reason.strip(), lineno=lineno))
    return entries


def _strip_strings_and_comments(line: str, in_block_comment: bool):
    """Blanks out string/char literals, // and /* */ comment spans so token
    scans never fire on prose. Returns (scrubbed_line, still_in_block)."""
    out = []
    i, n = 0, len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        if state == "code":
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and i + 1 < n and line[i + 1] == "/":
                state = "code"
                i += 2
                continue
            i += 1
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
            i += 1
    return "".join(out), state == "block"


def _scrubbed_lines(text: str):
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        scrubbed, in_block = _strip_strings_and_comments(raw, in_block)
        yield lineno, scrubbed


def _under(relpath: str, dirs) -> bool:
    p = relpath.replace(os.sep, "/")
    return any(p == d or p.startswith(d + "/") for d in dirs)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def check_wall_clock(relpath: str, text: str) -> list[Finding]:
    if not _under(relpath, DETERMINISTIC_DIRS):
        return []
    findings = []
    for lineno, line in _scrubbed_lines(text):
        for token in WALL_CLOCK_TOKENS:
            if token in line:
                findings.append(Finding(
                    relpath, lineno, "wall-clock",
                    f"'{token}' in a deterministic path — results must be a "
                    f"pure function of the seeds (move timing to bench/ or "
                    f"src/serve, or allowlist with a justification)"))
                break  # one finding per line is enough
    return findings


def check_unordered_iteration(relpath: str, text: str) -> list[Finding]:
    if not _under(relpath, ORDER_SENSITIVE_DIRS):
        return []
    findings = []
    # Pass 1: names declared (or aliased) as unordered containers anywhere in
    # the file — members, locals, typedef'd locals all end up here.
    unordered_names = set()
    scrubbed = list(_scrubbed_lines(text))
    for _, line in scrubbed:
        for m in _UNORDERED_DECL.finditer(line):
            unordered_names.add(m.group(1))
    # Pass 2: iteration over those names, or directly over an unordered
    # temporary.
    for lineno, line in scrubbed:
        hit = None
        if re.search(r"for\s*\([^)]*:\s*\w*\s*std::unordered_", line):
            hit = "range-for over an unordered container"
        else:
            for name in unordered_names:
                if re.search(rf"for\s*\([^)]*:\s*{re.escape(name)}\b", line):
                    hit = f"range-for over unordered container '{name}'"
                    break
                if re.search(rf"\b{re.escape(name)}\s*\.\s*(?:begin|cbegin)"
                             r"\s*\(", line):
                    hit = f"iterator walk over unordered container '{name}'"
                    break
        if hit:
            findings.append(Finding(
                relpath, lineno, "unordered-iter",
                f"{hit}: iteration order is implementation-defined and this "
                f"file feeds flag emission / metric accumulation — iterate a "
                f"sorted copy or an ordered container instead"))
    return findings


def check_trace_access(relpath: str, text: str) -> list[Finding]:
    if not relpath.replace(os.sep, "/").startswith("src/"):
        return []
    if _under(relpath, (TRACE_DIR,)):
        return []
    findings = []
    for lineno, line in _scrubbed_lines(text):
        for token in TRACE_INTERNAL_TOKENS:
            if token in line:
                findings.append(Finding(
                    relpath, lineno, "trace-access",
                    f"'{token}' outside src/trace/ — the online discipline "
                    f"confines TraceStore/CheckpointView internals to the "
                    f"trace layer and the documented predictor API; "
                    f"privileged sites need an allowlist entry with a "
                    f"justification"))
                break
    return findings


def check_thread_spawn(relpath: str, text: str) -> list[Finding]:
    if not relpath.replace(os.sep, "/").startswith("src/"):
        return []
    findings = []
    for lineno, line in _scrubbed_lines(text):
        m = _THREAD_SPAWN.search(line)
        if m:
            findings.append(Finding(
                relpath, lineno, "thread-spawn",
                f"'{m.group(0)}' outside the thread owners — run parallel "
                f"work through ThreadPool::run_indexed or a core::TaskDag, "
                f"or allowlist a new owner with a justification"))
    return findings


def check_sort_site(relpath: str, text: str) -> list[Finding]:
    if relpath.replace(os.sep, "/") not in SORT_GUARDED_FILES:
        return []
    findings = []
    site = "<file scope>"
    for lineno, line in _scrubbed_lines(text):
        if line[:1].isalpha() or line[:1] == "_":
            m = _SITE_TYPE.match(line) or _SITE_FUNC.search(line)
            if m:
                site = m.group(1)
        m = _SORT_CALL.search(line)
        if m:
            findings.append(Finding(
                relpath, lineno, "sort-site",
                f"'{m.group(0)}' in '{site}' — exact-greedy trees sort once "
                f"per boosting call (RegressionTree::presort), never per "
                f"node; allowlist a new sort site with a justification",
                site=site))
    return findings


def check_simd_site(relpath: str, text: str) -> list[Finding]:
    if not relpath.replace(os.sep, "/").startswith("src/"):
        return []
    if _under(relpath, (SIMD_DIR,)):
        return []
    findings = []
    for lineno, line in _scrubbed_lines(text):
        m = _SIMD_TOKEN.search(line)
        if m:
            findings.append(Finding(
                relpath, lineno, "simd-site",
                f"'{m.group(0)}' outside src/kernel/ — add a KernelOps "
                f"primitive with a reference body and a parity test, and "
                f"call it through kernel::ops()"))
    return findings


RULES = (check_wall_clock, check_unordered_iteration, check_trace_access,
         check_thread_spawn, check_sort_site, check_simd_site)


def check_lock_table(root: str, relpaths: list[str],
                     full_tree: bool) -> list[Finding]:
    """Cross-file rule: every `Mutex` member declared under src/ must have a
    `[mutex] <path-under-src>::<field>` entry in the sync.h lock-ordering
    table; on a full-tree lint, every entry must also resolve to a live
    declaration."""
    entries: dict[str, int] = {}
    sync_path = os.path.join(root, SYNC_HEADER)
    if os.path.exists(sync_path):
        with open(sync_path, encoding="utf-8", errors="replace") as f:
            for lineno, raw in enumerate(f.read().splitlines(), 1):
                m = _MUTEX_ENTRY.search(raw)
                if m:
                    entries[m.group(1)] = lineno

    findings = []
    declared: set[str] = set()
    for relpath in relpaths:
        p = relpath.replace(os.sep, "/")
        if not p.startswith("src/"):
            continue
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        for lineno, line in _scrubbed_lines(text):
            m = _MUTEX_DECL.match(line)
            if not m:
                continue
            key = f"{p[len('src/'):]}::{m.group(1)}"
            declared.add(key)
            if key not in entries:
                findings.append(Finding(
                    relpath, lineno, "lock-table",
                    f"Mutex '{m.group(1)}' has no '[mutex] {key}' entry in "
                    f"{SYNC_HEADER}'s lock-ordering table — document its "
                    f"scope and nesting there"))
    if full_tree:
        for key, lineno in sorted(entries.items()):
            if key not in declared:
                findings.append(Finding(
                    SYNC_HEADER, lineno, "lock-table",
                    f"stale lock-table entry '[mutex] {key}': no such Mutex "
                    f"declaration under src/ — remove or update the entry"))
    return findings


def check_test_only_headers(root: str) -> list[Finding]:
    """Cross-file rule: flags each src/ header that no shipping file
    includes, not counting the header's own .cpp. Includes resolve against
    src/ and against the including file's directory."""
    headers = {p.replace(os.sep, "/") for p in collect_files(root)
               if p.endswith((".h", ".hpp"))}
    reached: set[str] = set()
    for top in SHIPPING_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    for raw in f:
                        m = _INCLUDE.match(raw)
                        if not m:
                            continue
                        for cand in (
                                posixpath.join("src", m.group(1)),
                                posixpath.normpath(posixpath.join(
                                    posixpath.dirname(rel), m.group(1)))):
                            if posixpath.splitext(cand)[0] + ".cpp" != rel:
                                reached.add(cand)
    return [Finding(h, 1, "test-only-header",
                    f"no file under {', '.join(SHIPPING_DIRS)} includes "
                    f"'{h[len('src/'):]}' (its own .cpp aside) — nothing that "
                    f"ships reaches it; delete it or allowlist it with a "
                    f"justification")
            for h in sorted(headers - reached)]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(root: str, relpath: str) -> list[Finding]:
    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as f:
        text = f.read()
    findings = []
    for rule in RULES:
        findings.extend(rule(relpath, text))
    return findings


def apply_allowlist(findings: list[Finding], entries: list[AllowEntry],
                    root: str) -> list[Finding]:
    kept = []
    # Re-read offending lines lazily for token-scoped entries.
    line_cache: dict[str, list[str]] = {}

    def line_text(path: str, lineno: int) -> str:
        if path not in line_cache:
            with open(os.path.join(root, path), encoding="utf-8",
                      errors="replace") as f:
                line_cache[path] = f.read().splitlines()
        lines = line_cache[path]
        return lines[lineno - 1] if 0 < lineno <= len(lines) else ""

    def token_matches(token: str, finding: Finding) -> bool:
        if finding.site is not None:
            return token == finding.site
        return token in line_text(finding.path, finding.line)

    for finding in findings:
        suppressed = False
        for entry in entries:
            if entry.rule != finding.rule:
                continue
            if entry.path != finding.path.replace(os.sep, "/"):
                continue
            if entry.token and not token_matches(entry.token, finding):
                continue
            entry.used = True
            suppressed = True
            break
        if not suppressed:
            kept.append(finding)
    return kept


def collect_files(root: str) -> list[str]:
    out = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith(SOURCE_SUFFIXES):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


def run(root: str, allowlist_path: str | None,
        files: list[str] | None) -> tuple[list[Finding], list[AllowEntry]]:
    """Lints `files` (root-relative; default: all of src/) and returns
    (surviving findings, unused allowlist entries)."""
    entries: list[AllowEntry] = []
    if allowlist_path and os.path.exists(allowlist_path):
        with open(allowlist_path, encoding="utf-8") as f:
            entries = parse_allowlist(f.read())

    relpaths = files if files else collect_files(root)
    findings: list[Finding] = []
    for relpath in relpaths:
        findings.extend(lint_file(root, relpath))
    findings.extend(check_lock_table(root, relpaths, full_tree=files is None))
    if files is None:
        findings.extend(check_test_only_headers(root))
    findings = apply_allowlist(findings, entries, root)
    unused = [e for e in entries if not e.used]
    return findings, unused


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent dir)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             "scripts/nurd_lint_allowlist.txt under root)")
    parser.add_argument("--no-unused-check", action="store_true",
                        help="do not fail on unused allowlist entries")
    parser.add_argument("files", nargs="*",
                        help="root-relative files (default: all of src/)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    allowlist = args.allowlist or os.path.join(root, "scripts",
                                               "nurd_lint_allowlist.txt")

    findings, unused = run(root, allowlist, args.files or None)
    for finding in findings:
        print(finding.render())
    failed = bool(findings)
    if unused and not args.no_unused_check:
        for entry in unused:
            print(f"{allowlist}:{entry.lineno}: unused allowlist entry "
                  f"({entry.rule} {entry.path}) — remove it or fix the path")
        failed = True
    if failed:
        print(f"nurd_lint: {len(findings)} finding(s), "
              f"{len(unused)} unused allowlist entr(ies)", file=sys.stderr)
        return 1
    print(f"nurd_lint: clean ({len(args.files) if args.files else 'all src'}"
          f" files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
