#!/usr/bin/env python3
"""lslint: project-rule linter for invariants clang-tidy cannot express.

Scans C++ sources for repo-specific contracts (DESIGN.md "Static
analysis"): allocation discipline in hot paths, hash-order determinism,
and LS_CHECK diagnostic conventions. Violations print as

    file:line: rule-id: message

and the process exits 1. Run `tools/lslint.py --explain <rule-id>` for the
rationale behind a rule, `--self-test` to prove every rule still fires on
a seeded fixture, and add `path-substring rule-id` lines to
tools/lslint.supp to suppress a known-good site.

Stdlib only; comments, string and char literals are blanked (with line
structure preserved) before any rule pattern runs, so prose mentioning a
banned construct never trips a rule.
"""

import argparse
import os
import re
import signal
import sys
import tempfile

RULES = {
    "alloc-in-parallel-for": (
        "allocation or std::vector growth inside a parallel_for body",
        "parallel_for bodies run on pool threads in the inference hot\n"
        "path. Allocation there serializes on the heap lock, and vector\n"
        "growth reallocates behind pointers other iterations may hold.\n"
        "Hoist buffers out of the lambda or use the scratch arena\n"
        "(nn/scratch.hpp), which hands out thread-local reusable blocks.",
    ),
    "raw-alloc-in-kernel": (
        "naked new/malloc in a GEMM/scratch hot-path file",
        "The GEMM kernels and the scratch arena are the innermost\n"
        "compute loops; PR 8's scratch-arena contract is that steady-state\n"
        "calls never touch the allocator (asserted by\n"
        "ScratchArena.SimdGemmSteadyStateDoesNotReallocate). All buffers\n"
        "come from nn::scratch or are std containers sized once outside\n"
        "the kernel.",
    ),
    "unordered-iteration": (
        "range-for over a std::unordered_map/unordered_set",
        "Hash-order iteration feeding a reduction, a JSON dump, or a\n"
        "cache file breaks the repo's byte-identical determinism\n"
        "guarantees (canonical schedule caches, bit-stable profiles).\n"
        "Iterate a std::map/std::set, or sort before consuming. Lookups\n"
        "into unordered containers are fine — only iteration is flagged.",
    ),
    "check-needs-message": (
        "message-less LS_CHECK( in src/sched, src/noc, or src/tune",
        "Schedule, NoC, and tuner invariants fire on data (schedules,\n"
        "caches, traffic, tuned-store files — the multi-chip hierarchy\n"
        "added chip/stage constraints to all three), not just code bugs;\n"
        "a bare LS_CHECK abort with no diagnostic is undebuggable from a\n"
        "CI log. Use LS_CHECK_MSG with the violated quantity.",
    ),
    "check-include-hygiene": (
        "uses LS_CHECK*/check::kEnabled without including check/check.hpp",
        "The check macros compile to nothing in unchecked builds; a file\n"
        "picking them up transitively can silently lose its asserts when\n"
        "an unrelated include is cleaned up. Include check/check.hpp\n"
        "directly wherever the macros or check::kEnabled appear.",
    ),
}

# Files whose inner loops are the raw-alloc-in-kernel surface.
KERNEL_FILES = ("nn/gemm.cpp", "nn/scratch.cpp", "nn/scratch.hpp")

ALLOC_BAN = re.compile(
    r"\bnew\s|\bmalloc\s*\(|\.push_back\s*\(|\.emplace_back\s*\(|"
    r"\.resize\s*\(|\.reserve\s*\(|std::vector<")
RAW_ALLOC = re.compile(r"\bnew\s|\bmalloc\s*\(")
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set)<[^;{()]*?>\s*&?\s*(\w+)\s*[;={(,]")
RANGE_FOR = re.compile(r"for\s*\([^;)]*:\s*(\w+)\s*\)")
PLAIN_CHECK = re.compile(r"(?<![A-Z_])LS_CHECK\s*\(")
CHECK_USE = re.compile(r"(?<![A-Z_])LS_CHECK(?:_MSG)?\s*\(|check::kEnabled")
CHECK_INCLUDE = re.compile(r'#\s*include\s*"check/check\.hpp"')


def blank_comments_and_strings(text):
    """Returns text with comments and string/char literals replaced by
    spaces, newlines preserved — so offsets and line numbers still map."""
    out = []
    i, n = 0, len(text)
    mode = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode, i = "line", i + 2
                out.append("  ")
            elif c == "/" and nxt == "*":
                mode, i = "block", i + 2
                out.append("  ")
            elif c == '"':
                mode, i = "str", i + 1
                out.append(" ")
            elif c == "'":
                mode, i = "chr", i + 1
                out.append(" ")
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                mode = "code"
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode, i = "code", i + 2
                out.append("  ")
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # str / chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode, i = "code", i + 1
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def call_span(text, open_paren):
    """Returns the end offset of the call whose '(' sits at open_paren."""
    depth, j = 1, open_paren + 1
    while j < len(text) and depth:
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
        j += 1
    return j


def check_alloc_in_parallel_for(path, text, raw, report):
    for m in re.finditer(r"parallel_for\s*\(", text):
        end = call_span(text, m.end() - 1)
        body = text[m.start():end]
        if "[" not in body:  # named callable, not an inline lambda
            continue
        hit = ALLOC_BAN.search(body)
        if hit:
            report(path, line_of(text, m.start() + hit.start()),
                   "alloc-in-parallel-for",
                   "'%s' inside a parallel_for body — hoist the buffer or "
                   "use the scratch arena" % hit.group().strip())


def check_raw_alloc_in_kernel(path, text, raw, report):
    norm = path.replace(os.sep, "/")
    if not norm.endswith(KERNEL_FILES):
        return
    for hit in RAW_ALLOC.finditer(text):
        report(path, line_of(text, hit.start()), "raw-alloc-in-kernel",
               "'%s' in a GEMM/scratch hot-path file" % hit.group().strip())


def check_unordered_iteration(path, text, raw, report):
    names = {m.group(1) for m in UNORDERED_DECL.finditer(text)}
    if not names:
        return
    for m in RANGE_FOR.finditer(text):
        if m.group(1) in names:
            report(path, line_of(text, m.start()), "unordered-iteration",
                   "range-for over unordered container '%s' — hash order "
                   "is nondeterministic" % m.group(1))


def check_needs_message(path, text, raw, report):
    norm = path.replace(os.sep, "/")
    if ("src/sched/" not in norm and "src/noc/" not in norm
            and "src/tune/" not in norm):
        return
    for hit in PLAIN_CHECK.finditer(text):
        report(path, line_of(text, hit.start()), "check-needs-message",
               "message-less LS_CHECK in sched/noc/tune — use LS_CHECK_MSG "
               "with the violated quantity")


def check_include_hygiene(path, text, raw, report):
    norm = path.replace(os.sep, "/")
    if norm.endswith("check/check.hpp"):
        return
    # The include path lives in a string literal, so it is matched against
    # the raw text; macro uses are matched against the blanked text so a
    # comment mentioning LS_CHECK never arms the rule.
    hit = CHECK_USE.search(text)
    if hit and not CHECK_INCLUDE.search(raw):
        report(path, line_of(text, hit.start()), "check-include-hygiene",
               "uses the check macros without including check/check.hpp")


CHECKS = (
    check_alloc_in_parallel_for,
    check_raw_alloc_in_kernel,
    check_unordered_iteration,
    check_needs_message,
    check_include_hygiene,
)


def load_suppressions(repo_root):
    """tools/lslint.supp: one `path-substring rule-id` pair per line
    (# comments and blanks ignored)."""
    supp = []
    path = os.path.join(repo_root, "tools", "lslint.supp")
    if not os.path.exists(path):
        return supp
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[1] not in RULES:
                print("lslint: malformed suppression: %s" % raw.strip(),
                      file=sys.stderr)
                sys.exit(2)
            supp.append((parts[0], parts[1]))
    return supp


def scan_files(paths, suppressions):
    violations = []

    def report(path, line, rule, message):
        norm = path.replace(os.sep, "/")
        for sub, srule in suppressions:
            if sub in norm and srule == rule:
                return
        violations.append((path, line, rule, message))

    for path in paths:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = blank_comments_and_strings(raw)
        for check in CHECKS:
            check(path, text, raw, report)
    return violations


def source_files(root):
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith((".cpp", ".hpp")):
                yield os.path.join(dirpath, name)


FIXTURES = {
    "alloc-in-parallel-for": """
#include "check/check.hpp"
#include "util/parallel.hpp"
void f(std::vector<float>& out) {
  util::parallel_for(0, 8, [&](std::size_t i) {
    out.push_back(static_cast<float>(i));  // grows under the pool
  });
}
""",
    "raw-alloc-in-kernel": """
#include "check/check.hpp"
void gemm_inner() {
  float* buf = new float[64];
  delete[] buf;
}
""",
    "unordered-iteration": """
#include <unordered_map>
#include "check/check.hpp"
int sum() {
  std::unordered_map<int, int> acc;
  int total = 0;
  for (const auto& kv : acc) total += kv.second;
  return total;
}
""",
    "check-needs-message": """
#include "check/check.hpp"
void g(int x) { LS_CHECK(x > 0); }
""",
    "check-include-hygiene": """
void h(int x) { LS_CHECK_MSG(x > 0, "x=%d", x); }
""",
}

CLEAN_FIXTURE = """
#include <map>
#include <vector>
#include "check/check.hpp"
#include "util/parallel.hpp"
// A comment saying malloc( and new  and .push_back( must not trip rules.
int ok(std::vector<float>& out) {
  out.reserve(8);  // growth outside the parallel body is fine
  util::parallel_for(0, 8, [&](std::size_t i) { out[i] = 1.0f; });
  std::map<int, int> acc;
  int total = 0;
  for (const auto& kv : acc) total += kv.second;
  LS_CHECK_MSG(total == 0, "total=%d", total);
  return total;
}
"""


def self_test():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for rule, body in FIXTURES.items():
            # Placement decides which path-scoped rules arm: kernel-file
            # rules need a gemm path, message rules a sched path.
            rel = {
                "raw-alloc-in-kernel": "src/nn/gemm.cpp",
                "check-needs-message": "src/sched/fixture.cpp",
            }.get(rule, "src/sim/fixture.cpp")
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
            found = scan_files([path], [])
            if not any(v[2] == rule for v in found):
                print("self-test FAILED: %s did not fire on its fixture "
                      "(got %s)" % (rule, [v[2] for v in found]))
                failures += 1
            os.remove(path)
        clean = os.path.join(tmp, "src", "sim", "clean.cpp")
        os.makedirs(os.path.dirname(clean), exist_ok=True)
        with open(clean, "w", encoding="utf-8") as f:
            f.write(CLEAN_FIXTURE)
        noise = scan_files([clean], [])
        if noise:
            print("self-test FAILED: clean fixture tripped %s" %
                  [(v[2], v[1]) for v in noise])
            failures += 1
    if failures == 0:
        print("lslint self-test OK: %d rules fire, clean fixture passes" %
              len(FIXTURES))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories to scan (default: src/)")
    ap.add_argument("--explain", metavar="RULE-ID",
                    help="print the rationale for a rule and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on a seeded fixture")
    args = ap.parse_args()

    if args.explain:
        if args.explain not in RULES:
            print("unknown rule '%s'; rules: %s" %
                  (args.explain, ", ".join(sorted(RULES))), file=sys.stderr)
            return 2
        summary, rationale = RULES[args.explain]
        print("%s: %s\n\n%s" % (args.explain, summary, rationale))
        return 0

    if args.self_test:
        return self_test()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = args.paths or [os.path.join(repo_root, "src")]
    files = []
    for t in targets:
        if os.path.isdir(t):
            files.extend(source_files(t))
        else:
            files.append(t)

    violations = scan_files(files, load_suppressions(repo_root))
    for path, line, rule, message in sorted(violations):
        rel = os.path.relpath(path, repo_root)
        print("%s:%d: %s: %s" % (rel, line, rule, message))
    if violations:
        print("lslint: %d violation(s)" % len(violations), file=sys.stderr)
        return 1
    print("lslint: %d files clean" % len(files))
    return 0


if __name__ == "__main__":
    if hasattr(signal, "SIGPIPE"):  # die quietly when piped into head(1)
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
