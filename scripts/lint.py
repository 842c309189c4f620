#!/usr/bin/env python3
"""Repo lint gate for the concurrency discipline (see DESIGN.md).

Checks, over every C++ source file under src/, tests/, bench/, examples/
and tools/:

  1. No bare standard-library synchronization primitives outside
     src/base/sync.{h,cc}: std::mutex, std::recursive_mutex,
     std::shared_mutex, std::lock_guard, std::unique_lock,
     std::scoped_lock, std::shared_lock, std::condition_variable[_any].
     All locking goes through base::Mutex / base::SharedMutex and their
     scoped locks / base::CondVar so the Clang thread-safety annotations
     and the runtime lock-order detector see every acquisition.

  2. Every method whose name ends in `Locked(` declared in a header must
     carry an LBC_REQUIRES(...) annotation (the *Locked suffix is the
     repo's convention for "caller holds the instance lock").

  3. No reference-returning accessor on a line that also names a
     LBC_GUARDED_BY member, i.e. `T& member()` returning a guarded field —
     handing out a reference lets callers bypass the capability.

  4. No explicitly-voided status discards under src/ (tests may): neither
     `(void)SomeCall(...);` nor a whole-statement `Call(...).ok();` — both
     defeat [[nodiscard]] on base::Status silently. A deliberate best-effort
     discard must name itself via base::IgnoreError(expr) so reviewers can
     grep every swallowed error.

  5. Decoder totality (fuzz/REGISTRY): every
     `base::Status Decode*(base::ByteSpan, ...)` declared in a header under
     src/ must be mapped to a fuzz harness in fuzz/REGISTRY, every harness
     named there must be registered in src/fuzz/harness.cc, and every
     registered harness must have a checked-in seed corpus under
     fuzz/corpus/<harness>/. A new untrusted-byte decoder cannot ship
     without a fuzzer pointed at it.

  6. One instrument per fact (DESIGN.md §9): under src/, no class keeps a
     member named `stats_` or `*_stats_`, and no `struct *Stats` exists
     except the value snapshots in STATS_SNAPSHOT_ALLOWLIST. A class that
     counts owns obs instruments and attaches them to the registry; a
     shadow stats struct beside them double-books every event.

Exit status 0 when clean, 1 with findings on stderr.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["src", "tests", "bench", "examples", "tools"]
EXEMPT = {
    os.path.join("src", "base", "sync.h"),
    os.path.join("src", "base", "sync.cc"),
}

BARE_SYNC = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)
# A *Locked method declaration in a header: name ends in Locked, directly
# followed by an argument list. Definitions in .cc files repeat the
# annotation-carrying declaration, so headers are the enforcement point.
LOCKED_DECL = re.compile(r"\b(\w+Locked)\s*\(")
REQUIRES = re.compile(r"\bLBC_REQUIRES\s*\(")
GUARDED_MEMBER = re.compile(r"^\s*.*\b(\w+_)\s+LBC_GUARDED_BY\s*\(")
REF_ACCESSOR = re.compile(r"&\s+(\w+)\s*\(\s*\)\s*(const\s*)?{\s*return\s+(\w+_)\s*;")
# A statement-position void cast discarding a call result:
# `(void)Foo(...);` / `(void)obj->Method(...);` — the statement must end in
# `);` so plain parameter silencers like `(void)arg;` stay legal.
VOID_CAST_CALL = re.compile(r"(?:^\s*|[;{]\s*)\(void\)\s*[\w:]+[\w:.\->\[\]]*\(")
# A call whose .ok() result is itself discarded as a full statement:
# `Foo(...).ok();` with nothing consuming the bool.
OK_DISCARD = re.compile(r"\)\s*\.ok\(\)\s*;")
# Anything that consumes a value between the statement start and the match
# site makes the .ok() a genuine use, not a discard.
CONSUMERS = re.compile(r"(=|\breturn\b|&&|\|\||\?|\bif\b|\bwhile\b|\bfor\b)")


def iter_files():
    for d in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, REPO_ROOT)
                    if rel not in EXEMPT:
                        yield path, rel


def strip_comments(line):
    # Good enough for this codebase: no block comments spanning code lines.
    return re.sub(r"//.*$", "", line)


def check_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.readlines()

    guarded = set()
    for lineno, raw in enumerate(lines, 1):
        line = strip_comments(raw)
        m = GUARDED_MEMBER.match(line)
        if m:
            guarded.add(m.group(1))

    in_header = rel.endswith((".h", ".hpp"))
    in_src = rel.startswith("src" + os.sep)
    if in_src:
        check_stats(rel, lines, findings)
    for lineno, raw in enumerate(lines, 1):
        line = strip_comments(raw)
        if in_src:
            m = VOID_CAST_CALL.search(line)
            if m:
                # Join the logical statement; only a discard of a *call
                # result* (statement ending `);`) is a finding — plain
                # `(void)param;` silencers stay legal.
                stmt = line
                j = lineno
                while j < len(lines) and ";" not in stmt:
                    stmt += strip_comments(lines[j])
                    j += 1
                if re.search(r"\)\s*;", stmt):
                    findings.append(
                        f"{rel}:{lineno}: void-cast discard of a call result; "
                        f"a deliberate status discard must say "
                        f"base::IgnoreError(...) (see src/base/status.h)"
                    )
            for m in OK_DISCARD.finditer(line):
                head = line[: m.start()]
                start = max(head.rfind("{"), head.rfind(";"))
                if not CONSUMERS.search(head[start + 1 :]):
                    findings.append(
                        f"{rel}:{lineno}: statement discards Status via "
                        f".ok(); use base::IgnoreError(...) or handle the "
                        f"error"
                    )
        if BARE_SYNC.search(line):
            findings.append(
                f"{rel}:{lineno}: bare std synchronization primitive; use "
                f"base::Mutex / base::MutexLock / base::CondVar from "
                f"src/base/sync.h"
            )
        if in_header:
            m = LOCKED_DECL.search(line)
            # Declaration heuristics: skip calls (lines ending in ';' are
            # declarations in headers; calls inside inline bodies contain
            # '(' after control keywords or assignments — the reliable
            # signal is the annotation on the same logical statement).
            if m and not REQUIRES.search(line):
                stmt = line
                j = lineno
                while j < len(lines) and ";" not in stmt and "{" not in stmt:
                    stmt += strip_comments(lines[j])
                    j += 1
                if not REQUIRES.search(stmt) and "LBC_NO_THREAD_SAFETY_ANALYSIS" not in stmt:
                    # Ignore uses that are clearly calls: preceded by '.',
                    # '->', or '::' with an object expression.
                    before = line[: m.start(1)]
                    if before.rstrip().endswith((".", "->", "::")) or "=" in before:
                        continue
                    findings.append(
                        f"{rel}:{lineno}: {m.group(1)}() lacks LBC_REQUIRES(...) "
                        f"(the *Locked suffix promises the caller holds the lock)"
                    )
            if guarded:
                m = REF_ACCESSOR.search(line)
                if m and m.group(3) in guarded:
                    findings.append(
                        f"{rel}:{lineno}: accessor {m.group(1)}() returns a "
                        f"reference to guarded member {m.group(3)}; return a "
                        f"copy taken under the lock instead"
                    )


# Rule 6: stats-struct members and declarations under src/.
STATS_MEMBER = re.compile(r"\b((?:\w+_)?stats_)\b")
STATS_STRUCT = re.compile(r"^\s*(?:struct|class)\s+(\w*Stats)\b")
# Value snapshots that stats() fills from the instruments, kept only
# because perfbench/ (benchmark-owned) reads them by field. Each goes when
# a benchmark change moves perfbench to the instruments.
STATS_SNAPSHOT_ALLOWLIST = {
    "RvmStats": os.path.join("src", "rvm", "rvm.h"),
    "ClientStats": os.path.join("src", "lbc", "client.h"),
    "EndpointStats": os.path.join("src", "netsim", "fabric.h"),
}


def check_stats(rel, lines, findings):
    """Rule 6: no shadow stats structs or stats_ members under src/."""
    for lineno, raw in enumerate(lines, 1):
        line = strip_comments(raw)
        for m in STATS_MEMBER.finditer(line):
            findings.append(
                f"{rel}:{lineno}: member {m.group(1)} shadows the obs "
                f"instruments; count with obs::Counter members attached "
                f"via obs::Attachment (one instrument per fact)"
            )
        m = STATS_STRUCT.match(line)
        if m and STATS_SNAPSHOT_ALLOWLIST.get(m.group(1)) != rel:
            findings.append(
                f"{rel}:{lineno}: struct {m.group(1)} keeps a second copy "
                f"of counted facts; expose the instance's obs instruments "
                f"instead"
            )


# A public decoder entry point: takes untrusted bytes, returns Status. The
# bytes come as a borrowed base::ByteSpan or as the base::Buffer a zero-copy
# decoder's records go on to view.
DECODER_DECL = re.compile(
    r"\bbase::Status\s+(Decode\w*)\s*\(\s*"
    r"(?:base::ByteSpan\b|const\s+base::Buffer\s*&)"
)
REGISTRY_LINE = re.compile(r"^(\S+)\s+(\S+)\s*$")
HARNESS_REG = re.compile(r'\{\s*"([\w]+)"\s*,\s*Run\w+\s*,')


def check_registry(findings):
    """Rule 5: headers' Decode* surface <-> fuzz/REGISTRY <-> harness.cc."""
    registry_path = os.path.join(REPO_ROOT, "fuzz", "REGISTRY")
    harness_cc = os.path.join(REPO_ROOT, "src", "fuzz", "harness.cc")
    if not os.path.isfile(registry_path) or not os.path.isfile(harness_cc):
        findings.append(
            "fuzz/REGISTRY or src/fuzz/harness.cc missing; the decoder-"
            "coverage gate cannot run"
        )
        return

    mapped = {}  # decoder function -> harness name
    with open(registry_path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = REGISTRY_LINE.match(line)
            if not m:
                findings.append(
                    f"fuzz/REGISTRY:{lineno}: malformed line (want "
                    f"'<decoder> <harness>'): {line!r}"
                )
                continue
            mapped[m.group(1)] = (m.group(2), lineno)

    registered = set()
    with open(harness_cc, encoding="utf-8", errors="replace") as f:
        for line in f:
            m = HARNESS_REG.search(line)
            if m:
                registered.add(m.group(1))

    # Every header-declared Decode*(ByteSpan or Buffer, ...) in src/ needs a
    # mapping.
    src_root = os.path.join(REPO_ROOT, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if not name.endswith((".h", ".hpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, REPO_ROOT)
            with open(path, encoding="utf-8", errors="replace") as f:
                for lineno, raw in enumerate(f, 1):
                    m = DECODER_DECL.search(strip_comments(raw))
                    if not m:
                        continue
                    fn = m.group(1)
                    if fn not in mapped:
                        findings.append(
                            f"{rel}:{lineno}: decoder {fn}() takes untrusted "
                            f"bytes but has no fuzz harness; add a "
                            f"'{fn} <harness>' row to fuzz/REGISTRY and "
                            f"register the harness in src/fuzz/harness.cc"
                        )

    # Every REGISTRY row must point at a real harness, and every harness
    # must have a pinned seed corpus.
    for fn, (harness, lineno) in sorted(mapped.items()):
        if harness not in registered:
            findings.append(
                f"fuzz/REGISTRY:{lineno}: {fn} maps to harness "
                f"'{harness}', which is not registered in "
                f"src/fuzz/harness.cc"
            )
    for harness in sorted(registered):
        corpus = os.path.join(REPO_ROOT, "fuzz", "corpus", harness)
        if not os.path.isdir(corpus) or not any(
            e.is_file() for e in os.scandir(corpus)
        ):
            findings.append(
                f"fuzz/corpus/{harness}/: registered harness has no "
                f"checked-in seed corpus (run build/gen_corpus fuzz)"
            )


def main():
    findings = []
    for path, rel in iter_files():
        check_file(path, rel, findings)
    check_registry(findings)
    if findings:
        for f in findings:
            print(f, file=sys.stderr)
        print(f"\nlint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
