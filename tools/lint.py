#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Scans src/ and fuzz/ (the shipped code; tests may do exact-comparison
gymnastics on purpose) and fails with file:line diagnostics on:

  float-eq       Raw == / != where an operand is a floating literal or a
                 known double field (cost, epsilon). Exact floating
                 comparison is the *defining operation* of the dominance
                 predicates, so core/dominance* is exempt wholesale; every
                 other site must either use an epsilon/std::isnan or carry
                 an explicit `// lint: float-eq-ok (<why>)` annotation —
                 deterministic tie-breaks and differential-oracle equality
                 assertions are the two legitimate reasons seen so far.

  unordered-iter Range-for over a std::unordered_{map,set} variable.
                 Hash-order iteration feeding ordered output is a
                 nondeterminism bug (and varies across libstdc++
                 versions); order-independent reductions may annotate the
                 loop line with `// lint: unordered-iter-ok (<why>)`.

  raw-mutex      std::mutex / lock_guard / unique_lock / shared_mutex /
                 condition_variable outside src/util/mutex.h. All
                 synchronization goes through the capability-annotated
                 wrappers (Mutex, MutexLock, ReaderLock, WriterLock,
                 CondVar) so Clang Thread Safety Analysis sees the whole
                 concurrent surface; a raw primitive is a hole in the
                 analysis. Annotate `// lint: raw-mutex-ok (<why>)` for
                 the (so far hypothetical) site that cannot use them.

  guarded-by     A wrapper Mutex/SharedMutex member declared in a file
                 where no SKYUP_GUARDED_BY(...) names it: a mutex that
                 guards nothing the analysis can check is usually a
                 mutex whose data lost its annotations. Function-local
                 mutexes (GUARDED_BY only applies to members/globals)
                 annotate `// lint: guarded-by-ok (<why>)`.

  relaxed        std::memory_order_relaxed without an adjacent
                 `// lint: relaxed-ok (<why>)`. Relaxed atomics are the
                 one concurrency idiom neither the wrappers nor TSA can
                 vouch for, so every site carries its own proof sketch
                 (see docs/algorithms.md, "Static concurrency
                 analysis", for the current allowlist).

  tsa-escape     SKYUP_NO_THREAD_SAFETY_ANALYSIS without an adjacent
                 `// tsa: <why>` comment. The escape hatch silences the
                 analysis for a whole function; the comment is the
                 reviewable justification (currently no site uses
                 the escape).

  trace-span     SKYUP_TRACE_SPAN / _SPAN_Q / _SPAN_VERBOSE whose name
                 argument is not a string literal on the same line. The
                 trace ring stores the name as a borrowed `const char*`
                 without copying, so only a literal (static storage
                 duration) is safe — a stack buffer or std::string
                 .c_str() dangles by the time the Chrome-trace exporter
                 reads it. Span names are also a stable grep/tooling
                 surface (the flight recorder's slow-query log keys on
                 them), so they must be constants anyway. Annotate
                 `// lint: trace-span-literal-ok (<why>)` for a site
                 that can prove static storage another way.

Run: python3 tools/lint.py [--root <repo>]
Exit status 0 = clean, 1 = findings (one per line on stdout).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

FLOAT_LITERAL = r"\d+\.\d*(?:[eE][+-]?\d+)?"
KNOWN_DOUBLE_FIELDS = r"(?:cost|epsilon)"
FLOAT_TERM = rf"(?:[\w.\[\]]*\b(?:{FLOAT_LITERAL}|{KNOWN_DOUBLE_FIELDS})\b)"
FLOAT_EQ_RE = re.compile(
    rf"{FLOAT_TERM}\s*(?:==|!=)(?!=)|(?<![=!<>])(?:==|!=)\s*-?{FLOAT_TERM}"
)
FLOAT_EQ_OK = "lint: float-eq-ok"
FLOAT_EQ_EXEMPT_FILES = re.compile(r"core/dominance[^/]*$")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)"
)
UNORDERED_ITER_OK = "lint: unordered-iter-ok"

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_MUTEX_OK = "lint: raw-mutex-ok"
# The wrapper header is the one place the raw primitives belong.
SYNC_WRAPPER_FILE = "src/util/mutex.h"

# A capability-annotated mutex member/global: optionally `mutable`, the
# wrapper type, a name, then either `;` or an SKYUP_ attribute
# (ACQUIRED_BEFORE/AFTER sandwiches). References (`Mutex&`) and the
# non-Clang `using Mutex = ...` aliases do not match.
GUARDED_BY_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:skyup::)?(?:Shared)?Mutex\s+(\w+)\s*(?=;|SKYUP_)"
)
GUARDED_BY_OK = "lint: guarded-by-ok"

RELAXED_RE = re.compile(r"std::memory_order_relaxed\b")
RELAXED_OK = "lint: relaxed-ok"

TSA_ESCAPE_RE = re.compile(r"SKYUP_NO_THREAD_SAFETY_ANALYSIS\b")
TSA_ESCAPE_OK = "// tsa:"
# The macro's own definition (and doc) lives here.
TSA_MACRO_FILE = "src/util/thread_annotations.h"

# A span macro invocation whose first argument does not start with a
# string literal. Matched on comment/string-stripped code, where a
# literal survives as its opening quote.
TRACE_SPAN_RE = re.compile(
    r"SKYUP_TRACE_SPAN(?:_Q|_VERBOSE)?\s*\((?!\s*\")"
)
TRACE_SPAN_OK = "lint: trace-span-literal-ok"
# The macros' own definitions forward a `name` parameter.
TRACE_MACRO_FILE = "src/obs/trace.h"


def strip_comments_and_strings(line: str) -> str:
    """Blanks out string/char literals and // comments so operators inside
    them cannot trip the regex rules (annotations are read from the raw
    line before stripping)."""
    out = []
    i = 0
    quote = None
    while i < len(line):
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        if line.startswith("//", i):
            break
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path: pathlib.Path, rel: str, findings: list[str]) -> None:
    text = path.read_text()
    lines = text.splitlines()
    unordered_vars: set[str] = set()
    # (lineno, name) of wrapper mutex declarations, checked for
    # SKYUP_GUARDED_BY coverage after the whole file has been read.
    mutex_decls: list[tuple[int, str]] = []

    def annotated(lineno: int, marker: str) -> bool:
        # The annotation may sit on the flagged line itself or in a comment
        # on the two lines above it (80-column comments rarely fit inline).
        return any(
            marker in lines[i]
            for i in range(max(0, lineno - 3), lineno)
        )

    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments_and_strings(raw)

        decl = UNORDERED_DECL_RE.search(code)
        if decl:
            unordered_vars.add(decl.group(1))

        if (
            FLOAT_EQ_RE.search(code)
            and not annotated(lineno, FLOAT_EQ_OK)
            and not FLOAT_EQ_EXEMPT_FILES.search(rel)
        ):
            findings.append(
                f"{rel}:{lineno}: [float-eq] raw ==/!= on a floating value;"
                " compare with a tolerance/std::isnan or annotate"
                f" `// {FLOAT_EQ_OK} (<why>)`"
            )

        if unordered_vars and not annotated(lineno, UNORDERED_ITER_OK):
            loop = re.search(r"for\s*\(.*:\s*(\w+)\s*\)", code)
            if loop and loop.group(1) in unordered_vars:
                findings.append(
                    f"{rel}:{lineno}: [unordered-iter] iterating"
                    f" hash-ordered `{loop.group(1)}`; order must not reach"
                    " output — annotate"
                    f" `// {UNORDERED_ITER_OK} (<why>)` if it cannot"
                )

        if (
            RAW_MUTEX_RE.search(code)
            and rel != SYNC_WRAPPER_FILE
            and not annotated(lineno, RAW_MUTEX_OK)
        ):
            findings.append(
                f"{rel}:{lineno}: [raw-mutex] raw standard-library"
                " synchronization; use the annotated wrappers in"
                " util/mutex.h (Mutex, MutexLock, ReaderLock, WriterLock,"
                f" CondVar) or annotate `// {RAW_MUTEX_OK} (<why>)`"
            )

        decl = GUARDED_BY_DECL_RE.search(code)
        if decl and rel != SYNC_WRAPPER_FILE:
            mutex_decls.append((lineno, decl.group(1)))

        if RELAXED_RE.search(code) and not annotated(lineno, RELAXED_OK):
            findings.append(
                f"{rel}:{lineno}: [relaxed] memory_order_relaxed without"
                " its proof sketch; annotate"
                f" `// {RELAXED_OK} (<why>)` on or above the line"
            )

        if (
            TSA_ESCAPE_RE.search(code)
            and rel != TSA_MACRO_FILE
            and not annotated(lineno, TSA_ESCAPE_OK)
        ):
            findings.append(
                f"{rel}:{lineno}: [tsa-escape]"
                " SKYUP_NO_THREAD_SAFETY_ANALYSIS without a"
                f" `{TSA_ESCAPE_OK} <why>` justification on or above the"
                " line"
            )

        if (
            TRACE_SPAN_RE.search(code)
            and rel != TRACE_MACRO_FILE
            and not annotated(lineno, TRACE_SPAN_OK)
        ):
            findings.append(
                f"{rel}:{lineno}: [trace-span] span name is not a string"
                " literal; the trace ring borrows the pointer, so a"
                " non-literal dangles — use a literal or annotate"
                f" `// {TRACE_SPAN_OK} (<why>)`"
            )

    for lineno, name in mutex_decls:
        if annotated(lineno, GUARDED_BY_OK):
            continue
        covered = re.search(
            rf"SKYUP_(?:PT_)?GUARDED_BY\([^)]*\b{re.escape(name)}\b", text
        )
        if not covered:
            findings.append(
                f"{rel}:{lineno}: [guarded-by] mutex `{name}` guards no"
                " SKYUP_GUARDED_BY member in this file; annotate the data"
                f" it protects or mark `// {GUARDED_BY_OK} (<why>)`"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
    )
    args = parser.parse_args()
    root = args.root

    findings: list[str] = []
    for subdir in ("src", "fuzz"):
        for path in sorted((root / subdir).rglob("*")):
            if path.suffix in (".h", ".cc"):
                lint_file(path, path.relative_to(root).as_posix(), findings)

    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
