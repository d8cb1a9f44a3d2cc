#!/usr/bin/env python3
"""ernn-lint: repo-specific invariant checker for the E-RNN codebase.

Enforces the invariants the compiler cannot see — the complement of
the clang -Wthread-safety leg (which proves lock discipline given the
annotations; this tool proves the annotations and a few hygiene rules
exist in the first place):

  TS001 unguarded-mutex    every base::Mutex / base::SharedMutex
                           member must protect something: at least one
                           ERNN_GUARDED_BY / ERNN_PT_GUARDED_BY /
                           ERNN_REQUIRES[_SHARED] in the same file
                           must name it, or the declaration must carry
                           an explicit `// lint: unguarded(<why>)`
                           waiver.
  TS002 naked-std-sync     std::mutex / std::shared_mutex /
                           std::condition_variable (and the std lock
                           guards) are wrapped by base/sync.hh; using
                           them directly outside src/base/ bypasses
                           the capability analysis. Waiver:
                           `// lint: native-sync(<why>)`.
  TS003 naked-thread       std::thread may only be spawned in
                           src/base/ or at a site carrying a
                           `// lint: thread-spawn(<why>)` waiver (the
                           sanctioned worker-spawn sites).
  ND001 nondeterminism     rand()/srand()/time()/std::random_device
                           outside src/base/random: all randomness
                           goes through base::Rng so runs stay
                           reproducible. Waiver:
                           `// lint: nondeterminism(<why>)`.
  WIRE001 unchecked-reader a file that constructs a wire.hh Reader
                           must also check for trailing bytes
                           (`.done()` / `remainingBytes()`) — a
                           parser that never looks at the cursor end
                           silently accepts trailing garbage. Waiver:
                           `// lint: reader-unchecked(<why>)`.
  INC001 include-hygiene   src/ must not include tests/ or tools/
                           (the library cannot depend on its
                           consumers).
  ACT001 libm-activation   std::tanh outside src/nn/activation.cc:
                           the float datapaths share one activation
                           kernel (nn::tanhAct / applyActivation), and
                           a libm tanh beside it gives a second,
                           differently rounded production activation
                           (an integer LUT built on libm drifts from
                           the float emulation it must equal). Waiver:
                           `// lint: libm-activation(<why>)`.

Scope: src/**/*.{hh,cc}. Waivers are per-line: the marker must sit on
the offending line or the line directly above it, and must name a
reason inside the parentheses — a bare waiver is itself an error
(LINT001). Run with no arguments from anywhere inside the repo; CI
runs it on every push. `--self-test` checks the rules against the
fixtures in tools/lint_fixtures/ (each violation line is marked with
`// expect-lint: CODE`) and fails if any rule over- or under-fires.
"""

import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".hh", ".cc")

WAIVER_RE = re.compile(
    r"//\s*lint:\s*(?P<kind>[a-z-]+)\((?P<why>[^)]*)\)")

# kind accepted by each rule's waiver check
WAIVER_KINDS = {
    "TS001": "unguarded",
    "TS002": "native-sync",
    "TS003": "thread-spawn",
    "ND001": "nondeterminism",
    "WIRE001": "reader-unchecked",
    "ACT001": "libm-activation",
}

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:base::)?(?:Mutex|SharedMutex)\s+"
    r"(?P<name>\w+)\s*;")

NAKED_SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock)\b")

NAKED_THREAD_RE = re.compile(r"std::thread\b")

NONDET_RES = [
    # Bare or std::-qualified rand/srand/time calls; the lookbehinds
    # keep runtime( / localtime( / clock::time_point( quiet.
    re.compile(
        r"(?:(?<=std::)|(?<![\w.:]))(?:rand|srand|time)\s*\("),
    re.compile(r"std::random_device\b"),
]

READER_CTOR_RE = re.compile(r"\bReader\s+\w+\s*(?:\(|=)|\bReader\s*\(")
READER_CHECK_RE = re.compile(r"\.done\s*\(\)|remainingBytes\s*\(")

BAD_INCLUDE_RE = re.compile(
    r'#\s*include\s+"(?:\.\./)*(?:tests|tools)/')

GUARD_REF_RE = re.compile(
    r"ERNN_(?:PT_)?GUARDED_BY\(\s*(\w+)|"
    r"ERNN_REQUIRES(?:_SHARED)?\(\s*([\w.>&-]+(?:\s*,\s*[\w.>&-]+)*)")

LIBM_TANH_RE = re.compile(r"std::tanh\b")

# The one file that may call libm tanh: its PWL tables interpolate
# libm on purpose, so the fixed-point bits never follow the float
# kernel.
ACTIVATION_HOME = "src/nn/activation.cc"

COMMENT_LINE_RE = re.compile(r"^\s*(?://|\*|/\*)")


class Finding:
    def __init__(self, path, line, code, message):
        self.path = path
        self.line = line  # 1-based
        self.code = code
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"


def waived(lines, idx, code, findings, path):
    """True if line idx (0-based) or the line above carries the
    right waiver kind for `code`. A waiver with an empty reason is
    itself reported (LINT001)."""
    want = WAIVER_KINDS.get(code)
    if want is None:
        return False
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = WAIVER_RE.search(lines[probe])
        if m and m.group("kind") == want:
            if not m.group("why").strip():
                findings.append(Finding(
                    path, probe + 1, "LINT001",
                    f"waiver '{want}' must name a reason: "
                    f"// lint: {want}(<why>)"))
            return True
    return False


def strip_strings(line):
    """Blank out string/char literals so tokens inside them don't
    fire rules (comments are kept: waivers and doc text are handled
    separately by callers that care)."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def is_comment(line):
    return bool(COMMENT_LINE_RE.match(line))


def check_file(relpath, text):
    """Run every rule over one file; relpath uses '/' separators and
    is relative to the repo root (rules key off it)."""
    findings = []
    lines = text.splitlines()
    in_base = relpath.startswith("src/base/")
    in_base_random = relpath.startswith("src/base/random")

    # --- TS001: every mutex member guards something -------------------
    guarded = set()
    for line in lines:
        if is_comment(line):
            continue
        for m in GUARD_REF_RE.finditer(line):
            if m.group(1):
                guarded.add(m.group(1))
            if m.group(2):
                for cap in m.group(2).split(","):
                    # ERNN_REQUIRES(entry.mu) / REQUIRES(mu_) both
                    # vouch for the trailing member name.
                    guarded.add(cap.strip().split(".")[-1])
    for i, line in enumerate(lines):
        if is_comment(line):
            continue
        m = MUTEX_MEMBER_RE.match(line)
        if not m:
            continue
        name = m.group("name")
        if name in guarded:
            continue
        if waived(lines, i, "TS001", findings, relpath):
            continue
        findings.append(Finding(
            relpath, i + 1, "TS001",
            f"mutex member '{name}' guards nothing: annotate a field "
            f"ERNN_GUARDED_BY({name}) or waive with "
            f"// lint: unguarded(<why>)"))

    # --- TS002/TS003: naked std synchronization ----------------------
    if not in_base:
        for i, line in enumerate(lines):
            if is_comment(line):
                continue
            code_line = strip_strings(line)
            if NAKED_SYNC_RE.search(code_line):
                if not waived(lines, i, "TS002", findings, relpath):
                    findings.append(Finding(
                        relpath, i + 1, "TS002",
                        "naked std synchronization primitive outside "
                        "src/base/ — use base/sync.hh (base::Mutex, "
                        "base::CondVar, the scoped guards) or waive "
                        "with // lint: native-sync(<why>)"))
            if NAKED_THREAD_RE.search(code_line):
                if not waived(lines, i, "TS003", findings, relpath):
                    findings.append(Finding(
                        relpath, i + 1, "TS003",
                        "std::thread outside src/base/ without a "
                        "// lint: thread-spawn(<why>) waiver — new "
                        "thread-spawn sites widen the concurrency "
                        "surface and must be declared"))

    # --- ND001: nondeterminism outside base/random -------------------
    if not in_base_random:
        for i, line in enumerate(lines):
            if is_comment(line):
                continue
            code_line = strip_strings(line)
            for pattern in NONDET_RES:
                if pattern.search(code_line):
                    if not waived(lines, i, "ND001", findings,
                                  relpath):
                        findings.append(Finding(
                            relpath, i + 1, "ND001",
                            "nondeterministic source (rand/srand/"
                            "time/random_device) outside src/base/"
                            "random — seed through base::Rng or "
                            "waive with "
                            "// lint: nondeterminism(<why>)"))
                    break

    # --- WIRE001: Reader users must check trailing bytes -------------
    if relpath != "src/runtime/wire.hh":
        ctor_lines = [
            i for i, line in enumerate(lines)
            if not is_comment(line)
            and READER_CTOR_RE.search(strip_strings(line))
        ]
        if ctor_lines and not any(
                READER_CHECK_RE.search(strip_strings(l))
                for l in lines if not is_comment(l)):
            i = ctor_lines[0]
            if not waived(lines, i, "WIRE001", findings, relpath):
                findings.append(Finding(
                    relpath, i + 1, "WIRE001",
                    "constructs a wire.hh Reader but never checks "
                    "for trailing bytes (.done() / "
                    "remainingBytes()) — trailing garbage would be "
                    "silently accepted; check, or waive with "
                    "// lint: reader-unchecked(<why>)"))

    # --- INC001: src/ never includes tests/ or tools/ ----------------
    for i, line in enumerate(lines):
        if BAD_INCLUDE_RE.search(line):
            findings.append(Finding(
                relpath, i + 1, "INC001",
                "src/ must not include tests/ or tools/ — the "
                "library cannot depend on its consumers"))

    # --- ACT001: one production activation -------------------------
    if relpath != ACTIVATION_HOME:
        for i, line in enumerate(lines):
            if is_comment(line):
                continue
            if LIBM_TANH_RE.search(strip_strings(line)):
                if not waived(lines, i, "ACT001", findings, relpath):
                    findings.append(Finding(
                        relpath, i + 1, "ACT001",
                        "std::tanh outside src/nn/activation.cc — use "
                        "nn::tanhAct / nn::applyActivation so every "
                        "float datapath rounds alike, or waive with "
                        "// lint: libm-activation(<why>)"))

    return findings


def scan_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith(SRC_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                findings.extend(check_file(rel, fh.read()))
    return findings


EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([A-Z0-9]+(?:\s+[A-Z0-9]+)*)")


def self_test(root):
    """Replay the rules over tools/lint_fixtures/: each fixture line
    marked `// expect-lint: CODE [CODE...]` must produce exactly
    those findings; everything else must stay clean. Fixtures are
    scanned as if they lived under src/serve/ so the base/
    exemptions do not apply."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    total_expected = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith(SRC_EXTENSIONS):
            continue
        path = os.path.join(fixtures, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        pretend = f"src/serve/{name}"
        got = {}
        for f in check_file(pretend, text):
            got.setdefault(f.line, []).append(f.code)
        expected = {}
        for i, line in enumerate(text.splitlines()):
            m = EXPECT_RE.search(line)
            if m:
                expected[i + 1] = m.group(1).split()
                total_expected += len(expected[i + 1])
        for line_no, codes in sorted(expected.items()):
            for code in codes:
                if code not in got.get(line_no, []):
                    failures.append(
                        f"{name}:{line_no}: expected {code}, rule "
                        f"did not fire (got "
                        f"{got.get(line_no, [])})")
        for line_no, codes in sorted(got.items()):
            for code in codes:
                if code not in expected.get(line_no, []):
                    failures.append(
                        f"{name}:{line_no}: unexpected {code} "
                        f"(fixture marks "
                        f"{expected.get(line_no, [])})")
    if failures:
        print("ernn-lint self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    count = sum(1 for n in os.listdir(fixtures)
                if n.endswith(SRC_EXTENSIONS))
    print(f"ernn-lint self-test OK: {count} fixtures, "
          f"{total_expected} expected findings all matched exactly")
    return 0


def find_root(start):
    """Walk up until a directory holding src/ and tools/ appears."""
    d = os.path.abspath(start)
    while True:
        if (os.path.isdir(os.path.join(d, "src"))
                and os.path.isdir(os.path.join(d, "tools"))):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            sys.exit("ernn-lint: cannot find repo root (no src/ + "
                     "tools/ above the working directory); pass "
                     "--root")
        d = parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", help="repository root (default: walk "
                    "up from cwd, falling back to this script's "
                    "parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the rules against "
                    "tools/lint_fixtures/ and exit")
    args = ap.parse_args()

    root = args.root or find_root(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        sys.exit(self_test(root))

    findings = scan_tree(root)
    if findings:
        for f in findings:
            print(f)
        print(f"ernn-lint: {len(findings)} finding(s)")
        sys.exit(1)
    print("ernn-lint: clean")


if __name__ == "__main__":
    main()
