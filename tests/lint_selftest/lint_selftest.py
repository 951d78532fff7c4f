#!/usr/bin/env python3
"""Self-test for tools/mjoin_lint.py.

Proves two properties the lint gate depends on:

  1. Each check actually catches its seeded violation — a lint whose
     regexes silently rot would otherwise keep reporting "clean" forever.
     Every fixtures/bad_*.cc file carries exactly the violations listed
     in EXPECTED below, and the lint must report each of them (matched by
     check name) and nothing else in that file.

  2. The real tree is clean: running the lint with its default scan root
     (src/) reports zero findings, so the gate in tools/ci.sh is a
     regression fence, not a wishlist.

Run directly or via ctest (registered as lint_selftest).
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
LINT = REPO_ROOT / "tools" / "mjoin_lint.py"
FIXTURES = HERE / "fixtures"

# fixture file -> list of check names the lint must report there, one
# entry per expected finding.
EXPECTED = {
    "bad_switch.cc": ["switch-exhaustive", "switch-exhaustive"],
    "bad_frame_cases.cc": ["switch-exhaustive"],
    "bad_clock.cc": ["clock"],
    "bad_new.cc": ["new"],
    "bad_include.cc": ["include"],
    "bad_atomic.cc": ["atomic-order", "atomic-order"],
    "bad_wire.cc": ["wire-primitive", "wire-primitive"],
    "clean.cc": [],
}


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, str(LINT)] + args,
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = []
    for line in proc.stdout.splitlines():
        # path:line: [check] message
        parts = line.split(": [", 1)
        if len(parts) == 2:
            findings.append((parts[0], parts[1].split("]", 1)[0]))
    return proc.returncode, findings


def main():
    failures = []

    # Property 1: each seeded violation is caught, with nothing spurious.
    for name, want_checks in sorted(EXPECTED.items()):
        fixture = FIXTURES / name
        code, findings = run_lint([str(fixture)])
        got_checks = sorted(check for _, check in findings)
        if got_checks != sorted(want_checks):
            failures.append(
                f"{name}: expected findings {sorted(want_checks)}, "
                f"lint reported {got_checks}")
        want_code = 1 if want_checks else 0
        if code != want_code:
            failures.append(
                f"{name}: expected exit {want_code}, got {code}")

    # Property 2: the real tree is clean under the default scan root.
    code, findings = run_lint([])
    if code != 0 or findings:
        failures.append(
            f"src/ tree not clean: exit {code}, "
            f"{len(findings)} finding(s): {findings[:5]}")

    if failures:
        for f in failures:
            print(f"lint_selftest FAIL: {f}")
        return 1
    print(f"lint_selftest OK: {len(EXPECTED)} fixtures + clean-tree run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
