#!/usr/bin/env python3
"""Project-specific lint for the mjoin tree.

Four checks, each enforcing an invariant that neither the compiler nor
clang-tidy expresses:

  switch-exhaustive  Any switch over FrameType or StatusCode must list
                     every enumerator and carry no `default:` label. A
                     default clause would silence -Wswitch, so adding a
                     wire frame or status code could leave a handler
                     silently routing it to an "unexpected" error path.

  clock              Raw clock reads (steady_clock::now, clock_gettime,
                     ...) are banned except at sites annotated with
                     `// lint:allow-clock <reason>` on the same or the
                     previous line. The hot path must not read clocks
                     per batch unless observability is on; the
                     annotation forces every site to state its guard.

  new                Naked `new` / malloc-family allocation is banned
                     except at sites annotated `// lint:allow-new
                     <reason>`. Everything else goes through
                     make_unique/make_shared/containers so ownership is
                     explicit.

  include            Header guards are MJOIN_<PATH>_H_, a .cc includes
                     its own header first, and quoted includes are
                     directory-qualified ("engine/foo.h", not "foo.h").

  atomic-order       Every std::atomic access (.load/.store/.fetch_*/
                     .exchange/.compare_exchange_*) must name an explicit
                     std::memory_order argument, except at sites annotated
                     `// lint:allow-atomic <reason>`. The default
                     seq_cst hides the author's actual ordering intent,
                     which the shm-ring model checker needs spelled out.

FrameType is NOT read from the generated enum in net/wire.h: the member
list and each member's routing class come from the frame table rows in
net/frame_table.h, and an occurrence of MJOIN_FRAME_CASES(NOT_CW) /
MJOIN_FRAME_CASES(NOT_WC) inside a switch body credits exactly the case
labels that selector expands to. The table is therefore the only
definition site a new frame has to touch.

Usage: mjoin_lint.py [paths...]     (default: the repo's src/ tree)
Exit status 1 when any finding is reported, 0 on a clean run.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

# Enum definitions are always read from the canonical headers, so fixture
# files under test can reference FrameType without redefining it.
# FrameType is special: its source of truth is the frame table, not the
# generated enum (see FRAME_TABLE below).
ENUM_SOURCES = {
    "StatusCode": SRC_ROOT / "common" / "status.h",
    "ShmRecordType": SRC_ROOT / "net" / "shm_ring.h",
}

FRAME_TABLE = SRC_ROOT / "net" / "frame_table.h"

# One table row: X(id, Name, "wire-name", KLASS, ...). strip_code() blanks
# the wire-name's characters but keeps the quotes, so the row shape
# survives comment/string stripping.
FRAME_ROW_RE = re.compile(
    r'\bX\(\s*(\d+)\s*,\s*([A-Za-z_]\w*)\s*,\s*"[^"]*"\s*,\s*([A-Z_]+)')

# Which routing classes each MJOIN_FRAME_CASES selector expands into case
# labels for. Must mirror the MJOIN_FRAME_SEL_* macros in frame_table.h.
FRAME_SELECTOR_CLASSES = {
    "NOT_CW": {"WC", "SERVE"},
    "NOT_WC": {"CW", "SERVE"},
}

FRAME_CASES_RE = re.compile(r"\bMJOIN_FRAME_CASES\(\s*([A-Z_]+)\s*\)")
FRAME_TABLE_USE_RE = re.compile(r"\bMJOIN_FRAME_TABLE\(")

CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bgettimeofday\s*\("
)
NEW_RE = re.compile(r"\bnew\b|\b(?:malloc|calloc|realloc)\s*\(")
CASE_RE = re.compile(r"\bcase\s+([A-Za-z_][A-Za-z0-9_:]*)\s*:")
DEFAULT_RE = re.compile(r"\bdefault\s*:")
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)(?:load|store|exchange|fetch_(?:add|sub|and|or|xor)"
    r"|compare_exchange_(?:weak|strong))\s*\(")


def strip_code(text):
    """Blanks comments and string/char literals, preserving line structure.

    Returns the stripped text; the lint scans it so that `new` in a
    comment or "steady_clock" in a string never fires.
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c in "\"'":
                state = c
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # inside a string or char literal
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == state:
                state = None
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def parse_enum(name):
    path = ENUM_SOURCES[name]
    text = strip_code(path.read_text())
    m = re.search(r"enum\s+class\s+" + name + r"\b[^{]*\{(.*?)\}", text,
                  re.DOTALL)
    if not m:
        sys.exit(f"mjoin_lint: cannot find enum {name} in {path}")
    members = []
    for part in m.group(1).split(","):
        em = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)", part)
        if em:
            members.append(em.group(1))
    return members


def parse_frame_table():
    """Returns ([member, ...], {member: klass}) from frame_table.h rows."""
    text = strip_code(FRAME_TABLE.read_text())
    members = []
    klasses = {}
    for m in FRAME_ROW_RE.finditer(text):
        name = "k" + m.group(2)
        members.append(name)
        klasses[name] = m.group(3)
    if not members:
        sys.exit(f"mjoin_lint: no X(...) rows found in {FRAME_TABLE}")
    return members, klasses


class Linter:
    def __init__(self):
        self.findings = []
        self.enums = {name: parse_enum(name) for name in ENUM_SOURCES}
        frame_members, self.frame_klasses = parse_frame_table()
        self.enums["FrameType"] = frame_members

    def report(self, path, line, check, message):
        self.findings.append((path, line, check, message))

    def lint_file(self, path):
        raw = path.read_text()
        code = strip_code(raw)
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()
        self.check_switches(path, code)
        self.check_annotated(path, raw_lines, code_lines, CLOCK_RE, "clock",
                             "lint:allow-clock",
                             "raw clock read; annotate the guard with "
                             "'// lint:allow-clock <reason>' or route "
                             "through the trace recorder")
        self.check_annotated(path, raw_lines, code_lines, NEW_RE, "new",
                             "lint:allow-new",
                             "naked allocation; use make_unique/"
                             "make_shared or annotate with "
                             "'// lint:allow-new <reason>'")
        self.check_includes(path, raw_lines, code_lines)
        self.check_atomic_order(path, raw_lines, code)

    # -- atomic-order -------------------------------------------------------

    def check_atomic_order(self, path, raw_lines, code):
        # Scans the whole stripped text, not line by line: the ordering
        # argument of a compare_exchange often sits on a continuation line
        # inside the call's parentheses.
        for m in ATOMIC_OP_RE.finditer(code):
            open_idx = code.index("(", m.start())
            depth = 0
            close_idx = -1
            for i in range(open_idx, len(code)):
                if code[i] == "(":
                    depth += 1
                elif code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        close_idx = i
                        break
            if close_idx < 0:
                continue  # unbalanced (macro fragment); nothing to judge
            if "memory_order" in code[open_idx:close_idx]:
                continue
            line_no = code.count("\n", 0, m.start()) + 1
            here = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
            prev = raw_lines[line_no - 2] if line_no >= 2 else ""
            if "lint:allow-atomic" in here or "lint:allow-atomic" in prev:
                continue
            self.report(path, line_no, "atomic-order",
                        "atomic access without an explicit std::memory_order"
                        "; name the ordering (or annotate with "
                        "'// lint:allow-atomic <reason>')")

    # -- switch-exhaustive ------------------------------------------------

    def check_switches(self, path, code):
        spans = []  # (open_idx, close_idx) of each switch body
        for m in re.finditer(r"\bswitch\b", code):
            open_idx = code.find("{", m.end())
            if open_idx < 0:
                continue
            depth = 0
            close_idx = -1
            for i in range(open_idx, len(code)):
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                    if depth == 0:
                        close_idx = i
                        break
            if close_idx > 0:
                spans.append((open_idx, close_idx))

        for start, end in spans:
            body = code[start:end]
            # A nested switch owns its labels; mask its body out so the
            # outer switch is judged on its own cases only.
            masked = list(body)
            for s2, e2 in spans:
                if s2 > start and e2 < end:
                    for i in range(s2 - start, e2 - start):
                        if masked[i] != "\n":
                            masked[i] = " "
            body = "".join(masked)
            line = code.count("\n", 0, start) + 1

            cases = CASE_RE.findall(body)
            # An MJOIN_FRAME_CASES(sel) occurrence expands to the case
            # labels of every frame-table row in the selector's classes;
            # credit those members as listed.
            macro_cases = set()
            for sm in FRAME_CASES_RE.finditer(body):
                sel = FRAME_SELECTOR_CLASSES.get(sm.group(1))
                if sel is None:
                    line2 = line + body.count("\n", 0, sm.start())
                    self.report(path, line2, "switch-exhaustive",
                                f"unknown MJOIN_FRAME_CASES selector "
                                f"{sm.group(1)}")
                    continue
                macro_cases.update(m2 for m2, k in self.frame_klasses.items()
                                   if k in sel)
            for enum_name, members in self.enums.items():
                prefix = enum_name + "::"
                used = {c.split("::")[-1] for c in cases if prefix in c}
                if enum_name == "FrameType":
                    used |= macro_cases
                if not used:
                    continue
                missing = [m2 for m2 in members if m2 not in used]
                if missing:
                    self.report(path, line, "switch-exhaustive",
                                f"switch over {enum_name} is missing "
                                f"{', '.join(missing)}")
                if DEFAULT_RE.search(body):
                    self.report(path, line, "switch-exhaustive",
                                f"switch over {enum_name} has a default "
                                "label; list every enumerator instead so "
                                "-Wswitch flags new values")

    # -- annotation-gated patterns ----------------------------------------

    def check_annotated(self, path, raw_lines, code_lines, pattern, check,
                        annotation, message):
        for idx, code_line in enumerate(code_lines):
            if not pattern.search(code_line):
                continue
            here = raw_lines[idx] if idx < len(raw_lines) else ""
            prev = raw_lines[idx - 1] if idx > 0 else ""
            if annotation in here or annotation in prev:
                continue
            self.report(path, idx + 1, check, message)

    # -- include hygiene ---------------------------------------------------

    def check_includes(self, path, raw_lines, code_lines):
        # Include paths are quoted, so they read from the raw lines (the
        # literal-stripper blanks them); commented-out includes are skipped
        # by requiring the stripped line to still start the directive.
        quoted = []  # (line_no, include_path)
        for idx, line in enumerate(raw_lines):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if m and idx < len(code_lines) and \
                    re.match(r'\s*#\s*include\b', code_lines[idx]):
                quoted.append((idx + 1, m.group(1)))

        for line_no, inc in quoted:
            if "/" not in inc:
                self.report(path, line_no, "include",
                            f'include "{inc}" is not directory-qualified')

        try:
            rel = path.resolve().relative_to(SRC_ROOT)
        except ValueError:
            return  # guard naming / own-header rules apply to src/ only

        if path.suffix == ".h":
            expected = "MJOIN_" + re.sub(r"[^A-Za-z0-9]", "_",
                                         str(rel)).upper() + "_"
            guard = None
            for idx, line in enumerate(code_lines):
                m = re.match(r"\s*#\s*ifndef\s+(\S+)", line)
                if m:
                    guard = (idx + 1, m.group(1))
                    break
                if line.strip():
                    break
            if guard is None:
                self.report(path, 1, "include",
                            f"missing header guard {expected}")
            elif guard[1] != expected:
                self.report(path, guard[0], "include",
                            f"header guard {guard[1]} should be {expected}")
        elif path.suffix == ".cc" and quoted:
            own = rel.with_suffix(".h")
            if (SRC_ROOT / own).exists() and quoted[0][1] != str(own):
                self.report(path, quoted[0][0], "include",
                            f'first quoted include should be the own '
                            f'header "{own}"')


def collect_files(paths):
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.h")))
            files.extend(sorted(p.rglob("*.cc")))
        elif p.suffix in (".h", ".cc"):
            files.append(p)
        else:
            sys.exit(f"mjoin_lint: not a C++ source path: {p}")
    return files


def main(argv):
    targets = argv[1:] or [str(SRC_ROOT)]
    linter = Linter()
    files = collect_files(targets)
    if not files:
        sys.exit("mjoin_lint: no .h/.cc files under the given paths")
    for f in files:
        linter.lint_file(f)
    for path, line, check, message in linter.findings:
        try:
            shown = path.resolve().relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: [{check}] {message}")
    n = len(linter.findings)
    if n:
        print(f"mjoin_lint: {n} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"mjoin_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
