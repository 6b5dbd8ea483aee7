#!/usr/bin/env bash
# Rust line delta of a change, split test vs non-test and code vs comment.
#
#   scripts/loc.sh <base-rev> [<head-rev>]
#
# Counts the `.rs` lines added and removed under crates/, support/ and
# src/ between <base-rev> and <head-rev> (default: the working tree,
# untracked files included). A line is
#   * test when its file sits in a `tests/` or `benches/` directory, or
#     when it lies inside an item marked `#[cfg(test)]` (found by brace
#     counting, which ignores braces in strings and comments);
#   * comment when it starts with `//` after indentation;
#   * not counted when it is blank.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/loc.sh <base-rev> [<head-rev>]" >&2
    exit 2
fi
base=$1
head=${2:-}
git rev-parse --verify --quiet "$base^{commit}" > /dev/null || {
    echo "loc.sh: unknown revision '$base'" >&2
    exit 2
}

python3 - "$base" "$head" <<'EOF'
import re
import subprocess
import sys

base, head = sys.argv[1], sys.argv[2]
ROOTS = ("crates/", "support/", "src/")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def content(rev, path):
    """The lines of `path` at `rev` (the working tree when `rev` is empty)."""
    if rev:
        return git("show", f"{rev}:{path}").splitlines()
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def classify(path, lines):
    """Per line: None (blank) or a (test, comment) pair."""
    whole_test = bool(re.search(r"(^|/)(tests|benches)/", path))
    out, depth, armed, test_depth = [], 0, False, None
    for line in lines:
        text = line.strip()
        in_test = whole_test or armed or test_depth is not None
        if re.match(r"#\[cfg\(test\)\]", text):
            armed, in_test = True, True
        code = re.sub(r"//.*", "", re.sub(r'"(\\.|[^"\\])*"', '""', line))
        for ch in code:
            if ch == "{":
                if armed and test_depth is None:
                    test_depth, armed = depth, False
                depth += 1
            elif ch == "}":
                depth -= 1
                if test_depth is not None and depth == test_depth:
                    test_depth = None
        if armed and code.strip().endswith((";", ",")) and not text.startswith("#"):
            armed = False  # a `#[cfg(test)]` item or field without a body
        out.append(None if not text else (in_test, text.startswith("//")))
    return out


def changed(rev_a, rev_b):
    """(status, path) of the `.rs` files under ROOTS that differ."""
    args = ["diff", "--name-status", "--no-renames", rev_a] + ([rev_b] if rev_b else [])
    files = [tuple(l.split("\t", 1)) for l in git(*args).splitlines()]
    if not rev_b:
        files += [("A", p) for p in git("ls-files", "--others", "--exclude-standard").split()]
    return [(s, p) for s, p in files if p.endswith(".rs") and p.startswith(ROOTS)]


counts = {}  # (test, comment) -> [added, removed]
for status, path in changed(base, head):
    old = classify(path, content(base, path)) if status != "A" else []
    new = classify(path, content(head, path)) if status != "D" else []
    if status in ("A", "D"):
        hunks = [(0, len(old), 0, len(new))]
    else:
        args = ["diff", "-U0", "--no-renames", base] + ([head] if head else []) + ["--", path]
        hunks = []
        for m in re.finditer(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", git(*args), re.M):
            a, an, b, bn = m.group(1), m.group(2), m.group(3), m.group(4)
            an, bn = int(an if an is not None else 1), int(bn if bn is not None else 1)
            hunks.append((int(a) - (an > 0), an, int(b) - (bn > 0), bn))
    for a, an, b, bn in hunks:
        for kind in old[a : a + an]:
            if kind is not None:
                counts.setdefault(kind, [0, 0])[1] += 1
        for kind in new[b : b + bn]:
            if kind is not None:
                counts.setdefault(kind, [0, 0])[0] += 1

print(f"Rust lines under crates/, support/, src/: {base}..{head or 'working tree'}")
print(f"{'':22}{'added':>8}{'removed':>9}{'net':>8}")
total = [0, 0]
for label, key in [
    ("non-test code", (False, False)),
    ("non-test comment", (False, True)),
    ("test code", (True, False)),
    ("test comment", (True, True)),
]:
    add, rem = counts.get(key, [0, 0])
    total[0] += add
    total[1] += rem
    print(f"{label:22}{add:>8}{rem:>9}{add - rem:>+8}")
nt = [sum(counts.get((False, c), [0, 0])[i] for c in (False, True)) for i in (0, 1)]
print(f"{'non-test total':22}{nt[0]:>8}{nt[1]:>9}{nt[0] - nt[1]:>+8}")
print(f"{'total':22}{total[0]:>8}{total[1]:>9}{total[0] - total[1]:>+8}")
EOF
