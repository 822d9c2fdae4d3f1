#!/usr/bin/env python3
"""Every export earns a caller.

Lists each `val` in lib/**/*.mli that no other compilation unit of the
tree references, and fails unless tools/exports_allowlist.txt names it.

References are resolved by the compiler, not by searching for names:
`dune build @check` leaves a typed tree (.cmt) for every unit, and
`ocamlcmt -annot` prints each identifier a unit uses with the file and
line where it is declared. Aliases, `open` and `let module` therefore
cannot hide a use, and a common name such as `name` or `pp` cannot fake
one. A reference ocamlcmt cannot resolve to a file is dropped, which
can only make the check fail, never let a dead export pass.

Run from the repository root after `dune build @check`:

    python3 tools/check_exports.py

It exits 1 on an unlisted dead export. The exports only tests use are
listed too, for information; they never fail the check. An allowlist entry that is referenced after all, or names no export,
also fails the check, so the list cannot go stale.
"""

import os
import re
import subprocess
import sys
from collections import defaultdict

BUILD = os.path.join("_build", "default")
ALLOWLIST = os.path.join("tools", "exports_allowlist.txt")
SCANNED = ("lib", "bin", "test", "examples", "perfbench")


def strip_comments_and_strings(src):
    """Blank out comments, string and char literals, keeping newlines so
    line numbers survive."""
    out = list(src)
    i, n, depth = 0, len(src), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        if src.startswith("(*", i):
            start, depth = i, 1
            i += 2
            while i < n and depth:
                if src.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                elif src[i] == '"':
                    i += 1
                    while i < n and src[i] != '"':
                        i += 2 if src[i] == "\\" else 1
                    i += 1
                else:
                    i += 1
            blank(start, i)
        elif src[i] == '"':
            start = i
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            blank(start, i)
        elif re.match(r"'(\\.[^']*|[^\\'])'", src[i:i + 8]) and (
                i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            m = re.match(r"'(\\.[^']*|[^\\'])'", src[i:i + 8])
            blank(i, i + m.end())
            i += m.end()
        else:
            i += 1
    return "".join(out)


TOKEN = re.compile(
    r"\bmodule\s+type\s+(\w+)\s*=\s*sig\b"
    r"|\bmodule\s+(\w+)\s*:\s*sig\b"
    r"|\b(sig|object)\b"
    r"|\bend\b"
    r"|\b(?:val|external)\s+(?:([a-z_][\w']*)|\(\s*([^)\s]+)\s*\))")


def exports_of(mli):
    """[(qualified name, line)] for each val of [mli] outside module types."""
    with open(mli) as f:
        text = strip_comments_and_strings(f.read())
    stack, found = [], []
    for m in TOKEN.finditer(text):
        tok = m.group(0)
        if m.group(1):
            stack.append(("type", m.group(1)))
        elif m.group(2):
            stack.append(("module", m.group(2)))
        elif m.group(3):
            stack.append(("anon", None))
        elif tok == "end":
            if stack:
                stack.pop()
        elif any(kind != "module" for kind, _ in stack):
            continue
        else:
            name = m.group(4) or m.group(5)
            path = ".".join([mod for _, mod in stack] + [name])
            found.append((path, text.count("\n", 0, m.start()) + 1))
    return found


def units():
    """(.cmt path, source directory, qualified module path) of every unit."""
    for top in SCANNED:
        for root, _, files in os.walk(os.path.join(BUILD, top)):
            if not root.endswith("byte"):
                continue
            for f in sorted(files):
                if f.endswith(".cmt"):
                    parts = f[:-4].split("__")
                    modpath = ".".join(p[:1].upper() + p[1:] for p in parts if p)
                    srcdir = os.path.relpath(os.path.dirname(os.path.dirname(root)), BUILD)
                    yield os.path.join(root, f), srcdir, modpath


# `int_ref Path.name "file.mli" line bol cnum "file.mli" ...`; operator
# names print with spaces, as in `Cost.( + )`.
REF = re.compile(r'^\s+int_ref\s+.+?\s+"([^"]+\.mli)"\s+(\d+)\s')


def main():
    if not os.path.isdir(BUILD):
        sys.exit("check_exports: no %s; run `dune build @check` first" % BUILD)

    all_units = list(units())
    if not all_units:
        sys.exit("check_exports: no .cmt files; run `dune build @check` first")
    includes = sorted({os.path.dirname(c) for c, _, _ in all_units})
    inc_args = [a for d in includes for a in ("-I", d)]

    # The interface of each library module, e.g. lib/locks/lock_core.mli
    # for Locks.Lock_core.
    mlis = set()
    for _, srcdir, modpath in all_units:
        if srcdir.startswith("lib") and "." in modpath:
            name = modpath.split(".")[-1]
            mli = os.path.join(srcdir, name[:1].lower() + name[1:] + ".mli")
            if os.path.exists(mli):
                mlis.add(mli)

    exports = {}  # (mli, line) -> qualified name
    for mli in sorted(mlis):
        for path, line in exports_of(mli):
            exports[(mli, line)] = path
    by_name = {(mli, path) for (mli, _), path in exports.items()}

    # (mli, line) -> set of source dirs of the units that reference it.
    users = defaultdict(set)
    for cmt, srcdir, _ in all_units:
        out = subprocess.run(["ocamlcmt", *inc_args, "-annot", "-o", "-", cmt],
                             capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("check_exports: ocamlcmt failed on %s:\n%s" % (cmt, out.stderr))
        for m in map(REF.match, out.stdout.splitlines()):
            if m and (m.group(1), int(m.group(2))) in exports:
                users[(m.group(1), int(m.group(2)))].add(srcdir)

    allow = {}
    if os.path.exists(ALLOWLIST):
        with open(ALLOWLIST) as f:
            for n, raw in enumerate(f, 1):
                entry = raw.split("#", 1)[0].split()
                if not entry:
                    continue
                if len(entry) != 2 or "#" not in raw or not raw.split("#", 1)[1].strip():
                    sys.exit("%s:%d: want `FILE.mli Name.path  # reason`" % (ALLOWLIST, n))
                allow[(entry[0], entry[1])] = n

    dead, test_only, failures = [], [], []
    for (mli, line), path in sorted(exports.items()):
        who = users.get((mli, line), set())
        if not who:
            dead.append((mli, line, path))
        elif all(d == "test" or d.startswith("test/") for d in who):
            test_only.append((mli, line, path))

    for mli, line, path in dead:
        if (mli, path) not in allow:
            failures.append("%s:%d: %s is exported but no other unit uses it" % (mli, line, path))
    dead_keys = {(mli, path) for mli, _, path in dead}
    for key, n in sorted(allow.items(), key=lambda kv: kv[1]):
        if key not in by_name:
            failures.append("%s:%d: allowlisted %s %s is not an export" % (ALLOWLIST, n, *key))
        elif key not in dead_keys:
            failures.append("%s:%d: allowlisted %s %s has a caller; drop the entry" % (ALLOWLIST, n, *key))

    for mli, line, path in test_only:
        print("%s:%d: %s is used only by test/" % (mli, line, path))
    for f in failures:
        print(f)
    print("check_exports: %d exports in %d interfaces, %d allowlisted, %d used only by test/, %d failing"
          % (len(exports), len(mlis), len(allow), len(test_only), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
