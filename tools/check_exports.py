#!/usr/bin/env python3
"""Every export earns a caller, and every optional argument a setter.

Lists each `val` in lib/**/*.mli that no other compilation unit of the
tree references, and each optional argument (`?x:`) of such a val that
no unit of lib, bin, examples or perfbench passes, and fails unless
tools/exports_allowlist.txt names it.

References are resolved by the compiler, not by searching for names:
`dune build @check` leaves a typed tree (.cmt) for every unit, and
`ocamlcmt -annot` prints each identifier a unit uses with the file and
line where it is declared. Aliases, `open` and `let module` therefore
cannot hide a use, and a common name such as `name` or `pp` cannot fake
one. A reference ocamlcmt cannot resolve to a file is dropped, which
can only make the check fail, never let a dead export pass.

An optional argument counts as passed when the application that starts
at a resolved reference to its val contains `~x` or `?x` outside
comments and strings and outside brackets: a label inside a nested
`(...)`, `[...]`, `{...}` or `begin ... end` argument belongs to another
application, as in `f ~a:(g ~x ())` or `f (fun () -> h ~x)`.
References from the defining module itself count
too: they resolve to the top-level `let` in the .ml rather than to the
.mli. Calls from test/ do not count, so a knob only tests set fails.

Run from the repository root after `dune build @check`:

    python3 tools/check_exports.py

It exits 1 on an unlisted dead export or unpassed optional argument.
The exports only tests use are listed too, for information; they never
fail the check. An allowlist entry that is referenced (or passed) after
all, or names no export, also fails the check, so the list cannot go
stale.
"""

import os
import re
import subprocess
import sys
from collections import defaultdict

BUILD = os.path.join("_build", "default")
ALLOWLIST = os.path.join("tools", "exports_allowlist.txt")
SCANNED = ("lib", "bin", "test", "examples", "perfbench")
PROGRAM = ("lib", "bin", "examples", "perfbench")


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


# The end of a val's type: the next signature item or the end of its sig.
ITEM_END = re.compile(r"\b(?:val|external|type|exception|module|include|open|class|end)\b")


def optionals(ty):
    """The `?x:` labels of a val type, at the top level of its arrows only:
    an optional argument of a callback parameter is not the val's."""
    found, depth = [], 0
    for m in re.finditer(r"[([{]|[)\]}]|\?\s*([a-z_][\w']*)\s*:", ty):
        tok = m.group(0)
        if tok in "([{":
            depth += 1
        elif tok in ")]}":
            depth -= 1
        elif depth == 0:
            found.append(m.group(1))
    return found


def exports_of(mli):
    """[(qualified name, line, optional argument names)] for each val of
    [mli] outside module types."""
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
            stop = ITEM_END.search(text, m.end())
            ty = text[m.end():stop.start() if stop else len(text)]
            found.append((path, text.count("\n", 0, m.start()) + 1, optionals(ty)))
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


# ocamlcmt -annot prints a location line, then the type and the ident of
# the node there: `"file.ml" line bol cnum "file.ml" line bol cnum`,
# `int_ref Path.name "file.mli" line bol cnum "file.mli" ...` and
# `def name "file.ml" line bol cnum "file.ml" line bol cnum`, where a def
# whose scope ends at cnum -1 is a top-level binding. Operator names
# print with spaces, as in `Cost.( + )`.
LOC = re.compile(r'^"([^"]+)" \d+ \d+ (\d+) "[^"]+" \d+ \d+ (-?\d+)$')
REF = re.compile(r'^\s+int_ref\s+.+?\s+"([^"]+\.mli?)"\s+(\d+)\s+\d+\s+(\d+)\s')
DEF = re.compile(r'^\s+def\s+(\S+)\s+"[^"]+"(?:\s+-?\d+){3}\s+"[^"]+"(?:\s+-?\d+){2}\s+(-?\d+)$')


def annotations(cmt, inc_args):
    """The node spans, resolved references and top-level defs of [cmt]:
    {(file, start): [end]}, [(file, start, end, (file, line, cnum))] and
    [(name, file, start)]."""
    out = subprocess.run(["ocamlcmt", *inc_args, "-annot", "-o", "-", cmt],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("check_exports: ocamlcmt failed on %s:\n%s" % (cmt, out.stderr))
    spans, refs, defs, loc = defaultdict(list), [], [], None
    for line in out.stdout.splitlines():
        m = LOC.match(line)
        if m:
            loc = (m.group(1), int(m.group(2)), int(m.group(3)))
            spans[loc[:2]].append(loc[2])
        elif loc and REF.match(line):
            m = REF.match(line)
            refs.append((*loc, (m.group(1), int(m.group(2)), int(m.group(3)))))
        elif loc and DEF.match(line) and DEF.match(line).group(2) == "-1":
            defs.append((DEF.match(line).group(1), *loc[:2]))
    return spans, refs, defs


_sources = {}


def application(spans, file, start, end):
    """The arguments of the application that starts at the reference
    [start, end) of [file]: the source past the reference of the smallest
    node that encloses it and starts at it or at an opening parenthesis
    just before it (a parenthesized node's span takes in the
    parentheses), with comments and strings blanked. latin-1 keeps string
    offsets equal to ocamlcmt's byte offsets."""
    if file not in _sources:
        try:
            with open(file, encoding="latin-1") as f:
                _sources[file] = strip_comments_and_strings(f.read())
        except OSError:
            _sources[file] = ""
    src, starts = _sources[file], [start]
    while starts[-1] > 0 and src[starts[-1] - 1] in "( \t\n":
        starts.append(starts[-1] - 1)
    app = min((e for s in starts for e in spans.get((file, s), ()) if e > end), default=end)
    return top_level(src[end:app])


BRACKET = re.compile(r"[([{]|[)\]}]|\b(?:begin|struct|sig|object)\b|\bend\b")


def top_level(args):
    """[args] with every bracketed sub-expression blanked, so only the
    application's own labels remain."""
    out, depth, last = [], 0, 0
    for m in BRACKET.finditer(args):
        if depth == 0:
            out.append(args[last:m.start()] + " ")
        tok = m.group(0)
        depth = depth - 1 if tok in ")]}" or tok == "end" else depth + 1
        if depth == 0:
            last = m.end()
        elif depth < 0:
            return "".join(out)
    if depth == 0:
        out.append(args[last:])
    return "".join(out)


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
    options = {}  # (mli, line) -> its optional argument names
    for mli in sorted(mlis):
        for path, line, opts in exports_of(mli):
            exports[(mli, line)] = path
            if opts:
                options[(mli, line)] = opts
    by_name = {(mli, path) for (mli, _), path in exports.items()}
    # (file.ml, top-level name) -> the val with optional arguments that
    # the defining module's own calls reach.
    own = {(mli[:-1], exports[(mli, line)].split(".")[-1]): (mli, line)
           for mli, line in options}

    # (mli, line) -> source dirs of the other units that reference it,
    # and -> the optional arguments that some program unit passes it.
    users, passes = defaultdict(set), defaultdict(set)
    for cmt, srcdir, _ in all_units:
        spans, refs, defs = annotations(cmt, inc_args)
        local = {(f, start): own[(f, name)] for name, f, start in defs if (f, name) in own}
        program = srcdir.split(os.sep)[0] in PROGRAM
        for file, start, end, (tfile, tline, tcnum) in refs:
            if tfile.endswith(".mli"):
                key = (tfile, tline)
                if key in exports:
                    users[key].add(srcdir)
            else:
                key = local.get((tfile, tcnum))
            if key in options and program:
                args = application(spans, file, start, end)
                passes[key].update(x for x in options[key]
                                   if re.search(r"[~?]%s(?![\w'])" % re.escape(x), args))

    allow = {}
    if os.path.exists(ALLOWLIST):
        with open(ALLOWLIST) as f:
            for n, raw in enumerate(f, 1):
                entry = raw.split("#", 1)[0].split()
                if not entry:
                    continue
                if len(entry) not in (2, 3) or not raw.split("#", 1)[1].strip() \
                        or len(entry) == 3 and not entry[2].startswith("?"):
                    sys.exit("%s:%d: want `FILE.mli Name.path [?arg]  # reason`" % (ALLOWLIST, n))
                allow[tuple(entry)] = n

    dead, test_only, unset, failures = [], [], [], []
    for (mli, line), path in sorted(exports.items()):
        who = users.get((mli, line), set())
        if not who:
            dead.append((mli, line, path))
        elif all(d == "test" or d.startswith("test/") for d in who):
            test_only.append((mli, line, path))
        for x in options.get((mli, line), ()):
            if x not in passes[(mli, line)]:
                unset.append((mli, line, path, "?" + x))

    for mli, line, path in dead:
        if (mli, path) not in allow:
            failures.append("%s:%d: %s is exported but no other unit uses it" % (mli, line, path))
    for mli, line, path, x in unset:
        if (mli, path, x) not in allow:
            failures.append("%s:%d: %s %s is passed by no unit of %s"
                            % (mli, line, path, x, " ".join(PROGRAM)))
    stale = {(mli, path) for mli, _, path in dead} | {(mli, path, x) for mli, _, path, x in unset}
    known = by_name | {(mli, exports[(mli, line)], "?" + x)
                       for (mli, line), opts in options.items() for x in opts}
    for key, n in sorted(allow.items(), key=lambda kv: kv[1]):
        if key not in known:
            failures.append("%s:%d: allowlisted %s is not an export" % (ALLOWLIST, n, " ".join(key)))
        elif key not in stale:
            failures.append("%s:%d: allowlisted %s has a caller; drop the entry"
                            % (ALLOWLIST, n, " ".join(key)))

    for mli, line, path in test_only:
        print("%s:%d: %s is used only by test/" % (mli, line, path))
    for f in failures:
        print(f)
    n_opts = sum(len(o) for o in options.values())
    n_allow_opts = sum(1 for key in allow if len(key) == 3)
    print("check_exports: %d exports in %d interfaces, %d allowlisted, %d used only by test/, "
          "%d failing; %d optional arguments, %d allowlisted, %d unused"
          % (len(exports), len(mlis), len(allow) - n_allow_opts, len(test_only),
             len(failures), n_opts, n_allow_opts,
             sum(1 for mli, _, path, x in unset if (mli, path, x) not in allow)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
