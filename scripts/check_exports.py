#!/usr/bin/env python3
"""Export check: every value a lib/ interface exports has a caller that is a run.

For each `val` in lib/*/*.mli (outside `module type ... = sig ... end`
blocks, which are contracts rather than exports) the check looks for a
reference in the .ml files under lib, bin, bench, perfbench and examples,
apart from the value's own module.  References are resolved through
`module X = Lib.M[.Sub]` aliases (functor applications included),
`open` / `include` / `let open` / `M.( ... )` and submodule paths such as
`Ss.Table.add_fresh`; a bare name counts wherever its module is opened.
Tests are not callers.

An export with no caller must be listed in scripts/export_allowlist.txt,
one per line as `Lib.Module.value  # reason`, where the reason names the
ROADMAP item that will call it (`item N`) or the test that pins it
(`test_xxx`).  The check exits 1 and names every unlisted export with no
caller, every listed export that now has a caller or no longer exists
(the list only shrinks), and every entry without a reason.

Usage: scripts/check_exports.py [--all]   (run from the repository root;
--all prints every export with no caller, listed or not).
"""

import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "bench", "perfbench", "examples")
ALLOWLIST = os.path.join("scripts", "export_allowlist.txt")


def strip(src):
    """Blank out comments, string and character literals (newlines kept)."""
    out = []
    i, n = 0, len(src)
    depth = 0

    def blank(s):
        return "".join(c if c == "\n" else " " for c in s)

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(blank(src[i : j + 1]))
            i = j + 1
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 20]) if c == "{" else None
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            out.append(blank(src[i:j]))
            i = j
            continue
        if c == "'" and not depth:
            m = re.match(r"'(\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'", src[i:i + 8])
            if m and not (i > 0 and (src[i - 1].isalnum() or src[i - 1] == "_")):
                out.append(blank(m.group(0)))
                i += len(m.group(0))
                continue
        out.append(" " if depth and c != "\n" else c)
        i += 1
    return "".join(out)


def lib_name(d):
    with open(os.path.join(d, "dune")) as f:
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", f.read())
    return m.group(1).capitalize()


def parse_mli(path, prefix):
    """Exports of one interface: (module path tuple, value, line)."""
    text = strip(open(path).read())
    exports = []
    # Open blocks: a module path, or None inside a contract (a
    # `module type`) or a struct/object/begin block.
    stack = [prefix]
    pending = None  # name of a `module X ... : sig` not yet opened
    contract_pending = False
    toks = [(m.group(0), m.start()) for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*|\S", text)]
    lines = [text.count("\n", 0, pos) + 1 for _, pos in toks]
    i = 0
    while i < len(toks):
        t = toks[i][0]
        cur = stack[-1]
        if t == "module":
            nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
            if nxt == "type":
                contract_pending = True
                pending = None
                i += 2
                continue
            pending = nxt
            contract_pending = False
            i += 2
            continue
        if t == "sig":
            if contract_pending or cur is None:
                stack.append(None)
            elif pending is not None:
                stack.append(cur + (pending,))
            else:
                stack.append(None)
            pending = None
            contract_pending = False
        elif t in ("struct", "object", "begin"):
            stack.append(None)
        elif t == "end":
            if len(stack) > 1:
                stack.pop()
        elif t in ("val", "external"):
            pending = None
            contract_pending = False
            if cur is not None and i + 1 < len(toks):
                name = toks[i + 1][0]
                if name == "(":
                    j = i + 2
                    op = ""
                    while j < len(toks) and toks[j][0] != ")":
                        op += toks[j][0]
                        j += 1
                    name = "( " + op + " )"
                exports.append((cur, name, lines[i]))
        elif t in ("include", "exception", "open", "class"):
            pending = None
            contract_pending = False
        i += 1
    return exports


class Tree:
    def __init__(self):
        self.libs = {}  # Lib -> dir
        self.modules = set()  # known module paths (tuples)
        self.exports = []  # (path tuple, value, file, line)
        for d in sorted(os.listdir("lib")):
            full = os.path.join("lib", d)
            if not os.path.isfile(os.path.join(full, "dune")):
                continue
            lib = lib_name(full)
            self.libs[lib] = full
            self.modules.add((lib,))
            for f in sorted(os.listdir(full)):
                if f.endswith(".mli"):
                    mod = (lib, f[:-4].capitalize())
                    self.modules.add(mod)
                    for path, v, ln in parse_mli(os.path.join(full, f), mod):
                        self.modules.add(path)
                        self.exports.append((path, v, os.path.join(full, f), ln))
        self.dir_lib = {d: l for l, d in self.libs.items()}

    def own_file(self, path):
        return os.path.join(self.libs[path[0]], path[1].lower() + ".ml")


def caller_files():
    for top in CALLER_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(root, f)


PATH = r"[A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*"


def split_path(p):
    return tuple(re.sub(r"\s", "", p).split("."))


def references(tree, path):
    """Canonical value references made by one file: a set of
    (module path, value) pairs, where value "*" stands for every value
    of a module the file includes."""
    text = strip(open(path).read())
    home = tree.dir_lib.get(os.path.dirname(path))
    aliases = {}
    opens = set()

    def resolve(p):
        head, rest = p[0], p[1:]
        cands = set()
        for c in aliases.get(head, ()):
            cands.add(c + rest)
        if home and (home, head) in tree.modules:
            cands.add((home, head) + rest)
        for o in list(opens):
            if o + (head,) in tree.modules:
                cands.add(o + (head,) + rest)
        if head in tree.libs:
            cands.add(p)
        return {c for c in cands if c in tree.modules}

    # Aliases and opens, in order of appearance (a later one may use an
    # earlier one); two passes settle forward references within a file.
    decl = re.compile(
        r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*(?::\s*" + PATH + r"\s*)?=\s*(" + PATH + r")"
        r"|\b(?:open!?|include)\s+(" + PATH + r")"
        r"|(" + PATH + r")\s*\.\s*\("
    )
    for _ in range(2):
        for m in decl.finditer(text):
            if m.group(1):
                aliases.setdefault(m.group(1), set()).update(resolve(split_path(m.group(2))))
            else:
                opens.update(resolve(split_path(m.group(3) or m.group(4))))
    refs = set()
    for m in re.finditer(r"(" + PATH + r")\s*\.\s*([a-z_][A-Za-z0-9_']*)", text):
        for c in resolve(split_path(m.group(1))):
            refs.add((c, m.group(2)))
    bare = set(re.findall(r"(?<![A-Za-z0-9_'])[a-z_][A-Za-z0-9_']*", text))
    ops = set(re.findall(r"[!$%&*+\-./:<=>?@^|~]+", text))
    for o in opens:
        for w in bare:
            refs.add((o, w))
        for w in ops:
            refs.add((o, "( " + w + " )"))
    # `include M` in a module re-exports M's values through the including
    # module: count them as used.
    for m in re.finditer(r"\binclude\s+(" + PATH + r")", text):
        for c in resolve(split_path(m.group(1))):
            refs.add((c, "*"))
    return refs


def uncalled(tree):
    used = {}
    for f in caller_files():
        for ref in references(tree, f):
            used.setdefault(ref, set()).add(f)
    out = []
    for path, v, mli, ln in tree.exports:
        own = tree.own_file(path)
        callers = (used.get((path, v), set()) | used.get((path, "*"), set())) - {own}
        if not callers:
            out.append((".".join(path + (v,)), mli, ln))
    return out


def read_allowlist():
    entries, bad = {}, []
    if not os.path.exists(ALLOWLIST):
        return entries, bad
    for n, raw in enumerate(open(ALLOWLIST), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not re.search(r"\bitem \d+\b|\btest_[a-z_]+\b", reason):
            bad.append(f"{ALLOWLIST}:{n}: {name}: the reason names no ROADMAP item or test")
        entries[name] = n
    return entries, bad


def main():
    tree = Tree()
    flagged = uncalled(tree)
    if "--all" in sys.argv[1:]:
        for name, mli, ln in flagged:
            print(f"{mli}:{ln}: {name}")
        return 0
    allow, errors = read_allowlist()
    names = {name for name, _, _ in flagged}
    exported = {".".join(p + (v,)) for p, v, _, _ in tree.exports}
    for name, mli, ln in flagged:
        if name not in allow:
            errors.append(f"{mli}:{ln}: {name} has no caller in {', '.join(CALLER_DIRS)}")
    for name, n in sorted(allow.items(), key=lambda kv: kv[1]):
        if name not in exported:
            errors.append(f"{ALLOWLIST}:{n}: {name} is no longer exported: drop the entry")
        elif name not in names:
            errors.append(f"{ALLOWLIST}:{n}: {name} now has a caller: drop the entry")
    for e in errors:
        print(e)
    print(f"export-check: {len(tree.exports)} exports, {len(allow)} allowlisted, "
          + ("OK" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
