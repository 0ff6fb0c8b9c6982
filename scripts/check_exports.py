#!/usr/bin/env python3
"""Export check: every value a lib/ interface exports has a caller that is a run.

For each `val` in lib/*/*.mli (outside `module type ... = sig ... end`
blocks, which are contracts rather than exports) the check looks for a
reference in the .ml files under lib, bin, bench, perfbench and examples,
apart from the value's own module.  References are resolved through
`module X = Lib.M[.Sub]` aliases (functor applications included),
`open` / `include` / `let open` / `M.( ... )` and submodule paths such as
`Ss.Table.add_fresh`; a bare name counts wherever its module is opened.
An `include M` uses only the values of M that the including module's
own interface declares, directly or through an included `module type`
(so `include S` of a session functor checks every value the protocol's
.mli does not re-export).  Tests are not callers.

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


def tokens(text):
    return [(m.group(0), m.start()) for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*|\S", text)]


def path_at(toks, i):
    """The dotted module path starting at token i, as a tuple."""
    out = []
    while i < len(toks) and re.match(r"[A-Z]", toks[i][0]):
        out.append(toks[i][0])
        if i + 2 < len(toks) and toks[i + 1][0] == "." and re.match(r"[A-Z]", toks[i + 2][0]):
            i += 2
        else:
            break
    return tuple(out)


def parse_mli(path, prefix):
    """Exports of one interface, (module path tuple, value, line), and
    its signatures: {module or module type path: (values, included
    module type paths)}."""
    text = strip(open(path).read())
    exports = []
    sigs = {}
    # Open blocks: (path, contract).  A `module type` body is a
    # contract: its values are recorded in [sigs] but are not exports.
    # A struct/object/begin block has no path.
    stack = [(prefix, False)]
    pending = None  # name of a `module [type] X ... : sig` not yet opened
    contract_pending = False
    toks = tokens(text)
    lines = [text.count("\n", 0, pos) + 1 for _, pos in toks]
    i = 0
    while i < len(toks):
        t = toks[i][0]
        cur, contract = stack[-1]
        if t == "module":
            nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
            if nxt == "type":
                contract_pending = True
                pending = toks[i + 2][0] if i + 2 < len(toks) else None
                i += 3
                continue
            pending = nxt
            contract_pending = False
            i += 2
            continue
        if t == "sig":
            if cur is not None and pending is not None:
                stack.append((cur + (pending,), contract or contract_pending))
            else:
                stack.append((None, contract))
            pending = None
            contract_pending = False
        elif t in ("struct", "object", "begin"):
            stack.append((None, contract))
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
                sigs.setdefault(cur, (set(), []))[0].add(name)
                if not contract:
                    exports.append((cur, name, lines[i]))
        elif t == "include":
            pending = None
            contract_pending = False
            inc = path_at(toks, i + 1)
            if cur is not None and inc:
                sigs.setdefault(cur, (set(), []))[1].append(inc)
        elif t in ("exception", "open", "class"):
            pending = None
            contract_pending = False
        i += 1
    return exports, sigs


def ml_scopes(text):
    """The module path, relative to the file, enclosing each `include`
    of an implementation: [(offset, path or None)], None inside an
    anonymous struct (a functor argument, say)."""
    toks = tokens(text)
    stack = [()]
    pending = None
    out = []
    for i, (t, pos) in enumerate(toks):
        if t == "module":
            nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
            pending = nxt if nxt != "type" else None
        elif t == "struct":
            named = pending is not None and i > 0 and toks[i - 1][0] == "=" and stack[-1] is not None
            stack.append(stack[-1] + (pending,) if named else None)
            pending = None
        elif t in ("sig", "object", "begin"):
            stack.append(None)
        elif t == "end":
            if len(stack) > 1:
                stack.pop()
        elif t == "include":
            out.append((pos, stack[-1]))
    return out


class Tree:
    def __init__(self):
        self.libs = {}  # Lib -> dir
        self.modules = set()  # known module paths (tuples)
        self.exports = []  # (path tuple, value, file, line)
        self.sigs = {}  # module or module type path -> (values, includes)
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
                    exports, sigs = parse_mli(os.path.join(full, f), mod)
                    for path, v, ln in exports:
                        self.modules.add(path)
                        self.exports.append((path, v, os.path.join(full, f), ln))
                    self.sigs.update(sigs)
        self.dir_lib = {d: l for l, d in self.libs.items()}

    def interface(self, path, seen=()):
        """The values the interface at [path] (a module or a module
        type) declares, its included module types' values among them."""
        vals, incs = self.sigs.get(path, (set(), []))
        out = set(vals)
        for inc in incs:
            # A relative include names a module type of an enclosing scope.
            for k in range(len(path), -1, -1):
                cand = path[:k] + inc
                if cand in self.sigs and cand not in seen:
                    out |= self.interface(cand, seen + (path,))
                    break
        return out

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
    # `include M` re-exports M's values through the including module,
    # but only those the including module's own interface declares,
    # directly or through an included module type: those count as used.
    # An include in an anonymous struct or in a file with no interface
    # counts nothing.
    scopes = dict(ml_scopes(text))
    own = (home, os.path.basename(path)[:-3].capitalize()) if home else None
    for m in re.finditer(r"\binclude\s+(" + PATH + r")", text):
        scope = scopes.get(m.start())
        if own is None or scope is None:
            continue
        exported = tree.interface(own + scope)
        for c in resolve(split_path(m.group(1))):
            for v in exported:
                refs.add((c, v))
    return refs


def uncalled(tree):
    used = {}
    for f in caller_files():
        for ref in references(tree, f):
            used.setdefault(ref, set()).add(f)
    out = []
    for path, v, mli, ln in tree.exports:
        own = tree.own_file(path)
        callers = used.get((path, v), set()) - {own}
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
