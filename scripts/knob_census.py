#!/usr/bin/env python3
"""Census of the simulator's settable values.

Lists every leaf field of every struct under src/ whose name ends in Config,
Params or Options, together with the files that set it, grouped as
src/tools/bench, examples and tests. A field is a leaf unless its type names
another census struct (ExperimentConfig::tomcat is not a leaf; the fields of
TomcatConfig are).

A file sets a field when it contains, for the field's name:
  - an assignment or compound assignment, `x.name = ...`, `p->name += ...`;
  - an increment or decrement, `++x.name`, `x.name--`;
  - a designated initializer, `{.name = ...}`;
  - a row of a field table, `row("--clients", o.config.num_clients, ...)`
    or `row("hints", c.hint_capacity, ...)`;
  - a positional aggregate initializer of its struct, which sets the first k
    fields: `QueueingAcquirer::Params{SimTime::millis(100)}`.

When the file declares the receiver with a census type (`ProberConfig pc;`,
`const MySqlConfig& cfg`), `pc.interval = ...` sets only that struct's field;
a receiver declared with another struct of src/ (`FaultSpec spec;`) sets no
census field. A receiver the file declares `auto` (`auto c = base();`)
sets a field only when no other census struct has a field of that name; a
shared name needs an explicitly typed receiver. Any other receiver (a member
`c.kv.replicas`, a variable declared in another file) matches by field name,
so a name shared by two structs counts as set for both.

Usage:
  scripts/knob_census.py                    # table plus totals
  scripts/knob_census.py --check --max-leaves N --max-test-only M
      exit 1 when a field is never set, there are more than N leaf fields, or
      more than M fields are set only by tests
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["src", "tools", "bench", "examples", "tests"]
SOURCE_EXT = (".h", ".hh", ".hpp", ".cc", ".cpp")
GROUPS = {"src": "src/tools/bench", "tools": "src/tools/bench",
          "bench": "src/tools/bench", "examples": "examples", "tests": "tests"}

STRUCT_RE = re.compile(r"\b(struct|class)\s+(\w+)\s*(?:final\s*)?(?::[^;{]*)?\{")
CENSUS_NAME = re.compile(r"(Config|Params|Options)$")


def source_files(dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            for n in sorted(names):
                if n.endswith(SOURCE_EXT):
                    yield os.path.join(base, n)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r'"(?:\\.|[^"\\])*"', '""', text)
    return re.sub(r"//[^\n]*", "", text)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def strip_templates(decl):
    out, depth = [], 0
    for ch in decl:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def top_level_statements(body):
    """Statements at brace depth 0 of a struct body; nested bodies dropped."""
    stmts, cur, depth = [], [], 0
    for ch in body:
        if ch == "{":
            depth += 1
            cur.append(ch)
        elif ch == "}":
            depth -= 1
            cur.append(ch)
            head = "".join(cur).split("{", 1)[0]
            if depth == 0 and "(" in strip_templates(head) and "=" not in head:
                cur = []  # a member function body: no trailing ';'
        elif ch == ";" and depth == 0:
            stmts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    return stmts


def field_of(stmt):
    """(type, name) for a data-member declaration, else None."""
    s = " ".join(stmt.split())
    s = re.sub(r"^(public|private|protected)\s*:\s*", "", s)
    if not s or re.match(r"(static|using|friend|typedef|template|enum|struct|"
                         r"class|union)\b", s):
        return None
    if "operator" in s:
        return None
    head = re.split(r"=|\{", s, maxsplit=1)[0]
    if "(" in strip_templates(head):
        return None
    m = re.match(r"(.*?)\b(\w+)\s*(\[[^\]]*\])?\s*$", head)
    if not m or not m.group(1).strip():
        return None
    return m.group(1).strip(), m.group(2)


def collect_structs():
    """(census structs: qualified name -> [(type, field)] in declaration
    order, names of every other struct or class under src/)."""
    structs, others = {}, set()
    for path in source_files(["src"]):
        text = strip_comments(open(path, encoding="utf-8").read())
        spans = []
        for m in STRUCT_RE.finditer(text):
            start = m.end() - 1
            spans.append((m.group(2), start, matching_brace(text, start)))
        others.update(name for name, _, _ in spans)
        for name, start, end in spans:
            if not CENSUS_NAME.search(name):
                continue
            if name == "Params":  # nested, e.g. BlockingAcquirer::Params
                outer = [n for n, s, e in spans if s < start and end <= e]
                name = "::".join(outer[-1:] + [name])
            body = top_level_statements(text[start + 1:end])
            structs[name] = [f for f in map(field_of, body) if f]
    return structs, others - {q.split("::")[-1] for q in structs}


def accessor(name):
    return r"(?:\.|->)" + re.escape(name) + r"\b"


def setter_patterns(name):
    acc = accessor(name)
    return re.compile(
        acc + r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)"   # (compound) assignment, .name = in {...}
        r"|(?:\+\+|--)\s*[\w.\->\[\]]*" + acc +   # ++x.name
        r"|" + acc + r"\s*(?:\+\+|--)"            # x.name++
        r"|\brow\s*\([^;()]*" + acc + r"\s*,")  # field or flag table row


def top_level_args(text, open_at):
    """Argument count of the brace list opening at text[open_at]."""
    inner = text[open_at + 1:matching_brace(text, open_at)]
    if not inner.strip() or inner.lstrip().startswith("."):
        return 0  # empty, or designated (counted by setter_patterns)
    depth, count = 0, 1
    for ch in inner:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return count


def positional_setters(qual, texts):
    """file -> number of leading fields a positional initializer sets."""
    pat = re.compile(r"\b" + re.escape(qual) + r"(?:\s+\w+)?\s*\{")
    out = {}
    for f, t in texts.items():
        for m in pat.finditer(t):
            if re.search(r"\b(struct|class)\s+$",
                         t[max(0, m.start() - 16):m.start()]):
                continue  # the definition itself
            out[f] = max(out.get(f, 0), top_level_args(t, m.end() - 1))
    return out


def declaration_pattern(structs, others):
    names = sorted({q.split("::")[-1] for q in structs} | others)
    return re.compile(r"\b((?:\w+::)*)(" + "|".join(map(re.escape, names)) +
                      r")\s*[&*]?\s+(\w+)\s*[;=({\[,)]")


def receiver_types(text, structs, decl):
    """variable name -> census structs the file declares it with (empty when
    it declares the variable only with other structs of src/)."""
    out = {}
    for m in decl.finditer(text):
        outer = m.group(1).rstrip(":").split("::")[-1]
        quals = {q for q in structs if q.split("::")[-1] == m.group(2) and
                 ("::" not in q or q == outer + "::" + m.group(2))}
        out.setdefault(m.group(3), set()).update(quals)
    return out


RECEIVER = re.compile(r"(\.|->)?\s*\b(\w+)\s*$")
AUTO_DECL = re.compile(r"\bauto\s*[&*]*\s*(\w+)\s*[=({]")


def sets_field(text, qual, pat, acc, decls, autos, shared):
    """True when a setter of the field in `text` can be credited to `qual`.
    Only a plain variable is looked up in `decls`; one among `autos` counts
    unless the field name is `shared` with another census struct. Any other
    receiver falls back to matching by name."""
    for m in pat.finditer(text):
        a = acc.search(text, m.start(), m.end())
        recv = RECEIVER.search(text, max(0, a.start() - 64), a.start())
        if not recv or recv.group(1):
            return True
        var = recv.group(2)
        if var in decls:
            if qual in decls[var]:
                return True
        elif var not in autos or not shared:
            return True
    return False


def census():
    structs, others = collect_structs()
    census_types = {q.split("::")[-1] for q in structs} | set(structs)
    texts = {os.path.relpath(p, ROOT):
             strip_comments(open(p, encoding="utf-8").read())
             for p in source_files(SCAN_DIRS)}
    decl = declaration_pattern(structs, others)
    decls = {f: receiver_types(t, structs, decl) for f, t in texts.items()}
    autos = {f: set(AUTO_DECL.findall(t)) for f, t in texts.items()}
    owners = {}
    for qual, fields in structs.items():
        for _, fname in fields:
            owners.setdefault(fname, set()).add(qual)
    rows = []
    for qual in sorted(structs):
        positional = positional_setters(qual, texts)
        for i, (ftype, fname) in enumerate(structs[qual]):
            if any(re.search(r"\b" + re.escape(t) + r"\b", ftype)
                   for t in census_types):
                continue  # a nested config, not a leaf
            pat, acc = setter_patterns(fname), re.compile(accessor(fname))
            shared = len(owners[fname]) > 1
            setters = sorted(f for f, t in texts.items()
                             if (fname in t and  # cheap filter first
                                 sets_field(t, qual, pat, acc, decls[f],
                                            autos[f], shared))
                             or positional.get(f, 0) > i)
            groups = sorted({GROUPS[f.split(os.sep)[0]] for f in setters})
            rows.append((qual, fname, groups, setters))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail on a never-set field, or too many leaf or "
                         "test-only fields")
    ap.add_argument("--max-leaves", type=int, default=None,
                    help="ceiling on the leaf field count (with --check)")
    ap.add_argument("--max-test-only", type=int, default=None,
                    help="ceiling on fields set only by tests (with --check)")
    ap.add_argument("--files", action="store_true", help="list setter files")
    args = ap.parse_args()

    rows = census()
    never = [r for r in rows if not r[2]]
    test_only = [r for r in rows if r[2] == ["tests"]]
    for qual, fname, groups, setters in rows:
        where = ", ".join(groups) if groups else "NEVER SET"
        if groups == ["tests"]:
            where = "test-only"
        line = f"{qual + '::' + fname:56} {where}"
        if args.files and setters:
            line += "  [" + " ".join(setters) + "]"
        print(line)
    print(f"leaf fields: {len(rows)}")
    print(f"never set: {len(never)}")
    print(f"set only by tests: {len(test_only)}")

    if not args.check:
        return 0
    ok = True
    for qual, fname, _, _ in never:
        print(f"error: {qual}::{fname} is set by nothing; make it a constant",
              file=sys.stderr)
        ok = False
    if args.max_leaves is not None and len(rows) > args.max_leaves:
        print(f"error: {len(rows)} leaf config fields exceed the ceiling of "
              f"{args.max_leaves}; a new knob raises the ceiling in ci.yml",
              file=sys.stderr)
        ok = False
    if args.max_test_only is not None and len(test_only) > args.max_test_only:
        print(f"error: {len(test_only)} config fields are set only by tests, "
              f"above the ceiling of {args.max_test_only}; make a value only "
              f"tests change a constant", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
