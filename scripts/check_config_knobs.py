#!/usr/bin/env python3
"""CI gate: every field of every configuration struct must be set somewhere.

    scripts/check_config_knobs.py [--list] [--test-only]

Lists every field of every struct under src/ whose name ends in
"Config" (nested `struct Config` included), then searches every .cpp and
.hpp in the repository (build trees excluded) for a write to it. A write
is an assignment (`.f = x`, `->f += x`), a designated initializer
(`{.f = x}`, `{.f{x}}`), or an insert (`.f.push_back(...)`,
`.f[k] = ...`), made through the field itself or through a member path
below it (`cfg.f.g = x` writes `f`). Comparisons (`==`, `!=`, `<=`,
`>=`) and reads do not count. Comments and string literals are ignored.

A field nothing writes is an option nobody uses: make it a named
constant beside the code that reads it, or delete it. The script exits
non-zero when it finds one that is not on the allowlist below, and
prints each as `file:line Struct::field`. `--list` also prints every
field found, written or not. `--test-only` also lists the fields whose
only writers are under tests/: knobs no binary, bench, example or
perfbench workload turns. That list is informational; it does not
change the exit status.

Fields are matched by name, so a write to a same-named field of another
struct counts for both: the gate can miss an unused field, but it never
flags a used one.
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["src", "tests", "bench", "examples", "perfbench"]

# Fields kept although no source file writes them, each with its reason.
ALLOWLIST = {
    ("Runtime::Config", "auth"):
        "carries the token secret seed, a credential a deployment sets from its own store",
    ("GatewayConfig", "endpoint_name"):
        "deployment identity: two gateways embedded on one bus need distinct names",
    ("GatewayConfig", "consumer_name"):
        "deployment identity: the AuthService principal a deployment provisions",
}

ASSIGN = r"(?:=(?!=)|[-+*/%|&^]=|<<=|>>=)"
INSERT = r"\.\s*(?:push_back|emplace_back|push_front|emplace_front|emplace|" \
         r"try_emplace|insert|insert_or_assign|assign)\s*\("
PATH = r"(?:\s*(?:\.|->)\s*\w+|\s*\[[^\]\n]*\])*"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, keeping line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and i > 0 and text[i - 1].isalnum():
            out.append(c)  # a digit separator (0x8000'0000u)
            i += 1
        elif c in "\"'":
            # Raw strings do not occur in the scanned tree; plain escapes do.
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + "\n" * text.count("\n", i, j) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith((".cpp", ".hpp")):
                    yield os.path.join(dirpath, name)


HEAD = re.compile(r"\b(struct|class)\s+(\w+)[^;{()]*$")


def config_fields(text):
    """Yields (struct, field, line) for every data member of a *Config struct."""
    scopes = []   # (qualified name or None, is a class body) per open brace
    stmt = []     # current statement text at the innermost scope
    stmt_line = 1
    line = 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
        if c == "{":
            head = "".join(stmt)
            m = HEAD.search(head)
            inner = scopes[-1][0] if scopes else None
            if m and "=" not in head:
                name = m.group(2)
                if inner:
                    name = inner + "::" + name
                scopes.append((name, True))
                stmt = []
                stmt_line = line
            elif inner and inner.endswith("Config") and scopes[-1][1]:
                # A brace group inside a Config body: an initializer or a
                # member-function body. Skip to its matching brace.
                depth, j = 0, i
                while j < n:
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                line += text.count("\n", i, j)
                if "(" in head.split("=", 1)[0]:
                    stmt = []  # a function body: no ';' follows
                    stmt_line = line
                else:
                    stmt.append("{}")
                i = j + 1
                continue
            else:
                scopes.append((None, False))
                stmt = []
                stmt_line = line
        elif c == "}":
            if scopes:
                scopes.pop()
            stmt = []
            stmt_line = line
        elif c == ";":
            owner = scopes[-1][0] if scopes and scopes[-1][1] else None
            if owner and owner.split("::")[-1].endswith("Config"):
                field = member_name("".join(stmt))
                if field:
                    yield owner, field, stmt_line + leading_newlines("".join(stmt))
            stmt = []
            stmt_line = line
        else:
            stmt.append(c)
        i += 1


def leading_newlines(text):
    return text[: len(text) - len(text.lstrip())].count("\n")


def member_name(stmt):
    s = " ".join(stmt.split())
    if not s or re.match(r"(static|using|friend|typedef|template|enum|public|private|protected)\b", s):
        return None
    decl = s.split("=", 1)[0]
    decl = decl.split("{", 1)[0]
    if "(" in decl:
        return None  # a member-function declaration
    m = re.search(r"(\w+)\s*$", decl)
    return m.group(1) if m else None


def is_written(field, corpus):
    f = re.escape(field)
    return re.search(
        rf"(?:\.|->)\s*{f}\b{PATH}\s*(?:{ASSIGN}|{INSERT})"
        rf"|[{{,]\s*\.{f}\s*\{{",
        corpus) is not None


def main(argv):
    show_all = "--list" in argv
    show_test_only = "--test-only" in argv
    texts = {}
    for path in source_files():
        with open(path, encoding="utf-8") as fh:
            texts[path] = strip_comments_and_strings(fh.read())

    fields = []
    for path, text in texts.items():
        if os.path.relpath(path, ROOT).startswith("src" + os.sep):
            for struct, field, line in config_fields(text):
                fields.append((os.path.relpath(path, ROOT), line, struct, field))

    tests_dir = os.path.join(ROOT, "tests") + os.sep
    tests_corpus = "\n".join(t for p, t in texts.items() if p.startswith(tests_dir))
    other_corpus = "\n".join(t for p, t in texts.items() if not p.startswith(tests_dir))
    unwritten, allowed, test_only = [], [], []
    for rel, line, struct, field in fields:
        written_outside = is_written(field, other_corpus)
        written = written_outside or is_written(field, tests_corpus)
        entry = f"{rel}:{line} {struct}::{field}"
        if written and not written_outside:
            test_only.append(entry)
        if show_all:
            print(("written   " if written else "UNWRITTEN ") + entry)
        if written:
            continue
        if (struct, field) in ALLOWLIST:
            allowed.append(entry)
        else:
            unwritten.append(entry)

    print(f"{len(fields)} config fields, {len(unwritten) + len(allowed)} never written "
          f"({len(allowed)} allowlisted)")
    for entry in allowed:
        print("  allowed: " + entry)
    for entry in unwritten:
        print("  NEVER WRITTEN: " + entry)
    if show_test_only:
        print(f"{len(test_only)} of {len(fields)} config fields are written only under tests/")
        for entry in test_only:
            print("  test-only: " + entry)
    return 1 if unwritten else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
