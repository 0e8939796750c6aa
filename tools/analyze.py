#!/usr/bin/env python3
"""Cross-TU semantic analyzer for src/ (the whole-program complement to
tools/lint.py's per-line rules).

Usage: tools/analyze.py [--json] <src-root>

lint.py sees one line at a time; the contracts this repo leans on are
properties of the whole header set — which module includes which, what a
`QueryInto` body does, which CLASS a `mutable` member belongs to.
analyze.py parses every header and source under <src-root> into a
lightweight model (include graph; class declarations with members,
postures, and substrate aliases; brace-matched hot-path function bodies)
and runs four whole-program checks:

  layering      modules (= top-level directories under src/) must
                respect the declared dependency DAG below. Upward or
                undeclared cross-module includes, includes of files
                that do not exist, and include cycles are flagged.
                The declared graph itself is topo-checked on startup,
                so the table cannot rot into a cycle.
  hotpath-alloc the zero-allocation steady-state contract (DESIGN.md
                "scratch memory contract"): inside the body of any
                function whose name ends in `Into` (QueryInto,
                BudgetedTopKInto, ScanAllInto, ... — the scratch-
                threaded entry points; the `Query(...)` compat
                overloads deliberately own a throwaway Scratch and are
                exempt) there must be no `new`, no owning
                std::vector/std::string locals, and no push_back /
                emplace_back whose receiver is not scratch-backed (a
                ScratchVec / MonitoredPool local, a reference bound to
                someone's .vec(), or a caller-recycled out-parameter).
                This is the static complement to
                tests/alloc_regression_test.cc, which only covers
                structures the tests instantiate.
  charge-site   QueryStats::prioritized_queries and ::elements_emitted
                are charged at ISSUANCE, in core/sink.h, and nowhere
                else (plus their definitions/helpers in
                common/stats.h). Any other mutation double-counts
                every internal delegation; see the PR-4 accounting
                centralization pinned by tests/stats_accounting_test.cc.
  posture       thread-safety posture is a per-CLASS property, the way
                serve::ShareableTopKStructure consumes it. (a) a class
                with a non-thread-safe-typed `mutable` member must
                declare kThreadSafeQuery or kExternalMemory INSIDE ITS
                OWN braces — a marker on a sibling class in the same
                file (which satisfies lint.py's file-scope rule) does
                not count; (b) a class holding a member of a
                posture-marked class (directly or via alias chains)
                must either export it through a substrate alias
                (Prioritized / MaxSubstrate / CounterStructure) so the
                concept can recurse, or carry its own marker —
                otherwise the marker is invisible to the
                compile-time gate and a thread-unsafe structure passes
                as shareable.

A finding prints `path:line: [rule] message`; exit status is the number
of findings (0 = clean, capped at 125). Suppress any rule on one line
with `// analyze: <rule>-ok <reason>`. `--json` emits a machine-readable
report on stdout instead.
"""

import json
import re
import sys
from bisect import bisect_right
from pathlib import Path

RULES = ("layering", "hotpath-alloc", "charge-site", "posture")

# --------------------------------------------------------------------------
# Layering: the declared module DAG. A module may include itself and the
# modules listed; everything else is an upward or undeclared edge. The
# geometry instantiations (dominance, range1d, range2d, interval, circle,
# halfspace, enclosure) form one band between core and the wrappers, with
# their internal reuse declared edge by edge. trace sits BELOW core:
# cost attribution is woven through every reduction's query path
# (core/sink.h spans), so the tracer is vocabulary, not a top layer.
MODULE_DEPS = {
    "common":    set(),
    "trace":     {"common"},
    "core":      {"common", "trace"},
    "audit":     {"common", "core"},
    "dominance": {"common", "core"},
    "range1d":   {"common", "core"},
    "range2d":   {"common", "core", "range1d"},
    "interval":  {"common", "core", "dominance", "range1d"},
    "circle":    {"common", "core", "dominance"},
    "halfspace": {"common", "core", "dominance"},
    "enclosure": {"common", "core", "interval"},
    "em":        {"common", "core", "trace", "range1d"},
    "fault":     {"common", "em"},
    "serve":     {"common", "core", "trace"},
    "federate":  {"common", "core", "serve"},
}

# Charge-site: the only files allowed to mutate the issuance counters.
CHARGE_FIELDS = ("prioritized_queries", "elements_emitted")
CHARGE_SITES = {"core/sink.h", "common/stats.h"}

# Posture: substrate aliases serve/shareable.h recurses through.
SUBSTRATE_ALIASES = ("Prioritized", "MaxSubstrate", "CounterStructure")
THREAD_SAFE_TYPES_RE = re.compile(r"std::(mutex|shared_mutex|atomic)")
MARKER_RE = re.compile(
    r"\bstatic\s+constexpr\s+bool\s+(kThreadSafeQuery|kExternalMemory)\b")

INCLUDE_RE = re.compile(r'^[^\S\n]*#[^\S\n]*include\s+"([^"]+)"', re.M)
NAMESPACE_HEAD_RE = re.compile(r"^\s*(inline\s+)?namespace\b[^()]*$")
CLASS_HEAD_RE = re.compile(
    r"(?:^|\s)(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^;{()]*)?$")
ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:\s*")
MUTATION_TAIL_RE = re.compile(
    r"\b(?:%s)\s*(?:\+\+|--|(?:[-+*/|&^]|<<|>>)=|=(?!=))"
    % "|".join(CHARGE_FIELDS))
MUTATION_HEAD_RE = re.compile(
    r"(?:\+\+|--)\s*(?:[\w\]\[.]|->)*\b(?:%s)\b" % "|".join(CHARGE_FIELDS))
HOT_FN_RE = re.compile(r"\b([A-Za-z_]\w*Into)\s*\(")
NEW_RE = re.compile(r"\bnew\b")
PUSH_RE = re.compile(
    r"((?:\w+(?:\(\))?(?:\.|->))*\w+(?:\(\))?)\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back)\s*\(")


def strip_code(text: str) -> str:
    """Blanks comments and string/char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


class ClassInfo:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.statements = []   # (text, line) at class scope
        self.mutables = []     # (decl_text, line)
        self.markers = []      # marker names declared in THIS class
        self.aliases = {}      # alias name -> target text


class FileModel:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        self.module = rel.split("/", 1)[0] if "/" in rel else ""
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.stripped = strip_code(self.text)
        self._line_starts = [0] + [m.end() for m in
                                   re.finditer(r"\n", self.text)]
        # Matched on the raw text (strip_code blanks string contents, so
        # the target path only exists here); the '#' surviving in the
        # stripped text proves the directive is not inside a comment.
        hash_at = {m.start() for m in re.finditer(r"#", self.stripped)}
        self.includes = [(self.lineno(m.start()), m.group(1))
                         for m in INCLUDE_RE.finditer(self.text)
                         if m.start() + m.group(0).index("#") in hash_at]
        self.classes = []
        self._scan_classes()

    def lineno(self, offset: int) -> int:
        return bisect_right(self._line_starts, offset)

    def suppressed(self, line: int, rule: str) -> bool:
        return (0 < line <= len(self.lines)
                and f"analyze: {rule}-ok" in self.lines[line - 1])

    # -- class/member model -------------------------------------------------
    def _scan_classes(self) -> None:
        text = self.stripped
        stack = []  # ('class', ClassInfo) | ('namespace'|'other', None)
        stmt_start = 0
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "{":
                head = text[stmt_start:i].strip()
                kind = "other"
                info = None
                if NAMESPACE_HEAD_RE.match(head):
                    kind = "namespace"
                elif ("enum" not in head.split()
                      and "(" not in head):
                    m = CLASS_HEAD_RE.search(head)
                    if m:
                        kind = "class"
                        info = ClassInfo(m.group(1), self.lineno(i))
                        self.classes.append(info)
                stack.append((kind, info))
                stmt_start = i + 1
            elif c == "}":
                if stack:
                    stack.pop()
                stmt_start = i + 1
            elif c == ";":
                if stack and stack[-1][0] == "class":
                    stmt = text[stmt_start:i].strip()
                    while True:
                        cut = ACCESS_RE.match(stmt)
                        if not cut:
                            break
                        stmt = stmt[cut.end():]
                    if stmt:
                        line = self.lineno(stmt_start + max(
                            0, text[stmt_start:i].find(stmt[0])))
                        self._record_member(stack[-1][1], stmt, line)
                stmt_start = i + 1
            i += 1

    def _record_member(self, info, stmt, line) -> None:
        info.statements.append((stmt, line))
        m = MARKER_RE.search(stmt)
        if m:
            info.markers.append(m.group(1))
        if stmt.startswith("mutable"):
            info.mutables.append((stmt[len("mutable"):].strip(), line))
        am = re.match(
            r"using\s+(%s)\s*=\s*(.+)$" % "|".join(SUBSTRATE_ALIASES),
            stmt)
        if am:
            info.aliases[am.group(1)] = am.group(2)

    # -- hot-path function bodies -------------------------------------------
    def hot_functions(self):
        """Yields (name, params_text, body_start, body_end) for every
        defined function whose name ends in `Into`."""
        text = self.stripped
        for m in HOT_FN_RE.finditer(text):
            open_paren = m.end() - 1
            close = self._match(text, open_paren, "(", ")")
            if close < 0:
                continue
            j = close + 1
            while True:  # skip qualifiers between signature and body
                k = j
                while k < len(text) and text[k].isspace():
                    k += 1
                q = re.match(r"(const|noexcept|override|final)\b",
                             text[k:])
                if q:
                    j = k + q.end()
                    continue
                j = k
                break
            if j < len(text) and text[j] == "{":
                end = self._match(text, j, "{", "}")
                if end > 0:
                    yield (m.group(1), text[open_paren + 1:close],
                           j + 1, end)

    @staticmethod
    def _match(text, start, op, cl) -> int:
        depth = 0
        for i in range(start, len(text)):
            if text[i] == op:
                depth += 1
            elif text[i] == cl:
                depth -= 1
                if depth == 0:
                    return i
        return -1


# --------------------------------------------------------------------------
# Template-argument-aware scan for `std::vector<...>` / `std::string`
# declarator heads. Returns (end_offset, is_ref_or_ptr, declared_name).
VEC_HEAD_RE = re.compile(r"\bstd::(vector|string)\b")


def parse_owning_decl(text, m):
    i = m.end()
    if i < len(text) and text[i] == "<":
        i = FileModel._match(text, i, "<", ">")
        if i < 0:
            return None
        i += 1
    j = i
    while j < len(text) and text[j].isspace():
        j += 1
    ref = j < len(text) and text[j] in "&*"
    if ref:
        j += 1
        while j < len(text) and text[j].isspace():
            j += 1
    name = re.match(r"[A-Za-z_]\w*", text[j:])
    if not name:
        return None
    k = j + name.end()
    while k < len(text) and text[k].isspace():
        k += 1
    if k >= len(text) or text[k] not in ";={(":
        return None
    return (k, ref, name.group(0))


# Scratch-backed receiver declarations inside a hot body.
SCRATCH_LOCAL_RE = re.compile(
    r"\b(?:std::optional<\s*)?(?:ScratchVec|MonitoredPool)\s*<")
SCRATCH_NAME_RE = re.compile(
    r"\b(?:std::optional<\s*)?(?:ScratchVec|MonitoredPool)\s*"
    r"<(?:[^<>]|<[^<>]*>)*>\s*>?\s*([A-Za-z_]\w*)\s*[;={(]")
VEC_REF_RE = re.compile(
    r"\bstd::vector\s*<(?:[^<>]|<[^<>]*>)*>\s*&\s*([A-Za-z_]\w*)"
    r"\s*=\s*[\w.>\-\[\]()* ]*\.\s*vec\s*\(\)")
PARAM_OUT_RE = re.compile(
    r"\b(?:std::vector|ScratchVec)\s*<(?:[^<>]|<[^<>]*>)*>\s*([*&])\s*"
    r"([A-Za-z_]\w*)")


class Analyzer:
    def __init__(self, root: Path):
        self.root = root
        self.findings = []
        self.models = []
        self._check_dag_acyclic()
        for path in sorted(root.rglob("*.h")) + sorted(root.rglob("*.cc")):
            rel = path.relative_to(root).as_posix()
            self.models.append(FileModel(path, rel))
        self.by_rel = {fm.rel: fm for fm in self.models}
        self.class_by_name = {}
        for fm in self.models:
            for ci in fm.classes:
                self.class_by_name.setdefault(ci.name, (fm, ci))

    def report(self, fm, line, rule, msg) -> None:
        if fm.suppressed(line, rule):
            return
        self.findings.append(
            {"file": fm.rel, "path": str(fm.path), "line": line,
             "rule": rule, "message": msg})

    # -- declared-graph sanity ---------------------------------------------
    def _check_dag_acyclic(self) -> None:
        seen, done = set(), set()

        def visit(mod):
            if mod in done:
                return
            if mod in seen:
                print(f"analyze.py: declared MODULE_DEPS has a cycle "
                      f"through '{mod}' — fix the table", file=sys.stderr)
                sys.exit(2)
            seen.add(mod)
            for dep in MODULE_DEPS.get(mod, ()):
                visit(dep)
            done.add(mod)

        for mod in MODULE_DEPS:
            visit(mod)

    # -- rule: layering -----------------------------------------------------
    def check_layering(self) -> None:
        for fm in self.models:
            if fm.module not in MODULE_DEPS:
                self.report(fm, 1, "layering",
                            f"module '{fm.module}' is not declared in "
                            "tools/analyze.py MODULE_DEPS; add it with "
                            "its allowed dependencies")
                continue
            allowed = MODULE_DEPS[fm.module]
            for line, target in fm.includes:
                if not (self.root / target).exists():
                    self.report(fm, line, "layering",
                                f'include "{target}" does not resolve '
                                "under src/")
                    continue
                dep = target.split("/", 1)[0] if "/" in target else ""
                if dep == fm.module or dep in allowed:
                    continue
                self.report(
                    fm, line, "layering",
                    f"module '{fm.module}' may not include '{dep}' "
                    f"(declared deps: "
                    f"{', '.join(sorted(allowed)) or 'none'}) — an "
                    "upward or undeclared edge in the module DAG")
        self._check_include_cycles()

    def _check_include_cycles(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in self.by_rel}
        reported = set()

        def visit(rel, stack):
            color[rel] = GRAY
            stack.append(rel)
            for line, target in self.by_rel[rel].includes:
                if target not in self.by_rel:
                    continue
                if color[target] == GRAY:
                    cycle = stack[stack.index(target):] + [target]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        self.report(self.by_rel[rel], line, "layering",
                                    "include cycle: "
                                    + " -> ".join(cycle))
                elif color[target] == WHITE:
                    visit(target, stack)
            stack.pop()
            color[rel] = BLACK

        for rel in sorted(self.by_rel):
            if color[rel] == WHITE:
                visit(rel, [])

    # -- rule: charge-site --------------------------------------------------
    def check_charge_site(self) -> None:
        for fm in self.models:
            if fm.rel in CHARGE_SITES:
                continue
            for i, raw in enumerate(fm.stripped.splitlines(), 1):
                if (MUTATION_TAIL_RE.search(raw)
                        or MUTATION_HEAD_RE.search(raw)):
                    self.report(
                        fm, i, "charge-site",
                        "mutates an issuance counter "
                        f"({'/'.join(CHARGE_FIELDS)}) outside "
                        "core/sink.h — issuance is charged exactly once, "
                        "by IssuePrioritized/MonitoredQuery; charging "
                        "elsewhere double-counts internal delegations "
                        "(see tests/stats_accounting_test.cc)")

    # -- rule: hotpath-alloc ------------------------------------------------
    def check_hotpath_alloc(self) -> None:
        for fm in self.models:
            for name, params, b0, b1 in fm.hot_functions():
                body = fm.stripped[b0:b1]
                approved = set()
                for pm in PARAM_OUT_RE.finditer(params):
                    approved.add(pm.group(2))
                for sm in SCRATCH_NAME_RE.finditer(body):
                    approved.add(sm.group(1))
                for rm in VEC_REF_RE.finditer(body):
                    approved.add(rm.group(1))
                for nm in NEW_RE.finditer(body):
                    self.report(fm, fm.lineno(b0 + nm.start()),
                                "hotpath-alloc",
                                f"`new` inside {name}() — the scratch-"
                                "threaded entry points must not allocate "
                                "(zero-allocation steady-state contract)")
                for vm in VEC_HEAD_RE.finditer(body):
                    d = parse_owning_decl(body, vm)
                    if d is None or d[1]:
                        continue
                    self.report(
                        fm, fm.lineno(b0 + vm.start()), "hotpath-alloc",
                        f"owning std::{vm.group(1)} local `{d[2]}` inside "
                        f"{name}() — borrow a pool from the Scratch arena "
                        "(ScratchVec) instead; an owning local allocates "
                        "on every query")
                for pb in PUSH_RE.finditer(body):
                    chain = re.split(r"\.|->", pb.group(1))
                    base = chain[0].replace("()", "")
                    ok = (base in approved
                          or (len(chain) >= 2 and chain[-1] == "elements"
                              and chain[0].replace("()", "") in approved))
                    if not ok:
                        self.report(
                            fm, fm.lineno(b0 + pb.start()),
                            "hotpath-alloc",
                            f"push_back on `{pb.group(1)}` inside {name}() "
                            "— receiver is not a scratch-backed pool "
                            "(ScratchVec/MonitoredPool local, .vec() "
                            "reference, or recycled out-parameter)")

    # -- rule: posture ------------------------------------------------------
    def check_posture(self) -> None:
        marked = {}
        for fm in self.models:
            for ci in fm.classes:
                if ci.markers:
                    marked[ci.name] = True
        # Close the marked set over substrate-alias chains: a class whose
        # alias target names a marked class is itself effectively marked
        # (the concept reaches through it), so wrapping IT also hides
        # markers unless re-exported.
        changed = True
        while changed:
            changed = False
            for fm in self.models:
                for ci in fm.classes:
                    if ci.name in marked:
                        continue
                    for target in ci.aliases.values():
                        if any(re.search(r"\b%s\b" % re.escape(mname),
                                         target) for mname in marked):
                            marked[ci.name] = True
                            changed = True

        for fm in self.models:
            for ci in fm.classes:
                own = bool(ci.markers)
                for decl, line in ci.mutables:
                    if THREAD_SAFE_TYPES_RE.search(decl):
                        continue
                    if own:
                        continue
                    self.report(
                        fm, line, "posture",
                        f"class {ci.name} has mutable query state but "
                        "declares no thread-safety posture INSIDE the "
                        "class — serve::ShareableTopKStructure only sees "
                        "this class's own kThreadSafeQuery/"
                        "kExternalMemory markers (a marker on a sibling "
                        "class in this file does not cover it)")
                if own:
                    continue
                exported = set()
                for target in ci.aliases.values():
                    for mname in marked:
                        if re.search(r"\b%s\b" % re.escape(mname), target):
                            exported.add(mname)
                for stmt, line in ci.statements:
                    if re.match(r"(using|typedef|static|friend|template"
                                r"|class|struct|enum)\b", stmt):
                        continue
                    if "(" in stmt:  # member function or paren-init
                        continue
                    for mname in marked:
                        if (re.search(r"\b%s\b" % re.escape(mname), stmt)
                                and mname not in exported):
                            self.report(
                                fm, line, "posture",
                                f"class {ci.name} holds a {mname} (a "
                                "posture-marked structure) but neither "
                                "exports it through a substrate alias "
                                "(Prioritized/MaxSubstrate/"
                                "CounterStructure) nor declares its own "
                                "marker — the hidden marker makes "
                                "ShareableTopKStructure pass a thread-"
                                "unsafe composite")

    def run(self) -> list:
        self.check_layering()
        self.check_charge_site()
        self.check_hotpath_alloc()
        self.check_posture()
        self.findings.sort(key=lambda f: (f["file"], f["line"]))
        return self.findings


def main(argv: list) -> int:
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    if len(argv) != 1:
        print("usage: analyze.py [--json] <src-root>", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if not root.is_dir():
        print(f"analyze.py: not a directory: {root}", file=sys.stderr)
        return 2
    analyzer = Analyzer(root)
    findings = analyzer.run()
    if as_json:
        print(json.dumps({
            "root": str(root),
            "files": len(analyzer.models),
            "modules": {m: sorted(d) for m, d in MODULE_DEPS.items()},
            "findings": [{k: f[k] for k in ("file", "line", "rule",
                                            "message")}
                         for f in findings],
        }, indent=2))
    else:
        for f in findings:
            print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
        if findings:
            print(f"analyze.py: {len(findings)} finding(s)",
                  file=sys.stderr)
        else:
            print(f"analyze.py: {len(analyzer.models)} files clean")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
