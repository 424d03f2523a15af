#!/usr/bin/env python3
"""Repo-invariant linter: concurrency and hygiene rules the compiler cannot see.

The Clang thread-safety annotations (src/util/thread_annotations.h) check
lock protocols; clang-tidy checks general bug patterns. This linter covers
the repo-specific discipline that neither can express:

  raw-thread           std::thread may only be constructed under src/exec/
                       (the morsel-driven execution layer owns all threads;
                       everything else submits to TaskGroup/Executor).
                       std::thread::hardware_concurrency and std::this_thread
                       are fine anywhere.
  libc-rand            rand()/srand()/std::rand are banned everywhere: they
                       share hidden global state across threads and wreck
                       benchmark reproducibility. Use util/rng.h (Rng).
  stats-in-morsel-body stats recording (StatCounter::, PhaseTimer, AddPhase,
                       WorkerShard) must not appear inside a per-morsel
                       lambda (`[..](const Morsel& ..) {..}`): counters are
                       flushed once per worker per loop, never per row or
                       per morsel, so MEMAGG_STATS=ON stays cost-free on the
                       hot path.
  unguarded-global     a mutable namespace-scope global (g_ prefix, or an
                       extern declaration of one) must be std::atomic,
                       const, or carry a GUARDED_BY annotation — otherwise
                       it needs an explicit waiver explaining why it is safe.
  include-guard        headers under src/ use include guards derived from
                       their path: src/hash/cuckoo_map.h guards with
                       MEMAGG_HASH_CUCKOO_MAP_H_.
  raw-node-alloc       node-based structures (src/hash/, src/tree/) must
                       allocate nodes through their Alloc policy
                       (mem/allocator.h), never raw new/delete or
                       ::operator new/delete — otherwise the arena ablation
                       silently measures the wrong allocator. Placement new
                       and `= delete`d members are fine.
  fixed-aggregator-construction
                       library/bench/example code may not construct a fixed
                       aggregator template (HashAggregator<...>,
                       LocalPartitionAggregator<...>, ...) directly: operator
                       choice flows through the engine factory
                       (MakeVectorAggregator) or the adaptive operator
                       (AdaptiveAggregator), so strategy selection stays in
                       one place. The factory (core/engine.cc,
                       sim/traced_engine.cc) and the family headers
                       themselves (src/core/*_aggregator.h, which compose
                       sub-operators) are exempt; tests construct families
                       directly to unit-test them.
  raw-simd-intrinsic   x86 vector intrinsics (_mm*_*, __m128/__m256/__m512)
                       may only appear under src/util/simd* — every other
                       file goes through the SimdOps lanes so the scalar/
                       sse42/avx2 ablation and the -mno-avx2 CI job stay
                       meaningful. _mm_pause in spinlock.h carries a waiver:
                       it is a scheduling hint, not a data kernel.
  raw-key-type         key-typed declarations in the key-consuming layers
                       (src/hash/, src/tree/, src/core/, bench/) must use
                       the EncodedKey alias (util/encoded_key.h), not raw
                       `uint64_t key` — the alias is the single place the
                       encoded key width is defined, so codec refactors
                       (data/key_codec.h packs composite keys into it) stay
                       one-line. Derived names (key_count, keys) and other
                       uint64_t values are fine; legacy paper benches carry
                       waivers.
  ref-capture-in-task  a lambda submitted to a task group or pool
                       (`.Submit([&]...` / `.Schedule([&]...`) may not use a
                       default by-reference capture: tasks outlive statements,
                       so every captured local must be named (visible in the
                       capture list, where astlint's morsel-capture dataflow
                       rule checks it against a dominating Wait()) or taken
                       by value.
  unconstrained-typename
                       headers under src/core/ may not declare bare
                       `template <typename X>` / `template <class X>`
                       parameters: the operator layer is where every
                       pluggable role has a named contract, so parameters
                       must use a concept (core/concepts.h, mem/allocator.h,
                       util/tracer.h) or carry a waiver. Concept definitions
                       themselves, core/concepts.h, non-type parameters, and
                       the inner `<typename>` of a template-template
                       parameter are exempt.

Waivers: append `// lint:allow(rule-name): reason` to the offending line or
the line directly above it. The reason is mandatory by convention — a waiver
is a documented decision, not an off switch.

Usage:
  tools/lint_invariants.py              lint the repo (exit 1 on violations)
  tools/lint_invariants.py --self-test  run the rule fixtures
Both are registered with ctest (lint_invariants, lint_invariants_selftest).
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories scanned per rule. Tests deliberately spawn raw std::thread to
# hammer the concurrent structures from outside the execution layer, so the
# thread and morsel rules stop at library + bench + example code.
LIBRARY_DIRS = ("src", "bench", "examples")
ALL_DIRS = ("src", "bench", "examples", "tests")

WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


def source_files(dirs):
    for d in dirs:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".h", ".cc"):
                yield path.relative_to(REPO)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line breaks
    so reported line numbers match the file."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_waivers(text):
    """Maps 1-based line number -> set of waived rules. A waiver covers its
    own line and the next line (for waiver-above-the-offender style)."""
    waived = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in WAIVER_RE.finditer(line):
            rule = match.group(1)
            waived.setdefault(lineno, set()).add(rule)
            waived.setdefault(lineno + 1, set()).add(rule)
    return waived


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_brace_span(text, open_brace):
    """Returns the offset one past the brace matching text[open_brace]."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# --- Rules -------------------------------------------------------------------

RAW_THREAD_RE = re.compile(r"(?<![\w:])std::thread\b(?!\s*::)")


def check_raw_thread(relpath, stripped):
    if str(relpath).startswith("src/exec/"):
        return
    for match in RAW_THREAD_RE.finditer(stripped):
        yield (
            line_of(stripped, match.start()),
            "raw-thread",
            "std::thread outside src/exec/ — submit work through "
            "TaskGroup/Executor instead",
        )


LIBC_RAND_RE = re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\(")


def check_libc_rand(relpath, stripped):
    del relpath
    for match in LIBC_RAND_RE.finditer(stripped):
        yield (
            line_of(stripped, match.start()),
            "libc-rand",
            "rand()/srand() share hidden global state — use util/rng.h",
        )


MORSEL_LAMBDA_RE = re.compile(r"\(\s*const\s+Morsel\s*&")
STATS_CALL_RE = re.compile(
    r"StatCounter::|PhaseTimer\b|\bAddPhase\s*\(|\bWorkerShard\s*\("
)


def check_stats_in_morsel_body(relpath, stripped):
    del relpath
    for match in MORSEL_LAMBDA_RE.finditer(stripped):
        open_brace = stripped.find("{", match.end())
        if open_brace == -1:
            continue
        body_end = match_brace_span(stripped, open_brace)
        for call in STATS_CALL_RE.finditer(stripped, open_brace, body_end):
            yield (
                line_of(stripped, call.start()),
                "stats-in-morsel-body",
                "stats recording inside a per-morsel lambda — accumulate "
                "locally and flush once per worker (see Executor::"
                "RecordWorkerClaims)",
            )


GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:extern\s+)?[A-Za-z_][\w:]*[\w:<>,\s*&]*[*&\s]g_\w+\s*[=;{]"
)


def check_unguarded_global(relpath, stripped):
    if not str(relpath).startswith("src/"):
        return
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if not GLOBAL_DECL_RE.match(line):
            continue
        if re.search(r"\bconst\b|\bconstexpr\b|std::atomic|GUARDED_BY", line):
            continue
        yield (
            lineno,
            "unguarded-global",
            "mutable global without std::atomic/const/GUARDED_BY — "
            "annotate it or waive with a reason",
        )


# Allocating `new` (not placement `new (addr)`) and any `delete` that is not
# an `= delete`d member. ::operator new/delete is matched separately because
# `operator new(bytes)` looks like placement syntax to the first regex.
RAW_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")
RAW_DELETE_RE = re.compile(r"(?<![\w:])delete\b")
RAW_OPERATOR_ALLOC_RE = re.compile(r"\boperator\s+(?:new|delete)\b")

NODE_STRUCTURE_PREFIXES = ("src/hash/", "src/tree/")


def check_raw_node_alloc(relpath, stripped):
    if not str(relpath).startswith(NODE_STRUCTURE_PREFIXES):
        return
    message = (
        "raw new/delete in a node-based structure — allocate through the "
        "Alloc policy (mem/allocator.h) so the arena ablation stays honest"
    )
    for match in RAW_NEW_RE.finditer(stripped):
        before = stripped[: match.start()].rstrip()
        if before.endswith("operator"):
            continue  # Reported by RAW_OPERATOR_ALLOC_RE below.
        line_start = stripped.rfind("\n", 0, match.start()) + 1
        if stripped[line_start:match.start()].lstrip().startswith("#"):
            continue  # `#include <new>` and friends.
        yield (line_of(stripped, match.start()), "raw-node-alloc", message)
    for match in RAW_DELETE_RE.finditer(stripped):
        before = stripped[: match.start()].rstrip()
        if before.endswith("=") or before.endswith("operator"):
            continue  # `= delete`d member / reported below.
        yield (line_of(stripped, match.start()), "raw-node-alloc", message)
    for match in RAW_OPERATOR_ALLOC_RE.finditer(stripped):
        yield (line_of(stripped, match.start()), "raw-node-alloc", message)


# Construction of a concrete aggregator template: heap (make_unique / new)
# or a stack/member object with arguments. `AdaptiveAggregator` is the
# sanctioned entry point, so it is excluded by name.
FIXED_AGG_CONSTRUCT_RE = re.compile(
    r"(?:std::make_unique\s*<\s*|new\s+)([A-Z]\w*Aggregator)\s*<"
    r"|\b([A-Z]\w*Aggregator)\s*<[\w:<>,\s]*>\s+\w+\s*[({]"
)
FIXED_AGG_EXEMPT_FILES = (
    "src/core/engine.cc",       # the MakeVectorAggregator factory
    "src/core/migratable.h",    # the migratable-state protocol itself
    "src/sim/traced_engine.cc", # traced mirror of the factory
)


def check_fixed_aggregator_construction(relpath, stripped):
    posix = relpath.as_posix()
    if posix in FIXED_AGG_EXEMPT_FILES:
        return
    if posix.startswith("src/core/") and posix.endswith("_aggregator.h"):
        return  # Family headers compose their own sub-operators.
    for match in FIXED_AGG_CONSTRUCT_RE.finditer(stripped):
        name = match.group(1) or match.group(2)
        if name == "AdaptiveAggregator":
            continue
        yield (
            line_of(stripped, match.start()),
            "fixed-aggregator-construction",
            f"direct construction of {name} — route operator choice "
            "through MakeVectorAggregator (core/engine.h) or "
            "AdaptiveAggregator so strategy selection stays in one place",
        )


REF_CAPTURE_TASK_RE = re.compile(
    r"(?:\.|->)\s*(?:Submit|Schedule)\s*\(\s*\[\s*&\s*[,\]]"
)


def check_ref_capture_in_task(relpath, stripped):
    del relpath
    for match in REF_CAPTURE_TASK_RE.finditer(stripped):
        yield (
            line_of(stripped, match.start()),
            "ref-capture-in-task",
            "default [&] capture in a submitted task — name every captured "
            "local (or capture by value) so the morsel-capture dataflow "
            "rule can check each one against a dominating Wait()",
        )


RAW_SIMD_RE = re.compile(r"\b(?:_mm\d*_\w+|__m(?:128|256|512)\w*)\b")


def check_raw_simd_intrinsic(relpath, stripped):
    if relpath.as_posix().startswith("src/util/simd"):
        return
    for match in RAW_SIMD_RE.finditer(stripped):
        yield (
            line_of(stripped, match.start()),
            "raw-simd-intrinsic",
            f"raw vector intrinsic {match.group(0)} outside src/util/simd* "
            "— add a kernel to the SimdOps lanes so the lane ablation "
            "covers it",
        )


RAW_KEY_TYPE_RE = re.compile(r"\buint64_t\s+key_?\b")
KEY_LAYER_PREFIXES = ("src/hash/", "src/tree/", "src/core/", "bench/")


def check_raw_key_type(relpath, stripped):
    if not relpath.as_posix().startswith(KEY_LAYER_PREFIXES):
        return
    for match in RAW_KEY_TYPE_RE.finditer(stripped):
        yield (
            line_of(stripped, match.start()),
            "raw-key-type",
            "raw `uint64_t key` in a key-consuming layer — use EncodedKey "
            "(util/encoded_key.h) so the encoded key width stays defined "
            "in one place",
        )


TEMPLATE_INTRO_RE = re.compile(r"\btemplate\s*<")
TYPE_PARAM_RE = re.compile(r"^\s*(typename|class)\b")


def split_template_params(stripped, open_angle):
    """Splits the template parameter list opening at stripped[open_angle]
    ('<') into top-level parameters. Returns (params, end_offset) where each
    param is (text, start_offset), or (None, open_angle) if unbalanced.
    Tracks <> and () depth so template-template parameters and defaults like
    `KeyOf = PairFirstKey` with nested angles stay one parameter."""
    params = []
    depth_angle, depth_paren = 1, 0
    start = open_angle + 1
    i = start
    while i < len(stripped):
        c = stripped[i]
        if c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle -= 1
            if depth_angle == 0:
                params.append((stripped[start:i], start))
                return params, i
        elif c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == "," and depth_angle == 1 and depth_paren == 0:
            params.append((stripped[start:i], start))
            start = i + 1
        i += 1
    return None, open_angle


def check_unconstrained_typename(relpath, stripped):
    posix = relpath.as_posix()
    if not posix.startswith("src/core/") or relpath.suffix != ".h":
        return
    if relpath.name == "concepts.h":
        return  # The vocabulary itself is built from bare typenames.
    consumed_until = 0
    for match in TEMPLATE_INTRO_RE.finditer(stripped):
        if match.start() < consumed_until:
            continue  # inner `template <typename>` of a template-template
        open_angle = stripped.index("<", match.start())
        params, end = split_template_params(stripped, open_angle)
        consumed_until = end
        if params is None:
            continue
        # A concept definition's parameters are the thing being constrained.
        if stripped[end + 1:end + 40].lstrip().startswith("concept"):
            continue
        for text, offset in params:
            if TYPE_PARAM_RE.match(text):
                yield (
                    line_of(stripped, offset + len(text) - len(text.lstrip())),
                    "unconstrained-typename",
                    "bare typename/class template parameter in a core "
                    "header — constrain it with a concept "
                    "(core/concepts.h) or waive with a reason",
                )


def expected_guard(relpath):
    tail = Path(*relpath.parts[1:])  # drop leading src/
    token = re.sub(r"[^A-Za-z0-9]", "_", str(tail)).upper()
    return f"MEMAGG_{token}_"


def check_include_guard(relpath, stripped):
    if relpath.suffix != ".h" or relpath.parts[0] != "src":
        return
    want = expected_guard(relpath)
    ifndef = re.search(r"^#ifndef\s+(\S+)", stripped, re.MULTILINE)
    if ifndef is None:
        yield (1, "include-guard", f"missing include guard (expected {want})")
        return
    got = ifndef.group(1)
    if got != want:
        yield (
            line_of(stripped, ifndef.start()),
            "include-guard",
            f"include guard {got} does not match path (expected {want})",
        )
    elif not re.search(rf"^#define\s+{re.escape(want)}\s*$", stripped,
                       re.MULTILINE):
        yield (
            line_of(stripped, ifndef.start()),
            "include-guard",
            f"#ifndef {want} has no matching #define",
        )


RULES = (
    (LIBRARY_DIRS, check_raw_thread),
    (ALL_DIRS, check_libc_rand),
    (LIBRARY_DIRS, check_stats_in_morsel_body),
    (LIBRARY_DIRS, check_unguarded_global),
    (LIBRARY_DIRS, check_include_guard),
    (LIBRARY_DIRS, check_raw_node_alloc),
    (LIBRARY_DIRS, check_ref_capture_in_task),
    (ALL_DIRS, check_raw_simd_intrinsic),
    (LIBRARY_DIRS, check_raw_key_type),
    (LIBRARY_DIRS, check_unconstrained_typename),
    (LIBRARY_DIRS, check_fixed_aggregator_construction),
)


def waiver_sites(text):
    """Yields (lineno, rule) for each waiver comment at its own line (the
    coverage map from collect_waivers also spans the next line)."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in WAIVER_RE.finditer(line):
            yield lineno, match.group(1)


def lint_text(relpath, text, dirs_of_file):
    """Runs every applicable rule over one file's text. Returns a list of
    (relpath, lineno, rule, message), waivers already applied. A waiver
    whose rule fires on neither of its covered lines has outlived the code
    it excused and is itself reported (rule `stale-waiver`)."""
    stripped = strip_comments_and_strings(text)
    waived = collect_waivers(text)
    raw = []
    for dirs, rule_fn in RULES:
        if relpath.parts[0] not in dirs or relpath.parts[0] not in dirs_of_file:
            continue
        raw.extend(rule_fn(relpath, stripped))
    raw_sites = {(lineno, rule) for lineno, rule, _ in raw}
    for lineno, rule in waiver_sites(text):
        if rule == "stale-waiver":
            continue  # Meta-waiver; used by definition of what it covers.
        if (lineno, rule) not in raw_sites and \
                (lineno + 1, rule) not in raw_sites:
            raw.append((
                lineno,
                "stale-waiver",
                f"waiver for '{rule}' covers no line where that rule still "
                "fires — the excused code is gone, remove the waiver",
            ))
    violations = []
    for lineno, rule, message in raw:
        if rule in waived.get(lineno, ()):
            continue
        violations.append((relpath, lineno, rule, message))
    return violations


def lint_repo():
    violations = []
    for relpath in source_files(ALL_DIRS):
        text = (REPO / relpath).read_text(encoding="utf-8")
        violations.extend(lint_text(relpath, text, ALL_DIRS))
    for relpath, lineno, rule, message in violations:
        print(f"{relpath}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"\n{len(violations)} violation(s). Waive intentional cases "
              "with `// lint:allow(rule): reason`.")
        return 1
    print(f"lint_invariants: clean ({sum(1 for _ in source_files(ALL_DIRS))} "
          "files)")
    return 0


# --- Self-test ---------------------------------------------------------------

# Each fixture: (rule, path the snippet pretends to live at, bad snippet that
# must fire exactly once, good snippet that must stay clean). The waiver form
# of every bad snippet must also stay clean.
FIXTURES = [
    (
        "raw-thread",
        "src/core/widget.cc",
        "void f() { std::thread t([]{}); t.join(); }\n",
        "void f() { unsigned n = std::thread::hardware_concurrency();\n"
        "  std::this_thread::yield(); (void)n; }\n",
    ),
    (
        "raw-thread",
        "src/exec/thread_pool.cc",  # exec layer owns threads: never fires
        "",
        "void f() { std::thread t([]{}); t.join(); }\n",
    ),
    (
        "libc-rand",
        "bench/micro.cc",
        "int f() { return std::rand(); }\n",
        "int f(Rng& rng) { return rng.Next(); }  // NextBounded(rand_max)\n",
    ),
    (
        "stats-in-morsel-body",
        "src/core/widget.h",
        "void f() { exec.ParallelFor(n, [&](const Morsel& m) {\n"
        "  stats->Add(StatCounter::kRows, m.end - m.begin); }); }\n",
        "void f() { exec.ParallelFor(n, [&](const Morsel& m) { use(m); });\n"
        "  stats->Add(StatCounter::kRows, n); }\n",
    ),
    (
        "unguarded-global",
        "src/core/widget.cc",
        "Widget* g_widget = nullptr;\n",
        "std::atomic<Widget*> g_widget{nullptr};\n"
        "constexpr int g_limit = 3;\n"
        "void f() { local::g_widget = nullptr; }\n",
    ),
    (
        "raw-node-alloc",
        "src/hash/widget.h",
        "void f() { Node* n = new Node(); use(n); }\n",
        "struct W {\n"
        "  W(const W&) = delete;\n"
        "  W& operator=(const W&) = delete;\n"
        "  void f(void* mem) { ::new (mem) Node(); }\n"
        "  void g() { auto p = std::make_unique<Node>(); new_count_++; }\n"
        "};\n",
    ),
    (
        "raw-node-alloc",
        "src/core/widget.cc",  # only node-based structure dirs are scanned
        "",
        "void f() { Node* n = new Node(); delete n; }\n",
    ),
    (
        "ref-capture-in-task",
        "src/core/widget.cc",
        "void f(TaskGroup& group) {\n"
        "  int n = 0; group.Submit([&] { n++; }); group.Wait(); }\n",
        "void f(TaskGroup& group) {\n"
        "  int n = 0; group.Submit([&n] { n++; }); group.Wait();\n"
        "  group.Submit([n] { use(n); }); group.Wait();\n"
        "  auto body = [&] { n++; }; body(); }\n",
    ),
    (
        "raw-simd-intrinsic",
        "src/hash/widget.h",
        "uint32_t f(const uint8_t* g) {\n"
        "  return _mm_movemask_epi8(LoadGroup(g)); }\n",
        "uint32_t f(const uint8_t* g) {\n"
        "  return simd::DispatchOps::MatchEmpty(g); }\n",
    ),
    (
        "raw-simd-intrinsic",
        "src/util/simd_widen.h",  # the lane implementation layer is exempt
        "",
        "__m256i f(const uint8_t* g) {\n"
        "  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g)); }\n",
    ),
    (
        "include-guard",
        "src/core/widget.h",
        "#ifndef WIDGET_H\n#define WIDGET_H\n#endif\n",
        "#ifndef MEMAGG_CORE_WIDGET_H_\n#define MEMAGG_CORE_WIDGET_H_\n"
        "#endif  // MEMAGG_CORE_WIDGET_H_\n",
    ),
    (
        "fixed-aggregator-construction",
        "bench/micro.cc",
        "void f() { auto a =\n"
        "  std::make_unique<HashAggregator<CountAggregate>>(64); use(a); }\n",
        "void f() { auto a = MakeVectorAggregator(\"Hash_LP\",\n"
        "    AggregateFunction::kCount, 64, exec);\n"
        "  auto b = std::make_unique<AdaptiveAggregator<CountAggregate>>(\n"
        "    64, exec, options);\n"
        "  std::unique_ptr<VectorAggregator> held = std::move(a); }\n",
    ),
    (
        "fixed-aggregator-construction",
        "bench/micro.cc",
        "void f() { LocalPartitionAggregator<CountAggregate> agg(64, exec);\n"
        "  agg.Build(nullptr, nullptr, 0); }\n",
        "void g(LocalPartitionAggregator<CountAggregate>* op);\n"
        "void f(VectorAggregator* base) {\n"
        "  auto* h = static_cast<HybridVectorAggregator<CountAggregate>*>(\n"
        "      base); use(h); }\n",
    ),
    (
        "fixed-aggregator-construction",
        "bench/micro.cc",  # a row-policy instantiation is no exception
        "void f(const AggregateRow& row) { auto a = std::make_unique<\n"
        "    HashVectorAggregator<LinearProbingMap, RowAggregate<4, false>>>(\n"
        "    64, RowAggregate<4, false>(&row)); use(a); }\n",
        "void f(const AggregateRow& row) {\n"
        "  auto a = MakeRowAggregator(\"Hash_LP\", row, 64, exec); use(a); }\n",
    ),
    (
        "fixed-aggregator-construction",
        "src/core/engine.cc",  # the factory is where construction lives
        "",
        "std::unique_ptr<VectorAggregator> Make() {\n"
        "  return std::make_unique<RadixPartitionAggregator<CountAggregate>>(\n"
        "      64, exec); }\n",
    ),
    (
        "fixed-aggregator-construction",
        "src/core/hybrid_aggregator.h",  # family headers compose internally
        "",
        "void f() { hash_ = std::make_unique<HashAggregator<Agg>>(64); }\n",
    ),
    (
        "raw-key-type",
        "src/core/widget.h",
        "void Visit(uint64_t key, uint64_t value);\n",
        "void Visit(EncodedKey key, uint64_t value);\n"
        "uint64_t key_count = 0;\n"
        "void f(const std::vector<uint64_t>& keys);\n"
        "uint64_t value = 0;\n",
    ),
    (
        "raw-key-type",
        "src/data/widget.h",  # codec layer defines the packing: exempt
        "",
        "uint64_t key = Pack(fields);\n",
    ),
    (
        "unconstrained-typename",
        "src/core/widget.h",
        "template <typename Value>\nclass Widget { Value v_; };\n",
        "template <GroupMap Map>\nclass A { Map m_; };\n"
        "template <int kWays>\nclass B {};\n"
        "template <typename T>\nconcept Widgety = requires(T t) { t.Spin(); };\n"
        "template <template <typename> class MapT, AggregatePolicy Agg,\n"
        "          Sorter S = IntrosortSorter>\nclass C {};\n"
        "template <>\nclass B<2> {};\n",
    ),
    (
        "unconstrained-typename",
        "src/core/concepts.h",  # the vocabulary header itself is exempt
        "",
        "template <typename M, typename V>\nconcept Probe = true;\n"
        "template <typename V>\nstruct ProbeVisitor {};\n",
    ),
    (
        "unconstrained-typename",
        "src/hash/widget.h",  # only core headers carry the contract rule
        "",
        "template <typename Value>\nclass Widget { Value v_; };\n",
    ),
    (
        "stale-waiver",
        "src/core/widget.cc",
        # The waived rule (raw-thread) fires nowhere near the waiver: the
        # code it excused is gone, so the waiver itself is the violation.
        "// lint:allow(raw-thread): excuses code that was deleted\n"
        "int width = 0;\n",
        "// plain comment, no waiver\nint width = 0;\n",
    ),
]


def self_test():
    failures = []
    for rule, path, bad, good in FIXTURES:
        relpath = Path(path)
        if bad:
            hits = [v for v in lint_text(relpath, bad, ALL_DIRS)
                    if v[2] == rule]
            if len(hits) != 1:
                failures.append(
                    f"{rule} @ {path}: bad fixture fired {len(hits)}x, want 1")
            else:
                lines = bad.splitlines(keepends=True)
                lines.insert(hits[0][1] - 1, f"// lint:allow({rule}): fixture\n")
                waived = "".join(lines)
                if any(v[2] == rule
                       for v in lint_text(relpath, waived, ALL_DIRS)):
                    failures.append(f"{rule} @ {path}: waiver did not suppress")
        if any(v[2] == rule for v in lint_text(relpath, good, ALL_DIRS)):
            failures.append(f"{rule} @ {path}: good fixture fired")
    # Comment/string stripping must hide tokens from the rules.
    hidden = '// std::thread in a comment\nconst char* s = "std::rand()";\n'
    if lint_text(Path("src/core/widget.cc"), hidden, ALL_DIRS):
        failures.append("stripping: commented/quoted tokens fired")
    for failure in failures:
        print(f"SELF-TEST FAIL: {failure}")
    if failures:
        return 1
    print(f"lint_invariants --self-test: {len(FIXTURES)} fixtures OK")
    return 0


def list_waivers():
    """Prints every lint:allow waiver in the repo with its location and the
    comment text, marking stale ones (rule no longer fires there)."""
    total, stale_count = 0, 0
    for relpath in source_files(ALL_DIRS):
        text = (REPO / relpath).read_text(encoding="utf-8")
        stale_lines = {
            lineno for _, lineno, rule, _ in lint_text(relpath, text, ALL_DIRS)
            if rule == "stale-waiver"}
        lines = text.splitlines()
        for lineno, rule in waiver_sites(text):
            comment = lines[lineno - 1].strip()
            marker = " STALE" if lineno in stale_lines else ""
            print(f"{relpath}:{lineno}: [{rule}]{marker} {comment}")
            total += 1
            stale_count += lineno in stale_lines
    print(f"{total} waiver(s), {stale_count} stale")
    return 1 if stale_count else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule fixtures instead of linting")
    parser.add_argument("--list-waivers", action="store_true",
                        help="list every lint:allow waiver, marking stale "
                             "ones; exits non-zero if any are stale")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.list_waivers:
        return list_waivers()
    return lint_repo()


if __name__ == "__main__":
    sys.exit(main())
