#!/usr/bin/env python3
"""astlint: AST-grounded concurrency linting over compile_commands.json.

Seven rules run over a per-file model extracted by one of two frontends:

  lock-order                    repo-wide acquires-while-holding graph must
                                be cycle-free and rank-consistent (ranks
                                from src/util/lock_rank.h; same-rank only
                                where the enum sanctions a protocol)
  blocking-in-morsel-body       no parking lock, Wait(), allocating `new`,
                                or I/O inside a `const Morsel&` lambda
  stats-in-morsel-body          no per-morsel stats recording (AST-grounded
                                twin of the lint_invariants.py regex rule)
  fixed-aggregator-construction aggregator choice flows through
                                MakeVectorAggregator / AdaptiveAggregator
  arena-escape                  Tier 6: no pointer allocated from a
                                function-local Arena/WorkerArenas may
                                outlive the arena (return, member store,
                                unjoined task capture, use-after-Reset)
  morsel-capture                Tier 6: by-reference captures in lambdas
                                handed to Submit()/Schedule() need a
                                dominating Wait() in the same scope (or a
                                requires-join summary met at call sites)
  packed-shift                  Tier 6: every shift in the packed-key
                                scope is symbolically bounded below the
                                operand width (see dataflow.py)

The Tier-6 rules share one intraprocedural-with-call-summaries engine
(dataflow.py) whose facts are linked repo-wide after extraction; both
frontends feed it the same lexical facts, so Tier 6 has frontend parity
by construction. --parity-test verifies the Tier 4-5 extraction agrees
across frontends over every fixture.

Frontends (--mode):
  ast   libclang over compile_commands.json (CI: apt install clang
        python3-clang). Skips LOUDLY with exit 0 when unavailable, so the
        ast-analyze job never silently greenwashes. Pass
        --require-frontend=ast to turn that skip into a hard failure
        (what the ast-dataflow CI job does).
  lex   self-contained lexical fallback, no third-party deps; what local
        ctest runs.
  auto  ast if available, else lex with a printed notice (default).

Waivers: `// astlint:allow(rule): reason` on the offending line or the
line above. A lock-order waiver suppresses the acquisition *edge*, so
waiving one edge of a cycle breaks the cycle. A waiver whose rule has no
raw fact on its own or the next line is itself reported (stale-waiver),
so waivers cannot outlive the code they excuse.

Artifacts: --graph-out writes the acquires-while-holding graph;
--dataflow-out writes astlint_dataflow.json (every arena escape, task
capture, and audited shift site — including the clean ones).

Self-test: --self-test replays the planted-violation fixtures under
tools/astlint/fixtures/ through the active frontend — each must fire its
rule exactly the expected number of times, fire nothing else, and go
clean when every reported line is waived. Registered in ctest as
astlint_selftest.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dataflow
import lex_frontend
import model

REPO = model.REPO
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
GATHER_DIRS = ("src", "bench", "examples")
WAIVER_RE = re.compile(r"//\s*astlint:allow\(([a-z-]+)\)")
# Meta-rule: a waiver whose rule has no raw fact at the covered lines.
STALE_RULE = "stale-waiver"

# (fixture file, pretend repo path, rule that must fire, expected count).
# A rule of None asserts the fixture is clean.
FIXTURES = (
    ("lock_cycle.cc", "src/exec/lock_cycle_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("rank_inversion.cc", "src/exec/rank_inversion_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("same_rank.cc", "src/exec/same_rank_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("blocking_in_morsel.cc", "src/exec/blocking_fixture.cc",
     model.RULE_BLOCKING, 4),
    ("stats_in_morsel.cc", "src/exec/stats_fixture.cc",
     model.RULE_STATS, 1),
    ("fixed_aggregator.cc", "src/exec/fixed_agg_fixture.cc",
     model.RULE_FIXED_AGG, 2),
    ("clean_ok.cc", "src/exec/clean_fixture.cc", None, 0),
    ("arena_escape.cc", "src/exec/arena_escape_fixture.cc",
     model.RULE_ARENA_ESCAPE, 5),
    ("morsel_capture.cc", "src/exec/morsel_capture_fixture.cc",
     model.RULE_TASK_CAPTURE, 3),
    ("packed_shift.cc", "src/data/key_codec_fixture.cc",
     model.RULE_PACKED_SHIFT, 3),
    ("fixed_point_shift.cc", "src/data/lineitem_fixture.cc",
     model.RULE_PACKED_SHIFT, 1),
    ("stale_waiver.cc", "src/exec/stale_waiver_fixture.cc",
     "stale-waiver", 1),
    ("clean_dataflow.cc", "src/exec/clean_dataflow_fixture.cc", None, 0),
)


def collect_waivers(text):
    """Maps 1-based line number -> set of waived rules. A waiver covers its
    own line and the next line."""
    waived = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in WAIVER_RE.finditer(line):
            rule = match.group(1)
            waived.setdefault(lineno, set()).add(rule)
            waived.setdefault(lineno + 1, set()).add(rule)
    return waived


def apply_waivers(file_model, waived):
    def live(rule, line):
        return rule not in waived.get(line, ())

    file_model.edges = [
        e for e in file_model.edges if live(model.RULE_LOCK_ORDER, e.line)]
    file_model.morsel_flags = [
        f for f in file_model.morsel_flags
        if live(model.RULE_STATS if f.kind == "stats" else model.RULE_BLOCKING,
                f.line)]
    file_model.aggregator_constructions = [
        c for c in file_model.aggregator_constructions
        if live(model.RULE_FIXED_AGG, c.line)]
    file_model.arena_escapes = [
        e for e in file_model.arena_escapes
        if live(model.RULE_ARENA_ESCAPE, e.line)]
    file_model.task_captures = [
        c for c in file_model.task_captures
        if live(model.RULE_TASK_CAPTURE, c.line)]
    file_model.shift_sites = [
        s for s in file_model.shift_sites
        if s.ok or live(model.RULE_PACKED_SHIFT, s.line)]
    return file_model


def raw_fact_lines(file_model):
    """rule -> lines carrying a raw (pre-waiver) fact of that rule. This is
    what keeps a waiver alive: lock-order liveness is 'an edge exists here',
    not 'the edge still violates' (same contract as lint_invariants.py)."""
    lines = {rule: set() for rule in model.ALL_RULES}
    for e in file_model.edges:
        lines[model.RULE_LOCK_ORDER].add(e.line)
    for f in file_model.morsel_flags:
        rule = model.RULE_STATS if f.kind == "stats" else model.RULE_BLOCKING
        lines[rule].add(f.line)
    for c in file_model.aggregator_constructions:
        lines[model.RULE_FIXED_AGG].add(c.line)
    for e in file_model.arena_escapes:
        lines[model.RULE_ARENA_ESCAPE].add(e.line)
    for c in file_model.task_captures:
        lines[model.RULE_TASK_CAPTURE].add(c.line)
    for s in file_model.shift_sites:
        if not s.ok:
            lines[model.RULE_PACKED_SHIFT].add(s.line)
    return lines


def stale_waiver_violations(file_model, text):
    """Waivers whose rule has no raw fact on the covered lines. Suppressed
    by astlint:allow(stale-waiver) on the same line; stale-waiver waivers
    themselves are exempt from staleness (they have no fact to match)."""
    facts = raw_fact_lines(file_model)
    waived = collect_waivers(text)
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in WAIVER_RE.finditer(line):
            rule = match.group(1)
            if rule == STALE_RULE:
                continue
            if facts.get(rule, set()) & {lineno, lineno + 1}:
                continue
            if STALE_RULE in waived.get(lineno, ()):
                continue
            out.append(model.Violation(
                file_model.path, lineno, STALE_RULE,
                f"astlint:allow({rule}) matches no {rule} fact on this or "
                "the next line — the waived code is gone; remove the "
                "waiver"))
    return out


def link_and_waive(models, texts):
    """The repo-wide phase: Tier-6 linking must see raw (unwaived) facts,
    and staleness must be judged on them too — so extraction, link, stale
    scan, and waiver application run in that order. `texts` maps model
    path -> source text. Returns the stale-waiver violations."""
    dataflow.link(models)
    stale = []
    for file_model in models:
        text = texts.get(file_model.path)
        if text is None:
            continue
        stale.extend(stale_waiver_violations(file_model, text))
        apply_waivers(file_model, collect_waivers(text))
    return stale


def repo_files():
    for top in GATHER_DIRS:
        root = REPO / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".h", ".cc"):
                rel = path.relative_to(REPO).as_posix()
                if rel not in model.SKIP_FILES:
                    yield rel


def gather_lex():
    models, texts = [], {}
    for rel in repo_files():
        text = (REPO / rel).read_text(encoding="utf-8")
        texts[rel] = text
        models.append(lex_frontend.extract(rel, text))
    return models, link_and_waive(models, texts)


def gather_ast(build_dir):
    import ast_frontend
    models = ast_frontend.extract_repo(REPO, build_dir, log=print)
    texts = {}
    for file_model in models:
        path = REPO / file_model.path
        if path.is_file():
            texts[file_model.path] = path.read_text(encoding="utf-8")
    return models, link_and_waive(models, texts)


# --- Self-test ---------------------------------------------------------------

def run_fixture(extract, pretend, text):
    file_model = extract(pretend, text)
    stale = link_and_waive([file_model], {pretend: text})
    ranks = model.RankTable.load(
        REPO, extra_texts=[(Path(pretend).name, text)])
    return sorted(model.run_rules([file_model], ranks) + stale,
                  key=lambda v: (v.file, v.line, v.rule))


def self_test(extract, frontend_name):
    failures = []
    for fixture, pretend, rule, expected in FIXTURES:
        text = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
        violations = run_fixture(extract, pretend, text)
        hits = [v for v in violations if v.rule == rule]
        others = [v for v in violations if v.rule != rule]
        if len(hits) != expected:
            failures.append(
                f"{fixture}: expected {expected} {rule} violation(s), "
                f"got {len(hits)}: {hits}")
        if others:
            failures.append(f"{fixture}: unexpected violations: {others}")
        if rule is not None and len(hits) == expected and expected > 0:
            lines = text.splitlines()
            for violation in hits:
                lines[violation.line - 1] += (
                    f"  // astlint:allow({rule}): fixture self-test")
            waived = run_fixture(extract, pretend, "\n".join(lines) + "\n")
            if waived:
                failures.append(
                    f"{fixture}: waivers did not suppress: {waived}")
        status = "FAIL" if any(f.startswith(fixture) for f in failures) \
            else "ok"
        print(f"astlint self-test [{frontend_name}] {fixture}: {status}")
    for failure in failures:
        print(f"astlint self-test FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


# --- Frontend parity ---------------------------------------------------------

def parity_test():
    """Runs every fixture through BOTH frontends and diffs the normalized
    findings (line, rule). Divergence is a frontend bug: the fixtures are
    the shared semantics contract. Skips loudly (exit 0) when the AST
    frontend is unavailable — CI pairs this with --require-frontend=ast."""
    import ast_frontend
    ok, reason = ast_frontend.available()
    if not ok:
        print("=" * 72)
        print(f"astlint: parity test SKIPPED — AST frontend unavailable: "
              f"{reason}")
        print("astlint: the lexical self-test still covers the fixtures; "
              "CI runs the parity diff with both frontends present.")
        print("=" * 72)
        return 0
    failures = []
    for fixture, pretend, _rule, _expected in FIXTURES:
        text = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
        lex_found = {(v.line, v.rule)
                     for v in run_fixture(lex_frontend.extract, pretend, text)}
        ast_found = {(v.line, v.rule)
                     for v in run_fixture(ast_frontend.extract_text, pretend,
                                          text)}
        if lex_found != ast_found:
            failures.append(
                f"{fixture}: lex-only={sorted(lex_found - ast_found)} "
                f"ast-only={sorted(ast_found - lex_found)}")
            print(f"astlint parity {fixture}: FAIL")
        else:
            print(f"astlint parity {fixture}: ok "
                  f"({len(lex_found)} finding(s) agree)")
    for failure in failures:
        print(f"astlint parity FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


# --- CLI ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        description="AST-grounded concurrency linting for memagg")
    parser.add_argument("--mode", choices=("auto", "ast", "lex"),
                        default="auto")
    parser.add_argument("-p", "--build-dir", default=str(REPO / "build"),
                        help="directory containing compile_commands.json "
                             "(ast mode)")
    parser.add_argument("--graph-out", metavar="PATH",
                        help="write the acquires-while-holding graph JSON")
    parser.add_argument("--dataflow-out", metavar="PATH",
                        help="write the Tier-6 dataflow facts JSON "
                             "(astlint_dataflow.json CI artifact)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the planted-violation fixtures")
    parser.add_argument("--parity-test", action="store_true",
                        help="diff normalized fixture findings across both "
                             "frontends")
    parser.add_argument("--require-frontend", choices=("ast",),
                        help="hard-fail (exit 2) instead of skipping when "
                             "this frontend is unavailable (CI guard)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in model.ALL_RULES + (STALE_RULE,):
            print(rule)
        return 0

    if args.require_frontend == "ast":
        import ast_frontend
        ok, reason = ast_frontend.available()
        if not ok:
            print(f"astlint: error: --require-frontend=ast but the AST "
                  f"frontend is unavailable: {reason}", file=sys.stderr)
            print("astlint: this is a hard failure (CI must not greenwash "
                  "by silently skipping the AST analysis)", file=sys.stderr)
            return 2

    if args.parity_test:
        return parity_test()

    frontend = "lex"
    if args.mode in ("auto", "ast"):
        import ast_frontend
        ok, reason = ast_frontend.available()
        if ok:
            frontend = "ast"
        elif args.mode == "ast":
            print("=" * 72)
            print(f"astlint: SKIPPED — AST frontend unavailable: {reason}")
            print("astlint: install clang + python3-clang to run the "
                  "AST-grounded analysis; the lexical fallback still runs "
                  "under ctest.")
            print("=" * 72)
            return 0
        else:
            print(f"astlint: AST frontend unavailable ({reason}); "
                  "falling back to the lexical frontend")

    if args.self_test:
        if frontend == "ast":
            import ast_frontend
            extract = ast_frontend.extract_text
        else:
            extract = lex_frontend.extract
        return self_test(extract, frontend)

    if frontend == "ast":
        build_dir = Path(args.build_dir)
        if not (build_dir / "compile_commands.json").is_file():
            if args.mode == "ast":
                print(f"astlint: error: no compile_commands.json in "
                      f"{build_dir} (configure with "
                      f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
                      file=sys.stderr)
                return 2
            print(f"astlint: no compile_commands.json in {build_dir}; "
                  "falling back to the lexical frontend")
            frontend = "lex"

    if frontend == "ast":
        models, stale = gather_ast(args.build_dir)
    else:
        models, stale = gather_lex()

    ranks = model.RankTable.load(REPO)
    violations = sorted(model.run_rules(models, ranks) + stale,
                        key=lambda v: (v.file, v.line, v.rule))

    if args.graph_out:
        Path(args.graph_out).write_text(model.graph_json(models, ranks),
                                        encoding="utf-8")
        print(f"astlint: wrote lock graph to {args.graph_out}")
    if args.dataflow_out:
        Path(args.dataflow_out).write_text(model.dataflow_json(models),
                                           encoding="utf-8")
        print(f"astlint: wrote dataflow facts to {args.dataflow_out}")

    for violation in violations:
        print(f"{violation.file}:{violation.line}: [{violation.rule}] "
              f"{violation.message}")
    edge_count = sum(len(m.edges) for m in models)
    func_count = sum(len(m.functions) for m in models)
    shift_count = sum(len(m.shift_sites) for m in models)
    print(f"astlint [{frontend}]: {len(models)} file(s), {edge_count} "
          f"acquires-while-holding edge(s), {func_count} function(s), "
          f"{shift_count} audited shift(s), {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
