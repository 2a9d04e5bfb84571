#!/usr/bin/env python3
"""rts_lint — project-invariant linter for the rts tree.

Enforces repo-specific rules that clang-tidy cannot express (see
docs/testing.md, "Static analysis"):

  no-raw-rand        rand()/srand()/std::random_device/std:: engines outside
                     util/rng — all randomness must flow through rts::Rng
                     substreams so results are reproducible from their seed.
  no-iostream-in-lib std::cout/cerr/clog or printf-family writes in library
                     code under src/ — libraries report through util/log
                     (RTS_LOG_*) so verbosity stays centrally controlled.
  no-float-eq        == / != against a floating-point literal — compare
                     through the 1e-9-epsilon helpers; exact equality is
                     almost never what a scheduling metric means.
  pragma-once        every header's first directive must be #pragma once.
  no-naked-new       naked new expressions — ownership must be expressed
                     with std::make_unique/make_shared or containers.
  no-sleep-in-tests  std::this_thread::sleep_for/until in tests/ —
                     sleep-based synchronization is flaky by construction;
                     use condition variables, futures or joins.
  no-evaluator-in-loop
                     TimingEvaluator construction (or the one-shot
                     compute_schedule_timing/compute_makespan helpers, which
                     construct one internally) inside a loop body in src/ga/
                     — solver hot loops must hoist an EvalWorkspace
                     (ga/eval.hpp) or a TimingEvaluator and rebuild() per
                     candidate instead of paying construction each iteration.
  no-raw-schedule    raw Schedule(...) construction in src/ outside the
                     schedule layers (src/sched, src/resched) — placements
                     must come from the builders/decoders that establish the
                     permutation-per-processor invariant by construction, not
                     from hand-assembled sequence vectors.
  no-scalar-mc-in-loop
                     per-realization scalar timing sweeps (makespan_into,
                     full_timing, partial_timing, compute_* or a .makespan()
                     call) inside a loop body in src/sim/ or src/resched/ —
                     Monte-Carlo loops must go through the lane-blocked
                     batched kernels (sim/batched_sweep), which are
                     bit-identical and several times faster; the scalar
                     oracle lives in tests/sim, and per-event timings in
                     src/resched carry allow() markers.

Escape hatch: a `// rts-lint: allow(<rule>)` comment on the offending line,
or alone on the line directly above it, suppresses that rule for that line
(give a reason after an em-dash). Run `--self-test` to verify every rule
both fires and is suppressible.

Usage:
  tools/rts_lint.py [--self-test] [paths...]     # default paths: src apps
                                                 # bench tests examples tools
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl"}
HEADER_SUFFIXES = {".hpp", ".hh", ".h"}

ALLOW_RE = re.compile(r"rts-lint:\s*allow\(([A-Za-z0-9_-]+)\)")


class Rule:
    """One lint rule: a regex over comment/string-stripped code lines plus a
    path predicate selecting the files it applies to. Rules with
    needs_loop=True only fire when the match sits inside a loop body (as
    tracked by LoopTracker)."""

    def __init__(self, name, message, pattern, applies, needs_loop=False):
        self.name = name
        self.message = message
        self.pattern = re.compile(pattern)
        self.applies = applies  # callable: (parts: tuple of path components, path: Path) -> bool
        self.needs_loop = needs_loop

    def matches(self, stripped_line):
        return bool(self.pattern.search(stripped_line))


LOOP_TOKEN_RE = re.compile(r"\bfor\b|\bwhile\b|\bdo\b|[(){};]")


class LoopTracker:
    """Approximate "am I inside a loop body" state over stripped code.

    Tracks brace nesting, remembering for each open brace whether it opened a
    for/while/do body; a pending loop header without braces counts as a loop
    body until the statement's terminating ';' (semicolons inside the header's
    parentheses are ignored). Heuristic by design — macros that open braces
    can confuse it; use the allow() escape hatch there."""

    def __init__(self):
        self.stack = []  # one bool per open brace: loop body?
        self.pending = False  # loop header seen, body not yet entered
        self.paren = 0

    def copy(self):
        t = LoopTracker()
        t.stack = list(self.stack)
        t.pending = self.pending
        t.paren = self.paren
        return t

    def in_loop(self):
        return self.pending or any(self.stack)

    def feed(self, tok):
        if tok in ("for", "while", "do"):
            self.pending = True
        elif tok == "(":
            self.paren += 1
        elif tok == ")":
            self.paren = max(0, self.paren - 1)
        elif tok == "{":
            self.stack.append(self.pending)
            self.pending = False
        elif tok == "}":
            if self.stack:
                self.stack.pop()
        elif tok == ";" and self.paren == 0:
            self.pending = False  # end of a braceless loop body


def _in_dir(parts, name):
    return name in parts


def _is_lib_source(parts, path):
    """Library code = anything under src/, minus the logging sink itself."""
    if "src" not in parts:
        return False
    return path.name != "log.cpp" or "util" not in parts


def _not_rng_impl(parts, path):
    return not ("util" in parts and path.stem in {"rng", "distributions"})


FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fFlL]?"

RULES = [
    Rule(
        "no-raw-rand",
        "raw randomness source; use rts::Rng substreams (util/rng)",
        r"\b(?:std::)?s?rand\s*\(|std::random_device|std::mt19937|std::minstd_rand"
        r"|std::default_random_engine|std::uniform_(?:int|real)_distribution",
        lambda parts, path: _not_rng_impl(parts, path),
    ),
    Rule(
        "no-iostream-in-lib",
        "direct stream write in library code; use RTS_LOG_* (util/log)",
        r"std::(?:cout|cerr|clog)\b|\bf?printf\s*\(",
        _is_lib_source,
    ),
    Rule(
        "no-float-eq",
        "exact floating-point comparison; use the 1e-9-epsilon helpers",
        r"[=!]=\s*" + FLOAT_LIT + r"(?![\w.])|" + FLOAT_LIT + r"\s*[=!]=",
        lambda parts, path: True,
    ),
    Rule(
        "no-naked-new",
        "naked new expression; use std::make_unique/make_shared or a container",
        r"(?<![:\w])new\s+[A-Za-z_(:]",
        lambda parts, path: True,
    ),
    Rule(
        "no-sleep-in-tests",
        "sleep-based synchronization in a test; use cond-vars/futures/joins",
        r"\bsleep_for\s*\(|\bsleep_until\s*\(",
        lambda parts, path: _in_dir(parts, "tests"),
    ),
    Rule(
        "no-evaluator-in-loop",
        "evaluator constructed inside a loop; hoist an EvalWorkspace "
        "(ga/eval.hpp) and rebuild() per candidate",
        r"\bTimingEvaluator\b(?:\s+\w+)?\s*[({]|\bTimingEvaluator\s*>\s*\("
        r"|\bcompute_(?:schedule_timing|makespan)\s*\(",
        lambda parts, path: "src" in parts and "ga" in parts,
        needs_loop=True,
    ),
    Rule(
        "no-raw-schedule",
        "raw Schedule construction outside src/sched and src/resched; build "
        "placements through InsertionScheduleBuilder or decode()",
        # Direct construction plus the smart-pointer spelling
        # (make_unique/make_shared<Schedule>(...)).
        r"\bSchedule\s*[({]|\bSchedule\s*>\s*\(",
        lambda parts, path: ("src" in parts and "sched" not in parts
                             and "resched" not in parts),
    ),
    Rule(
        "no-scalar-mc-in-loop",
        "scalar timing sweep in a Monte-Carlo loop; batch realizations "
        "through sim/batched_sweep (bit-identical, several times faster)",
        r"\b(?:makespan_into|full_timing_into|full_timing|partial_timing"
        r"|compute_makespan|compute_schedule_timing)\s*\("
        r"|\.\s*makespan\s*\(",
        lambda parts, path: ("src" in parts
                             and ("sim" in parts or "resched" in parts)),
        needs_loop=True,
    ),
]


def strip_code(lines):
    """Yield (lineno, code, raw) with comments and string/char literals
    blanked out. Tracks /* */ across lines; keeps `//` comment text out of
    rule matching while ALLOW_RE still sees the raw line."""
    in_block = False
    for lineno, raw in enumerate(lines, start=1):
        out = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break  # line comment: drop the rest
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                out.append(quote + quote)  # keep operators apart
                continue
            out.append(ch)
            i += 1
        yield lineno, "".join(out), raw


def allowed_rules(raw_line):
    return set(ALLOW_RE.findall(raw_line))


def lint_text(path, text, parts=None):
    """Lint one file's content; returns a list of (path, lineno, rule, msg)."""
    if parts is None:
        parts = path.resolve().parts
    findings = []
    active = [r for r in RULES if r.applies(parts, path)]

    lines = text.splitlines()
    if path.suffix in HEADER_SUFFIXES:
        first_directive = next(
            (code.strip() for _, code, _ in strip_code(lines) if code.strip()), ""
        )
        if first_directive != "#pragma once":
            allow = allowed_rules(lines[0]) if lines else set()
            if "pragma-once" not in allow:
                findings.append(
                    (path, 1, "pragma-once",
                     "header must open with #pragma once")
                )

    prev_raw = ""
    tracker = LoopTracker()
    for lineno, code, raw in strip_code(lines):
        allow = allowed_rules(raw) | allowed_rules(prev_raw)
        prev_raw = raw
        for rule in active:
            if rule.name in allow:
                continue
            if not rule.needs_loop:
                if rule.matches(code):
                    findings.append((path, lineno, rule.name, rule.message))
                continue
            # Contextual rule: fire only when a match position is inside a
            # loop body, judged by the tracker state just before the match.
            for m in rule.pattern.finditer(code):
                state = tracker.copy()
                for tok in LOOP_TOKEN_RE.finditer(code):
                    if tok.start() >= m.start():
                        break
                    state.feed(tok.group())
                if state.in_loop():
                    findings.append((path, lineno, rule.name, rule.message))
                    break
        for tok in LOOP_TOKEN_RE.finditer(code):
            tracker.feed(tok.group())
    return findings


def lint_path(root):
    findings = []
    files = [root] if root.is_file() else sorted(
        p for p in root.rglob("*") if p.suffix in CXX_SUFFIXES and p.is_file()
    )
    for f in files:
        if f.suffix not in CXX_SUFFIXES:
            continue
        try:
            text = f.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"rts_lint: cannot read {f}: {e}", file=sys.stderr)
            return findings, 2
        findings.extend(lint_text(f, text))
    return findings, 0


# --- self-test ---------------------------------------------------------------
# Each sample is (rule, virtual-path, bad snippet, clean snippet). The bad
# snippet must fire exactly the named rule; the bad snippet with an allow
# comment and the clean snippet must not fire it.

SELFTEST = [
    ("no-raw-rand", "src/ga/engine.cpp",
     "int x = rand();",
     "Rng rng(seed); int x = rng.next_int(10);"),
    ("no-raw-rand", "apps/rts_cli.cpp",
     "std::random_device rd;",
     "Rng root(config.seed);"),
    ("no-iostream-in-lib", "src/sched/heft.cpp",
     'std::cout << "progress\\n";',
     'RTS_LOG_INFO("progress");'),
    ("no-iostream-in-lib", "src/core/experiment.cpp",
     'printf("%d", i);',
     'RTS_LOG_DEBUG("i=" << i);'),
    ("no-float-eq", "src/sched/timing.cpp",
     "if (slack == 0.5) {}",
     "if (std::abs(slack - 0.5) < 1e-9) {}"),
    ("no-float-eq", "bench/micro_timing.cpp",
     "bool b = 1e-3 != x;",
     "bool b = std::abs(x - 1e-3) >= 1e-9;"),
    ("pragma-once", "src/util/widget.hpp",
     "#ifndef WIDGET_H\n#define WIDGET_H\n#endif",
     "#pragma once\nnamespace rts {}"),
    ("no-naked-new", "src/core/pareto.cpp",
     "auto* p = new Front(n);",
     "auto p = std::make_unique<Front>(n);"),
    ("no-sleep-in-tests", "tests/service/test_service.cpp",
     "std::this_thread::sleep_for(std::chrono::milliseconds(50));",
     "worker.join();"),
    ("no-evaluator-in-loop", "src/ga/annealing.cpp",
     "for (std::size_t i = 0; i < n; ++i) {\n"
     "  const TimingEvaluator ev(graph, platform, schedules[i]);\n"
     "}",
     "TimingEvaluator ev(graph, platform);\n"
     "for (std::size_t i = 0; i < n; ++i) {\n"
     "  ev.rebuild(schedules[i]);\n"
     "}"),
    ("no-raw-schedule", "src/sim/dynamic.cpp",
     "return Schedule(n, std::move(sequences));",
     "return builder.release_schedule();"),
    ("no-raw-schedule", "src/service/scheduler_service.cpp",
     "auto plan = std::make_unique<Schedule>(n, std::move(sequences));",
     "std::unique_ptr<Schedule> plan = builder.release_schedule_ptr();"),
    ("no-scalar-mc-in-loop", "src/sim/monte_carlo.cpp",
     "for (std::size_t i = begin; i < end; ++i) {\n"
     "  samples[i] = evaluator.makespan_into(durations, scratch);\n"
     "}",
     "sweep.forward(durations, lanes, finish, makespans);"),
    ("no-scalar-mc-in-loop", "src/sim/criticality.cpp",
     "for (std::int64_t i = 0; i < total; ++i) {\n"
     "  const double ms = evaluator.makespan(durations);\n"
     "}",
     "const BatchedGsSweep sweep(evaluator);\n"
     "sweep.forward(durations, lanes, finish, makespans);"),
    ("no-scalar-mc-in-loop", "src/resched/drop_policy.cpp",
     "while (k < samples) {\n"
     "  const auto timing = partial_timing(graph, platform, partial, durations);\n"
     "}",
     "const BatchedPartialSweep sweep(graph, platform, partial);\n"
     "sweep.forward(durations, lanes, finish);"),
    ("no-evaluator-in-loop", "src/ga/local_search.cpp",
     "while (improved) {\n"
     "  const double ms = compute_makespan(graph, platform, current, costs);\n"
     "}",
     "EvalWorkspace ws(graph, platform, costs);\n"
     "while (improved) {\n"
     "  const double ms = ws.evaluate(current).makespan;\n"
     "}"),
]


def run_self_test():
    failures = []

    def check(desc, cond):
        if not cond:
            failures.append(desc)

    for rule, vpath, bad, good in SELFTEST:
        path = Path(vpath)
        parts = ("<selftest>",) + path.parts

        hits = {r for _, _, r, _ in lint_text(path, bad, parts)}
        check(f"{rule}: fires on {vpath!r}", rule in hits)

        if vpath.endswith((".hpp", ".hh", ".h")) and rule == "pragma-once":
            suppressed = f"// rts-lint: allow({rule})\n{bad}"
        else:
            first, sep, rest = bad.partition("\n")
            suppressed = f"{first}  // rts-lint: allow({rule}){sep}{rest}"
        hits = {r for _, _, r, _ in lint_text(path, suppressed, parts)}
        check(f"{rule}: allow() suppresses it", rule not in hits)

        hits = {r for _, _, r, _ in lint_text(path, good, parts)}
        check(f"{rule}: clean snippet stays clean", rule not in hits)

    # Scope checks: the same text is legal where the rule does not apply.
    scoped = [
        ("no-raw-rand", "src/util/rng.cpp", "std::random_device rd;"),
        ("no-iostream-in-lib", "bench/fig2.cpp", 'std::cout << "data\\n";'),
        ("no-iostream-in-lib", "src/util/log.cpp", "std::clog << msg;"),
        ("no-sleep-in-tests", "bench/micro_ga_ops.cpp",
         "std::this_thread::sleep_for(tick);"),
        # The evaluator rule polices solver hot loops only: one-shot
        # construction in a loop is legitimate elsewhere (tests, tools,
        # the Monte-Carlo path sized by realizations not candidates).
        ("no-evaluator-in-loop", "src/sim/criticality.cpp",
         "for (auto& s : schedules) {\n  TimingEvaluator ev(g, p, s);\n}"),
        ("no-evaluator-in-loop", "tests/ga/test_engine.cpp",
         "for (auto& s : schedules) {\n  TimingEvaluator ev(g, p, s);\n}"),
        # ...and outside loop bodies it never fires, even in src/ga/.
        ("no-evaluator-in-loop", "src/ga/engine.cpp",
         "TimingEvaluator ev(graph, platform, schedule);"),
        # The schedule layers own raw construction; tests/apps assemble
        # fixtures freely.
        ("no-raw-schedule", "src/sched/insertion_builder.cpp",
         "return Schedule(n, std::move(sequences));"),
        ("no-raw-schedule", "src/resched/rescheduler.cpp",
         "return Schedule(n, std::move(sequences));"),
        ("no-raw-schedule", "tests/sched/test_schedule.cpp",
         "const Schedule s = Schedule(2, sequences);"),
        # The scalar-sweep rule polices the Monte-Carlo layers only: per-item
        # timing calls in schedulers/solvers/tests are not realization loops.
        ("no-scalar-mc-in-loop", "src/sched/heft.cpp",
         "for (auto& s : candidates) {\n  best = ev.makespan(durations);\n}"),
        ("no-scalar-mc-in-loop", "tests/sim/test_monte_carlo.cpp",
         "for (int i = 0; i < 5; ++i) {\n"
         "  const double ms = evaluator.makespan_into(d, scratch);\n}"),
        # ...and outside loop bodies it never fires, even in src/sim/.
        ("no-scalar-mc-in-loop", "src/sim/monte_carlo.cpp",
         "report.expected_makespan = evaluator.makespan(expected);"),
    ]
    for rule, vpath, text in scoped:
        path = Path(vpath)
        hits = {r for _, _, r, _ in lint_text(path, text, ("<selftest>",) + path.parts)}
        check(f"{rule}: exempt in {vpath!r}", rule not in hits)

    # Comment/string hygiene: rule text inside comments or strings is inert.
    inert = 'const char* s = "rand()"; // old code: new Widget(rand())'
    hits = {r for _, _, r, _ in lint_text(Path("src/core/x.cpp"), inert,
                                          ("<selftest>", "src", "core", "x.cpp"))}
    check("comments/strings are not matched", not hits)

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    n_rules = len(RULES) + 1  # + pragma-once, which is structural
    print(f"rts_lint self-test: {len(SELFTEST)} samples across {n_rules} rules, "
          f"fire/suppress/clean all verified — OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="rts_lint.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=["src", "apps", "bench", "tests", "examples", "tools"])
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires and is suppressible")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    all_findings = []
    status = 0
    for p in args.paths:
        root = Path(p)
        if not root.exists():
            print(f"rts_lint: no such path: {p}", file=sys.stderr)
            return 2
        findings, st = lint_path(root)
        all_findings.extend(findings)
        status = max(status, st)

    for path, lineno, rule, msg in all_findings:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if all_findings:
        print(f"rts_lint: {len(all_findings)} finding(s)")
        return 1
    if status == 0:
        print("rts_lint: clean")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
