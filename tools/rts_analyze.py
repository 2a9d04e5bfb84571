#!/usr/bin/env python3
"""rts_analyze — the static analyzer for the rts tree.

One walk, one escape hatch, one baseline and one self-test carry two tiers of
rules (docs/testing.md, "Static analysis").

The structural tier builds a model of every translation unit — a scope tree
(namespaces, classes, functions, lambdas, loops, OpenMP regions), per-scope
symbol tables, member tables with Clang-TSA annotations, and an OpenMP pragma
model — and enforces the project's *determinism* invariants, the ones that
keep schedules and Monte-Carlo statistics bit-identical across lane widths,
thread counts and ISAs:

  nondet-container-iteration
      range-for / iterator loops over std::unordered_map/set whose body has
      order-sensitive effects — floating-point accumulation, appends to an
      ordered container, or output. Hash-table iteration order is unspecified
      and changes across libstdc++ versions, so any such loop silently breaks
      the bit-identity contract. Iterate an index/sorted order instead.
  omp-discipline
      every `#pragma omp parallel` (incl. `parallel for`) must carry
      `default(none)` with explicit data-sharing clauses, and floating-point
      `reduction` clauses are banned: FP reduction order is unspecified, so
      results vary with thread count. Use the repo's lane-accumulate-then-
      ordered-merge pattern (dense per-index arrays, serial reduce).
  rng-discipline
      all random draws flow through rts::Rng / RealizationSampler xoshiro
      substreams keyed by logical indices. std::random_device, rand()/srand(),
      std:: engines and distributions, time()/clock()/now()-derived seeds and
      thread-id-dependent seeds (omp_get_thread_num, this_thread::get_id) are
      errors outside util/rng and util/distributions.
  fp-accumulation-order
      double/float compound accumulation (or std::accumulate) whose operand
      order is not provably fixed: accumulation inside unordered-container
      iteration, std::accumulate over unordered ranges, and accumulation into
      a variable declared outside the parallel region from inside an
      `#pragma omp for` loop body (a cross-thread accumulation — both a race
      and an ordering hazard).
  tsa-coverage
      members annotated RTS_GUARDED_BY(mu) may only be touched in methods
      that hold `mu` — via a LockGuard/UniqueLock in an enclosing scope, an
      RTS_REQUIRES(mu) annotation (declaration or definition), or
      mu.assert_held() in a condition-variable predicate. This closes the gap
      Clang TSA leaves on non-Clang builds: GCC ignores the attributes, so
      without this rule an unguarded access only fails in the clang CI job.

Alongside the determinism rules, v2 adds the *index-domain* rules that back
the strong-id migration (src/util/strong_id.hpp, docs/ids.md). They are
strict in the id-disciplined directories src/{graph,sched,sim,ga}:

  index-domain
      id-indexed containers (IdVector/IdSpan) must be subscripted with their
      id type. A raw integer variable subscript re-opens the task-vs-proc
      mixup the types were introduced to kill, and `x[t.value()]` launders
      the raw representation back into an index — `.value()` is for
      serialization/hash/print only; use the typed id (or `.index()` into a
      deliberately raw positional buffer).
  narrowing-overflow
      no implicit 64→32 narrowing in declarations (the -Wconversion gap:
      template deduction and member loads), and no 32-bit multiply of
      count-typed operands feeding a 64-bit offset — `lane * stride`
      overflows *before* the widening assignment. Cast an operand to the
      wide type first. Applies to every analyzed file.
  alloc-in-hot-loop
      no push_back/emplace_back/resize and no fresh vector/IdVector
      construction inside per-realization / per-evaluation loops of src/sim
      and src/ga. One allocation per realization dominates the batched
      kernels; hoist buffers into the surrounding workspace
      (EvalWorkspace, BatchedGsSweep scratch) and reuse them.

The lexical tier is one regex per rule over comment/string-stripped code,
scoped by path. The two loop rules fire only inside a loop body: a loop scope
of the structural model, a loop header, or a braceless `for (...) stmt;` body.

  no-iostream-in-lib
      std::cout/cerr/clog or printf-family writes in library code under src/
      (util/log.cpp, the sink itself, excepted) — libraries report through
      util/log (RTS_LOG_*) so verbosity stays centrally controlled.
  no-float-eq
      == / != against a floating-point literal — compare through the
      1e-9-epsilon helpers; exact equality is almost never what a scheduling
      metric means.
  pragma-once
      every header's first directive must be #pragma once.
  no-naked-new
      naked new expressions — ownership must be expressed with
      std::make_unique/make_shared or containers.
  no-sleep-in-tests
      std::this_thread::sleep_for/until in tests/ — sleep-based
      synchronization is flaky by construction; use condition variables,
      futures or joins.
  no-evaluator-in-loop
      TimingEvaluator construction (or the one-shot compute_schedule_timing/
      compute_makespan helpers, which construct one internally) inside a loop
      body in src/ga/ — solver hot loops hoist an EvalWorkspace (ga/eval.hpp)
      or a TimingEvaluator and rebuild() per candidate.
  no-raw-schedule
      raw Schedule(...) construction in src/ outside src/sched and
      src/resched — placements come from the builders/decoders that establish
      the permutation-per-processor invariant by construction.
  no-scalar-mc-in-loop
      per-realization scalar timing sweeps (makespan_into, full_timing,
      partial_timing, compute_* or a .makespan() call) inside a loop body in
      src/sim/ — Monte-Carlo loops go through the lane-blocked batched kernels
      (sim/batched_sweep); the scalar oracle lives in tests/sim.

Frontends: with the Python libclang bindings installed (clang.cindex — CI
pins python3-clang-14; see CONTRIBUTING.md) the analyzer parses each TU from
compile_commands.json and uses the real AST to resolve declared types (auto,
typedefs, members). Without them it falls back to the internal frontend's own
declaration tables, which resolve everything this tree declares in-source.
Rule logic is identical in both modes; libclang only sharpens type
resolution.

Escape hatches: a `// rts-analyze: allow(<rule>) — reason` comment on the
offending line (or alone on the line directly above, or on the enclosing
loop header for loop-body findings; on the first line for pragma-once)
suppresses that rule there. Intentional, reviewed suppressions that should
not live inline go into the checked-in baseline file
(tools/rts_analyze_baseline.txt): `path:rule` suppresses a rule for a whole
file, `path:line:rule` one site. Stale baseline entries are *errors* (exit 1)
so the file cannot rot: a fixed finding must take its suppression with it.

Usage:
  tools/rts_analyze.py [paths...]    # default: src apps bench tests
                                     #          examples tools
      [-p BUILD_DIR | --compile-commands FILE]
      [--frontend auto|libclang|internal]    # default: auto
      [--baseline FILE] [--output FILE] [--json FILE]
      [--list-files] [--self-test]
Exit status: 0 clean, 1 findings or stale baseline, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl"}
HEADER_SUFFIXES = {".hpp", ".hh", ".h"}

ALLOW_RE = re.compile(r"rts-analyze:\s*allow\(([A-Za-z0-9_-]+)\)")


class Rule:
    """One analyzer rule. Structural rules (no pattern) are matched by the
    FileModel._rule_* methods. Lexical rules are one regex over the stripped
    code of the files whose repo-relative path parts satisfy `applies`; with
    loop_only they fire only inside a loop body."""

    __slots__ = ("message", "pattern", "applies", "loop_only")

    def __init__(self, message, pattern=None, applies=lambda parts: True,
                 loop_only=False):
        self.message = message
        self.pattern = re.compile(pattern) if pattern else None
        self.applies = applies
        self.loop_only = loop_only


FLOAT_LIT = (r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
             r"|\d+[eE][+-]?\d+)[fFlL]?")

RULES = {
    # Structural tier.
    "nondet-container-iteration": Rule(
        "iteration over an unordered container with order-sensitive effects; "
        "iterate indices or a sorted snapshot instead"),
    "omp-discipline": Rule("OpenMP data-sharing discipline violation"),
    "rng-discipline": Rule("randomness outside rts::Rng substream discipline"),
    "fp-accumulation-order": Rule(
        "floating-point accumulation whose operand order is not provably "
        "fixed; use per-index lanes + an ordered serial merge"),
    "tsa-coverage": Rule(
        "RTS_GUARDED_BY member accessed without holding its mutex "
        "(LockGuard/UniqueLock, RTS_REQUIRES, or assert_held)"),
    "index-domain": Rule(
        "id-indexed container subscripted outside its id domain "
        "(raw integer index or .value() laundering)"),
    "narrowing-overflow": Rule(
        "implicit 64-to-32 narrowing or 32-bit multiply of count-typed "
        "operands feeding a 64-bit offset"),
    "alloc-in-hot-loop": Rule(
        "allocation inside a per-realization/per-evaluation/per-generation "
        "loop; hoist the buffer into a reused workspace"),
    # Lexical tier.
    "no-iostream-in-lib": Rule(
        "direct stream write in library code; use RTS_LOG_* (util/log)",
        r"std::(?:cout|cerr|clog)\b|\bf?printf\s*\(",
        lambda parts: "src" in parts and not (
            "util" in parts and parts[-1] == "log.cpp")),
    "no-float-eq": Rule(
        "exact floating-point comparison; use the 1e-9-epsilon helpers",
        r"[=!]=\s*" + FLOAT_LIT + r"(?![\w.])|" + FLOAT_LIT + r"\s*[=!]="),
    "pragma-once": Rule("header must open with #pragma once"),
    "no-naked-new": Rule(
        "naked new expression; use std::make_unique/make_shared or a "
        "container",
        r"(?<![:\w])new\s+[A-Za-z_(:]"),
    "no-sleep-in-tests": Rule(
        "sleep-based synchronization in a test; use cond-vars/futures/joins",
        r"\bsleep_for\s*\(|\bsleep_until\s*\(",
        lambda parts: "tests" in parts),
    "no-evaluator-in-loop": Rule(
        "evaluator constructed inside a loop; hoist an EvalWorkspace "
        "(ga/eval.hpp) and rebuild() per candidate",
        r"\bTimingEvaluator\b(?:\s+\w+)?\s*[({]|\bTimingEvaluator\s*>\s*\("
        r"|\bcompute_(?:schedule_timing|makespan)\s*\(",
        lambda parts: "src" in parts and "ga" in parts, loop_only=True),
    "no-raw-schedule": Rule(
        "raw Schedule construction outside src/sched and src/resched; build "
        "placements through InsertionScheduleBuilder or decode()",
        # Direct construction plus the smart-pointer spelling
        # (make_unique/make_shared<Schedule>(...)).
        r"\bSchedule\s*[({]|\bSchedule\s*>\s*\(",
        lambda parts: ("src" in parts and "sched" not in parts
                       and "resched" not in parts)),
    "no-scalar-mc-in-loop": Rule(
        "scalar timing sweep in a Monte-Carlo loop; batch realizations "
        "through sim/batched_sweep (bit-identical, several times faster)",
        r"\b(?:makespan_into|full_timing_into|full_timing|partial_timing"
        r"|compute_makespan|compute_schedule_timing)\s*\("
        r"|\.\s*makespan\s*\(",
        lambda parts: "src" in parts and "sim" in parts, loop_only=True),
}

# Directories where the strong-id subscript discipline is enforced.
ID_STRICT_DIRS = {"graph", "sched", "sim", "ga"}

SUBSCRIPT_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*\.\s*)?[A-Za-z_]\w*)\s*\[([^\][]+)\]")
VALUE_LAUNDER_RE = re.compile(r"\.\s*value\s*\(\s*\)")
IDVEC_TYPE_RE = re.compile(r"\b(?:IdVector|IdSpan)\s*<")
IDVEC_ID_RE = re.compile(r"\b(?:IdVector|IdSpan)\s*<\s*(\w+)")
STRONG_ID_TYPE_RE = re.compile(r"\b(?:TaskId|ProcId|EdgeId|LaneId|StrongId\s*<)")
RAW_INDEX_TYPE_RE = re.compile(
    r"^(?:const\s+)?(?:(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t)"
    r"|unsigned(?:\s+(?:int|long|short|char))?|int|long(?:\s+long)?|short)"
    r"(?:\s*[&])?\s*$")
NARROW32_DECL_RE = re.compile(
    r"\b(?:const\s+)?((?:std::)?u?int(?:8|16|32)_t|int|unsigned(?:\s+int)?"
    r"|short)\s+(\w+)\s*=\s*([^;{}]+)")
WIDE64_DECL_RE = re.compile(
    r"\b(?:const\s+)?((?:std::)?u?int64_t|(?:std::)?size_t"
    r"|(?:std::)?ptrdiff_t|EdgeId|long(?:\s+long)?)\s+(\w+)\s*=\s*([^;{}]+)")
WIDE_TYPE_RE = re.compile(
    r"\b(?:std::)?(?:u?int64_t|size_t|ptrdiff_t)\b|\blong\b")
NARROW32_TYPE_RE = re.compile(
    r"^(?:const\s+)?(?:(?:std::)?u?int(?:8|16|32)_t|int|unsigned(?:\s+int)?"
    r"|short)\s*&?\s*$")
STATIC_CAST_RE = re.compile(r"\bstatic_cast\s*<")
SIZE_CALL_RE = re.compile(r"\.\s*(?:size|index|length|count)\s*\(\s*\)")
MUL_OPERANDS_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\*\s*([A-Za-z_]\w*)\b")
HOT_LOOP_RE = re.compile(
    r"realization|realisation|\brep\b|\breps\b|\bn_reps\b"
    r"|\beval(?:s|uations?)?\b|\bnum_evals\b|\bper_eval\b"
    r"|\bmax_iterations\b|\bgenerations?\b")
ALLOC_CALL_RE = re.compile(r"\.\s*(?:push_back|emplace_back|resize)\s*\(")
FRESH_VEC_RE = re.compile(
    r"\b(?:std::\s*)?vector\s*<[^;]*?>\s+\w+\s*[;({=]"
    r"|\bIdVector\s*<[^;]*?>\s+\w+\s*[;({=]")

UNORDERED_RE = re.compile(
    r"\bunordered_(?:flat_)?(?:multi)?(?:map|set)\b")
FLOAT_TYPE_RE = re.compile(r"\b(?:double|float)\b")
ORDERED_APPEND_RE = re.compile(
    r"\.\s*(?:push_back|emplace_back|push_front|emplace_front|append)\s*\(")
OUTPUT_RE = re.compile(r"<<|RTS_LOG_\w+\s*\(")
COMPOUND_FP_RE = re.compile(r"([A-Za-z_]\w*)\s*[-+*]=")
ACCUMULATE_RE = re.compile(
    r"\bstd::accumulate\s*\(\s*([A-Za-z_]\w*)\s*\.\s*(?:c?begin)\s*\(")
RAW_RAND_RE = re.compile(
    r"std::random_device|\bs?rand\s*\(|std::mt19937|std::minstd_rand"
    r"|std::default_random_engine|std::ranlux\d*"
    r"|std::uniform_(?:int|real)_distribution")
TIME_SOURCE_RE = re.compile(
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\bclock\s*\(\s*\)"
    r"|::now\s*\(\s*\)|\bgettimeofday\s*\(")
THREAD_ID_RE = re.compile(
    r"\bomp_get_thread_num\s*\(\s*\)|this_thread::get_id\s*\(\s*\)"
    r"|\bpthread_self\s*\(\s*\)|\bgetpid\s*\(\s*\)")
SEED_SINK_RE = re.compile(r"\bRng\b|\bseed\b|\bsrand\b|\bsubstream\s*\(")

LOCK_ACQUIRE_RE = re.compile(
    r"\b(?:LockGuard|UniqueLock|std::lock_guard\s*<[^>]*>|"
    r"std::unique_lock\s*<[^>]*>|std::scoped_lock\s*<[^>]*>?)\s+\w+\s*[({]\s*"
    r"(\w+)\s*[)}]")
ASSERT_HELD_RE = re.compile(r"(\w+)(?:\.|->)assert_held\s*\(\s*\)")
GUARDED_MEMBER_RE = re.compile(
    r"(\S[^;{}]*?)\s+(\w+)\s+RTS_GUARDED_BY\(\s*(\w+)\s*\)")
MEMBER_DECL_RE = re.compile(
    r"^(?:(?:const|static|constexpr|mutable|inline)\s+)*"
    r"((?:std::)?[A-Za-z_]\w*(?:::\w+)*(?:\s*<.*>)?(?:\s*[&*])*)\s+"
    r"(\w+)\s*(?:=|;|\{|$)")
METHOD_ANNOT_RE = re.compile(
    r"\b(~?\w+)\s*\([^;{}]*\)[^;{}]*\bRTS_(REQUIRES|NO_THREAD_SAFETY_ANALYSIS)"
    r"(?:\(\s*([^)]*)\s*\))?")
DECL_STMT_RE = re.compile(
    r"^(?:(?:const|static|constexpr|mutable|inline|thread_local)\s+)*"
    r"((?:std::)?[A-Za-z_]\w*(?:::\w+)*(?:\s*<.+>)?)"
    r"((?:\s*[&*])*)\s+"
    r"([A-Za-z_]\w*)\s*(?:[=({;,]|$)")
DECL_KEYWORDS = {
    "return", "delete", "throw", "goto", "break", "continue", "using",
    "typedef", "case", "if", "else", "while", "for", "do", "switch", "new",
    "public", "private", "protected", "friend", "template", "typename",
    "namespace", "class", "struct", "enum", "union", "operator", "sizeof",
    "co_return", "co_yield", "co_await",
}
RANGE_FOR_RE = re.compile(r"\bfor\s*\((.*)\)\s*$", re.S)
ITER_LOOP_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&?\s*\w+\s*=\s*([A-Za-z_]\w*)\s*"
    r"(?:\.|->)\s*c?begin\s*\(")
INDEX_LOOP_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:]+(?:\s*<[^;]*>)?\s+\w+\s*=\s*[^;]+;"
    r"[^;]*[<>!]=?[^;]*;")
FUNC_HEADER_RE = re.compile(
    r"([~\w]+(?:\s*::\s*[~\w]+)*)\s*\(([^;]*)\)\s*"
    r"(?:const\s*)?(?:noexcept\s*(?:\([^)]*\)\s*)?)?"
    r"(?:->\s*[\w:<>,\s*&]+\s*)?(?:RTS_\w+\s*(?:\([^)]*\))?\s*)*"
    r"(?::\s*[^{]*)?$", re.S)
LOOP_KEYWORD_RE = re.compile(r"\b(?:for|while)\s*$")
LAMBDA_HEADER_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\([^)]*\))?\s*"
                              r"(?:mutable\s*)?(?:noexcept\s*)?"
                              r"(?:->\s*[\w:<>,\s*&]+\s*)?$", re.S)


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message


# ---------------------------------------------------------------------------
# Lexing: comment/string-stripped code lines, raw lines kept for allow().

def strip_code(lines):
    """Yield (lineno, code, raw) with comments and string/char literals
    blanked out; tracks /* */ across lines."""
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
                break
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
                out.append(quote + quote)
                continue
            out.append(ch)
            i += 1
        yield lineno, "".join(out), raw


# ---------------------------------------------------------------------------
# Scope model.

class Scope:
    """One node of the scope tree while walking a file."""

    __slots__ = ("kind", "name", "class_name", "decls", "locks", "loop",
                 "omp_parallel", "omp_for", "annotations", "header_line",
                 "reported", "paren_base")

    def __init__(self, kind, name="", class_name=""):
        self.kind = kind  # namespace | class | function | lambda | loop | block
        self.paren_base = 0
        self.name = name
        self.class_name = class_name
        self.decls = {}      # var name -> declared type text
        self.locks = set()   # mutex names held in this scope
        self.loop = None     # dict for loop scopes (see classify_header)
        self.omp_parallel = False
        self.omp_for = False
        self.annotations = set()  # function scopes: RTS_REQUIRES targets etc.
        self.header_line = 0
        self.reported = set()  # per-scope finding dedupe keys


class ClassInfo:
    __slots__ = ("members", "guarded", "method_requires", "method_no_tsa")

    def __init__(self):
        self.members = {}          # name -> type text
        self.guarded = {}          # name -> guarding mutex name
        self.method_requires = {}  # method name -> set of mutex names
        self.method_no_tsa = set()


def split_top(text, sep=","):
    """Split at `sep` outside (), <>, [], {}."""
    parts, depth_p, depth_a, depth_b, depth_c, cur = [], 0, 0, 0, 0, []
    for ch in text:
        if ch == "(":
            depth_p += 1
        elif ch == ")":
            depth_p -= 1
        elif ch == "<":
            depth_a += 1
        elif ch == ">":
            depth_a = max(0, depth_a - 1)
        elif ch == "[":
            depth_b += 1
        elif ch == "]":
            depth_b -= 1
        elif ch == "{":
            depth_c += 1
        elif ch == "}":
            depth_c -= 1
        if ch == sep and depth_p == depth_a == depth_b == depth_c == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_decl(stmt):
    """Try to parse `stmt` as a variable declaration; return (type, name)."""
    stmt = stmt.strip()
    m = DECL_STMT_RE.match(stmt)
    if not m:
        return None
    base, ptrs, name = m.group(1), m.group(2), m.group(3)
    first_word = re.match(r"[\w:]+", base)
    if first_word and first_word.group(0).split("::")[0] in DECL_KEYWORDS:
        return None
    if name in DECL_KEYWORDS:
        return None
    return (base + ptrs).strip(), name


class FileModel:
    """Internal frontend: walks one file, feeding rule callbacks."""

    def __init__(self, analyzer, path, relpath):
        self.an = analyzer
        self.path = path
        self.rel = relpath
        self.scopes = [Scope("file")]
        self.stmt = []           # pieces of the statement being assembled
        self.stmt_line = 0
        self.pending_omp = None  # (pragma text, lineno) awaiting its scope
        self.paren = 0
        self.scan_buf = []       # current line's scope-stable segment
        self.scan_loop = []      # per scan_buf char: inside a loop header
                                 # or a braceless loop body?
        self.braceless = False   # such a header/body is open right now
        parts = Path(relpath).parts
        self.lexical = [(name, rule) for name, rule in RULES.items()
                        if rule.pattern and rule.applies(parts)]
        self.lexical_hits = set()  # (lineno, rule): one finding per line

    # -- scope helpers ------------------------------------------------------

    def current_class(self):
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.name
        return ""

    def current_function(self):
        for s in reversed(self.scopes):
            if s.kind in ("function", "lambda"):
                return s
        return None

    def enclosing_method(self):
        """Innermost *named* method scope (skips lambdas)."""
        for s in reversed(self.scopes):
            if s.kind == "function":
                return s
        return None

    def held_locks(self, through_lambda=False):
        """Mutexes held at the current point. Lock state does not flow into
        lambda bodies (they run later) unless re-established inside."""
        held = set()
        for s in reversed(self.scopes):
            held |= s.locks
            if s.kind == "lambda" and not through_lambda:
                break
        return held

    def in_omp_parallel(self):
        return any(s.omp_parallel for s in self.scopes)

    def in_omp_for_loop(self):
        return any(s.kind == "loop" and s.omp_for for s in self.scopes)

    def innermost_loop(self):
        for s in reversed(self.scopes):
            if s.kind == "loop":
                return s
        return None

    def resolve(self, name):
        """Declared type of `name` at the current point, or None."""
        for s in reversed(self.scopes):
            if name in s.decls:
                return s.decls[name]
        cls = self.current_class() or self._method_class()
        if cls:
            info = self.an.classes.get(cls)
            if info and name in info.members:
                return info.members[name]
        # libclang oracle: (file, name) -> canonical type.
        oracle = self.an.libclang_types.get(self.rel)
        if oracle and name in oracle:
            return oracle[name]
        return None

    def _method_class(self):
        fn = self.enclosing_method()
        if fn and "::" in fn.name:
            return fn.name.rsplit("::", 1)[0].strip()
        return ""

    def var_declared_inside_parallel(self, name):
        """True when `name` is declared at or inside the innermost OpenMP
        parallel region (so each thread owns its copy)."""
        for s in reversed(self.scopes):
            if name in s.decls:
                return True
            if s.omp_parallel:
                return False
        return False

    # -- header classification ---------------------------------------------

    def classify_header(self, header, lineno):
        h = header.strip()
        scope = None
        if not h:
            scope = Scope("block")
        elif re.search(r"\bnamespace\b", h) and "(" not in h:
            m = re.search(r"\bnamespace\s+(\w+)?", h)
            scope = Scope("namespace", m.group(1) or "" if m else "")
        elif re.search(r"\b(?:class|struct|union)\s+(\w+)[^;()]*$", h):
            m = re.search(r"\b(?:class|struct|union)\s+(\w+)", h)
            scope = Scope("class", m.group(1))
            self.an.classes.setdefault(m.group(1), ClassInfo())
        elif re.search(r"\benum\b", h) and "(" not in h:
            scope = Scope("block")
        elif re.search(r"\bfor\s*\(", h):
            scope = self._loop_scope(h, lineno)
        elif re.search(r"\b(?:while|do)\b", h):
            scope = Scope("loop")
            scope.loop = {"kind": "while", "iter_type": None,
                          "nondet": False, "line": lineno,
                          "hot": self._loop_is_hot(h)}
        elif re.search(r"\b(?:if|else|switch|try|catch)\b", h):
            scope = Scope("block")
        elif LAMBDA_HEADER_RE.search(h):
            scope = Scope("lambda", class_name=self.current_class()
                          or self._method_class())
            self._add_params(scope, h)
        elif FUNC_HEADER_RE.search(h) and self.paren == 0:
            m = FUNC_HEADER_RE.search(h)
            name = re.sub(r"\s+", "", m.group(1))
            scope = Scope("function", name)
            cls = self.current_class()
            if not cls and "::" in name:
                cls = name.rsplit("::", 1)[0]
            scope.class_name = cls
            self._add_params(scope, h)
            for annot in re.finditer(
                    r"RTS_(REQUIRES|NO_THREAD_SAFETY_ANALYSIS)"
                    r"(?:\(\s*([^)]*)\s*\))?", h):
                if annot.group(1) == "REQUIRES" and annot.group(2):
                    for mu in annot.group(2).split(","):
                        scope.annotations.add(mu.strip())
                else:
                    scope.annotations.add("<no-tsa>")
        else:
            scope = Scope("block")
        scope.header_line = lineno
        # Attach a pending OpenMP pragma to the scope it governs.
        if self.pending_omp is not None:
            text, pline = self.pending_omp
            if re.search(r"\bparallel\b", text):
                scope.omp_parallel = True
            if re.search(r"\bfor\b", text) and scope.kind == "loop":
                scope.omp_for = True
            self.pending_omp = None
        return scope

    def _loop_is_hot(self, header):
        """A loop is 'hot' when its header names the per-realization /
        per-evaluation / per-generation axis, or when it nests inside a hot
        loop."""
        if HOT_LOOP_RE.search(header):
            return True
        enclosing = self.innermost_loop()
        return bool(enclosing and enclosing.loop
                    and enclosing.loop.get("hot"))

    def _loop_scope(self, header, lineno):
        scope = Scope("loop")
        info = {"kind": "other", "iter_expr": None, "iter_type": None,
                "nondet": False, "line": lineno,
                "hot": self._loop_is_hot(header)}
        m = RANGE_FOR_RE.search(header)
        inner = m.group(1) if m else ""
        parts = split_top(inner, ":") if inner else []
        if len(parts) == 2 and ";" not in inner:
            info["kind"] = "range"
            expr = parts[1].strip()
            info["iter_expr"] = expr
            base = re.match(r"([A-Za-z_]\w*)\s*$", expr)
            if base:
                info["iter_type"] = self.resolve(base.group(1))
            decl = parse_decl(parts[0].strip() + " ;")
            if decl:
                scope.decls[decl[1]] = decl[0]
            else:
                # structured bindings: for (const auto& [k, v] : m)
                sb = re.search(r"\[([^\]]*)\]", parts[0])
                if sb:
                    for nm in sb.group(1).split(","):
                        scope.decls[nm.strip()] = "auto"
        else:
            it = ITER_LOOP_RE.search(header)
            if it:
                info["kind"] = "iter"
                info["iter_expr"] = it.group(1)
                info["iter_type"] = self.resolve(it.group(1))
            elif INDEX_LOOP_RE.search(header):
                info["kind"] = "index"
            if inner:
                first = split_top(inner, ";")[0] if ";" in inner else parts[0]
                decl = parse_decl(first.strip() + " ;")
                if decl:
                    scope.decls[decl[1]] = decl[0]
        if info["iter_type"] and UNORDERED_RE.search(info["iter_type"]):
            info["nondet"] = True
        # Unresolved iterated expressions that *syntactically* name an
        # unordered container (e.g. a direct member like `index_` whose type
        # the oracle knows, or `foo.unordered_map_`) stay non-flagged: the
        # rule only fires on proven unordered types, so it cannot false-
        # positive on vectors it failed to resolve.
        scope.loop = info
        return scope

    def _add_params(self, scope, header):
        m = re.search(r"\(([^()]*(?:\([^()]*\)[^()]*)*)\)", header)
        if not m:
            return
        for part in split_top(m.group(1)):
            decl = parse_decl(part.strip() + " ;")
            if decl:
                scope.decls[decl[1]] = decl[0]

    # -- statement / line processing ----------------------------------------

    def feed_line(self, lineno, code, raw, prev_raw):
        allow = set(ALLOW_RE.findall(raw)) | set(ALLOW_RE.findall(prev_raw))
        stripped = code.strip()
        if stripped.startswith("#"):
            self._rule_lexical(lineno, code, [False] * len(code), allow)
            if re.match(r"#\s*pragma\s+omp\b", stripped):
                self.an.pragma_buffer = (stripped.rstrip("\\").strip(), lineno,
                                         allow)
                if not raw.rstrip().endswith("\\"):
                    self._finish_pragma()
            return
        if self.an.pragma_buffer is not None:
            text, pline, pallow = self.an.pragma_buffer
            self.an.pragma_buffer = (text + " " + stripped.rstrip("\\").strip(),
                                     pline, pallow | allow)
            if not raw.rstrip().endswith("\\"):
                self._finish_pragma()
            return
        self._consume(lineno, code, allow)

    def _finish_pragma(self):
        text, lineno, allow = self.an.pragma_buffer
        self.an.pragma_buffer = None
        self.check_omp_pragma(text, lineno, allow)
        self.pending_omp = (text, lineno)

    def _consume(self, lineno, code, allow=None):
        """Drive statement assembly, the scope stack, and — when `allow` is
        not None (pass B) — rule scanning of scope-stable line segments.

        `{` always opens a scope: at the enclosing scope's paren baseline it
        is classified from the statement assembled so far (function, loop,
        class, ...); at deeper paren nesting it is a lambda body when the
        assembled tail reads like a lambda introducer (the `cv.wait(lock,
        [this]{...})` shape), otherwise an inert brace-init scope. Each scope
        records the paren depth it was opened at so `;`/`}` inside
        call-argument lambdas still delimit statements correctly."""
        for ch in code:
            base = self.scopes[-1].paren_base
            if ch == "(":
                if self.paren == base and LOOP_KEYWORD_RE.search(
                        "".join(self.stmt[-12:])):
                    self.braceless = True
                self.paren += 1
            elif ch == ")":
                self.paren = max(0, self.paren - 1)
            elif ch == "{":
                self._scan_segment(lineno, allow, opener=ch)
                if self.paren == base:
                    self.braceless = False  # a braced body opens a loop scope
                header = "".join(self.stmt).strip()
                hline = self.stmt_line or lineno
                if self.paren == base:
                    scope = self.classify_header(header, hline)
                elif LAMBDA_HEADER_RE.search(header):
                    scope = Scope("lambda", class_name=self.current_class()
                                  or self._method_class())
                    scope.header_line = hline
                    self._add_params(scope, header)
                else:
                    scope = Scope("block")
                    scope.header_line = hline
                scope.paren_base = self.paren
                self.scopes.append(scope)
                self.stmt = []
                self.stmt_line = 0
                continue
            elif ch == "}" and self.paren == base:
                self._scan_push(ch)
                self._scan_segment(lineno, allow)
                self._end_statement(lineno)
                if len(self.scopes) > 1:
                    self.scopes.pop()
                continue
            elif ch == ";" and self.paren == base:
                self.stmt.append(ch)
                self._scan_push(ch)
                self.braceless = False
                self._end_statement(lineno)
                continue
            if not self.stmt and not ch.isspace():
                self.stmt_line = lineno
            self.stmt.append(ch)
            self._scan_push(ch)
        self._scan_segment(lineno, allow)

    def _scan_push(self, ch):
        self.scan_buf.append(ch)
        self.scan_loop.append(self.braceless)

    def _scan_segment(self, lineno, allow, opener=""):
        """Run the rules over the buffered segment. Lexical rules also see
        the `{` that ended it, so `Schedule{...}` still matches."""
        text = "".join(self.scan_buf)
        in_loop = self.scan_loop + [self.braceless] * len(opener)
        self.scan_buf = []
        self.scan_loop = []
        seg = text.strip()
        if not seg or allow is None:
            return
        self._rule_lexical(lineno, text + opener, in_loop, allow)
        self._rule_rng(lineno, seg, allow)
        self._rule_nondet_iteration(lineno, seg, allow)
        self._rule_fp_accumulation(lineno, seg, allow)
        self._rule_tsa(lineno, seg, allow)
        self._rule_index_domain(lineno, seg, allow)
        self._rule_narrowing_overflow(lineno, seg, allow)
        self._rule_alloc_in_hot_loop(lineno, seg, allow)

    def _end_statement(self, lineno):
        stmt = "".join(self.stmt).strip()
        line = self.stmt_line or lineno
        self.stmt = []
        self.stmt_line = 0
        if not stmt:
            return
        top = self.scopes[-1]
        if top.kind == "class":
            self._class_statement(top, stmt)
            return
        decl = parse_decl(stmt)
        if decl:
            top.decls[decl[1]] = decl[0]
        m = LOCK_ACQUIRE_RE.search(stmt)
        if m:
            top.locks.add(m.group(1))
        m = ASSERT_HELD_RE.search(stmt)
        if m:
            top.locks.add(m.group(1))
        _ = line

    def _class_statement(self, scope, stmt):
        info = self.an.classes.setdefault(scope.name, ClassInfo())
        g = GUARDED_MEMBER_RE.search(stmt)
        if g:
            info.members[g.group(2)] = g.group(1).strip()
            info.guarded[g.group(2)] = g.group(3)
            return
        a = METHOD_ANNOT_RE.search(stmt)
        if a:
            if a.group(2) == "REQUIRES" and a.group(3):
                targets = {mu.strip() for mu in a.group(3).split(",")}
                info.method_requires.setdefault(a.group(1), set()).update(targets)
            else:
                info.method_no_tsa.add(a.group(1))
            return
        if "(" in stmt:
            return  # method declaration without annotations — nothing to record
        decl = parse_decl(stmt)
        if decl:
            info.members[decl[1]] = decl[0]

    # -- rules --------------------------------------------------------------

    def report(self, lineno, rule, message, allow):
        if rule in allow:
            return
        loop = self.innermost_loop()
        if loop and loop.loop and rule in self.an.header_allows.get(
                (self.rel, loop.loop.get("line")), set()):
            return
        self.an.add_finding(self.rel, lineno, rule, message)

    def check_omp_pragma(self, text, lineno, allow):
        if re.search(r"\bparallel\b", text) and "default(none)" not in \
                text.replace(" ", ""):
            self.report(lineno, "omp-discipline",
                        "#pragma omp parallel without default(none); make "
                        "every data-sharing decision explicit", allow)
        for red in re.finditer(r"\breduction\s*\(\s*([^:]+):([^)]*)\)", text):
            op = red.group(1).strip()
            for var in red.group(2).split(","):
                var = var.strip()
                vtype = self.resolve(var) if var else None
                if vtype is None:
                    self.report(
                        lineno, "omp-discipline",
                        f"reduction({op}:{var}) on a variable of unprovable "
                        "type; FP reductions are banned (order varies with "
                        "thread count) — lane-accumulate and merge in index "
                        "order", allow)
                elif FLOAT_TYPE_RE.search(vtype):
                    self.report(
                        lineno, "omp-discipline",
                        f"floating-point reduction({op}:{var}) is "
                        "nondeterministic across thread counts; "
                        "lane-accumulate and merge in index order", allow)

    def _rule_lexical(self, lineno, text, in_loop, allow):
        for name, rule in self.lexical:
            if (lineno, name) in self.lexical_hits:
                continue
            for m in rule.pattern.finditer(text):
                if rule.loop_only and not (in_loop[m.start()]
                                           or self.innermost_loop()):
                    continue
                self.lexical_hits.add((lineno, name))
                self.report(lineno, name, rule.message, allow)
                break

    def _rule_rng(self, lineno, code, allow):
        parts = self.path.parts
        if "util" in parts and self.path.stem in {"rng", "distributions"}:
            return
        if RAW_RAND_RE.search(code):
            self.report(lineno, "rng-discipline",
                        "raw randomness source; derive an rts::Rng substream "
                        "keyed by a logical index instead", allow)
        if SEED_SINK_RE.search(code):
            if TIME_SOURCE_RE.search(code):
                self.report(lineno, "rng-discipline",
                            "wall-clock-derived seed; results must be "
                            "reproducible from the configured seed alone",
                            allow)
            if THREAD_ID_RE.search(code):
                self.report(lineno, "rng-discipline",
                            "thread-id-dependent seed; substream by logical "
                            "index so results are thread-count-invariant",
                            allow)

    def _rule_nondet_iteration(self, lineno, code, allow):
        loop = self.innermost_loop()
        if not loop or not loop.loop or not loop.loop.get("nondet"):
            return
        effects = []
        if ORDERED_APPEND_RE.search(code):
            effects.append("appends to an ordered container")
        if OUTPUT_RE.search(code):
            effects.append("emits output")
        for m in COMPOUND_FP_RE.finditer(code):
            t = self.resolve(m.group(1))
            if t and FLOAT_TYPE_RE.search(t):
                effects.append(f"accumulates floating point into "
                               f"'{m.group(1)}'")
                break
        for effect in effects:
            key = ("nondet", loop.loop["line"], effect)
            if key in loop.reported:
                continue
            loop.reported.add(key)
            self.report(
                lineno, "nondet-container-iteration",
                f"loop over unordered container "
                f"'{loop.loop.get('iter_expr')}' {effect}; hash order is "
                "unspecified — iterate a sorted/indexed order", allow)

    def _rule_fp_accumulation(self, lineno, code, allow):
        m = ACCUMULATE_RE.search(code)
        if m:
            t = self.resolve(m.group(1))
            if t and UNORDERED_RE.search(t):
                self.report(lineno, "fp-accumulation-order",
                            f"std::accumulate over unordered container "
                            f"'{m.group(1)}'; accumulate a sorted snapshot",
                            allow)
        if not self.in_omp_for_loop():
            return
        for cm in COMPOUND_FP_RE.finditer(code):
            name = cm.group(1)
            t = self.resolve(name)
            if not t or not FLOAT_TYPE_RE.search(t):
                continue
            if self.var_declared_inside_parallel(name):
                continue
            self.report(
                lineno, "fp-accumulation-order",
                f"'{name}' is accumulated across omp-for iterations but "
                "declared outside the parallel region; write per-index "
                "results and reduce serially", allow)
            break

    def _rule_tsa(self, lineno, code, allow):
        fn = self.current_function()  # innermost function OR lambda scope
        if fn is None:
            return  # class/file scope lines are declarations, not accesses
        cls = fn.class_name
        if not cls:
            return
        info = self.an.classes.get(cls)
        if not info or not info.guarded:
            return
        method = fn.name.rsplit("::", 1)[-1] if fn.kind == "function" else ""
        if method and (method == cls or method == "~" + cls):
            return  # constructors/destructors: no concurrent access yet
        if method in info.method_no_tsa or "<no-tsa>" in fn.annotations:
            return
        granted = set(fn.annotations) | info.method_requires.get(method, set())
        held = self.held_locks() | granted
        for member, mutex in info.guarded.items():
            if not re.search(rf"\b{re.escape(member)}\b", code):
                continue
            if mutex in held:
                continue
            if LOCK_ACQUIRE_RE.search(code) or ASSERT_HELD_RE.search(code):
                continue  # the acquisition statement itself
            key = ("tsa", lineno, member)
            if key in fn.reported:
                continue
            fn.reported.add(key)
            self.report(
                lineno, "tsa-coverage",
                f"'{member}' is RTS_GUARDED_BY({mutex}) but {cls}::"
                f"{method or '<lambda>'} accesses it without holding "
                f"{mutex}", allow)

    # -- v2 rules: index-domain / narrowing-overflow / alloc-in-hot-loop ----

    def _in_id_strict_dir(self):
        parts = Path(self.rel).parts
        return len(parts) >= 2 and parts[0] == "src" and \
            parts[1] in ID_STRICT_DIRS

    def _base_type(self, base):
        """Resolve the declared type of a subscript base: a plain identifier
        or a one-level member expression `obj.field` (via the class tables
        built in pass A). Returns None when unprovable — rules stay quiet."""
        base = base.replace(" ", "")
        if "." in base:
            obj, field = base.split(".", 1)
            if "." in field:
                return None
            obj_type = self.resolve(obj)
            if not obj_type:
                return None
            cls = re.sub(r"\bconst\b|[&*]", "", obj_type).strip()
            cls = cls.split("<")[0].strip().split("::")[-1]
            info = self.an.classes.get(cls)
            return info.members.get(field) if info else None
        return self.resolve(base)

    def _rule_index_domain(self, lineno, code, allow):
        if not self._in_id_strict_dir():
            return
        for m in SUBSCRIPT_RE.finditer(code):
            base, idx = m.group(1), m.group(2).strip()
            if VALUE_LAUNDER_RE.search(idx):
                self.report(
                    lineno, "index-domain",
                    f"subscript of '{base}' launders a strong id through "
                    ".value(); .value() is for serialization/hash/print "
                    "only — pass the typed id (id-indexed containers) or "
                    ".index() (raw positional buffers)", allow)
                continue
            btype = self._base_type(base)
            if not btype or not IDVEC_TYPE_RE.search(btype):
                continue
            if not re.fullmatch(r"[A-Za-z_]\w*", idx):
                continue
            itype = self.resolve(idx)
            if not itype or STRONG_ID_TYPE_RE.search(itype):
                continue
            if RAW_INDEX_TYPE_RE.match(itype.strip()):
                want = IDVEC_ID_RE.search(btype)
                self.report(
                    lineno, "index-domain",
                    f"raw integer '{idx}' ({itype.strip()}) subscripts "
                    f"id-indexed '{base}'; index it with "
                    f"{want.group(1) if want else 'its id type'} so the "
                    "domain stays type-checked", allow)

    def _rule_narrowing_overflow(self, lineno, code, allow):
        m = NARROW32_DECL_RE.search(code)
        if m and not STATIC_CAST_RE.search(m.group(3)):
            expr = m.group(3)
            wide = None
            if SIZE_CALL_RE.search(expr):
                wide = "a size_t-returning call"
            else:
                for ident in re.finditer(r"\b[A-Za-z_]\w*\b", expr):
                    t = self.resolve(ident.group(0))
                    if t and WIDE_TYPE_RE.search(t):
                        wide = f"'{ident.group(0)}' ({t.strip()})"
                        break
            if wide:
                self.report(
                    lineno, "narrowing-overflow",
                    f"'{m.group(2)}' ({m.group(1)}) is initialized from "
                    f"{wide}: implicit 64-to-32 narrowing; widen the "
                    "declaration or make the narrowing an explicit, "
                    "range-checked static_cast", allow)
        m = WIDE64_DECL_RE.search(code)
        if m and not STATIC_CAST_RE.search(m.group(3)):
            for mul in MUL_OPERANDS_RE.finditer(m.group(3)):
                ta = self.resolve(mul.group(1))
                tb = self.resolve(mul.group(2))
                if ta and tb and NARROW32_TYPE_RE.match(ta.strip()) and \
                        NARROW32_TYPE_RE.match(tb.strip()):
                    self.report(
                        lineno, "narrowing-overflow",
                        f"'{mul.group(1)} * {mul.group(2)}' multiplies two "
                        "32-bit counts and only then widens to "
                        f"{m.group(1)}: the product overflows before the "
                        "widening; static_cast one operand to the 64-bit "
                        "type first", allow)
                    break

    def _rule_alloc_in_hot_loop(self, lineno, code, allow):
        parts = Path(self.rel).parts
        if len(parts) < 2 or parts[0] != "src" or parts[1] not in \
                ("sim", "ga"):
            return
        hot = None
        for s in reversed(self.scopes):
            if s.kind == "loop" and s.loop and s.loop.get("hot"):
                hot = s
                break
        if hot is None:
            return
        what = None
        if ALLOC_CALL_RE.search(code):
            what = "grows a container"
        elif FRESH_VEC_RE.search(code):
            what = "constructs a fresh vector"
        if what is None:
            return
        key = ("alloc", hot.loop["line"], lineno)
        if key in hot.reported:
            return
        hot.reported.add(key)
        self.report(
            lineno, "alloc-in-hot-loop",
            f"{what} inside the per-realization/per-evaluation/"
            f"per-generation loop at line {hot.loop['line']}; one "
            "allocation per pass dominates the hot kernels — hoist the "
            "buffer into a reused workspace", allow)


# ---------------------------------------------------------------------------
# Analyzer driver.

class Analyzer:
    def __init__(self, root):
        self.root = root
        self.classes = {}        # class name -> ClassInfo (global, pass A)
        self.libclang_types = {}  # relpath -> {name -> canonical type}
        self.findings = []
        self.pragma_buffer = None
        self.header_allows = {}  # (relpath, lineno) -> rules allowed there

    def add_finding(self, rel, lineno, rule, message):
        self.findings.append(Finding(rel, lineno, rule, message))

    def relpath(self, path):
        try:
            return str(Path(path).resolve().relative_to(self.root))
        except ValueError:
            return str(path)

    def scan_file(self, path, text, collect_only):
        rel = self.relpath(path)
        lines = text.splitlines()
        if not collect_only:
            # Pre-pass: remember allow() markers per line for loop-header
            # suppression of loop-body findings.
            for lineno, raw in enumerate(lines, start=1):
                rules = set(ALLOW_RE.findall(raw))
                if rules:
                    self.header_allows[(rel, lineno)] = rules
                    self.header_allows.setdefault((rel, lineno + 1), set())
        model = FileModel(self, path, rel)
        if not collect_only and path.suffix in HEADER_SUFFIXES:
            first = next((code.strip() for _, code, _ in strip_code(lines)
                          if code.strip()), "")
            if first != "#pragma once":
                model.report(1, "pragma-once", RULES["pragma-once"].message,
                             set(ALLOW_RE.findall(lines[0] if lines else "")))
        self.pragma_buffer = None
        prev_raw = ""
        for lineno, code, raw in strip_code(lines):
            if collect_only:
                model._consume_collect(lineno, code)
            else:
                model.feed_line(lineno, code, raw, prev_raw)
            prev_raw = raw
        return model


def _consume_collect(self, lineno, code):
    """Pass A: scope walk that only records class/member/annotation tables
    (no findings). Reuses the full consumption machinery with rules off."""
    stripped = code.strip()
    if stripped.startswith("#"):
        return
    self._consume(lineno, code)


FileModel._consume_collect = _consume_collect


# ---------------------------------------------------------------------------
# libclang frontend (optional type oracle).

def load_libclang_types(entries, root, verbose):
    """Parse TUs with clang.cindex and harvest (file -> {var: canonical
    type}). Best-effort: any failure degrades to the internal resolver."""
    try:
        from clang import cindex
    except ImportError:
        return None, "python clang bindings not importable"
    try:
        if not cindex.Config.loaded:
            for cand in sorted(Path("/usr/lib").glob("llvm-*/lib")):
                lib = cand / "libclang.so"
                if lib.exists():
                    cindex.Config.set_library_file(str(lib))
                    break
        index = cindex.Index.create()
    except Exception as e:  # pragma: no cover - environment-dependent
        return None, f"libclang unavailable ({e})"
    types = {}
    decl_kinds = None
    try:
        decl_kinds = {cindex.CursorKind.VAR_DECL, cindex.CursorKind.PARM_DECL,
                      cindex.CursorKind.FIELD_DECL}
    except Exception:
        return None, "libclang cursor kinds unavailable"
    parsed = 0
    for path, args in entries:
        try:
            tu = index.parse(str(path), args=args)
        except Exception:
            continue
        parsed += 1
        stack = [tu.cursor]
        while stack:
            cur = stack.pop()
            try:
                children = list(cur.get_children())
            except Exception:
                children = []
            stack.extend(children)
            try:
                if cur.kind in decl_kinds and cur.location.file is not None:
                    f = Path(str(cur.location.file)).resolve()
                    if root in f.parents or f == root:
                        rel = str(f.relative_to(root))
                        types.setdefault(rel, {})[cur.spelling] = \
                            cur.type.get_canonical().spelling
            except Exception:
                continue
    if verbose:
        print(f"rts_analyze: libclang frontend parsed {parsed} TU(s)")
    return types, None


# ---------------------------------------------------------------------------
# File discovery via compile_commands.json.

def discover_files(paths, compile_commands, root):
    """Files to analyze: TUs listed in compile_commands under the requested
    paths, plus headers found by walking those paths. Falls back to a plain
    glob when no compile database is available. Returns (files, cc_entries)
    where cc_entries is [(path, clang_args)] for the libclang frontend."""
    roots = [Path(p).resolve() for p in paths]
    files = set()
    cc_entries = []
    if compile_commands and compile_commands.exists():
        try:
            db = json.loads(compile_commands.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"rts_analyze: cannot read {compile_commands}: {e}",
                  file=sys.stderr)
            db = []
        for entry in db:
            f = Path(entry.get("directory", ".")) / entry["file"]
            f = f.resolve()
            if any(r == f or r in f.parents for r in roots):
                files.add(f)
                args = entry.get("arguments")
                if args is None:
                    args = entry.get("command", "").split()
                # Drop compiler, -c/-o pairs and the source file itself.
                clean = []
                skip = False
                for a in args[1:]:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", str(f), entry["file"]):
                        continue
                    if a == "-o":
                        skip = True
                        continue
                    clean.append(a)
                cc_entries.append((f, clean))
    for r in roots:
        if r.is_file():
            files.add(r)
            continue
        for f in r.rglob("*"):
            if f.suffix in CXX_SUFFIXES and f.is_file():
                files.add(f.resolve())
    _ = root
    return sorted(files), cc_entries


# ---------------------------------------------------------------------------
# Baseline.

def load_baseline(path):
    """Entries: `path:rule` (whole file) or `path:line:rule` (one site)."""
    entries = set()
    if path is None or not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.add(line)
    return entries


def baseline_keys(finding):
    return (f"{finding.path}:{finding.rule}",
            f"{finding.path}:{finding.line}:{finding.rule}")


def findings_to_json(reported, stale, file_count):
    """Machine-readable findings document. Key order is fixed (insertion
    order survives json.dumps) so CI artifact diffs are stable."""
    doc = {
        "version": 1,
        "files": file_count,
        "status": "findings" if (reported or stale) else "clean",
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message}
            for f in sorted(reported, key=lambda f: (f.path, f.line, f.rule))
        ],
        "stale_baseline": list(stale),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Analysis entry point.

def analyze(paths, compile_commands, baseline_path, frontend, root,
            output=None, json_output=None, list_files=False):
    files, cc_entries = discover_files(paths, compile_commands, root)
    if list_files:
        for f in files:
            print(Path(f).resolve().relative_to(root) if root in
                  Path(f).resolve().parents else f)
        return 0
    if not files:
        print("rts_analyze: no files to analyze", file=sys.stderr)
        return 2

    analyzer = Analyzer(root)

    if frontend in ("auto", "libclang"):
        types, why = load_libclang_types(cc_entries, root, verbose=False)
        if types is not None:
            analyzer.libclang_types = types
            print(f"rts_analyze: frontend=libclang "
                  f"({len(cc_entries)} TU(s) from compile database)")
        elif frontend == "libclang":
            print(f"rts_analyze: libclang frontend required but {why}",
                  file=sys.stderr)
            return 2
        else:
            print(f"rts_analyze: frontend=internal ({why}; "
                  "rule coverage is identical, type resolution is "
                  "declaration-table based)")
    else:
        print("rts_analyze: frontend=internal")

    texts = {}
    for f in files:
        try:
            texts[f] = Path(f).read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"rts_analyze: cannot read {f}: {e}", file=sys.stderr)
            return 2

    # Pass A: build the global class/member/annotation tables (headers first
    # so out-of-class method definitions see their class's declarations).
    ordered = sorted(files, key=lambda f: (Path(f).suffix not in
                                           HEADER_SUFFIXES, str(f)))
    for f in ordered:
        analyzer.scan_file(Path(f), texts[f], collect_only=True)
    # Pass B: rule walk.
    for f in sorted(files):
        analyzer.scan_file(Path(f), texts[f], collect_only=False)

    baseline = load_baseline(baseline_path)
    used = set()
    reported = []
    for finding in analyzer.findings:
        keys = baseline_keys(finding)
        hit = next((k for k in keys if k in baseline), None)
        if hit:
            used.add(hit)
            continue
        reported.append(finding)

    out_lines = [f"{f.path}:{f.line}: [{f.rule}] {f.message}"
                 for f in reported]
    for line in out_lines:
        print(line)
    stale = sorted(baseline - used)
    for entry in stale:
        print(f"rts_analyze: error: stale baseline entry: {entry} "
              "(the finding it suppressed is gone — delete the entry)",
              file=sys.stderr)
    if output:
        Path(output).write_text("\n".join(out_lines) +
                                ("\n" if out_lines else ""))
    if json_output:
        Path(json_output).write_text(
            findings_to_json(reported, stale, len(files)))
    if reported or stale:
        print(f"rts_analyze: {len(reported)} finding(s), "
              f"{len(stale)} stale baseline entr(y/ies) across "
              f"{len(files)} file(s)")
        return 1
    print(f"rts_analyze: clean ({len(files)} file(s), "
          f"{len(analyzer.findings)} baselined)")
    return 0


# ---------------------------------------------------------------------------
# Fault-injection self-test: every rule must trip on seeded bad snippets,
# be suppressible via allow(), and stay quiet on the idiomatic fix —
# mirroring the schedule validator's mutation self-test.

SELFTEST = [
    ("nondet-container-iteration", "src/service/scheduler_service.cpp",
     "void f() {\n"
     "  std::unordered_map<int, double> weights;\n"
     "  std::vector<int> order;\n"
     "  for (const auto& [id, w] : weights) {\n"
     "    order.push_back(id);\n"
     "  }\n"
     "}",
     "void f() {\n"
     "  std::vector<std::pair<int, double>> weights;\n"
     "  std::vector<int> order;\n"
     "  for (const auto& [id, w] : weights) {\n"
     "    order.push_back(id);\n"
     "  }\n"
     "}"),
    ("nondet-container-iteration", "src/ga/nsga2.cpp",
     "void g(std::ostream& os) {\n"
     "  std::unordered_set<std::uint64_t> seen;\n"
     "  for (auto it = seen.begin(); it != seen.end(); ++it) {\n"
     "    os << *it;\n"
     "  }\n"
     "}",
     "void g(std::ostream& os) {\n"
     "  std::unordered_set<std::uint64_t> seen;\n"
     "  std::vector<std::uint64_t> sorted_keys(seen.begin(), seen.end());\n"
     "  std::sort(sorted_keys.begin(), sorted_keys.end());\n"
     "  for (const std::uint64_t k : sorted_keys) {\n"
     "    os << k;\n"
     "  }\n"
     "}"),
    ("nondet-container-iteration", "src/service/result_cache.cpp",
     "void h() {\n"
     "  std::unordered_map<int, double> stats;\n"
     "  double total = 0.0;\n"
     "  for (const auto& [k, v] : stats) {\n"
     "    total += v;\n"
     "  }\n"
     "}",
     "void h() {\n"
     "  std::vector<double> stats;\n"
     "  double total = 0.0;\n"
     "  for (std::size_t i = 0; i < stats.size(); ++i) {\n"
     "    total += stats[i];\n"
     "  }\n"
     "}"),
    ("omp-discipline", "src/sim/monte_carlo.cpp",
     "void f(std::size_t n) {\n"
     "#pragma omp parallel num_threads(4)\n"
     "  {\n"
     "    int x = 0;\n"
     "  }\n"
     "}",
     "void f(std::size_t n) {\n"
     "#pragma omp parallel num_threads(4) default(none) shared(n)\n"
     "  {\n"
     "    int x = 0;\n"
     "  }\n"
     "}"),
    ("omp-discipline", "src/ga/engine.cpp",
     "void g(const std::vector<double>& xs, std::int64_t n) {\n"
     "  double sum = 0.0;\n"
     "#pragma omp parallel for default(none) shared(xs, n) reduction(+:sum)\n"
     "  for (std::int64_t i = 0; i < n; ++i) {\n"
     "    sum += xs[i];\n"
     "  }\n"
     "}",
     "void g(const std::vector<double>& xs, std::vector<double>& partial,\n"
     "       std::int64_t n) {\n"
     "#pragma omp parallel for default(none) shared(xs, partial, n)\n"
     "  for (std::int64_t i = 0; i < n; ++i) {\n"
     "    partial[static_cast<std::size_t>(i)] = xs[i];\n"
     "  }\n"
     "}"),
    ("rng-discipline", "src/workload/dag_generator.cpp",
     "void f() {\n"
     "  std::random_device rd;\n"
     "  Rng rng(rd());\n"
     "}",
     "void f(std::uint64_t seed) {\n"
     "  Rng root(seed);\n"
     "  Rng rng = root.substream(0);\n"
     "}"),
    ("rng-discipline", "src/core/experiment.cpp",
     "void g() {\n"
     "  Rng rng(static_cast<std::uint64_t>(time(nullptr)));\n"
     "}",
     "void g(const GaConfig& config) {\n"
     "  Rng rng(config.seed);\n"
     "}"),
    ("rng-discipline", "apps/rts_cli.cpp",
     "std::uniform_int_distribution<int> pick(0, 9);",
     "const int pick = static_cast<int>(rng.next_int(10));"),
    ("rng-discipline", "src/sim/realization.cpp",
     "void h(std::uint64_t seed) {\n"
     "  Rng rng(seed + static_cast<std::uint64_t>(omp_get_thread_num()));\n"
     "}",
     "void h(const Rng& root, std::uint64_t realization) {\n"
     "  Rng rng = root.substream(realization);\n"
     "}"),
    ("fp-accumulation-order", "src/sim/criticality.cpp",
     "void f(const std::vector<double>& xs, std::int64_t n) {\n"
     "  double sum = 0.0;\n"
     "#pragma omp parallel default(none) shared(xs, n, sum)\n"
     "  {\n"
     "#pragma omp for schedule(static)\n"
     "    for (std::int64_t i = 0; i < n; ++i) {\n"
     "      sum += xs[static_cast<std::size_t>(i)];\n"
     "    }\n"
     "  }\n"
     "}",
     "void f(const std::vector<double>& xs, std::vector<double>& lane,\n"
     "       std::int64_t n) {\n"
     "  double sum = 0.0;\n"
     "#pragma omp parallel default(none) shared(xs, lane, n)\n"
     "  {\n"
     "#pragma omp for schedule(static)\n"
     "    for (std::int64_t i = 0; i < n; ++i) {\n"
     "      lane[static_cast<std::size_t>(i)] = xs[static_cast<std::size_t>(i)];\n"
     "    }\n"
     "  }\n"
     "  for (const double v : lane) sum += v;\n"
     "}"),
    ("fp-accumulation-order", "src/service/service_stats.cpp",
     "double f() {\n"
     "  std::unordered_map<int, double> weights;\n"
     "  return std::accumulate(weights.begin(), weights.end(), 0.0, add_kv);\n"
     "}",
     "double f() {\n"
     "  std::vector<double> weights;\n"
     "  return std::accumulate(weights.begin(), weights.end(), 0.0);\n"
     "}"),
    ("tsa-coverage", "src/service/counter.hpp",
     "#pragma once\n"
     "class Counter {\n"
     " public:\n"
     "  void bump() { ++count_; }\n"
     " private:\n"
     "  Mutex mutex_;\n"
     "  std::uint64_t count_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};",
     "#pragma once\n"
     "class Counter {\n"
     " public:\n"
     "  void bump() {\n"
     "    const LockGuard lock(mutex_);\n"
     "    ++count_;\n"
     "  }\n"
     " private:\n"
     "  Mutex mutex_;\n"
     "  std::uint64_t count_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};"),
    ("tsa-coverage", "src/service/gauge.cpp",
     "class Gauge {\n"
     " public:\n"
     "  std::size_t level() const;\n"
     " private:\n"
     "  mutable Mutex mutex_;\n"
     "  std::size_t level_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};\n"
     "std::size_t Gauge::level() const { return level_; }",
     "class Gauge {\n"
     " public:\n"
     "  std::size_t level() const;\n"
     " private:\n"
     "  mutable Mutex mutex_;\n"
     "  std::size_t level_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};\n"
     "std::size_t Gauge::level() const {\n"
     "  const LockGuard lock(mutex_);\n"
     "  return level_;\n"
     "}"),
    ("index-domain", "src/sched/timing_pass.cpp",
     "void f(IdVector<TaskId, double>& slack, std::size_t i) {\n"
     "  slack[i] = 0.0;\n"
     "}",
     "void f(IdVector<TaskId, double>& slack, TaskId t) {\n"
     "  slack[t] = 0.0;\n"
     "}"),
    ("index-domain", "src/ga/eval_path.cpp",
     "void g(IdVector<TaskId, double>& finish, TaskId t) {\n"
     "  const double x = finish[t.value()];\n"
     "}",
     "void g(IdVector<TaskId, double>& finish, TaskId t) {\n"
     "  const double x = finish[t];\n"
     "}"),
    ("index-domain", "src/sim/lane_store.cpp",
     "void h(std::vector<double>& lanes, TaskId t, std::size_t stride) {\n"
     "  lanes[t.value() * stride] = 0.0;\n"
     "}",
     "void h(std::vector<double>& lanes, TaskId t, std::size_t stride) {\n"
     "  lanes[t.index() * stride] = 0.0;\n"
     "}"),
    ("narrowing-overflow", "src/sim/sweep_offsets.cpp",
     "void f(std::int64_t total) {\n"
     "  int offset = total;\n"
     "}",
     "void f(std::int64_t total) {\n"
     "  std::int64_t offset = total;\n"
     "}"),
    ("narrowing-overflow", "src/sched/csr_build.cpp",
     "void g(int lanes, int stride) {\n"
     "  const std::int64_t off = lanes * stride;\n"
     "}",
     "void g(int lanes, int stride) {\n"
     "  const std::int64_t off = static_cast<std::int64_t>(lanes) * stride;\n"
     "}"),
    ("alloc-in-hot-loop", "src/sim/mc_kernel.cpp",
     "void f(std::size_t realizations) {\n"
     "  for (std::size_t rep = 0; rep < realizations; ++rep) {\n"
     "    std::vector<double> scratch(64, 0.0);\n"
     "  }\n"
     "}",
     "void f(std::size_t realizations, std::vector<double>& scratch) {\n"
     "  for (std::size_t rep = 0; rep < realizations; ++rep) {\n"
     "    scratch.assign(64, 0.0);\n"
     "  }\n"
     "}"),
    ("alloc-in-hot-loop", "src/ga/eval_loop.cpp",
     "void g(std::size_t evals, std::vector<double>& out) {\n"
     "  for (std::size_t e = 0; e < evals; ++e) {\n"
     "    out.push_back(0.0);\n"
     "  }\n"
     "}",
     "void g(std::size_t evals, std::vector<double>& out) {\n"
     "  out.resize(evals);\n"
     "  for (std::size_t e = 0; e < evals; ++e) {\n"
     "    out[e] = 0.0;\n"
     "  }\n"
     "}"),
    # The GA's generation loop is hot: a population buffer built per
    # generation is hoisted out and swapped instead.
    ("alloc-in-hot-loop", "src/ga/generation_loop.cpp",
     "void h(const GaConfig& config, std::vector<Individual>& pop) {\n"
     "  for (std::size_t iter = 1; iter <= config.max_iterations; ++iter) {\n"
     "    std::vector<Individual> next(pop.size());\n"
     "    pop.swap(next);\n"
     "  }\n"
     "}",
     "void h(const GaConfig& config, std::vector<Individual>& pop,\n"
     "       std::vector<Individual>& next) {\n"
     "  for (std::size_t iter = 1; iter <= config.max_iterations; ++iter) {\n"
     "    pop.swap(next);\n"
     "  }\n"
     "}"),
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
    ("pragma-once", "tests/test_helpers.hpp",
     "// Shared fixtures.\n#include <vector>\n#pragma once",
     "// Shared fixtures.\n#pragma once\n#include <vector>"),
    ("no-naked-new", "src/core/pareto.cpp",
     "auto* p = new Front(n);",
     "auto p = std::make_unique<Front>(n);"),
    ("no-naked-new", "tests/service/test_queue.cpp",
     "std::unique_ptr<Job> job(new Job{1});",
     "auto job = std::make_unique<Job>(Job{1});"),
    ("no-sleep-in-tests", "tests/service/test_service.cpp",
     "std::this_thread::sleep_for(std::chrono::milliseconds(50));",
     "worker.join();"),
    ("no-sleep-in-tests", "tests/net/test_socket_server.cpp",
     "std::this_thread::sleep_until(deadline);",
     "done.get_future().wait();"),
    ("no-evaluator-in-loop", "src/ga/annealing.cpp",
     "for (std::size_t i = 0; i < n; ++i) {\n"
     "  const TimingEvaluator ev(graph, platform, schedules[i]);\n"
     "}",
     "TimingEvaluator ev(graph, platform);\n"
     "for (std::size_t i = 0; i < n; ++i) {\n"
     "  ev.rebuild(schedules[i]);\n"
     "}"),
    ("no-evaluator-in-loop", "src/ga/local_search.cpp",
     "while (improved) {\n"
     "  const double ms = compute_makespan(graph, platform, current, costs);\n"
     "}",
     "EvalWorkspace ws(graph, platform, costs);\n"
     "while (improved) {\n"
     "  const double ms = ws.evaluate(current).makespan;\n"
     "}"),
    # A braceless loop body has no scope of its own and still counts.
    ("no-evaluator-in-loop", "src/ga/engine.cpp",
     "for (const Schedule& s : schedules)\n"
     "  best = std::min(best, compute_makespan(graph, platform, s, costs));",
     "for (const Schedule& s : schedules)\n"
     "  best = std::min(best, ws.evaluate(s).makespan);"),
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
    ("no-scalar-mc-in-loop", "src/sim/hybrid.cpp",
     "for (std::size_t i = 0; i < n; ++i) samples[i] = ev.makespan(d[i]);",
     "for (std::size_t i = 0; i < n; ++i) samples[i] = makespans[i];"),
]

# Scope / precision checks: the same construct where the rule must NOT fire.
SELFTEST_EXEMPT = [
    # Ordered containers iterate deterministically.
    ("nondet-container-iteration", "src/service/scheduler_service.cpp",
     "void f() {\n"
     "  std::map<int, double> weights;\n"
     "  std::vector<int> order;\n"
     "  for (const auto& [id, w] : weights) {\n"
     "    order.push_back(id);\n"
     "  }\n"
     "}"),
    # Membership-only use of an unordered set (no iteration) is fine.
    ("nondet-container-iteration", "src/ga/engine.cpp",
     "void f(const std::vector<std::uint64_t>& hashes) {\n"
     "  std::unordered_set<std::uint64_t> seen;\n"
     "  for (const std::uint64_t h : hashes) {\n"
     "    if (!seen.insert(h).second) continue;\n"
     "  }\n"
     "}"),
    # Integer omp reduction is order-insensitive.
    ("omp-discipline", "src/sim/monte_carlo.cpp",
     "void f(const std::vector<int>& xs, std::int64_t n) {\n"
     "  std::size_t misses = 0;\n"
     "#pragma omp parallel for default(none) shared(xs, n) "
     "reduction(+:misses)\n"
     "  for (std::int64_t i = 0; i < n; ++i) {\n"
     "    misses += static_cast<std::size_t>(xs[static_cast<std::size_t>(i)]);\n"
     "  }\n"
     "}"),
    # Thread-id indexing of scratch (not seeding) is fine.
    ("rng-discipline", "src/ga/engine.cpp",
     "void f(EvalWorkspacePool& pool) {\n"
     "  EvalWorkspace& ws = "
     "pool.workspace(static_cast<std::size_t>(omp_get_thread_num()));\n"
     "}"),
    # Wall-clock for latency measurement (not seeding) is fine.
    ("rng-discipline", "src/service/scheduler_service.cpp",
     "void f() {\n"
     "  const auto start = std::chrono::steady_clock::now();\n"
     "}"),
    # Per-lane accumulation into an inside-region buffer is the blessed
    # pattern.
    ("fp-accumulation-order", "src/sim/monte_carlo.cpp",
     "void f(const std::vector<double>& xs, std::vector<double>& out,\n"
     "       std::int64_t n) {\n"
     "#pragma omp parallel default(none) shared(xs, out, n)\n"
     "  {\n"
     "    double local = 0.0;\n"
     "#pragma omp for schedule(static)\n"
     "    for (std::int64_t i = 0; i < n; ++i) {\n"
     "      local += xs[static_cast<std::size_t>(i)];\n"
     "      out[static_cast<std::size_t>(i)] = local;\n"
     "    }\n"
     "  }\n"
     "}"),
    # Serial FP accumulation over an index loop is deterministic.
    ("fp-accumulation-order", "src/sim/monte_carlo.cpp",
     "void f(const std::vector<double>& xs) {\n"
     "  double sum = 0.0;\n"
     "  for (std::size_t i = 0; i < xs.size(); ++i) {\n"
     "    sum += xs[i];\n"
     "  }\n"
     "}"),
    # RTS_REQUIRES on the declaration grants the capability.
    ("tsa-coverage", "src/service/queue_like.hpp",
     "#pragma once\n"
     "class QueueLike {\n"
     " private:\n"
     "  void push_locked() RTS_REQUIRES(mutex_);\n"
     "  Mutex mutex_;\n"
     "  std::size_t size_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};\n"
     "void QueueLike::push_locked() { ++size_; }"),
    # assert_held inside a cond-var predicate grants the capability.
    ("tsa-coverage", "src/service/waiter.cpp",
     "class Waiter {\n"
     " public:\n"
     "  void wait_nonzero();\n"
     " private:\n"
     "  Mutex mutex_;\n"
     "  CondVar cv_;\n"
     "  std::size_t size_ RTS_GUARDED_BY(mutex_) = 0;\n"
     "};\n"
     "void Waiter::wait_nonzero() {\n"
     "  UniqueLock lock(mutex_);\n"
     "  cv_.wait(lock, [this] {\n"
     "    mutex_.assert_held();\n"
     "    return size_ > 0;\n"
     "  });\n"
     "}"),
    # Constructors run before any concurrent access exists.
    ("tsa-coverage", "src/service/pool_like.cpp",
     "class PoolLike {\n"
     " public:\n"
     "  PoolLike();\n"
     " private:\n"
     "  Mutex mutex_;\n"
     "  std::vector<std::thread> threads_ RTS_GUARDED_BY(mutex_);\n"
     "};\n"
     "PoolLike::PoolLike() { threads_.reserve(4); }"),
    # Raw positional buffers may be subscripted with raw indices; .index()
    # is the sanctioned bridge into them.
    ("index-domain", "src/sched/gantt_rows.cpp",
     "void f(std::vector<double>& rows, TaskId t, std::size_t l) {\n"
     "  rows[t.index()] = 1.0;\n"
     "  rows[l] = 2.0;\n"
     "}"),
    # Typed subscripts of id-indexed containers are the blessed pattern.
    ("index-domain", "src/sim/lane_math.cpp",
     "void f(IdVector<TaskId, double>& finish, TaskId t) {\n"
     "  finish[t] = 0.0;\n"
     "}"),
    # index-domain is scoped to the strict dirs; serialization code outside
    # them may launder through .value() (that is what it is for).
    ("index-domain", "src/core/report_writer.cpp",
     "void f(std::vector<double>& rows, TaskId t) {\n"
     "  rows[t.value()] = 1.0;\n"
     "}"),
    # Widening 32 -> 64 is always safe.
    ("narrowing-overflow", "src/sim/widen.cpp",
     "void f(int lanes) {\n"
     "  const std::int64_t wide = lanes;\n"
     "}"),
    # A 64-bit multiply operand makes the product 64-bit before the store.
    ("narrowing-overflow", "src/sim/wide_mul.cpp",
     "void f(std::int64_t lanes, int stride) {\n"
     "  const std::int64_t off = lanes * stride;\n"
     "}"),
    # Setup loops over tasks (not realizations) may allocate.
    ("alloc-in-hot-loop", "src/sim/setup.cpp",
     "void f(std::size_t n, std::vector<int>& order) {\n"
     "  for (std::size_t t = 0; t < n; ++t) {\n"
     "    order.push_back(0);\n"
     "  }\n"
     "}"),
    # A generation loop that writes into a pre-sized array plus a count
    # allocates nothing.
    ("alloc-in-hot-loop", "src/ga/generation_loop.cpp",
     "void h(std::size_t generations, std::vector<std::size_t>& dirty_idx) {\n"
     "  for (std::size_t gen = 0; gen < generations; ++gen) {\n"
     "    std::size_t dirty_count = 0;\n"
     "    dirty_idx[dirty_count++] = gen;\n"
     "  }\n"
     "}"),
    # Hot-loop allocation outside src/sim and src/ga is other rules' business.
    ("alloc-in-hot-loop", "src/core/report_writer.cpp",
     "void f(std::size_t realizations, std::vector<double>& out) {\n"
     "  for (std::size_t rep = 0; rep < realizations; ++rep) {\n"
     "    out.push_back(0.0);\n"
     "  }\n"
     "}"),
    # The Rng implementation owns the raw engines and distributions.
    ("rng-discipline", "src/util/rng.cpp", "std::random_device rd;"),
    # Tools and benches print; so does the logging sink itself.
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
    # The scalar-sweep rule polices the Monte-Carlo layer only: per-item
    # timing calls in schedulers/tests and the per-event replays of
    # src/resched are not realization loops.
    ("no-scalar-mc-in-loop", "src/sched/heft.cpp",
     "for (auto& s : candidates) {\n  best = ev.makespan(durations);\n}"),
    ("no-scalar-mc-in-loop", "tests/sim/test_monte_carlo.cpp",
     "for (int i = 0; i < 5; ++i) {\n"
     "  const double ms = evaluator.makespan_into(d, scratch);\n}"),
    ("no-scalar-mc-in-loop", "src/resched/rescheduler.cpp",
     "for (;;) {\n"
     "  const auto timing = partial_timing(graph, platform, part, durations);\n"
     "}"),
    # ...and outside loop bodies it never fires, even in src/sim/.
    ("no-scalar-mc-in-loop", "src/sim/monte_carlo.cpp",
     "report.expected_makespan = evaluator.makespan(expected);"),
    # A statement after a braceless loop body is outside the loop.
    ("no-scalar-mc-in-loop", "src/sim/monte_carlo.cpp",
     "for (std::size_t i = 0; i < n; ++i) d[i] = 0.0; "
     "const double ms = evaluator.makespan(d);"),
]


def run_self_test():
    failures = []

    def check(desc, cond):
        if not cond:
            failures.append(desc)

    def run_snippet(vpath, text, baseline=()):
        analyzer = Analyzer(Path("/"))
        path = Path("/") / vpath
        analyzer.scan_file(path, text, collect_only=True)
        analyzer.findings = []
        analyzer.scan_file(path, text, collect_only=False)
        hits = set()
        for f in analyzer.findings:
            if not any(k in baseline for k in baseline_keys(f)):
                hits.add(f.rule)
        return hits

    per_rule = {}
    for rule, vpath, bad, good in SELFTEST:
        per_rule[rule] = per_rule.get(rule, 0) + 1
        check(f"{rule}: fires on {vpath!r}", rule in run_snippet(vpath, bad))

        # allow() on the offending line suppresses it. Find the line that
        # fires and annotate it.
        analyzer = Analyzer(Path("/"))
        analyzer.scan_file(Path("/") / vpath, bad, collect_only=True)
        analyzer.findings = []
        analyzer.scan_file(Path("/") / vpath, bad, collect_only=False)
        lines = bad.split("\n")
        for f in analyzer.findings:
            if f.rule == rule:
                idx = f.line - 1
                lines[idx] = lines[idx] + f"  // rts-analyze: allow({rule})"
        suppressed = "\n".join(lines)
        check(f"{rule}: allow() suppresses it on {vpath!r}",
              rule not in run_snippet(vpath, suppressed))

        # The baseline file suppresses it too (whole-file form).
        check(f"{rule}: baseline suppresses it on {vpath!r}",
              rule not in run_snippet(vpath, bad,
                                      baseline={f"{vpath}:{rule}"}))

        check(f"{rule}: clean snippet stays clean on {vpath!r}",
              rule not in run_snippet(vpath, good))

    for rule in RULES:
        check(f"{rule}: has at least 2 fault-injection fixtures",
              per_rule.get(rule, 0) >= 2)

    for rule, vpath, text in SELFTEST_EXEMPT:
        check(f"{rule}: exempt on {vpath!r}", rule not in
              run_snippet(vpath, text))

    # Comment/string hygiene: rule text in comments and strings is inert.
    inert = ('void f() {\n'
             '  const char* s = "std::random_device";  // time(nullptr) seed\n'
             '  /* #pragma omp parallel */\n'
             '  const char* t = "rand()"; // old code: new Widget(rand())\n'
             '}')
    check("comments/strings are not matched",
          not run_snippet("src/core/x.cpp", inert))

    # --json document: stable key order, parseable, stale entries listed.
    doc = json.loads(findings_to_json(
        [Finding("src/a.cpp", 3, "index-domain", "m")],
        ["src/b.cpp:rng-discipline"], 2))
    check("json top-level key order is stable",
          list(doc.keys()) == ["version", "files", "status", "findings",
                               "stale_baseline"])
    check("json finding key order is stable",
          list(doc["findings"][0].keys()) == ["path", "line", "rule",
                                              "message"])
    check("json carries stale baseline entries",
          doc["stale_baseline"] == ["src/b.cpp:rng-discipline"] and
          doc["status"] == "findings")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print(f"rts_analyze self-test: {len(SELFTEST)} fault fixtures + "
          f"{len(SELFTEST_EXEMPT)} precision fixtures across "
          f"{len(RULES)} rules — fire/allow/baseline/clean all verified — OK")
    return 0


# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(
        prog="rts_analyze.py", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=["src", "apps", "bench", "tests", "examples",
                                 "tools"],
                        help="roots to analyze (default: src apps bench "
                             "tests examples tools)")
    parser.add_argument("-p", "--build-dir", type=Path, default=None,
                        help="build dir containing compile_commands.json")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="explicit compile_commands.json path")
    parser.add_argument("--frontend", choices=["auto", "libclang", "internal"],
                        default="auto")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline suppression file "
                             "(default: tools/rts_analyze_baseline.txt)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write findings to this file")
    parser.add_argument("--json", type=Path, default=None, dest="json_output",
                        help="write findings as JSON (stable key order) "
                             "to this file")
    parser.add_argument("--list-files", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule trips on seeded faults and "
                             "is suppressible")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    root = Path.cwd().resolve()
    tool_root = Path(__file__).resolve().parent.parent
    if (tool_root / "src").is_dir():
        root = tool_root

    cc = args.compile_commands
    if cc is None and args.build_dir is not None:
        cc = args.build_dir / "compile_commands.json"
    if cc is None:
        default_cc = root / "build" / "compile_commands.json"
        cc = default_cc if default_cc.exists() else None

    baseline = args.baseline
    if baseline is None:
        baseline = root / "tools" / "rts_analyze_baseline.txt"

    paths = [p if Path(p).is_absolute() else root / p for p in args.paths]
    for p in paths:
        if not Path(p).exists():
            print(f"rts_analyze: no such path: {p}", file=sys.stderr)
            return 2
    return analyze(paths, cc, baseline, args.frontend, root,
                   output=args.output, json_output=args.json_output,
                   list_files=args.list_files)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
