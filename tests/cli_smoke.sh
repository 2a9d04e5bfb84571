#!/usr/bin/env bash
# End-to-end smoke test of the rts CLI: generate -> info -> schedule with
# every algorithm -> evaluate, plus error-path checks, plus an rts_serve
# batch- and socket-serving cases and an rts_fuzz mini-sweep. $1 = path to the
# rts binary, $2 = path to rts_serve, $3 = path to rts_fuzz.
set -euo pipefail

RTS="$1"
SERVE="${2:-}"
FUZZ="${3:-}"
WORK="$(mktemp -d)"
serve_pid=""
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# generate + info
"$RTS" generate --tasks 30 --procs 4 --ul 3 --seed 11 --out p.rts \
  | grep -q "wrote 30-task instance" || fail "generate output"
[ -s p.rts ] || fail "problem file missing"
"$RTS" info --problem p.rts | grep -q "HEFT makespan" || fail "info output"

# every scheduling algorithm produces a loadable schedule
for algo in heft heft-la cpop minmin overestimate ga ga-stochastic sa local; do
  "$RTS" schedule --problem p.rts --algo "$algo" --epsilon 1.2 --iters 100 \
    --out "s_$algo.rts" | grep -q "expected makespan M0" || fail "schedule $algo"
  [ -s "s_$algo.rts" ] || fail "schedule file $algo"
  "$RTS" evaluate --problem p.rts --schedule "s_$algo.rts" --realizations 50 \
    | grep -q "robustness R1" || fail "evaluate $algo"
done

# the GA respects the constraint: M0(ga) <= 1.2 * M0(heft)
heft_m0=$("$RTS" schedule --problem p.rts --algo heft | sed -n 's/.*M0 = \([0-9.]*\).*/\1/p')
ga_m0=$("$RTS" schedule --problem p.rts --algo ga --epsilon 1.2 --iters 100 \
  | sed -n 's/.*M0 = \([0-9.]*\).*/\1/p')
awk -v g="$ga_m0" -v h="$heft_m0" 'BEGIN { exit !(g <= 1.2 * h + 1e-6) }' \
  || fail "epsilon constraint violated: $ga_m0 vs $heft_m0"

# gantt flag renders processor rows
"$RTS" schedule --problem p.rts --algo heft --gantt | grep -q "^P0 |" || fail "gantt"

# DOT import: build an instance around a hand-written workflow topology
cat > wf.dot <<'DOT'
digraph wf { ingest -> clean; clean -> train [label="5"]; train -> report; }
DOT
"$RTS" generate --from-dot wf.dot --procs 3 --ul 3 --out pdot.rts \
  | grep -q "wrote 4-task instance" || fail "dot import"
"$RTS" schedule --problem pdot.rts --algo heft | grep -q "M0" || fail "dot schedule"

# SVG and JSON exports produce well-formed-looking files
"$RTS" schedule --problem p.rts --algo heft --svg g.svg --json t.json >/dev/null
grep -q "<svg" g.svg || fail "svg output"
grep -q '"makespan"' t.json || fail "timeline json"
"$RTS" evaluate --problem p.rts --schedule s_heft.rts --realizations 50 \
  --criticality --json r.json | grep -q "normalized entropy" || fail "criticality"
grep -q '"r1"' r.json || fail "report json"

# epsilon sweep prints the frontier and writes CSV
"$RTS" sweep --problem p.rts --eps-max 1.4 --eps-step 0.4 --iters 60 \
  --realizations 50 --csv sweep.csv | grep -q "M_HEFT" || fail "sweep"
grep -q "epsilon,M0" sweep.csv || fail "sweep csv"

# online rescheduling: a deadline-free problem gets deadlines assigned on the
# fly, the report compares one-shot vs rescheduled execution, JSON lands on
# disk, and --validate checks every projected partial schedule
"$RTS" resched --problem p.rts --oversub 1.5 --realizations 6 --seed 1 \
  --json resched.json | grep -q "deadline miss rate" || fail "resched output"
grep -q '"one_shot"' resched.json || fail "resched json one_shot"
grep -q '"deadline_miss_rate"' resched.json || fail "resched json metrics"
"$RTS" resched --problem p.rts --drop never --realizations 6 --validate \
  | grep -q "re-solves" || fail "resched never-drop"
! "$RTS" resched --problem p.rts --drop nope >/dev/null 2>&1 \
  || fail "bad drop policy accepted"
! "$RTS" resched --problem p.rts --trigger nope >/dev/null 2>&1 \
  || fail "bad trigger accepted"

# evaluate accepts an explicit Monte-Carlo thread count and the report is
# identical to the default-threads run (seed-stable substreams)
"$RTS" evaluate --problem p.rts --schedule s_heft.rts --realizations 50 \
  --threads 2 > eval_t2.txt || fail "evaluate --threads"
"$RTS" evaluate --problem p.rts --schedule s_heft.rts --realizations 50 \
  > eval_def.txt || fail "evaluate default threads"
diff eval_t2.txt eval_def.txt || fail "evaluate not thread-count stable"

# the report is byte-identical whatever the lane width — the bit-identity
# contract of sim/batched_sweep surfaced end to end through the CLI (5 hits
# the generic lane kernel, the default 32 a fixed-width one)
"$RTS" evaluate --problem p.rts --schedule s_heft.rts --realizations 50 \
  --json eval_default.json > /dev/null || fail "evaluate default lanes"
"$RTS" evaluate --problem p.rts --schedule s_heft.rts --realizations 50 \
  --lanes 5 --json eval_lanes5.json > /dev/null || fail "evaluate --lanes"
diff eval_default.json eval_lanes5.json || fail "lane width changed the report"

# rts_serve: batch serving with worker threads and a result cache
if [ -n "$SERVE" ]; then
  # 3-job request file -> 3 JSON result lines, exit 0
  cat > jobs3.txt <<REQ
# smoke batch: two distinct jobs plus one duplicate of the first
p.rts --epsilon 1.2 --iters 60 --realizations 50
p.rts --epsilon 1.4 --iters 60 --realizations 50
p.rts --epsilon 1.2 --iters 60 --realizations 50
REQ
  "$SERVE" --requests jobs3.txt --threads 2 --stats > serve3.jsonl 2> serve3.stats \
    || fail "rts_serve exit status"
  [ "$(wc -l < serve3.jsonl)" -eq 3 ] || fail "rts_serve line count"
  grep -c '"status":"ok"' serve3.jsonl | grep -qx 3 || fail "rts_serve ok lines"
  grep -q '"cache_hit":true' serve3.jsonl || fail "rts_serve duplicate not cached"
  grep -q '"cache_hits":' serve3.stats || fail "rts_serve stats output"

  # result lines are byte-identical for 1 vs 4 worker threads
  "$SERVE" --requests jobs3.txt --threads 1 > serve_t1.jsonl || fail "serve t1"
  "$SERVE" --requests jobs3.txt --threads 4 > serve_t4.jsonl || fail "serve t4"
  diff serve_t1.jsonl serve_t4.jsonl || fail "rts_serve not thread-count stable"

  # a bad job fails in-band (exit 3) without killing the batch
  printf 'missing.rts --epsilon 1.1\np.rts --epsilon 1.1 --iters 60 --realizations 50\n' > jobsbad.txt
  set +e
  "$SERVE" --requests jobsbad.txt --threads 2 > servebad.jsonl
  rc=$?
  set -e
  [ "$rc" -eq 3 ] || fail "rts_serve bad-job exit code ($rc)"
  grep -q '"status":"failed"' servebad.jsonl || fail "rts_serve failed line"
  grep -q '"status":"ok"' servebad.jsonl || fail "rts_serve good line after bad"

  # a malformed request line is diagnosed on stderr, skipped, and the rest of
  # the batch still runs with results in submission order
  cat > jobsmalformed.txt <<REQ
p.rts --epsilon 1.2 --iters 60 --realizations 50
p.rts stray-token --epsilon 1.2
p.rts --epsilon 1.4 --iters 60 --realizations 50
REQ
  set +e
  "$SERVE" --requests jobsmalformed.txt --threads 2 \
    > servemal.jsonl 2> servemal.err
  rc=$?
  set -e
  [ "$rc" -eq 3 ] || fail "rts_serve malformed-line exit code ($rc)"
  grep -q 'warning: request line 2' servemal.err \
    || fail "rts_serve malformed-line stderr diagnostic"
  [ "$(wc -l < servemal.jsonl)" -eq 3 ] || fail "rts_serve malformed line count"
  sed -n 2p servemal.jsonl | grep -q '"status":"failed"' \
    || fail "rts_serve malformed line not failed"
  grep -c '"status":"ok"' servemal.jsonl | grep -qx 2 \
    || fail "rts_serve malformed batch not continued"
  for i in 0 1 2; do
    sed -n "$((i + 1))p" servemal.jsonl | grep -q "\"job\":$i," \
      || fail "rts_serve submission order (job $i)"
  done

  # RTS_CHECK debug mode: the solve pipeline re-validates every schedule it
  # returns against the reference checker, and the batch still succeeds
  RTS_CHECK=1 "$SERVE" --requests jobs3.txt --threads 2 > servechk.jsonl \
    || fail "rts_serve under RTS_CHECK"
  grep -c '"status":"ok"' servechk.jsonl | grep -qx 3 || fail "RTS_CHECK ok lines"

  # socket mode: the epoll front end answers the same request lines with
  # bytes identical to the batch output, and SIGTERM drains gracefully (exit
  # 0, closing stats). The read is bounded so a lost response fails here in
  # seconds rather than at the ctest timeout.
  "$SERVE" --listen 0 --port-file port.txt --threads 2 --stats \
    > /dev/null 2> serve_sock.stats &
  serve_pid=$!
  for _ in $(seq 1 100); do [ -s port.txt ] && break; sleep 0.1; done
  [ -s port.txt ] || fail "rts_serve --listen did not publish a port"
  port="$(cat port.txt)"

  exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "connect to rts_serve"
  cat jobs3.txt >&3
  timeout 20 head -n 3 <&3 > sock3.jsonl || fail "socket responses lost"
  exec 3<&- 3>&-
  diff serve3.jsonl sock3.jsonl || fail "socket responses differ from batch"

  kill -TERM "$serve_pid"
  wait "$serve_pid" || fail "rts_serve SIGTERM drain exit status"
  serve_pid=""
  grep -q '"submitted":' serve_sock.stats || fail "drained socket stats"
fi

# rts_fuzz: mutation self-test + a tiny differential sweep must pass
if [ -n "$FUZZ" ]; then
  "$FUZZ" --smoke > fuzz.txt || fail "rts_fuzz --smoke"
  grep -q "self-test caught all fault classes" fuzz.txt || fail "rts_fuzz self-test"
  grep -q " 0 violation(s)" fuzz.txt || fail "rts_fuzz violations"
fi

# error paths: bad command, bad algo, missing files exit non-zero
! "$RTS" frobnicate >/dev/null 2>&1 || fail "bad command accepted"
! "$RTS" schedule --problem p.rts --algo nope >/dev/null 2>&1 || fail "bad algo accepted"
! "$RTS" info --problem missing.rts >/dev/null 2>&1 || fail "missing file accepted"
! "$RTS" generate --tasks 10 >/dev/null 2>&1 || fail "missing --out accepted"

echo "cli smoke: OK"
