#!/bin/sh
# Repo gate: build, run the full test suite, and (when ocamlformat is
# installed) check formatting. CI and pre-push hooks should run exactly this.
set -eu
cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# Argument gate: out-of-range or unknown option values must be rejected
# as cmdliner usage errors (exit 124) before anything runs, never crash
# with an internal error (exit 125) or silently run something else.
# Negative values take the --opt=-1 form: in "--opt -1" cmdliner reads -1
# as an option name, which fails whatever bound the option has.
echo "== bad arguments are usage errors"
for args in "chaos --regions 0" "chaos --regions 1" "chaos --regions 6" \
  "chaos --seeds 0" "ddl --op bogus" "ddl --schema bogus" \
  "ycsb --regions 0" "ycsb --regions 6" "ycsb --clients 0" "ycsb --keys 0" \
  "ycsb --locality 2" "tpcc --regions 0" "tpcc --regions 28" \
  "tpcc --warehouses 0" "chaos --keys 0" "chaos --write-ratio 2" \
  "splits --keys 0" "chaos --txn-keys 0" "chaos --txn-ranges 0" \
  "ycsb --variant bogus" "ycsb --workload z" "chaos --faults bogus" \
  "chaos --checker bogus" "chaos --survival bogus" \
  "chaos --accounts=-1" "tpcc --duration=-1" "splits --ops=-1" \
  "splits --ranges=-1" "ycsb --ops=-1" "chaos --duration=-1" \
  "chaos --ops=-1" "chaos --clients=-1" "chaos --fault-interval=-1" \
  "chaos --fault-duration=-1" "chaos --txn-clients=-1" "chaos --txn-ops=-1" \
  "chaos --txn-hot-keys=-1"; do
  status=0
  # shellcheck disable=SC2086 # the arguments are meant to split
  out=$(dune exec bin/crdb_sim.exe -- $args 2>&1) || status=$?
  if [ "$status" != 124 ] || echo "$out" | grep -qi "internal error"; then
    echo "$out"
    echo "crdb_sim $args: expected a usage error (exit 124), got exit $status"
    exit 1
  fi
done

# Bounded chaos gate: a fixed window of seeded random-nemesis runs whose
# histories must check out (linearizable registers, conserved bank).
# Deterministic — a failure here reproduces exactly with the printed seed:
#   dune exec bin/crdb_sim.exe -- chaos --seed <S> --history
echo "== chaos gate (seeds 101-104)"
dune exec bin/crdb_sim.exe -- chaos --seed 101 --seeds 4 --survival region
dune exec bin/crdb_sim.exe -- chaos --seed 101 --seeds 2 --survival zone

# GLOBAL-table gate: the same seeds over Lead-policy ranges, whose closed
# timestamps run ahead of real time, under the default fault mix (clock
# jumps included). Reads must stay linearizable and the bank conserved.
echo "== GLOBAL-table chaos gate (seeds 101-104)"
dune exec bin/crdb_sim.exe -- chaos --seed 101 --seeds 4 --survival region --global

# Range-lifecycle gate: splits, merges and rebalances race node kills and
# lease transfers under the same checkers. Exits nonzero on any violation.
echo "== chaos gate with range lifecycle (seeds 201-203)"
dune exec bin/crdb_sim.exe -- chaos --seed 201 --seeds 3 --survival region \
  --faults kill-node,lease-transfer,split-range,merge-range,rebalance

# Merges go through the left range's Raft log, so a proposed merge can
# still come to nothing; the demo merges disjoint pairs, and each must apply.
echo "== splits demo (routing after 100+ splits, every proposed merge applies)"
out=$(dune exec bin/crdb_sim.exe -- splits --ranges 120)
echo "$out"
merged=$(echo "$out" | sed -n 's/^merged \([0-9]*\) pairs.*/\1/p')
applied=$(echo "$out" | sed -n 's/.* kv\.merges=\([0-9]*\).*/\1/p')
if [ -z "$merged" ] || [ "$merged" = 0 ] || [ "$merged" != "$applied" ]; then
  echo "splits demo: proposed ${merged:-no} merges, kv.merges=${applied:-none}"
  exit 1
fi

# Merge window: merges and splits race node kills, partitions and lease
# transfers; a merge trigger, which absorbs the subsumed range's store and
# transaction records, must apply the same way on every replica, however
# late. Every run must check out clean, and the window must inject at
# least one merge (a merge needs a split pair first, hence the short
# fault interval).
echo "== merge chaos window (seeds 801-808)"
status=0
out=$(dune exec bin/crdb_sim.exe -- chaos --seed 801 --seeds 8 \
  --survival region --fault-interval 1000 --checker serializability \
  --faults split-range,merge-range,kill-node,partition,lease-transfer 2>&1) \
  || status=$?
echo "$out"
[ "$status" = 0 ] || exit "$status"
echo "$out" | grep -q "inject merge_range" || {
  echo "merge chaos window: the fault logs show no merge_range"
  exit 1
}

# Serializability gate: multi-key transactions spanning several ranges race
# the full fault mix (kills, partitions, clock jumps, lease transfers and
# the range lifecycle); the dependency-graph checker must find no cycle.
echo "== serializability chaos gate (seeds 101-103)"
dune exec bin/crdb_sim.exe -- chaos --seed 101 --seeds 3 --survival region \
  --checker serializability \
  --faults kill-node,partition,clock-jump,lease-transfer,split-range,merge-range,rebalance

# The deliberately broken mode (no read-span refresh on timestamp pushes)
# must be caught and classified, with the dump/offline-check path agreeing.
echo "== serializability catches --unsafe-no-refresh (seed 303)"
tmpdump=$(mktemp)
trap 'rm -f "$tmpdump"' EXIT
if out=$(dune exec bin/crdb_sim.exe -- chaos --seed 303 --survival region \
  --checker serializability --unsafe-no-refresh --dump-history "$tmpdump" \
  --faults kill-node,partition,clock-jump,lease-transfer,split-range,merge-range,rebalance 2>&1); then
  echo "$out"
  echo "BUG NOT CAUGHT: --unsafe-no-refresh exited zero"
  exit 1
fi
echo "$out" | grep -q "G2-item" || {
  echo "$out"
  echo "expected a G2-item classification"
  exit 1
}
# Offline re-check of the dumped history reaches the same verdict.
if out=$(dune exec bin/crdb_sim.exe -- check "$tmpdump" 2>&1); then
  echo "$out"
  echo "BUG NOT CAUGHT: offline check of the dump exited zero"
  exit 1
fi
echo "$out" | grep -q "G2-item" || {
  echo "$out"
  echo "offline check lost the G2-item classification"
  exit 1
}

# The deliberately broken read path (bounded-stale reads recorded as
# present-time reads) must be caught by the register checker, with the
# dump/offline-check path agreeing.
echo "== linearizability catches --unsafe-stale-reads (seed 42)"
if out=$(dune exec bin/crdb_sim.exe -- chaos --seed 42 --survival region \
  --unsafe-stale-reads --dump-history "$tmpdump" 2>&1); then
  echo "$out"
  echo "BUG NOT CAUGHT: --unsafe-stale-reads exited zero"
  exit 1
fi
echo "$out" | grep -q "not linearizable" || {
  echo "$out"
  echo "expected a linearizability violation"
  exit 1
}
if out=$(dune exec bin/crdb_sim.exe -- check "$tmpdump" 2>&1); then
  echo "$out"
  echo "BUG NOT CAUGHT: offline check of the dump exited zero"
  exit 1
fi
echo "$out" | grep -q "not linearizable" || {
  echo "$out"
  echo "offline check lost the linearizability violation"
  exit 1
}

# Wound-wait conflict gate: a conflict-heavy transactional workload (all
# clients hammering 4 hot keys) racing leaseholder kills must finish with
# zero 10s conflict timeouts — deadlocks and orphaned intents are resolved
# by the push/wound protocol — and a clean serializability verdict.
echo "== wound-wait conflict gate (seeds 501-503)"
dune exec bin/crdb_sim.exe -- chaos --seed 501 --seeds 3 --survival region \
  --checker serializability --txn-clients 6 --txn-hot-keys 4 \
  --faults kill-node,lease-transfer --max-conflict-timeouts 0

# Parallel-commit recovery gate: the same conflict-heavy workload, now with
# coordinators dying between staging a parallel commit and resolving it.
# Pushers must finish commit-status recovery on the stranded STAGING
# records: clean serializability verdict and zero conflict timeouts.
echo "== parallel-commit recovery gate (seeds 701-703)"
dune exec bin/crdb_sim.exe -- chaos --seed 701 --seeds 3 --survival region \
  --checker serializability --txn-clients 6 --txn-hot-keys 4 \
  --faults kill-node,lease-transfer --max-conflict-timeouts 0

# The deliberately broken recovery (pushers abort STAGING records without
# probing the declared in-flight writes, tearing down implicitly committed
# transactions) must be caught by the serializability checker.
echo "== serializability catches --unsafe-no-recovery (seed 701)"
if out=$(dune exec bin/crdb_sim.exe -- chaos --seed 701 --survival region \
  --checker serializability --txn-clients 6 --txn-hot-keys 4 \
  --faults kill-node,lease-transfer --unsafe-no-recovery 2>&1); then
  echo "$out"
  echo "BUG NOT CAUGHT: --unsafe-no-recovery exited zero"
  exit 1
fi
echo "$out" | grep -q "violation" || {
  echo "$out"
  echo "expected a consistency violation from --unsafe-no-recovery"
  exit 1
}

# Autopilot gate: a zipfian hot-spot workload with the background queues
# armed and NO lifecycle faults injected — every split must come from the
# split queue. The run fails if the queues split fewer than 2 ranges, if
# any manual split was needed, or if any checker verdict is not clean.
echo "== autopilot chaos gate (seeds 601-603)"
dune exec bin/crdb_sim.exe -- chaos --seed 601 --seeds 3 \
  --clients 7 --ops 100 --keys 48 --duration 20 \
  --faults kill-node,lease-transfer --checker serializability \
  --autopilot --min-auto-splits 2

# Autopilot seed window: the same queues under kills and lease transfers,
# over the seeds that once diverged replicas (a new leaseholder evaluating
# before applying its predecessor's entries; a replica replaying pre-split
# entries into another range) or proposed a membership change while another
# was unapplied (7, 75). The window and its flags are fixed: every run must
# check out clean.
echo "== autopilot seed window (seeds 7 31 32 57 75 80 83, 59 with 3 clients)"
for run in "7 7" "31 7" "32 7" "57 7" "75 7" "80 7" "83 7" "59 3"; do
  # shellcheck disable=SC2086 # seed and client count are meant to split
  set -- $run
  dune exec bin/crdb_sim.exe -- chaos --seed "$1" --clients "$2" \
    --ops 30 --keys 48 --faults kill-node,lease-transfer \
    --checker serializability --autopilot
done

# Transaction-record seeds: all nine fault kinds under the autopilot. Both
# runs once lost an update: a follower that applied a record's registering
# write late stamped it with its own apply time, so the abandonment that
# aborted the record on the leaseholder was a no-op there, and the follower
# later took the lease. Every run must check out clean.
echo "== record divergence seeds (174 --global, 322 zone survival on 5 regions)"
all_faults=kill-node,kill-zone,kill-region,partition,clock-jump,lease-transfer,split-range,merge-range,rebalance
dune exec bin/crdb_sim.exe -- chaos --seed 174 --faults "$all_faults" \
  --checker serializability --autopilot --global
dune exec bin/crdb_sim.exe -- chaos --seed 322 --faults "$all_faults" \
  --checker serializability --autopilot --survival zone --regions 5

# Read-timestamp and proposal-outcome seeds, under all nine fault kinds and
# the autopilot. Seed 242 --global once returned a GLOBAL value read at a
# bumped timestamp without the reader commit-wait, and a later read missed
# it. Seed 266's schedule drops a pipelined write at a leader change and then
# the recovery probe for it; a discarded probe that answered Found let
# recovery commit the transaction and destroy bank money. Both must check
# out clean.
echo "== proposal-outcome seeds (242 --global, 266)"
dune exec bin/crdb_sim.exe -- chaos --seed 242 --faults "$all_faults" \
  --checker serializability --autopilot --global
dune exec bin/crdb_sim.exe -- chaos --seed 266 --faults "$all_faults" \
  --checker serializability --autopilot

# Off-vs-on convergence evidence (p99 + ranges / hottest-range share over
# time) lands in BENCH_results.json; the bench exits nonzero on any error.
echo "== bench autopilot (off vs on)"
dune exec bench/main.exe -- autopilot

# Commit-path gate: sequential, pipelined and parallel commits on the same
# two-range transaction. The bench exits nonzero unless parallel commits
# ack within 1.5 WAN round trips at p50, sequential commits take at least
# 2.5, parallel < pipelined < sequential, and the operation context counts
# 3 / 2 / 1 WAN round trips at p50.
echo "== bench commit-path (parallel < pipelined < sequential)"
dune exec bench/main.exe -- commit-path

# Observability determinism gate: the end-of-run report and the timeseries
# snapshot must be byte-identical across two runs of the same seed — the
# report is a regression artifact, like the trace export.
echo "== report determinism gate (seed 42)"
tmprep=$(mktemp -d)
trap 'rm -f "$tmpdump"; rm -rf "$tmprep"' EXIT
dune exec bin/crdb_sim.exe -- report --seed 42 \
  --out "$tmprep/r1.txt" --dump-timeseries "$tmprep/ts1.json"
dune exec bin/crdb_sim.exe -- report --seed 42 \
  --out "$tmprep/r2.txt" --dump-timeseries "$tmprep/ts2.json"
diff "$tmprep/r1.txt" "$tmprep/r2.txt" || {
  echo "report not deterministic across identical seeds"
  exit 1
}
diff "$tmprep/ts1.json" "$tmprep/ts2.json" || {
  echo "timeseries snapshot not deterministic across identical seeds"
  exit 1
}

# Pin groups: the digest and heap pins, the simulated-result pins and the
# figure pins below each note what moved and go on, so one run reports every
# moved pin; the gate fails once, after all three groups.
#
# Benchmark digest pins: the simulation digests bench/perf computes for its
# workloads at --scale 0.2 (a few seconds together). Each line of
# test/perf_digests.txt is a workload and one digest per instance. A change
# that alters simulated behaviour on purpose re-records the line. The same
# runs' peak heap must stay within 10% of its pin in test/perf_heap.txt,
# above or below: a pin far above the measured peak guards an old level.
echo "== bench/perf digest and heap pins (test/perf_digests.txt, test/perf_heap.txt)"
digests_ok=1
while read -r workload want; do
  case "$workload" in '#'* | '') continue ;; esac
  if ! dune exec bench/perf/perf.exe -- --workload "$workload" --scale 0.2 \
    --seconds 0.001 --trace 0 --out "$tmprep/perf.json" >"$tmprep/perf.out" 2>&1; then
    cat "$tmprep/perf.out"
    echo "bench/perf $workload failed"
    digests_ok=0
    continue
  fi
  got=$(grep -o '"digests": \[[^]]*\]' "$tmprep/perf.json" | cut -d: -f2 |
    tr -d '[]",' | sed 's/^ *//')
  if [ "$got" != "$want" ]; then
    echo "digests moved: bench/perf $workload (pinned $want, got $got)"
    digests_ok=0
  fi
  heap_pin=$(awk -v w="$workload" '$1 == w { print $2 }' test/perf_heap.txt)
  heap=$(grep -o '"peak_heap_mb": {[^}]*' "$tmprep/perf.json" |
    sed 's/.*"median": \([0-9.e+-]*\).*/\1/')
  if [ -z "$heap_pin" ] || [ -z "$heap" ]; then
    echo "bench/perf $workload: no pin in test/perf_heap.txt or no peak_heap_mb in its output"
    digests_ok=0
  elif ! awk -v got="$heap" -v pin="$heap_pin" 'BEGIN { exit !(got <= pin * 1.10) }'; then
    echo "peak heap grew: bench/perf $workload (pinned $heap_pin MB, got $heap MB, bound +10%)"
    digests_ok=0
  elif ! awk -v got="$heap" -v pin="$heap_pin" 'BEGIN { exit !(got >= pin * 0.90) }'; then
    echo "peak heap fell: bench/perf $workload (pinned $heap_pin MB, got $heap MB, more than 10% below): re-record its line in test/perf_heap.txt"
    digests_ok=0
  fi
done <test/perf_digests.txt

# Simulated-result pins: performance work must not change what the
# simulator computes. Each line of test/determinism.md5 is the MD5 of one
# crdb_sim invocation's output followed by that invocation's arguments. A
# change that alters simulated behaviour on purpose re-records the line.
echo "== simulated-result pins (test/determinism.md5)"
pins_ok=1
while read -r want args; do
  # shellcheck disable=SC2086 # the pinned arguments are meant to split
  got=$(dune exec bin/crdb_sim.exe -- $args </dev/null | md5sum | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "pin moved: crdb_sim $args (pinned $want, got $got)"
    pins_ok=0
  fi
done <test/determinism.md5

# Figure pins: the same rule for the deterministic bench experiments. Each
# line of test/figures.md5 is the MD5 of one experiment's output, minus its
# wall-clock line, followed by the experiment's name. fig5 and fig6 are
# left out for their run time. An experiment that fails its own checks
# (latency-audit's breakdown and WAN gate, commit-path's) exits nonzero,
# which fails the gate whatever its output hashes to.
echo "== figure pins (test/figures.md5)"
figs_ok=1
while read -r want exp; do
  status=0
  dune exec bench/main.exe -- "$exp" </dev/null >"$tmprep/fig.out" || status=$?
  if [ "$status" != 0 ]; then
    cat "$tmprep/fig.out"
    echo "bench/main.exe $exp exited $status"
    figs_ok=0
    continue
  fi
  got=$(grep -v 'completed in .* wall clock' "$tmprep/fig.out" | md5sum |
    cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "pin moved: bench/main.exe $exp (pinned $want, got $got)"
    figs_ok=0
  fi
done <test/figures.md5
if [ "$digests_ok$pins_ok$figs_ok" != 111 ]; then
  echo "pins moved or an experiment failed: see the lines above"
  exit 1
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check only)"
  dune build @fmt
else
  echo "== skipping fmt gate (ocamlformat not installed)"
fi

echo "== OK"
