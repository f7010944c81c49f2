#!/bin/sh
# Full verification sweep: the tier-1 suite plus both sanitizer builds.
#
#   tools/verify.sh [build-dir-prefix]
#
# Runs, in order:
#   1. Release build + the whole ctest suite (tier-1, what CI gates on);
#   2. Observability smoke: aimes-run --quick with --trace-out/--metrics-out,
#      then validates the Chrome trace parses as JSON and the Prometheus
#      file is non-empty — the exporters are only exercised end to end here;
#   3. Campaign-scale smoke: bench/campaign_scale --quick, whose exit code
#      enforces the admission shape checks (goodput ratio, wait bound, typed
#      sheds, jobs-sweep determinism), plus greps pinning the JSON evidence
#      fields (shed_rate, checksums, admission waits);
#   4. Flake gate: the sanitize and chaos labels repeated 20 times in random
#      order, the oversized-request (413) test repeated 200 times, and a grep
#      that the committed BENCH_substrate.json was recorded from Release;
#   5. Control-plane smoke: start aimesd on an ephemeral port, submit the
#      --quick campaign through aimesc --wait (which live-streams the run
#      log), require the daemon's determinism checksum to equal the same
#      request run via aimes-run, grep the Prometheus exposition (including
#      the latency histograms), and shut down gracefully;
#   6. Live-telemetry smoke: aimesd with a --journal file, a streamed
#      submit --wait that must carry >= 2 trial-boundary lines, an
#      `aimesc watch` replay of the finished run's event stream, then a
#      SIGKILL mid-run followed by a restart on the same journal — the
#      finished run must replay complete and the orphan must come back
#      failed with the typed daemon-restart reason;
#   7. Control-plane chaos smoke: a daemon under --net-faults and quotas,
#      exactly-once keyed submits, SIGKILL/restart resume, typed refusals,
#      and the full API over --socket;
#   8. Sanitize (ASan/UBSan) build + the chaos and sanitize labels — the
#      fault-injection paths are where lifetime bugs hide;
#   9. Thread (TSan) build + the sanitize label — races in the parallel
#      trial runner (sim::ReplicaPool) and the control plane's threads.
#
# Exits non-zero on the first failing step. Build trees default to
# build-verify-{release,asan,tsan} so an existing ./build is untouched.
set -eu

prefix="${1:-build-verify}"
src_dir="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
# nproc undercounts in cgroup-limited containers; VERIFY_JOBS overrides.
jobs="${VERIFY_JOBS:-$(nproc 2>/dev/null || echo 4)}"

step() {
  printf '\n== %s\n' "$*"
}

step "Release build + full suite"
cmake -S "$src_dir" -B "$prefix-release" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$prefix-release" -j "$jobs"
ctest --test-dir "$prefix-release" -j "$jobs" --output-on-failure

step "Observability smoke (--trace-out / --metrics-out artifacts)"
obs_trace="$prefix-release/smoke-trace.json"
obs_metrics="$prefix-release/smoke-metrics.txt"
"$prefix-release/tools/aimes-run" --quick \
  --trace-out "$obs_trace" --metrics-out "$obs_metrics"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$obs_trace"
else
  # No python3: at least require a non-empty file with the trace envelope.
  grep -q '"traceEvents"' "$obs_trace"
fi
test -s "$obs_metrics"
grep -q '^# TYPE ' "$obs_metrics"
test -s "$obs_metrics.csv"
echo "observability artifacts OK ($obs_trace, $obs_metrics)"

step "Campaign-scale smoke (admission shape checks + JSON evidence fields)"
camp_json="$prefix-release/smoke-campaign.json"
# The bench exits non-zero when the goodput ratio, the wait bound, the
# typed-shed invariant, or the jobs-sweep checksum comparison fails, so the
# run itself is the shape check; the greps pin the JSON evidence fields the
# PR points at (BENCH_campaign.json) to the schema this script expects.
"$prefix-release/bench/campaign_scale" --quick --json "$camp_json"
grep -q '"shed_rate"' "$camp_json"
grep -q '"checksum"' "$camp_json"
grep -q '"admission_wait_max_s"' "$camp_json"
grep -q '"deterministic_across_jobs": true' "$camp_json"
# The committed evidence must carry the same fields the smoke just produced.
grep -q '"shed_rate"' "$src_dir/BENCH_campaign.json"
grep -q '"checksum"' "$src_dir/BENCH_campaign.json"
echo "campaign-scale smoke OK ($camp_json)"

step "Flake gate (sanitize/chaos suites repeated + the 413 early-error race)"
# Suites on real sockets and threads are checked for flakes by repetition:
# every test in them 20 times in random order, then the oversized-request
# test, whose client used to lose the 413 to a connection reset, 200 times.
ctest --test-dir "$prefix-release" -j "$jobs" -L 'sanitize|chaos' \
  --repeat until-fail:20 --schedule-random --output-on-failure
"$prefix-release/tests/aimes_tests" --gtest_brief=1 --gtest_repeat=200 \
  --gtest_filter='HttpServer.OversizedRequestGets413AtTheMessageCap'
# The committed substrate numbers must come from a Release build: debug
# numbers are refused at the source (bench_util's require_release_artifacts
# and the bench-*-json guard), and this grep catches a stale pre-guard file.
grep -q '"aimes_build_type": "release"' "$src_dir/BENCH_substrate.json"
echo "flake gate OK"

step "Control-plane smoke (aimesd/aimesc round trip + CLI checksum parity)"
port_file="$prefix-release/aimesd.port"
rm -f "$port_file"
"$prefix-release/tools/aimesd" --port 0 --port-file "$port_file" &
aimesd_pid=$!
trap 'kill "$aimesd_pid" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$port_file"
port="$(cat "$port_file")"
# Reference: the identical request on the CLI. The daemon must reproduce
# this determinism checksum bit for bit (DESIGN.md section 14).
ref_sum="$("$prefix-release/tools/aimes-run" --quick --campaign 3 --trials 2 \
  | sed -n 's/.*checksum \([0-9a-f]\{16\}\).*/\1/p')"
test -n "$ref_sum"
submit_out="$("$prefix-release/tools/aimesc" submit --quick --campaign 3 --trials 2 \
  --name verify-smoke --wait --port "$port")"
echo "$submit_out" | grep -q "checksum $ref_sum"
metrics_out="$("$prefix-release/tools/aimesc" metrics --port "$port")"
echo "$metrics_out" | grep -q '^# TYPE aimes_ctl_'
echo "$metrics_out" | grep -q '^# TYPE aimes_ctl_run_duration_seconds histogram'
echo "$metrics_out" | grep -q '_bucket{le="+Inf"}'
"$prefix-release/tools/aimesc" shutdown --port "$port"
# Graceful shutdown: aimesd drains and exits 0 on its own.
wait "$aimesd_pid"
trap - EXIT
echo "control-plane smoke OK (checksum $ref_sum via aimesd == aimes-run)"

step "Live telemetry smoke (streamed --wait, watch replay, journal recovery)"
journal="$prefix-release/aimesd-journal.jsonl"
rm -f "$journal" "$port_file"
"$prefix-release/tools/aimesd" --port 0 --port-file "$port_file" --journal "$journal" &
aimesd_pid=$!
trap 'kill -9 "$aimesd_pid" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$port_file"
port="$(cat "$port_file")"
# Streamed wait: the log tail rides a chunked response, so the client must
# see the per-trial progress lines (>= 2 of them), not just the verdict.
wait_out="$("$prefix-release/tools/aimesc" submit --quick --trials 3 \
  --name telemetry-smoke --wait --port "$port")"
test "$(echo "$wait_out" | grep -c '^trial ')" -ge 2
echo "$wait_out" | grep -q 'run done'
smoke_id="$(echo "$wait_out" | sed -n 's/^submitted run \([0-9]*\).*/\1/p')"
test -n "$smoke_id"
# Watch replays the finished run's whole SSE event stream: lifecycle states
# plus the per-trial progress snapshots.
watch_out="$("$prefix-release/tools/aimesc" watch "$smoke_id" --port "$port")"
echo "$watch_out" | grep -q "run $smoke_id: trial"
echo "$watch_out" | grep -q 'run done'
# Journal recovery: park a long campaign mid-flight, SIGKILL the daemon (no
# drain, no journal finish record), restart on the same journal.
long_out="$("$prefix-release/tools/aimesc" submit --campaign 3 --trials 5000 \
  --name killed-mid-run --port "$port")"
long_id="$(echo "$long_out" | sed -n 's/^submitted run \([0-9]*\).*/\1/p')"
test -n "$long_id"
i=0
until "$prefix-release/tools/aimesc" view "$long_id" --port "$port" \
    | grep -q '"state": "running"'; do
  sleep 0.1
  i=$((i + 1))
  test "$i" -lt 100
done
kill -9 "$aimesd_pid"
wait "$aimesd_pid" 2>/dev/null || true
rm -f "$port_file"
"$prefix-release/tools/aimesd" --port 0 --port-file "$port_file" --journal "$journal" &
aimesd_pid=$!
i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$port_file"
port="$(cat "$port_file")"
# The finished run replays complete (terminal state + checksummed result);
# the orphan comes back failed with the typed restart reason.
"$prefix-release/tools/aimesc" view "$smoke_id" --port "$port" | grep -q '"state": "done"'
recovered="$("$prefix-release/tools/aimesc" view "$long_id" --port "$port")"
echo "$recovered" | grep -q '"state": "failed"'
echo "$recovered" | grep -q '"fail_reason": "daemon-restart"'
"$prefix-release/tools/aimesc" list --state failed --port "$port" | grep -q killed-mid-run
"$prefix-release/tools/aimesc" shutdown --port "$port"
wait "$aimesd_pid"
trap - EXIT
echo "live-telemetry smoke OK (streamed wait, watch replay, journal recovery)"

step "Control-plane chaos smoke (--net-faults, quotas, exactly-once, unix socket)"
chaos_journal="$prefix-release/aimesd-chaos-journal.jsonl"
rm -f "$chaos_journal" "$port_file"
# A daemon whose own wire misbehaves: ~10% mid-stream resets plus heavy
# 1-byte framing tears on every read and write, and a real (generous) rate
# limit in front of POST /runs. aimesc must ride it out with retries and an
# idempotency key.
"$prefix-release/tools/aimesd" --port 0 --port-file "$port_file" \
  --journal "$chaos_journal" \
  --net-faults 'seed=11,reset=0.1,short-read=0.25,short-write=0.25' \
  --rate 50:50 &
aimesd_pid=$!
trap 'kill -9 "$aimesd_pid" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$port_file"
port="$(cat "$port_file")"
# Through the burning wire: the retrying submit --wait still lands and
# streams to the verdict. --retries 20 gives the client plenty of runway.
chaos_out="$("$prefix-release/tools/aimesc" submit --quick --trials 3 \
  --name chaos-smoke --wait --retries 20 --port "$port")"
echo "$chaos_out" | grep -q 'run done'
chaos_id="$(echo "$chaos_out" | sed -n 's/^submitted run \([0-9]*\).*/\1/p')"
test -n "$chaos_id"
# Exactly once: for all the torn submit round trips, one run carries the
# name, and the journal holds exactly one submit record.
runs_list="$("$prefix-release/tools/aimesc" list --retries 20 --port "$port")"
test "$(echo "$runs_list" | grep -c 'chaos-smoke')" -eq 1
test "$(grep -c '"event": "submit"' "$chaos_journal")" -eq 1
# No duplicate ids anywhere in the run table.
test -z "$(echo "$runs_list" | awk '$1 ~ /^[0-9]+$/ {print $1}' | sort | uniq -d)"
# SIGKILL the faulted daemon, restart on the same journal (faults off), and
# resume: the finished run replays complete and watch replays its stream.
kill -9 "$aimesd_pid"
wait "$aimesd_pid" 2>/dev/null || true
rm -f "$port_file"
"$prefix-release/tools/aimesd" --port 0 --port-file "$port_file" \
  --journal "$chaos_journal" &
aimesd_pid=$!
i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$port_file"
port="$(cat "$port_file")"
"$prefix-release/tools/aimesc" view "$chaos_id" --port "$port" | grep -q '"state": "done"'
watch_resumed="$("$prefix-release/tools/aimesc" watch "$chaos_id" --port "$port")"
echo "$watch_resumed" | grep -q 'run done'
"$prefix-release/tools/aimesc" shutdown --port "$port"
wait "$aimesd_pid"
trap - EXIT
# Unix-domain transport: the same API over --socket, no TCP at all.
chaos_sock="$prefix-release/aimesd-chaos.sock"
rm -f "$chaos_sock"
"$prefix-release/tools/aimesd" --socket "$chaos_sock" --rate 0.001:1 &
aimesd_pid=$!
trap 'kill -9 "$aimesd_pid" 2>/dev/null || true' EXIT
i=0
while [ ! -S "$chaos_sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -S "$chaos_sock"
"$prefix-release/tools/aimesc" submit --quick --trials 1 --name unix-smoke \
  --wait --socket "$chaos_sock" | grep -q 'run done'
# The burst token is spent: the next submit is refused 429 rate-limited,
# and with --retries 0 the client reports it typed and exits non-zero.
if rate_err="$("$prefix-release/tools/aimesc" submit --quick --trials 1 \
    --name unix-refused --retries 0 --socket "$chaos_sock" 2>&1)"; then
  echo "expected the rate-limited submit to fail" >&2
  exit 1
fi
echo "$rate_err" | grep -q 'rate-limited'
"$prefix-release/tools/aimesc" list --socket "$chaos_sock" | grep -q 'unix-smoke'
"$prefix-release/tools/aimesc" shutdown --socket "$chaos_sock"
wait "$aimesd_pid"
trap - EXIT
test ! -S "$chaos_sock"
echo "control-plane chaos smoke OK (exactly-once under faults, typed quota refusal, unix socket)"

step "Sanitize (ASan/UBSan) build + chaos/sanitize labels"
cmake -S "$src_dir" -B "$prefix-asan" -DCMAKE_BUILD_TYPE=Sanitize >/dev/null
cmake --build "$prefix-asan" -j "$jobs"
ctest --test-dir "$prefix-asan" -j "$jobs" -L chaos --output-on-failure
ctest --test-dir "$prefix-asan" -j "$jobs" -L sanitize --output-on-failure

step "Thread (TSan) build + sanitize label"
cmake -S "$src_dir" -B "$prefix-tsan" -DCMAKE_BUILD_TYPE=Thread >/dev/null
cmake --build "$prefix-tsan" -j "$jobs"
ctest --test-dir "$prefix-tsan" -j "$jobs" -L sanitize --output-on-failure

step "All verification steps passed"
