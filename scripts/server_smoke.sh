#!/usr/bin/env bash
# End-to-end smoke test of the production-server layer (the CI server-smoke
# job): start mmqjp-server with the observability sidecar and a snapshot
# path, subscribe and publish over the wire protocol, scrape /metrics and
# /healthz, kill the server (SIGTERM snapshots on shutdown), restart it from
# the snapshot, and assert the subscription survived the restart — a CLAIM
# re-attaches it and pre-restart join state still matches.
#
# A second phase reruns the lifecycle with -snapshot-gzip: SUB/PUB/UNSUB over
# the wire, SIGTERM into a gzipped snapshot (magic bytes checked), restart
# without the flag (restores sniff the format), CLAIM, a cross-restart
# match, and a SUB that gets the next id the first instance had not issued.
#
# Uses only bash (/dev/tcp for the line protocol) and curl.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:7878
DEBUG=127.0.0.1:7879
WORK=$(mktemp -d)
SNAP="$WORK/engine.snap"
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    # SIGTERM makes the server write a last snapshot into $WORK; let it
    # finish before the directory goes.
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

go build -o "$WORK/mmqjp-server" ./cmd/mmqjp-server

# start_server [EXTRA_FLAGS...] — flags after the fixed set (e.g.
# -snapshot-gzip) pass through to the server.
start_server() {
  "$WORK/mmqjp-server" -addr "$ADDR" -debug-addr "$DEBUG" -snapshot-path "$SNAP" "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    if curl -fsS "http://$DEBUG/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server did not become healthy on $DEBUG"
}

# send_lines REQUEST... — opens one broker connection, sends every argument
# as a line, then echoes the replies until the read times out.
send_lines() {
  exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
  local req
  for req in "$@"; do printf '%s\n' "$req" >&3; done
  local line
  while IFS= read -r -t 2 -u 3 line; do printf '%s\n' "$line"; done
  exec 3<&- 3>&-
}

echo "== first server instance: subscribe, publish, scrape =="
start_server

OUT=$(send_lines \
  "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y" \
  "PUB S 1 <a>k</a>")
echo "$OUT"
grep -q '^OK 0$' <<<"$OUT" || fail "SUB/PUB did not succeed: $OUT"

HEALTH=$(curl -fsS "http://$DEBUG/healthz")
grep -q ok <<<"$HEALTH" || fail "/healthz returned: $HEALTH"

METRICS=$(curl -fsS "http://$DEBUG/metrics")
grep -q '^mmqjp_queries 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_queries 1"
grep -q '^mmqjp_documents_total 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_documents_total 1"
grep -q 'mmqjp_stage1_seconds_count 1' <<<"$METRICS" || fail "/metrics missing stage1 histogram observation"
grep -q 'mmqjp_stream_publish_total{stream="S"} 1' <<<"$METRICS" || fail "/metrics missing per-stream publish counter"
# The reply path: the session above was answered ("OK 0" twice, 10 bytes) in
# at least one write, nothing is left queued and nobody was dropped.
grep -q '^mmqjp_reply_bytes_total 10$' <<<"$METRICS" || fail "/metrics missing mmqjp_reply_bytes_total 10"
grep -Eq '^mmqjp_reply_writes_total [12]$' <<<"$METRICS" || fail "/metrics missing mmqjp_reply_writes_total"
grep -q '^mmqjp_outbound_queue_bytes 0$' <<<"$METRICS" || fail "/metrics missing mmqjp_outbound_queue_bytes 0"
grep -q '^mmqjp_slow_reader_drops_total 0$' <<<"$METRICS" || fail "/metrics missing mmqjp_slow_reader_drops_total 0"
# Engine statistics, one family per EngineStats field: the document sits in
# the join state with one Rdoc row (its join value), and the plan counters
# and phase times are exported.
grep -q '^mmqjp_state_docs 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_state_docs 1"
grep -q '^mmqjp_state_rdoc_rows 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_state_rdoc_rows 1"
grep -q '^mmqjp_witness_plans_total ' <<<"$METRICS" || fail "/metrics missing mmqjp_witness_plans_total"
grep -q '^mmqjp_xpath_seconds_total ' <<<"$METRICS" || fail "/metrics missing mmqjp_xpath_seconds_total"
# The process gauges: the interner holds at least the names and the join
# value of the session above.
grep -Eq '^mmqjp_interned_symbols [1-9][0-9]*$' <<<"$METRICS" || fail "/metrics missing a positive mmqjp_interned_symbols"

echo "== SIGTERM: snapshot on shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[ -s "$SNAP" ] || fail "no snapshot written to $SNAP"

echo "== second server instance: restore, claim, match across restart =="
start_server

METRICS=$(curl -fsS "http://$DEBUG/metrics")
grep -q '^mmqjp_queries 1$' <<<"$METRICS" || fail "subscription did not survive the restart"

# The restored query is orphaned; CLAIM re-attaches, and the pre-restart
# <a> document joins the post-restart <b>: MATCH qid=0 left=1 right=2.
OUT=$(send_lines \
  "CLAIM 0" \
  "PUB S 2 <b>k</b>")
echo "$OUT"
grep -q '^OK 0$' <<<"$OUT" || fail "CLAIM failed after restart: $OUT"
grep -q '^MATCH 0 left=1@1 right=2@2$' <<<"$OUT" || fail "pre-restart join state lost: $OUT"

echo "PASS: subscriptions and join state survived the restart"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "== -snapshot-gzip server: churn over the wire =="
SNAP="$WORK/engine-gzip.snap"
start_server -snapshot-gzip

OUT=$(send_lines \
  "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y" \
  "SUB S//c->x FOLLOWED BY{x=y, 1000} S//d->y" \
  "PUB S 1 <a>k</a>" \
  "UNSUB 1")
echo "$OUT"
grep -q '^OK 0$' <<<"$OUT" || fail "SUB/PUB did not succeed: $OUT"
grep -q '^OK 1$' <<<"$OUT" || fail "second SUB / UNSUB did not succeed: $OUT"

METRICS=$(curl -fsS "http://$DEBUG/metrics")
# One live query after the UNSUB, one document published.
grep -q '^mmqjp_queries 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_queries 1 after UNSUB"
grep -q '^mmqjp_documents_total 1$' <<<"$METRICS" || fail "/metrics missing mmqjp_documents_total 1"

echo "== SIGTERM: gzipped snapshot on shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[ -s "$SNAP" ] || fail "no gzipped snapshot written to $SNAP"
MAGIC=$(head -c 2 "$SNAP" | od -An -tx1 | tr -d ' \n')
[ "$MAGIC" = "1f8b" ] || fail "-snapshot-gzip snapshot lacks the gzip magic (got $MAGIC)"

echo "== restart from the gzipped snapshot =="
start_server

METRICS=$(curl -fsS "http://$DEBUG/metrics")
grep -q '^mmqjp_queries 1$' <<<"$METRICS" || fail "subscription did not survive the gzipped-snapshot restart"

OUT=$(send_lines \
  "CLAIM 0" \
  "PUB S 2 <b>k</b>" \
  "STATS" \
  "SUB S//e->x FOLLOWED BY{x=y, 1000} S//f->y")
echo "$OUT"
grep -q '^OK 0$' <<<"$OUT" || fail "CLAIM failed after the gzipped-snapshot restart: $OUT"
grep -q '^MATCH 0 left=1@1 right=2@2$' <<<"$OUT" || fail "pre-restart join state lost across the gzipped snapshot: $OUT"
# STATS is every statistic as name=value; counters restart with the process.
grep -q '^OK sequential=false queries=1 templates=1 documents=1 matches=1 ' <<<"$OUT" || fail "STATS line: $OUT"
# Ids 0 and 1 were issued before the restart, and 1 was unsubscribed: the
# snapshot keeps the counter, so the next SUB gets 2, not 1 again.
grep -q '^OK 2$' <<<"$OUT" || fail "SUB after the restart did not get the next unissued id 2: $OUT"

echo "PASS: subscriptions and join state survived the gzipped-snapshot restart"
