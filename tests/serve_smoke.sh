#!/usr/bin/env bash
# End-to-end smoke of the graphr_serve daemon (run from ctest and CI):
# pipe four JSONL requests — two identical run requests (the second
# must be answered from the process-resident plan cache), a run with an
# invalid dataset spec and a status barrier — through --stdin, then
# assert:
#   1. exactly one response line per request, ids echoed in order;
#   2. the duplicate-plan request's report is byte-identical to the
#      first (only the echoed id differs);
#   3. the invalid spec is answered with "ok":false and the daemon
#      goes on to answer the status line and exits 0;
#   4. status shows the plan-cache hit the duplicate produced.
set -eu

serve_bin="$1"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

printf '%s\n' \
  '{"id":"r1","type":"run","workload":"pagerank","backend":"outofcore","dataset":"rmat:vertices=128,edges=512,seed=3"}' \
  '{"id":"r2","type":"run","workload":"pagerank","backend":"outofcore","dataset":"rmat:vertices=128,edges=512,seed=3"}' \
  '{"id":"b1","type":"run","workload":"bfs","dataset":"rmat:vertices=1,edges=4"}' \
  '{"id":"q1","type":"status"}' \
  | "$serve_bin" --stdin > "$out" \
  || { echo "graphr_serve exited with status $?" >&2; exit 1; }

test "$(wc -l < "$out")" -eq 4

r1="$(sed -n 1p "$out" | sed 's/"id":"r1"/"id":"X"/')"
r2="$(sed -n 2p "$out" | sed 's/"id":"r2"/"id":"X"/')"
if [ "$r1" != "$r2" ]; then
  echo "duplicate-plan request reports differ:" >&2
  echo "  $r1" >&2
  echo "  $r2" >&2
  exit 1
fi

bad_line="$(sed -n 3p "$out")"
echo "$bad_line" | grep -q '"id":"b1","ok":false' \
  || { echo "invalid spec not rejected: $bad_line" >&2; exit 1; }

status_line="$(sed -n 4p "$out")"
echo "$status_line" | grep -q '"id":"q1"'
echo "$status_line" | grep -o '"plan_cache":{[^}]*}' \
  | grep -q '"hits":1' \
  || { echo "no plan-cache hit in: $status_line" >&2; exit 1; }
echo "$status_line" | grep -o '"served":{[^}]*}' \
  | grep -q '"completed":2,"failed":1'

echo "serve smoke ok"
