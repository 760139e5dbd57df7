#!/usr/bin/env bash
# End-to-end smoke of the sharded serving path with real processes.
# It generates one XMark document, then runs the whole sequence below
# at p = 83 and again at p = 131, a field where the rejection sampler
# often reads past its first keystream blocks:
#
#   1. encode the document twice — one single-server database and one
#      2-of-3 Shamir shard deployment;
#   2. boot three shard servers and the router over Unix sockets;
#   3. run the golden queries through the router and diff the full
#      ssdb_query output (matches, metrics, rpc/byte counts; only the
#      wall-time prefix of the counter line stripped) against the
#      single server's;
#   4. SIGKILL one shard server and re-run: answers must still be
#      byte-identical through the surviving 2-of-3;
#   5. SIGKILL a second shard: the router must refuse with a clean
#      "unavailable" error, never a wrong answer.
#
# Only ssdb_encode is told the field (-p): the servers read it from
# their manifests, the router from the shards' handshakes and the
# queries from the map.  A last step hands the router one shard socket
# from each field's deployment: it must refuse to start, naming both
# fields, and never listen.  With the p = 83 shard still up, a query
# sent straight to it (no router) must be refused, naming the shard:
# alone, a shard's Shamir share cannot answer.
#
# Exits non-zero on the first divergence.  Run from the repo root:
#   tools/shard_smoke.sh
# Scratch files go under $TMPDIR (default /tmp) and are removed on exit.
set -u

B="$PWD/_build/default/bin"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ssdb-shard-smoke.XXXXXX")
PIDS=()

log() { printf 'shard smoke: %s\n' "$*"; }

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

die() {
  log "FAIL: $*"
  exit 1
}

dune build bin/ssdb_gen.exe bin/ssdb_encode.exe bin/ssdb_server.exe \
  bin/ssdb_router.exe bin/ssdb_query.exe || die "build failed"

cd "$WORK" || die "no workdir"

log "generating document"
"$B/ssdb_gen.exe" --size-kb 60 --factor 0.1 --seed 7 -o doc.xml >/dev/null || die "ssdb_gen"

QUERIES=('/site' '/site/regions' '//item' '/site/people/person' '//keyword')

# The counter line starts "time: <s> s | "; only that prefix varies.
untimed() { sed -E 's/^time: [0-9.]+ s \| //'; }

# Runs in the current p's directory; $P names the field.
run_golden() {
  local note="p = $P, $1" q
  for q in "${QUERIES[@]}"; do
    "$B/ssdb_query.exe" --db single.db --map c.map --seed c.seed "$q" 2>&1 \
      | untimed >single.out
    "$B/ssdb_query.exe" --connect r.sock --map c.map --seed c.seed "$q" 2>&1 \
      | untimed >routed.out
    if ! diff -u single.out routed.out >diff.out; then
      die "$note: '$q' diverged: $(head -5 diff.out)"
    fi
    log "$note: '$q' identical: $(grep '^evaluations' single.out)"
  done
}

for P in 83 131; do
  mkdir "p$P" && cd "p$P" || die "no workdir for p = $P"

  log "p = $P: encoding single-server and 2-of-3 sharded databases"
  "$B/ssdb_encode.exe" ../doc.xml -p "$P" --map c.map --seed c.seed -o single.db \
    >/dev/null 2>&1 || die "p = $P: encode single"
  "$B/ssdb_encode.exe" ../doc.xml -p "$P" --map c.map --seed c.seed -o sharded.db \
    --shards 3 -t 2 >/dev/null 2>&1 || die "p = $P: encode sharded"

  SERVERS=()
  for i in 1 2 3; do
    "$B/ssdb_server.exe" --db "sharded.db.shard$i" --socket "s$i.sock" \
      >"server$i.log" 2>&1 &
    PIDS+=($!)
    SERVERS+=($!)
    disown $!
  done
  for _ in $(seq 50); do
    [ -S s1.sock ] && [ -S s2.sock ] && [ -S s3.sock ] && break
    sleep 0.1
  done
  [ -S s1.sock ] || die "p = $P: shard servers did not come up ($(cat server1.log))"

  "$B/ssdb_router.exe" --shard s1.sock --shard s2.sock --shard s3.sock \
    --socket r.sock >router.log 2>&1 &
  PIDS+=($!)
  ROUTER=$!
  disown $!

  for _ in $(seq 50); do
    [ -S r.sock ] && break
    sleep 0.1
  done
  [ -S r.sock ] || die "p = $P: router did not come up (router.log: $(cat router.log))"

  run_golden "3 shards live"

  log "p = $P: SIGKILL shard 2 (pid ${SERVERS[1]})"
  kill -9 "${SERVERS[1]}" || die "p = $P: could not kill shard 2"
  sleep 0.3

  run_golden "shard 2 dead, 2-of-3 serving"

  log "p = $P: SIGKILL shard 3 (pid ${SERVERS[2]})"
  kill -9 "${SERVERS[2]}" || die "p = $P: could not kill shard 3"
  sleep 0.3

  out=$("$B/ssdb_query.exe" --connect r.sock --map c.map --seed c.seed '//item' 2>&1)
  if [ $? -eq 0 ]; then
    die "p = $P: query succeeded below the threshold: $out"
  fi
  case $out in
    *unavailable*) log "p = $P: below threshold: clean refusal ($out)" ;;
    *) die "p = $P: expected an 'unavailable' error, got: $out" ;;
  esac

  kill -9 "${SERVERS[0]}" "$ROUTER" 2>/dev/null
  cd .. || die "no workdir"
done

log "mixed fields: shard 1 of the p = 83 deployment, shard 2 of the p = 131 one"
MIXED=()
for P in 83 131; do
  shard=$([ "$P" = 83 ] && echo 1 || echo 2)
  "$B/ssdb_server.exe" --db "p$P/sharded.db.shard$shard" --socket "m$P.sock" \
    >"m$P.log" 2>&1 &
  PIDS+=($!)
  MIXED+=($!)
  disown $!
done
for _ in $(seq 50); do
  [ -S m83.sock ] && [ -S m131.sock ] && break
  sleep 0.1
done
[ -S m131.sock ] || die "mixed fields: shard servers did not come up ($(cat m131.log))"
# a router that started would serve until killed (exit 137)
out=$(timeout -s KILL 10 "$B/ssdb_router.exe" --shard m83.sock --shard m131.sock \
  --socket mixed.sock 2>&1)
code=$?
if [ "$code" -eq 0 ] || [ "$code" -eq 137 ]; then
  die "mixed fields: the router started (exit $code): $out"
fi
[ -e mixed.sock ] && die "mixed fields: the router listened"
case $out in
  *83^1*131^1* | *131^1*83^1*) log "mixed fields: refused (exit $code): $out" ;;
  *) die "mixed fields: expected both fields named, got: $out" ;;
esac

log "lone shard: ssdb_query straight to shard 1 of the p = 83 deployment"
out=$("$B/ssdb_query.exe" --connect m83.sock --map p83/c.map --seed p83/c.seed '//item' 2>&1)
code=$?
[ "$code" -eq 0 ] && die "lone shard: the query ran: $out"
case $out in
  *"shard 1 of a 2-of-3"*) log "lone shard: refused (exit $code): $out" ;;
  *) die "lone shard: expected shard 1 named, got: $out" ;;
esac
kill -9 "${MIXED[@]}" 2>/dev/null

log "PASS"
