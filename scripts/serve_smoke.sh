#!/bin/sh
# serve-smoke: end-to-end gate for the tuning service (DESIGN.md §13).
#
# Drives a pipe-mode daemon from a pre-written request file three times:
#
#   run A  — uninterrupted: 5 requests against --max-active 2
#            --max-queue 1, so exactly 3 sessions are admitted and 2 are
#            shed with a structured rejection;
#   run B1 — same requests with a journal and an injected crash
#            (--kill-after-rounds), which must exit with code 42 and
#            leave the request journals and checkpoints behind;
#   run B2 — restarted on the same journal with no new input: recovery
#            must resume the interrupted sessions and complete them;
#   run C  — a background daemon on a Unix-domain socket answers two
#            concurrent clients with their own ids, then stats, then
#            shuts down cleanly: exit 0 and the socket file removed.
#
# The gate: the sorted "ok" response lines of B1 + B2 must be
# byte-identical to run A's — crash plus recovery loses nothing and
# changes nothing.  Every wait in run C is bounded.
set -eu

CLI=${CLI:-_build/default/bin/alt_cli.exe}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/alt_serve_smoke.XXXXXX")
DAEMON=
trap '[ -z "$DAEMON" ] || kill "$DAEMON" 2>/dev/null || true; rm -rf "$DIR"' EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

[ -x "$CLI" ] || fail "CLI not built at $CLI (run: dune build bin/alt_cli.exe)"

req() { "$CLI" request --emit "$@"; }
{
  req --id r0 --op gmm --spatial 8 --channels 8 --out-channels 8 --budget 12
  req --id r1 --op c2d --spatial 6 --channels 4 --out-channels 8 --budget 12
  req --id r2 --op gmm --spatial 8 --channels 8 --out-channels 8 --budget 12 --seed 3
  req --id r3 --op c2d --spatial 6 --channels 4 --out-channels 8 --budget 12 --seed 4
  req --id r4 --op gmm --spatial 8 --channels 8 --out-channels 8 --budget 8
} > "$DIR/reqs.bin"

count() { grep -c "$1" "$2" 2>/dev/null || true; }

# --- run A: uninterrupted --------------------------------------------
"$CLI" serve --max-active 2 --max-queue 1 \
  < "$DIR/reqs.bin" > "$DIR/a.out" 2> "$DIR/a.err" \
  || fail "run A exited $?"

[ "$(count '"status":"rejected"' "$DIR/a.out")" = 2 ] \
  || fail "expected 2 shed requests, got $(count '"status":"rejected"' "$DIR/a.out")"
[ "$(count '"reason":"overloaded"' "$DIR/a.out")" = 2 ] \
  || fail "rejections lack the overloaded reason"
[ "$(count 'retry_after_ms' "$DIR/a.out")" = 2 ] \
  || fail "rejections lack the retry_after_ms hint"
[ "$(count '"status":"ok"' "$DIR/a.out")" = 3 ] \
  || fail "expected 3 completed sessions, got $(count '"status":"ok"' "$DIR/a.out")"

# --- run B1: crash mid-tuning ----------------------------------------
set +e
"$CLI" serve --max-active 2 --max-queue 1 --journal "$DIR/j" \
  --kill-after-rounds 2 \
  < "$DIR/reqs.bin" > "$DIR/b1.out" 2> "$DIR/b1.err"
code=$?
set -e
[ "$code" = 42 ] || fail "expected injected-crash exit 42, got $code"
[ "$(ls "$DIR/j"/*.req.json 2>/dev/null | wc -l)" -ge 1 ] \
  || fail "crash left no request journals behind"

# --- run B2: restart + recovery --------------------------------------
"$CLI" serve --max-active 2 --max-queue 1 --journal "$DIR/j" \
  < /dev/null > "$DIR/b2.out" 2> "$DIR/b2.err" \
  || fail "recovery run exited $?"

grep '"status":"ok"' "$DIR/a.out" | sort > "$DIR/a.ok"
cat "$DIR/b1.out" "$DIR/b2.out" | grep '"status":"ok"' | sort > "$DIR/b.ok"
cmp -s "$DIR/a.ok" "$DIR/b.ok" \
  || { diff "$DIR/a.ok" "$DIR/b.ok" >&2 || true; \
       fail "crash+recovery responses differ from the uninterrupted run"; }

[ "$(ls "$DIR/j"/*.req.json 2>/dev/null | wc -l)" = 0 ] \
  || fail "recovery left request journals behind"

# --- run C: socket mode -------------------------------------------------
SOCK="$DIR/s.sock"
timeout 120 "$CLI" serve --socket "$SOCK" > "$DIR/c.out" 2> "$DIR/c.err" &
DAEMON=$!
i=0
until [ -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || fail "socket daemon did not create $SOCK within 10s"
  sleep 0.1
done

call() { timeout 60 "$CLI" request --socket "$SOCK" "$@"; }
call --id s0 --op gmm --spatial 8 --channels 8 --out-channels 8 --budget 12 \
  > "$DIR/s0.out" 2> "$DIR/s0.err" &
P0=$!
call --id s1 --op c2d --spatial 6 --channels 4 --out-channels 8 --budget 12 \
  > "$DIR/s1.out" 2> "$DIR/s1.err" &
P1=$!
wait "$P0" || fail "socket tune s0 exited $?"
wait "$P1" || fail "socket tune s1 exited $?"
for id in s0 s1; do
  grep -q '"status":"ok"' "$DIR/$id.out" || fail "socket tune $id not ok"
  grep -q "\"id\":\"$id\"" "$DIR/$id.out" \
    || fail "socket tune $id answered with another id"
done

call --req stats --id st > "$DIR/st.out" || fail "socket stats exited $?"
grep -q '"completed":2' "$DIR/st.out" || fail "stats does not count 2 sessions"
call --req shutdown --id k > "$DIR/k.out" || fail "socket shutdown exited $?"
grep -q '"shutting_down":true' "$DIR/k.out" || fail "shutdown not acknowledged"
code=0
wait "$DAEMON" || code=$?
DAEMON=
[ "$code" = 0 ] || fail "socket daemon exited $code after shutdown"
[ ! -e "$SOCK" ] || fail "socket daemon left $SOCK behind"

echo "serve-smoke: OK (3 sessions admitted, 2 shed, crash at round 2 recovered byte-identically; socket: 2 clients answered, clean shutdown)"
