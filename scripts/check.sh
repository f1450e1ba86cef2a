#!/usr/bin/env bash
# Full local CI: strict build, test suite, and static analysis of the
# example corpus plus the VMMC firmware (which must stay finding-free).
#
# Usage: scripts/check.sh [build-dir]
#   ESP_SANITIZE=asan scripts/check.sh build-asan   # also: ubsan, tsan
# tsan is the one that matters for the parallel checker (--jobs N): it
# races N workers over the shared visited set and work queue.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-check}"
SANITIZE="${ESP_SANITIZE:-}"

echo "== configure ($BUILD_DIR, ESP_WERROR=ON${SANITIZE:+, ESP_SANITIZE=$SANITIZE}) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESP_WERROR=ON \
  -DESP_SANITIZE="$SANITIZE"

echo "== build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

ESPLINT="$BUILD_DIR/src/tools/esplint"

echo "== esplint: example corpus =="
"$ESPLINT" "$REPO_ROOT"/examples/esp/*.esp

echo "== esplint: VMMC firmware =="
"$ESPLINT" --builtin-vmmc

ESPMC="$BUILD_DIR/src/tools/espmc"

echo "== espmc: --por golden harnesses =="
# Clean per-process harnesses must stay clean under reduction, with one
# worker and with four (exit 0 = verified OK; the
# differential count assertions live in tests/test_mc_por.cpp).
for process in translator pageTable; do
  "$ESPMC" --process "$process" --por \
    "$REPO_ROOT/examples/esp/pagetable.esp" > /dev/null
  "$ESPMC" --process "$process" --por --jobs 4 \
    "$REPO_ROOT/examples/esp/pagetable.esp" > /dev/null
done
"$ESPMC" --process producer --por \
  "$REPO_ROOT/examples/esp/quickstart.esp" > /dev/null

echo "== espmc: object-table exhaustion is a violation, not a crash =="
# One object cannot hold an environment message; the search must end
# with a Violation verdict (exit 3). A signal or any other status fails.
status=0
"$ESPMC" --process pageTable --max-objects 1 \
  "$REPO_ROOT/examples/esp/pagetable.esp" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
  echo "check.sh: espmc --max-objects 1 exited $status, expected 3" >&2
  exit 1
fi

echo "== espc/espmc: dispatch ambiguity does not depend on arrival order =="
# Two readers accept the writer's one message (§4.2). Declared either
# way round, execution must stop with a runtime error (exit 1) and the
# checker must report the violation (exit 3).
ESPC="$BUILD_DIR/src/tools/espc"
AMBIG_DIR="$(mktemp -d)"
trap 'rm -rf "$AMBIG_DIR"' EXIT
AMBIG_READERS='process r1 { $x: int = 1; in(c, x); }
process r2 { $x: int = 1; in(c, x); }'
AMBIG_WRITER='process w { out(c, 1); }'
printf 'channel c: int\n%s\n%s\n' "$AMBIG_READERS" "$AMBIG_WRITER" \
  > "$AMBIG_DIR/readers_first.esp"
printf 'channel c: int\n%s\n%s\n' "$AMBIG_WRITER" "$AMBIG_READERS" \
  > "$AMBIG_DIR/writer_first.esp"
for order in readers_first writer_first; do
  status=0
  "$ESPC" --run "$AMBIG_DIR/$order.esp" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "check.sh: espc --run $order.esp exited $status, expected 1" >&2
    exit 1
  fi
  status=0
  "$ESPMC" "$AMBIG_DIR/$order.esp" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 3 ]; then
    echo "check.sh: espmc $order.esp exited $status, expected 3" >&2
    exit 1
  fi
done

ESPSERVE="$BUILD_DIR/src/tools/espserve"

echo "== espserve: fleet smoke (single-worker deterministic + 4 workers) =="
# Exit 0 only when every request completed and the aggregate totals
# match the load generator's prediction (see docs/serving.md).
"$ESPSERVE" --machines 256 --requests 20000 --serve-jobs 1 \
  --conn-requests 64 -q
"$ESPSERVE" --machines 256 --requests 20000 --serve-jobs 4 \
  --conn-requests 64 -q

echo "check.sh: all green"
