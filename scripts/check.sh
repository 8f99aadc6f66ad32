#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then the race-sensitive suites
# under ThreadSanitizer (selected by their ctest label, not a
# hard-coded binary list), then the same suites with the runtime
# lock-order detector armed (COLR_DEADLOCK_CHECK=ON), then the static
# leg — project lint, the clang thread-safety/-Werror contract build
# with clang-tidy, a full UBSan test run, and a high-iteration wire
# fuzz under ASan+UBSan — then the layout, flash-crowd, serving and
# portal-benchmark smokes, and a check that the sync-stats
# instrumentation and deadlock hooks compile to a no-op when disabled. The clang pieces
# skip with a clear message on hosts without clang/clang-tidy, so a
# GCC-only host still runs everything else. Run from anywhere; builds
# land in build*/ under the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 4)"

# Stress suites are seeded: pin the seed so a CI failure is
# reproducible locally with the same export. Tests log the seed they
# ran with either way.
export COLR_STRESS_SEED="${COLR_STRESS_SEED:-0xC01A57E55}"
echo "== stress seed: ${COLR_STRESS_SEED} =="

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$jobs")

echo "== tsan: build =="
cmake -B build-tsan -S . -DCOLR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

echo "== tsan: ctest -L tsan =="
(cd build-tsan && ctest -L tsan --output-on-failure -j "$jobs")

echo "== deadlock: build with the lock-order detector armed =="
# Layer 2 of the deadlock-freedom contract (DESIGN.md §10): the same
# race-sensitive, stress, serving, and static suites again with
# -DCOLR_DEADLOCK_CHECK=ON, so every ranked acquisition is validated
# against the acquired-after DAG in src/common/lock_order.inc. The
# deadlock_test death tests (skipped elsewhere) arm here and prove a
# seeded inversion/undeclared edge/recursion actually aborts.
cmake -B build-deadlock -S . -DCOLR_DEADLOCK_CHECK=ON >/dev/null
cmake --build build-deadlock -j "$jobs"
(cd build-deadlock && ctest -L 'tsan|stress|net|static' \
  --output-on-failure -j "$jobs")

echo "== static: project lint =="
python3 scripts/lint.py -j "$jobs"

echo "== static: ctest -L static =="
(cd build && ctest -L static --output-on-failure -j "$jobs")

echo "== static: clang thread-safety contracts =="
# The DESIGN.md §6 lock protocol is encoded as Clang Thread Safety
# Analysis attributes (common/thread_annotations.h); CMake promotes
# -Wthread-safety to an error under clang, and COLR_WERROR keeps the
# rest of the warning backlog at zero. The negative/positive compile
# tests (ctest -L static) prove the contracts bite.
clang_cxx="${COLR_CLANG_CXX:-clang++}"
if command -v "$clang_cxx" >/dev/null 2>&1; then
  cmake -B build-clang -S . -DCMAKE_CXX_COMPILER="$clang_cxx" \
    -DCOLR_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build build-clang -j "$jobs"
  (cd build-clang && ctest -L static --output-on-failure -j "$jobs")
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static: clang-tidy (.clang-tidy) =="
    find src -name '*.cc' -print0 |
      xargs -0 clang-tidy -p build-clang --quiet
  else
    echo "-- clang-tidy not found; skipping the tidy pass"
  fi
else
  echo "-- $clang_cxx not found; skipping the clang thread-safety build"
  echo "   (install clang or set COLR_CLANG_CXX to enable the contract check)"
fi

echo "== static: UBSan build + full ctest =="
# -fno-sanitize-recover=all (set by CMake for this mode): any UB found
# aborts the test instead of logging and passing. COLR_WERROR rides
# along so GCC-only hosts still get a warnings-as-errors build.
cmake -B build-ubsan -S . -DCOLR_SANITIZE=undefined -DCOLR_WERROR=ON >/dev/null
cmake --build build-ubsan -j "$jobs"
(cd build-ubsan && ctest --output-on-failure -j "$jobs")

echo "== fuzz: wire codec under ASan+UBSan =="
# High-iteration garbage fuzz of the frame decoder and payload
# codecs: COLR_FUZZ_ITERS scales the random-input loops in
# net_codec_test far past their tier-1 budget, and the combined
# address+undefined build turns any over-read or UB in the parsing
# paths into an abort. Override COLR_FUZZ_ITERS to go deeper.
cmake -B build-asan -S . -DCOLR_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs" --target net_codec_test
COLR_FUZZ_ITERS="${COLR_FUZZ_ITERS:-100000}" \
  ./build-asan/tests/net_codec_test --gtest_filter='*Garbage*:*Truncated*'

echo "== layout: pointer-vs-arena perf smoke =="
# The flat node arena exists to make traversal and recompute cheaper;
# this smoke re-times both inner loops against the reconstructed
# pointer-era layout on an identical hierarchy and fails the gate if
# the arena regresses. Bounds are deliberately loose (best-of-7 timing
# on a shared box still jitters): the arena must stay within 10% of
# the pointer baseline on every cell and strictly win on traversal,
# where the SoA + SIMD child scan is the whole point.
./build/bench/micro_core --layout_json=/tmp/colr_layout_smoke.json
python3 - <<'EOF'
import json
with open('/tmp/colr_layout_smoke.json') as f:
    report = json.load(f)
cells = {row['cell']: row for row in report['series']}
assert set(cells) >= {'traversal_mbr_overlap', 'slot_recompute'}, cells
for name, row in cells.items():
    assert row['checksums_match'] == 1, f"{name}: layouts disagree"
    assert row['arena_ns_per_op'] <= 1.10 * row['pointer_ns_per_op'], (
        f"{name}: arena {row['arena_ns_per_op']:.1f} ns/op slower than "
        f"pointer {row['pointer_ns_per_op']:.1f} ns/op")
    print(f"{name}: pointer {row['pointer_ns_per_op']:.1f} ns/op, "
          f"arena {row['arena_ns_per_op']:.1f} ns/op "
          f"({row['speedup']:.2f}x)")
trav = cells['traversal_mbr_overlap']
assert trav['arena_ns_per_op'] < trav['pointer_ns_per_op'], (
    "arena traversal must beat the pointer layout")
print("layout smoke OK")
EOF

echo "== flash crowd: cross-query coalescing smoke =="
# The probe scheduler's reason to exist: when concurrent streams slam
# one hot viewport against a moving clock, single-flight coalescing
# must share each staleness window's probe wave across the streams
# instead of multiplying it. Two gates on the 8-stream cell:
#  - more probe requests joined another query's flight than were
#    issued (without single-flight, every one of them is a probe);
#  - it issues at most 1.5x the probes of one stream. Eight streams
#    asking for the same wave would issue it up to eight times over;
#    races between a query's probe round and its cache inserts, and
#    a concurrent run slowed into extra staleness windows, show here.
# Small config (~1 s); the full sweep recipe is in EXPERIMENTS.md.
./build/bench/concurrent_portal --flash-crowd --sensors=2000 \
  --queries=80 --speedup=20000 --json /tmp/colr_flash_crowd_smoke.json
python3 - <<'EOF'
import json
with open('/tmp/colr_flash_crowd_smoke.json') as f:
    report = json.load(f)
rows = {row['streams']: row for row in report['series']}
assert set(rows) >= {1, 8}, sorted(rows)
for s, row in sorted(rows.items()):
    assert row['errors'] == 0, f"{s} streams: {row['errors']} query errors"
    print(f"{s} streams: {row['probes']} probes "
          f"({row['probes_coalesced']} coalesced)")
one, eight = rows[1], rows[8]
assert eight['probes_coalesced'] > eight['probes'], (
    f"coalescing failed: 8 streams issued {eight['probes']} probes and "
    f"joined only {eight['probes_coalesced']} flights")
assert eight['probes'] <= 1.5 * one['probes'], (
    f"8 streams multiplied the probe wave: {eight['probes']} probes "
    f"against {one['probes']} at 1 stream")
print("flash crowd smoke OK")
EOF

echo "== net: open-loop serving smoke over the in-process transport =="
# The wire-protocol serving path end to end with zero sockets: the
# open-loop driver offers a fixed seeded Poisson schedule to the
# PortalServer over the deterministic in-process transport, with
# connection churn on. The gate: every scheduled request got exactly
# one reply, all OK, zero protocol errors (net_load itself exits
# nonzero on a protocol error or lost reply; the asserts below also
# pin the per-cell accounting in the JSON report).
./build/bench/net_load --transport=inproc --connections=2,8 \
  --queries=240 --rate=900 --churn-every=40 --cell-seconds=2 \
  --json /tmp/colr_net_load_smoke.json
python3 - <<'EOF'
import json
with open('/tmp/colr_net_load_smoke.json') as f:
    report = json.load(f)
rows = {row['connections']: row for row in report['series']}
assert set(rows) >= {2, 8}, sorted(rows)
for c, row in sorted(rows.items()):
    assert row['transport'] == 'inproc', row
    assert row['protocol_errors'] == 0, (
        f"{c} connections: {row['protocol_errors']} protocol errors")
    assert row['query_errors'] == 0, (
        f"{c} connections: {row['query_errors']} query errors")
    replies = row['ok'] + row['shed'] + row['timeouts']
    assert replies == row['queries'], (
        f"{c} connections: {replies} replies for {row['queries']} requests")
    print(f"{c} connections: {row['qps']:.1f} qps, "
          f"p99 {row['p99_ms']:.1f} ms, {row['reconnects']} reconnects")
print("net smoke OK")
EOF

echo "== perfbench: portal benchmark smoke =="
# The portal benchmark builds the program's libraries from src/ with
# its own CMake project (perfbench/CMakeLists.txt adds src/ as a
# subdirectory), so a src/ CMake change can break it while the tier-1
# build stays green. --smoke builds it and runs every workload tiny,
# traced and untraced, with every output check; any failure exits
# nonzero.
python3 perfbench/run.py --smoke

echo "== sync-stats: disabled-path overhead smoke =="
# The instrumented guard with stats disabled is a relaxed load plus
# the plain lock; it must stay within 2x of the bare guard (generous —
# both are single-digit ns and the bound only catches a accidentally
# always-on instrumentation path). This build also has the deadlock
# detector compiled out (COLR_DEADLOCK_CHECK=OFF is the default), so
# the same bound doubles as the no-cost proof for the disabled
# LockRankTag hooks in every ranked lock.
env -u COLR_SYNC_STATS ./build/bench/micro_core \
  --benchmark_filter='SpinMutex' \
  --benchmark_min_time=0.2 --benchmark_format=json \
  >/tmp/colr_sync_overhead.json
python3 - <<'EOF'
import json
with open('/tmp/colr_sync_overhead.json') as f:
    report = json.load(f)
times = {b['name']: b['cpu_time'] for b in report['benchmarks']}
plain = times['BM_SpinMutexPlainGuard']
instrumented = times['BM_SpinMutexSyncTimedLockDisabled']
print(f"plain guard: {plain:.2f} ns, "
      f"SyncTimedLock(disabled): {instrumented:.2f} ns")
assert instrumented <= 2.0 * plain + 2.0, (
    f"disabled sync-stats guard too slow: {instrumented:.2f} ns "
    f"vs plain {plain:.2f} ns")
print("overhead smoke OK")
EOF

echo "== all checks passed =="
