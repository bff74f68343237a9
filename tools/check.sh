#!/usr/bin/env bash
# Full pre-merge check: Release build + tests, then a ThreadSanitizer
# build + tests. The TSan variant is what guards the threading contract
# (DESIGN.md "Threading model"): every hot-path kernel fans out over the
# thread pool, so counter aggregation and image writes must stay
# race-free. Benches are skipped under TSan (they only add runtime, not
# coverage).
#
# Every ctest call passes --no-tests=error: without it, a -R filter
# that matches nothing prints "No tests were found!!!" and exits 0, so a
# renamed or deleted test would turn its gate into a silent no-op. A
# gate that names several tests (`A|B|...`) goes through run_gate, which
# also fails when any one alternative lists no test.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

# run_gate <build dir> <regex>: run the tests matching <regex>, after
# checking that each of its |-separated alternatives matches at least
# one test on its own. --no-tests=error alone fails only a regex that
# matches nothing at all, so a renamed test inside a multi-name gate
# would drop out of the gate silently.
run_gate() {
  local dir="$1" regex="$2" alt listed
  local -a alternatives
  IFS='|' read -ra alternatives <<< "${regex}"
  for alt in "${alternatives[@]}"; do
    listed="$(ctest --test-dir "${dir}" -N -R "${alt}")"
    if ! grep -q '^Total Tests: [1-9]' <<< "${listed}"; then
      echo "check.sh: gate alternative '${alt}' matches no test in ${dir}" >&2
      return 1
    fi
  done
  ctest --no-tests=error --test-dir "${dir}" --output-on-failure -R "${regex}"
}

run_variant() {
  local dir="$1"
  shift
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== test ${dir} ===="
  ctest --no-tests=error --test-dir "${dir}" --output-on-failure
}

run_variant build-release -DCMAKE_BUILD_TYPE=Release

# Cache-equivalence gate (DESIGN.md §10): the artifact cache memoizes
# proxy loads, filter outputs and render acceleration structures, and
# every one of those producers must be pure — a sweep renders
# bit-identical images with the cache off, cold, or warm. With the
# cache off every lookup computes through the same path, so modelled
# generate is charged as with it on and dumps are written once
# (Harness.CacheOff*). Two byte-identity tests ride along: dump blocks
# cut from a larger block serialize like synthesized ones, and the PPM
# gamma table gives the pow expression's byte. Run the gate by name so
# a filter typo or a rename can't silently skip it.
echo "==== cache equivalence (build-release) ===="
run_gate build-release \
  'CacheEquivalence|Harness.CacheOff|XrageGenerator.CutBlocksSerializeLikeSynthesizedBlocks|ImageBuffer.PpmGammaTableMatchesPowPath'

# SimdGate (DESIGN.md §14): the lane layer promises every image,
# counter table and robustness row bit-identical across ETH_SIMD=scalar
# and native at any thread count. The suite carries per-kernel unit
# vectors (edge masks, tail elements, NaN payloads) plus HACC+xRAGE
# mini-sweeps memcmp'd scalar-vs-native at 1 and 8 threads; the tests
# pin the ISA internally, so one pass covers every dispatch path the
# host supports. Run it by name so a filter typo can't silently skip it.
echo "==== simd gate (build-release) ===="
run_gate build-release 'SimdGate'

# Trace gate (DESIGN.md §11): run a miniature faulted sweep end-to-end
# with ETH_TRACE on and validate the exported Chrome trace — JSON
# schema plus presence of a span from every pipeline phase (sim load,
# serialize, transport, filter, render, the sparse composite exchange's
# pack/gather/merge, cache, retries, each run's minor page faults and
# the modelled-timeline projection). A missing name here means a layer
# lost its instrumentation. The socket-coupled transport path is covered by the
# e2e trace test, run here by name so a filter typo cannot silently
# skip it.
echo "==== trace gate (build-release) ===="
run_gate build-release 'Trace.SocketCoupledExchangeTracesEveryTransportPhase'
trace_json="$(mktemp /tmp/eth_trace_gate.XXXXXX.json)"
ETH_TRACE="${trace_json}" ./build-release/tools/eth_explore tools/trace_gate.cfg
./build-release/tools/eth_trace_check "${trace_json}" \
  sim.load serialize deserialize transport.send transport.recv \
  transport.compress transport.decompress bytes_on_wire transfer \
  transfer.retry filter.sample render.build render.raycast composite \
  composite.pack composite.gather chunk cache.miss cache_bytes minor_faults \
  model.generate model.viz model.composite model.write
rm -f "${trace_json}"

# CodecGate (DESIGN.md §15): the wire codec promises bit-identical
# images and robustness counts with compression on or off, pristine
# (encode-once) retries under fault injection, classified rejection of
# truncated/corrupt compressed input, and pinned golden frames for both
# codecs. Run the codec, LZ and compression-hardening suites by name so
# a filter typo cannot silently skip them.
echo "==== codec gate (build-release) ===="
run_gate build-release 'CodecEquivalence|LzCodec|GoldenWireFormat|QuantizePack|CompressDataset'

# TSan with a multi-worker pool even on small machines: a 1-worker pool
# runs loops inline and would hide every race from the sanitizer. The
# full suite includes the ArtifactCache concurrency/stress tests and the
# CacheEquivalence sweeps, which exercise the in-flight dedup and the
# pool-thread prefetch path under contention.
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_variant build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DETH_SANITIZE=thread -DETH_BUILD_BENCH=OFF -DETH_BUILD_EXAMPLES=OFF

# The tracer's lock-free per-thread buffers are exactly the kind of
# code TSan exists for — run the trace suites by name so they cannot be
# filtered out of the sanitized pass by accident.
echo "==== trace tests (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_gate build-tsan 'Trace'

# SimdGate under TSan: the vector march and blend kernels run inside
# the same pool fan-out as the scalar paths, and the dispatch table is
# resolved once per process from the environment — the sanitizer
# confirms neither the per-ISA kernel tables nor the override hook
# introduce shared mutable state between pool workers.
echo "==== simd gate (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_gate build-tsan 'SimdGate'

# CodecGate under TSan: frame compression runs on stage workers and
# rank threads concurrently, and the codec resolution (ETH_WIRE_CODEC)
# plus the wire counters are process-wide shared state — the sanitizer
# verifies the once-resolution and the atomic counter tees.
echo "==== codec gate (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_gate build-tsan 'CodecEquivalence|LzCodec'

# SweepGate (DESIGN.md §12): the concurrent sweep scheduler promises
# bit-identical artifacts at any ETH_SWEEP_WORKERS, which means
# Harness::run must be fully re-entrant — per-run prefetch latches,
# per-run counter sinks, namespaced trace tracks, and a shared
# ArtifactCache whose in-flight dedup is hammered by concurrent points.
# Run the scheduler + equivalence + TaskGroup suites under TSan with a
# multi-worker pool AND multiple sweep workers, by name so a filter
# typo cannot silently skip them.
echo "==== sweep gate (build-tsan, ETH_SWEEP_WORKERS=4) ===="
ETH_THREADS="${ETH_THREADS:-4}" ETH_SWEEP_WORKERS="${ETH_SWEEP_WORKERS:-4}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_gate build-tsan 'SweepScheduler|SweepEquivalence|TaskGroup'

# AsyncGate (DESIGN.md §13): the staged pipeline engine promises
# depth-1 bit-identity with the pre-refactor serial loop and
# depth-invariant artifacts under `coupling async` — and the bounded
# channels, in-flight limiter and slot ring it runs on are shared
# mutable state between stage workers and the rank thread, i.e. TSan
# territory. Run the pipeline + equivalence + accounting suites under
# TSan with a multi-worker pool, concurrent sweep workers AND an async
# pipeline depth exported into the environment, by name so a filter
# typo cannot silently skip them.
echo "==== async gate (build-tsan, ETH_PIPELINE_DEPTH=2) ===="
ETH_THREADS="${ETH_THREADS:-4}" ETH_SWEEP_WORKERS="${ETH_SWEEP_WORKERS:-2}" \
  ETH_PIPELINE_DEPTH="${ETH_PIPELINE_DEPTH:-2}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_gate build-tsan 'PipelineEquivalence|StagePipeline|BoundedChannel|PhaseAccounting'

# Second half of the async gate, on the release build: resolve the gate
# sweep with --dry-run (strict spec validation must accept it and print
# the fully resolved spec), then run it with ETH_TRACE on and require
# the pipeline's own instrumentation — `stage.queue_wait` spans and the
# per-stage `stage.*` occupancy counters — in the exported trace.
echo "==== async gate (build-release, traced async sweep) ===="
./build-release/tools/eth_explore --dry-run tools/async_gate.cfg
async_json="$(mktemp /tmp/eth_async_gate.XXXXXX.json)"
ETH_TRACE="${async_json}" ./build-release/tools/eth_explore tools/async_gate.cfg
./build-release/tools/eth_trace_check "${async_json}" \
  sim.load transfer filter.sample render.raycast composite composite.pack \
  composite.gather model.generate model.viz 'stage.queue_wait' 'stage.*'
rm -f "${async_json}"

# AddressSanitizer over the data/in-situ suites: the zero-copy data
# plane aliases receive buffers and peers' live arrays (common/buffer),
# so the lifetime contract — keepalives pin every borrowed span — is
# exactly what ASan's use-after-free detection verifies; WireReader,
# the one reader of every payload, reads across segment boundaries and
# borrows arrays in place. The Error and
# FrameAllocation suites replace the global operator new, the xRAGE
# generator writes its fields and the HACC generator its replay blocks
# from pool workers (the Rng checkpoints they start from and the dump
# reader's header checks run here too), the compositor's rank-0
# merge reads received partials in place, and the viz stage reuses one
# frame per timestep and moves frames out of it (ImageBuffer,
# VizFrameSink); all of them run here too. So do the artifact cache's
# suites: with the cache off, the in-memory HACC pass's slab vector is
# freed as soon as each rank has taken its slab (ArtifactCache,
# CacheEquivalence). The experiment config is the one config and layout
# file parser and reads untrusted files; its seeded mutation test runs
# here too (SpecConfig). ASan owns malloc, so the allocator-policy test
# must report as skipped here, not passed (AllocatorPolicy).
asan_variant() {
  local dir="build-asan"
  echo "==== configure ${dir} (address sanitizer) ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DETH_SANITIZE=address -DETH_BUILD_BENCH=OFF -DETH_BUILD_EXAMPLES=OFF
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== test ${dir} (data + insitu + buffer suites) ===="
  run_gate "${dir}" \
    'Buffer|CowArray|DataPlane|WireMessage|WireReader|Serialize|GoldenWireFormat|InProc|Socket|Fault|Frame|Transport|LzCodec|CodecEquivalence|QuantizePack|CompressDataset|Error|XrageGenerator|HaccGenerator|Rng|VtkIo|Compositor|ImageBuffer|ArtifactCache|CacheEquivalence|SpecConfig|AllocatorPolicy'
}
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" asan_variant

echo "==== all checks passed ===="
