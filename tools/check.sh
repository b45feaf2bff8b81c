#!/usr/bin/env bash
# Correctness analysis driver (docs/ANALYSIS.md): builds and tests the tree
# under the full analysis matrix and prints a per-leg summary table. Exits
# nonzero if any leg fails.
#
# Legs:
#   analyze       build tools/analyze and run msd_analyze over src/ (human
#                 report plus --json, which must parse); any unsuppressed
#                 finding fails the leg. The run also asserts hot-path BFS
#                 coverage of the planner executor (--require-reachable
#                 CompiledPlan::Execute / InferenceSession::RunLocked), of
#                 the int8 kernel entry points (QGemmPrepacked /
#                 QuantizeActivationsPerRow), and of the multi-tenant serving
#                 core (SocketServer::Run, the epoll loop root, and
#                 ModelRegistry::Swap via the HandleLineAsync -> RELOAD
#                 chain), so a lost call edge from a serving root cannot
#                 silently shrink what "0 findings" vouches for.
#   release       default configuration (MSD_NATIVE_ARCH=ON, checks OFF);
#                 full ctest run THREE times — MSD_PLAN=1 (compiled session
#                 plans, the default), MSD_PLAN=0 (the interpreted oracle),
#                 and MSD_PLAN=1 MSD_QUANT=1 (the int8 quantized plans,
#                 docs/PERFORMANCE.md) — including analyze_check and
#                 gradcheck_sweep, plus a
#                 quickstart run whose training losses are captured, a
#                 thread-scaling bench snapshot (BENCH_threads.json), a
#                 serving load snapshot (BENCH_serve.json from
#                 bench_serving --threads 4 --quantize --churn, including
#                 the serve/* histogram telemetry, the int8 leg's
#                 serve/quant_latency_* gauges, and the multi-tenant churn
#                 profile — 128 concurrent socket connections over two
#                 models with a mid-run RELOAD hot-swap, zero failed and
#                 zero version-crossed replies required, latencies in the
#                 serve/multi_latency_* gauges), and msd_serve --selftest
#                 passes — fp32 and MSD_QUANT=1 — that validate the
#                 telemetry exporter's JSONL output end to end.
#   debug-checks  MSD_DEBUG_CHECKS=ON; full ctest, and the quickstart losses
#                 must be bit-identical to the release leg — the invariant
#                 layer must observe, never perturb.
#   asan-ubsan    AddressSanitizer + UndefinedBehaviorSanitizer (abort on
#                 first finding); full ctest.
#   tsan          ThreadSanitizer over the full suite with MSD_THREADS=4, so
#                 every parallel kernel (src/runtime dispatch), the
#                 profiler's per-thread merge, the trainer path, and the
#                 serving stack (serve_test's concurrent micro-batcher
#                 clients, registry_test's concurrent Get/Swap hammer,
#                 netio_test's multi-connection epoll loop, exporter_test's
#                 trace-ring writer/reader races, msd_serve_selftest,
#                 bench_serving_smoke incl. the churn hot-swap phase) run on
#                 a real multi-threaded pool under the race detector.
#
# Usage: tools/check.sh [--tidy] [--jobs N] [--leg NAME]...
#        [--bench-baseline FILE] [--bench-parent REV] [--serve-baseline FILE]
#   --tidy     also run clang-tidy (src/common + src/tensor); skipped with a
#              note when clang-tidy is not installed.
#   --leg      run only the named leg(s); default is all five.
#   --jobs N   parallel build/test jobs (default: nproc).
#   --bench-baseline FILE
#              after the release leg, re-run the kernel benches and the
#              three whole-model benches (BM_MixerInference,
#              BM_MixerTrainStep, BM_TrainerEpoch) on a 1-thread pool in
#              google-benchmark JSON form — 7 repetitions, compared by
#              median — and gate them against FILE with tools/bench_compare
#              (>10% cpu_time growth on any common benchmark fails the
#              run). Thread-scaling variants above $(nproc) are excluded
#              from the filter: oversubscribed threads measure scheduler
#              time-slicing, not kernels. bench_compare refuses files whose
#              context is not stamped msd_build_type=release, so a
#              Debug-built recording can neither become nor be judged
#              against a baseline. The repo's committed reference is
#              BENCH_baseline.json; regenerate it when the hardware (or its
#              noise profile) changes by running the same bench_micro_kernels
#              command the gate uses — read it out of the release leg below,
#              or crib the filter from a check.sh run's log — with
#              --benchmark_out=BENCH_baseline.json from a Release ./build.
#   --bench-parent REV
#              after the release leg, build REV's bench_micro_kernels in a
#              temporary git worktree under build-check/bench-parent/ (its
#              build tree stays there for the next run; the worktree is
#              removed), then run the --bench-baseline filter on a 1-thread
#              pool in 7 alternating rounds — one repetition of REV's
#              binary, then one of this tree's — so a slow or fast stretch
#              of the host lands on both sides. Each side's rounds merge
#              into one google-benchmark file (python3) and the two are
#              gated with tools/bench_compare by median at the same 10%
#              threshold. Needs no recorded baseline, so it works on any
#              host; benches REV lacks are listed, not gated.
#   --serve-baseline FILE
#              gate the release leg's BENCH_serve.json serving snapshot
#              against FILE with tools/bench_compare. Tail latency is noisier
#              than kernel cpu_time, so the threshold is 25% AND (for the
#              microsecond-valued keys) an absolute 2.5ms noise floor: a
#              >25% growth in serve/latency_p99_us, serve/quant_latency_*,
#              or serve/multi_latency_* fails the run once it also clears
#              the floor scheduler jitter can produce on its own. Spans are
#              filtered to serve/* so the gate ignores the bench's own
#              model-training warmup timings.
#
# Build trees live in build-check/<leg> so they never disturb ./build.
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_TIDY=0
BENCH_BASELINE=""
BENCH_PARENT=""
SERVE_BASELINE=""
LEGS=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --tidy) RUN_TIDY=1 ;;
    --jobs) JOBS="$2"; shift ;;
    --leg) LEGS+=("$2"); shift ;;
    --bench-baseline) BENCH_BASELINE="$2"; shift ;;
    --bench-parent) BENCH_PARENT="$2"; shift ;;
    --serve-baseline) SERVE_BASELINE="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
[[ ${#LEGS[@]} -eq 0 ]] && LEGS=(analyze release debug-checks asan-ubsan tsan)

CHECK_DIR="${ROOT}/build-check"
mkdir -p "${CHECK_DIR}"

declare -A STATUS    # leg -> PASS / FAIL / SKIP
declare -A DETAIL    # leg -> one-line explanation
FAILED=0

note() { printf '\n==== %s ====\n' "$*"; }

# The gated kernel-bench filter: kernel benches (GEMM family, fused
# epilogues, Linear backward, rfft) plus the whole-model benches, with
# thread-scaling variants above the machine's core count excluded — with
# more threads than cores their runtime is the scheduler's time-slicing
# pattern, not kernel code, and on a 1-core box BM_*Threads/4 swings 15%+
# between identical runs.
kernel_bench_filter() {
  local cores tsuf
  cores="$(nproc)"
  if   (( cores >= 4 )); then tsuf='/(1|2|4)'
  elif (( cores >= 2 )); then tsuf='/(1|2)'
  else                        tsuf='/1'; fi
  echo "BM_MatMul2D|BM_BatchedMatMul|BM_LinearBackward|BM_Fft|BM_Rfft/|BM_MixerInference|BM_MixerTrainStep|BM_TrainerEpoch|(BM_GemmChannelMixThreads|BM_GemmHeadThreads|BM_GemmPatchEmbedThreads|BM_RfftThreads)${tsuf}\$"
}

# Parent-relative kernel gate (--bench-parent): builds REV's
# bench_micro_kernels from a temporary worktree, runs both binaries in
# alternating rounds, merges each side's rounds and gates the medians.
bench_parent_gate() {  # rev current-bench-binary
  local rev="$1" current_bin="$2"
  local dir="${CHECK_DIR}/bench-parent"
  local src="${dir}/src" build="${dir}/build"
  local filter rounds=7 round side
  filter="$(kernel_bench_filter)"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "--bench-parent needs python3 to merge rounds" >&2; return 1
  fi
  mkdir -p "${dir}"
  git -C "${ROOT}" worktree remove --force "${src}" >/dev/null 2>&1
  rm -rf "${src}"
  git -C "${ROOT}" worktree prune
  if ! git -C "${ROOT}" worktree add --detach "${src}" "${rev}"; then
    echo "cannot check out ${rev}" >&2; return 1
  fi
  local built=0
  if cmake -B "${build}" -S "${src}" >/dev/null &&
      cmake --build "${build}" -j "${JOBS}" --target bench_micro_kernels; then
    built=1
  fi
  git -C "${ROOT}" worktree remove --force "${src}"
  (( built )) || { echo "building ${rev}'s benches failed" >&2; return 1; }
  rm -f "${dir}"/round-*
  for (( round = 1; round <= rounds; ++round )); do
    for side in parent current; do
      local bin="${build}/bench/bench_micro_kernels"
      [[ "${side}" == "current" ]] && bin="${current_bin}"
      local log="${dir}/round-${side}-${round}.log"
      if ! "${bin}" --threads 1 --benchmark_filter="${filter}" \
          --benchmark_min_time=0.05 --benchmark_repetitions=1 \
          --benchmark_out="${dir}/round-${side}-${round}.json" \
          --benchmark_out_format=json > "${log}" 2>&1; then
        cat "${log}" >&2; return 1
      fi
    done
  done
  for side in parent current; do
    python3 - "${dir}/${side}.json" "${dir}"/round-"${side}"-*.json <<'PY' ||
import json, sys
merged = None
for path in sys.argv[2:]:
    with open(path) as f:
        doc = json.load(f)
    if merged is None:
        merged = doc
    else:
        merged["benchmarks"].extend(doc["benchmarks"])
with open(sys.argv[1], "w") as f:
    json.dump(merged, f)
PY
      return 1
  done
  "${CHECK_DIR}/release/tools/bench_compare" \
      "${dir}/parent.json" "${dir}/current.json" --repetitions "${rounds}"
}

fail_leg() {  # leg detail
  STATUS[$1]="FAIL"
  DETAIL[$1]="$2"
  FAILED=1
}

# A reused build tree whose cached MSD_SANITIZE disagrees with the leg's
# request would silently build the WRONG matrix cell (cmake does not reapply
# a -D that matches neither the cache nor the command line when the cache
# already has a value). Detect the mismatch and wipe the cache, failing fast
# if the wipe itself fails rather than proceeding against stale flags.
ensure_fresh_cache() {  # builddir cmake-args...
  local builddir="$1"; shift
  local cache="${builddir}/CMakeCache.txt"
  [[ -f "${cache}" ]] || return 0
  local want="" arg
  for arg in "$@"; do
    case "${arg}" in
      -DMSD_SANITIZE=*) want="${arg#-DMSD_SANITIZE=}" ;;
    esac
  done
  local have
  have="$(sed -n 's/^MSD_SANITIZE:[A-Za-z]*=//p' "${cache}")"
  [[ "${have}" == "${want}" ]] && return 0
  echo "stale MSD_SANITIZE cache in ${builddir} ('${have}' != '${want}'):" \
       "reconfiguring with a fresh cache" >&2
  if ! rm -rf "${cache}" "${builddir}/CMakeFiles"; then
    echo "failed to remove the stale cache in ${builddir}; aborting the" \
         "leg rather than building against wrong sanitizer flags" >&2
    return 1
  fi
}

configure_and_build() {  # builddir target... -- cmake-args...
  local builddir="$1"; shift
  local targets=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do targets+=("$1"); shift; done
  [[ $# -gt 0 ]] && shift  # drop --
  ensure_fresh_cache "${builddir}" "$@" || return 1
  cmake -B "${builddir}" -S "${ROOT}" "$@" || return 1
  if [[ ${#targets[@]} -gt 0 ]]; then
    local t
    for t in "${targets[@]}"; do
      cmake --build "${builddir}" -j "${JOBS}" --target "${t}" || return 1
    done
  else
    cmake --build "${builddir}" -j "${JOBS}" || return 1
  fi
}

# Training losses only (strip wall-clock columns): the bit-identity contract
# is about numerics, not timing.
quickstart_losses() {  # builddir outfile
  "$1/examples/quickstart" |
    grep -E 'epoch +[0-9]+/|Test MSE|component S|residual:' |
    sed -E 's/ [0-9.]+s$//' > "$2"
}

run_release_like_leg() {  # leg-name extra-cmake-flag...
  local leg="$1"; shift
  local builddir="${CHECK_DIR}/${leg}"
  note "leg ${leg}: configure + build"
  if ! configure_and_build "${builddir}" -- "$@"; then
    fail_leg "${leg}" "build failed"; return
  fi
  if [[ "${leg}" == "release" ]]; then
    # The compiled plan path must be bit-identical to the interpreter
    # (docs/COMPILER.md), so the release leg runs the whole suite on both
    # sides of the toggle: MSD_PLAN=1 (planned, the default) and MSD_PLAN=0
    # (the interpreted oracle every plan is validated against).
    local plan
    for plan in 1 0; do
      note "leg ${leg}: ctest (MSD_PLAN=${plan})"
      if ! (cd "${builddir}" &&
            MSD_PLAN="${plan}" ctest --output-on-failure -j "${JOBS}"); then
        fail_leg "${leg}" "ctest failures (MSD_PLAN=${plan})"; return
      fi
    done
    # Third pass under the int8 quantization pass (docs/PERFORMANCE.md):
    # plans rewrite eligible GEMMs to the quantized kernels. Suites that
    # assert fp32 bit-exactness pin MSD_QUANT=0 themselves; everything else
    # must hold — including the dedicated quant suites, which now exercise
    # the env-on direction for free.
    note "leg ${leg}: ctest (MSD_PLAN=1 MSD_QUANT=1)"
    if ! (cd "${builddir}" &&
          MSD_PLAN=1 MSD_QUANT=1 ctest --output-on-failure -j "${JOBS}"); then
      fail_leg "${leg}" "ctest failures (MSD_PLAN=1 MSD_QUANT=1)"; return
    fi
  else
    note "leg ${leg}: ctest"
    if ! (cd "${builddir}" && ctest --output-on-failure -j "${JOBS}"); then
      fail_leg "${leg}" "ctest failures"; return
    fi
  fi
  note "leg ${leg}: quickstart"
  if ! quickstart_losses "${builddir}" "${builddir}/quickstart_losses.txt"; then
    fail_leg "${leg}" "quickstart run failed"; return
  fi
  STATUS[${leg}]="PASS"
  DETAIL[${leg}]="full ctest clean"
}

for leg in "${LEGS[@]}"; do
  case "${leg}" in
    analyze)
      builddir="${CHECK_DIR}/analyze"
      note "leg analyze: build msd_analyze"
      if ! configure_and_build "${builddir}" msd_analyze --; then
        fail_leg analyze "build failed"; continue
      fi
      # The human report lands on stderr (visible above); the machine report
      # is captured and must parse. Exit 1 means unsuppressed findings,
      # exit 2 a configuration error (e.g. a suppression without a
      # justification) — both fail the leg.
      # --require-reachable turns silent hot-path coverage loss into a
      # failure: the planner executor must stay visible to the BFS from the
      # PredictBatch root or a clean report proves nothing about it.
      note "leg analyze: msd_analyze over src/"
      json="${builddir}/analyze_report.json"
      if ! "${builddir}/tools/msd_analyze" --json \
          --require-reachable "InferenceSession::RunLocked" \
          --require-reachable "CompiledPlan::Execute" \
          --require-reachable "QGemmPrepacked" \
          --require-reachable "QuantizeActivationsPerRow" \
          --require-reachable "SocketServer::Run" \
          --require-reachable "ModelRegistry::Swap" \
          "${ROOT}" > "${json}"; then
        fail_leg analyze "unsuppressed findings (report above)"; continue
      fi
      if command -v python3 >/dev/null 2>&1; then
        if ! python3 -m json.tool "${json}" > /dev/null; then
          fail_leg analyze "--json output is not valid JSON"; continue
        fi
        STATUS[analyze]="PASS"
        DETAIL[analyze]="0 unsuppressed findings; JSON report validated"
      else
        STATUS[analyze]="PASS"
        DETAIL[analyze]="0 unsuppressed findings (python3 absent; JSON unvalidated)"
      fi
      ;;
    release)
      run_release_like_leg release
      if [[ "${STATUS[release]}" == "PASS" ]]; then
        # Thread-scaling snapshot: the BM_*Threads family at pool sizes
        # 1/2/4, with kernel-level telemetry, recorded as BENCH_threads.json.
        note "leg release: thread-scaling bench snapshot"
        if "${CHECK_DIR}/release/bench/bench_micro_kernels" \
            --benchmark_filter='Threads' --benchmark_min_time=0.02 \
            --metrics-out "${CHECK_DIR}/release/BENCH_threads.json"; then
          DETAIL[release]="full ctest clean; BENCH_threads.json recorded"
        else
          fail_leg release "thread-scaling bench snapshot failed"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" ]]; then
        # Serving load snapshot: 1000 closed-loop requests through the
        # micro-batcher on a 4-thread pool, latency percentiles and serve/*
        # telemetry recorded as BENCH_serve.json. --quantize adds a second
        # phase against an int8 session over the same checkpoint, so the
        # snapshot also carries serve/quant_latency_* for the baseline gate.
        # --churn appends the multi-tenant profile: 128 concurrent socket
        # connections over a two-model manifest with a RELOAD hot-swap
        # mid-run; the bench exits nonzero on any failed request or any
        # reply matching neither the pre- nor post-swap oracle, and its
        # latencies land in serve/multi_latency_* for the same gate.
        note "leg release: serving load snapshot (fp32 + int8 + churn)"
        if "${CHECK_DIR}/release/bench/bench_serving" \
            --threads 4 --requests 4000 --quantize \
            --churn --conns 128 --churn-requests 4000 \
            --metrics-out "${CHECK_DIR}/release/BENCH_serve.json"; then
          DETAIL[release]="${DETAIL[release]}; BENCH_serve.json recorded"
        else
          fail_leg release "serving load snapshot failed"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" ]]; then
        # Serving telemetry self-check: --selftest drives the STATS / TRACE
        # admin commands against a live server and validates every JSONL
        # line the exporter wrote (ts_ms/seq/metrics schema, parsed with
        # src/obs/json.h) before exiting.
        note "leg release: msd_serve selftest + telemetry validation"
        if "${CHECK_DIR}/release/tools/msd_serve" --selftest \
            --telemetry-out "${CHECK_DIR}/release/selftest_telemetry.jsonl"; then
          DETAIL[release]="${DETAIL[release]}; telemetry JSONL validated"
        else
          fail_leg release "msd_serve selftest / telemetry validation failed"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" ]]; then
        # Same selftest with the planned session on the int8 path: replies
        # must stay within the quantization accuracy contract against the
        # fp32 interpreted oracle, and the plan must have adopted int8
        # steps (the selftest asserts both itself under MSD_QUANT=1).
        note "leg release: msd_serve selftest (MSD_QUANT=1)"
        if MSD_QUANT=1 "${CHECK_DIR}/release/tools/msd_serve" --selftest \
            --telemetry-out \
            "${CHECK_DIR}/release/selftest_quant_telemetry.jsonl"; then
          DETAIL[release]="${DETAIL[release]}; int8 selftest clean"
        else
          fail_leg release "msd_serve selftest failed under MSD_QUANT=1"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" && -n "${SERVE_BASELINE}" ]]; then
        # Serving perf gate: p50/p95/p99 latency gauges vs the baseline
        # snapshot; 25% threshold (tail latency is noisier than cpu_time)
        # plus a 2.5ms absolute floor on the microsecond-valued keys —
        # client-exact p99s over a few thousand samples move by whole
        # milliseconds from scheduler jitter alone, so a relative-only gate
        # on the ~2ms single-model tails flakes; the floor is negligible
        # against the churn profile's tens-of-millisecond quantiles.
        # --span-filter serve/ keeps the gate on serving spans only: the
        # snapshot also records train/* and autograd/* spans from the
        # bench's model-training warmup, and a slow warmup epoch is not a
        # serving regression.
        note "leg release: bench_compare (serving) vs ${SERVE_BASELINE}"
        if "${CHECK_DIR}/release/tools/bench_compare" \
              "${SERVE_BASELINE}" "${CHECK_DIR}/release/BENCH_serve.json" \
              --threshold 25 --noise-floor-us 2500 --span-filter serve/; then
          DETAIL[release]="${DETAIL[release]}; serving within baseline"
        else
          fail_leg release "serving latency regression vs ${SERVE_BASELINE}"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" && -n "${BENCH_BASELINE}" ]]; then
        # Perf gate: the kernel benches (GEMM family, fused epilogues,
        # Linear backward, rfft) plus the whole-model benches (planned-free
        # inference forward, one train step, one trainer epoch) against the
        # committed baseline; >10% median cpu_time growth fails. The run
        # uses a 1-thread global pool (--threads 1), so cpu_time is the whole work of every bench
        # that does not pin its own pool size (BM_*Threads/N do) rather than
        # the calling thread's share of it. 7 repetitions, medians compared,
        # so a burst of descheduled repetitions cannot fake (or mask) a
        # regression; bench_compare also refuses either file if its context
        # is not stamped msd_build_type=release. kernel_bench_filter (top
        # of file) drops thread-scaling variants above the core count.
        note "leg release: bench_compare vs ${BENCH_BASELINE}"
        kernel_filter="$(kernel_bench_filter)"
        current="${CHECK_DIR}/release/BENCH_current.json"
        if "${CHECK_DIR}/release/bench/bench_micro_kernels" --threads 1 \
              --benchmark_filter="${kernel_filter}" \
              --benchmark_min_time=0.05 --benchmark_repetitions=7 \
              --benchmark_out="${current}" --benchmark_out_format=json &&
            "${CHECK_DIR}/release/tools/bench_compare" \
              "${BENCH_BASELINE}" "${current}" --repetitions 7; then
          DETAIL[release]="${DETAIL[release]}; bench within baseline"
        else
          fail_leg release "bench regression vs ${BENCH_BASELINE}"
        fi
      fi
      if [[ "${STATUS[release]}" == "PASS" && -n "${BENCH_PARENT}" ]]; then
        # Perf gate against a revision instead of a recorded file: both
        # trees' benches run on this host in alternating rounds, so a
        # baseline recorded on other hardware cannot fail untouched code.
        note "leg release: bench_compare vs ${BENCH_PARENT} (alternating)"
        if bench_parent_gate "${BENCH_PARENT}" \
            "${CHECK_DIR}/release/bench/bench_micro_kernels"; then
          DETAIL[release]="${DETAIL[release]}; bench within ${BENCH_PARENT}"
        else
          fail_leg release "bench regression vs ${BENCH_PARENT}"
        fi
      fi
      ;;
    debug-checks)
      run_release_like_leg debug-checks -DMSD_DEBUG_CHECKS=ON
      # Zero-interference: checks may observe training, never change it.
      rel="${CHECK_DIR}/release/quickstart_losses.txt"
      dbg="${CHECK_DIR}/debug-checks/quickstart_losses.txt"
      if [[ "${STATUS[debug-checks]}" == "PASS" && -f "${rel}" ]]; then
        if diff -u "${rel}" "${dbg}"; then
          DETAIL[debug-checks]="ctest clean; losses bit-identical to release"
        else
          fail_leg debug-checks "quickstart losses differ from release leg"
        fi
      fi
      ;;
    asan-ubsan)
      # -march=native off: sanitizer runs should reproduce across machines.
      run_release_like_leg asan-ubsan \
        -DMSD_SANITIZE=address,undefined -DMSD_NATIVE_ARCH=OFF
      ;;
    tsan)
      builddir="${CHECK_DIR}/tsan"
      note "leg tsan: configure + build"
      if ! configure_and_build "${builddir}" -- \
          -DMSD_SANITIZE=thread -DMSD_NATIVE_ARCH=OFF; then
        fail_leg tsan "build failed"; continue
      fi
      note "leg tsan: full ctest at MSD_THREADS=4"
      # MSD_THREADS=4 forces the pool path (not the serial fallback) in every
      # parallel kernel while the race detector watches.
      if (cd "${builddir}" &&
          MSD_THREADS=4 ctest --output-on-failure -j "${JOBS}"); then
        STATUS[tsan]="PASS"; DETAIL[tsan]="full ctest clean at MSD_THREADS=4"
      else
        fail_leg tsan "ctest failures under ThreadSanitizer (MSD_THREADS=4)"
      fi
      ;;
    *)
      echo "unknown leg: ${leg}" >&2; exit 2
      ;;
  esac
done

if [[ ${RUN_TIDY} -eq 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy (src/common, src/tensor)"
    tidydir="${CHECK_DIR}/tidy"
    if configure_and_build "${tidydir}" msd_analyze -- \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON &&
        find "${ROOT}/src/common" "${ROOT}/src/tensor" \
            -name '*.cc' -o -name '*.h' |
          xargs clang-tidy -p "${tidydir}" --warnings-as-errors='*'; then
      STATUS[tidy]="PASS"; DETAIL[tidy]="no diagnostics"
    else
      fail_leg tidy "clang-tidy diagnostics"
    fi
  else
    STATUS[tidy]="SKIP"
    DETAIL[tidy]="clang-tidy not installed"
  fi
fi

printf '\n%-14s %-6s %s\n' "leg" "status" "detail"
printf '%s\n' "--------------------------------------------------------------"
for leg in "${LEGS[@]}" $( [[ ${RUN_TIDY} -eq 1 ]] && echo tidy ); do
  printf '%-14s %-6s %s\n' "${leg}" "${STATUS[${leg}]:-SKIP}" \
    "${DETAIL[${leg}]:-not run}"
done

exit "${FAILED}"
