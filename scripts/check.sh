#!/usr/bin/env bash
# One-shot correctness gate: configure with sanitizers + -Werror, build everything,
# run the tier1 suite, the repo-wide buslint + hotlint passes, and the determinism
# replay check.
# See docs/TOOLING.md.
#
#   scripts/check.sh                 # full gate in build-check/
#   BUILD_DIR=build scripts/check.sh # reuse an existing build dir
#   IB_SANITIZE= scripts/check.sh    # skip sanitizers (e.g. on toolchains without ASan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-check}
JOBS=${JOBS:-$(nproc)}
IB_SANITIZE=${IB_SANITIZE-address,undefined}

echo "== configure (${BUILD_DIR}: IB_SANITIZE='${IB_SANITIZE}' IB_WERROR=ON)"
cmake -B "${BUILD_DIR}" -S . -DIB_SANITIZE="${IB_SANITIZE}" -DIB_WERROR=ON "$@"

echo "== build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier1 tests (unit + integration + examples + sim_replay_check)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L tier1

echo "== telemetry tests (ctest -L telemetry; no-op when built with IB_TELEMETRY=OFF)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L telemetry

echo "== health plane tests (ctest -L health: flows, alerts, flight recorder, busmon)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L health

echo "== wire capture tests (ctest -L capture: tap fates, dissection, buscap goldens)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L capture

echo "== journal tests (ctest -L journal: ledger format, recovery, busjournal verify)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L journal

echo "== busprof tests (ctest -L prof: stage decomposition, reconciliation, replay gate)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L prof

echo "== busstat tests (ctest -L stats: sketches, sampling, time-series codec, replay gate)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L stats

echo "== buslint over src/ bench/ examples/ tools/  (-L lint also runs tdlcheck)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L lint

echo "== tdlcheck over repo TDL scripts + embedded R\"tdl()\" blocks"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L tdlcheck

echo "== hotlint over the message hot path (-L hotlint: repo scan + analyzer tests)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L hotlint

echo "== wirecheck over every codec (-L wirecheck: schema goldens, symmetry, decode safety)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L wirecheck

# The benchmark's own build (.bench_build/busbench, no sanitizers): a protocol change
# that breaks its delivery oracle or its repeat-for-repeat determinism fails here.
echo "== busbench smoke (all four workloads at 2% scale + traced pass + self-test)"
python3 busbench/run.py --smoke

# Optional fuzz smoke: IB_FUZZ=ON scripts/check.sh spends ~40 s fuzzing the four
# frontline decoders (libFuzzer under clang; deterministic corpus replay on GCC).
if [[ "${IB_FUZZ:-OFF}" == "ON" ]]; then
  echo "== fuzz smoke (IB_FUZZ=ON: 4 x 10 s over frame/proto packet/message/statseries decoders)"
  cmake -B "${BUILD_DIR}" -S . -DIB_FUZZ=ON
  cmake --build "${BUILD_DIR}" -j "${JOBS}" \
    --target fuzz_parse_frame fuzz_proto_packet fuzz_message_unmarshal fuzz_statseries_decode
  for t in parse_frame proto_packet message_unmarshal statseries_decode; do
    "./${BUILD_DIR}/fuzz/fuzz_${t}" -max_total_time=10 "fuzz/corpus/${t}"
  done
fi

echo "== clang-tidy (skips when not installed)"
cmake --build "${BUILD_DIR}" --target lint-tidy

# The telemetry-compiled-out configuration must stay a first-class citizen: the
# always-on surfaces (stats, flows, flight recorder, busmon) still carry tier1.
OFF_BUILD_DIR="${BUILD_DIR}-notelemetry"
echo "== tier1 with -DIB_TELEMETRY=OFF (${OFF_BUILD_DIR})"
cmake -B "${OFF_BUILD_DIR}" -S . -DIB_TELEMETRY=OFF -DIB_WERROR=ON "$@"
cmake --build "${OFF_BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${OFF_BUILD_DIR}" --output-on-failure -j "${JOBS}" -L tier1

echo "== all checks passed"
