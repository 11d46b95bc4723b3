#!/usr/bin/env bash
# Full verification matrix: plain build (warnings are errors) + ctest, then
# the same under AddressSanitizer(+UBSan), ThreadSanitizer, and standalone
# UBSan. The sanitizer configs catch what the plain run cannot — heap misuse
# in the parser/IR layers (ASan), data races in the thread pool / metrics /
# trace hot paths (TSan), and UB with fail-fast (-fno-sanitize-recover)
# semantics in the UBSan config.
#
# Usage: tools/check.sh [plain|asan|tsan|ubsan]...   (default: plain asan tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain asan tsan)
fi

JOBS="$(nproc 2>/dev/null || echo 4)"
if [ "${JOBS}" -lt 2 ]; then
  # Scaling assertions (speedup >= 2x etc.) are meaningless on one core; the
  # bench records its points as underprovisioned and the smoke below only
  # checks determinism, never speed.
  echo "warning: underprovisioned machine (${JOBS} core(s) < 2); scaling checks verify determinism only" >&2
fi

run_config() {
  local name="$1"
  shift
  local build_dir="build-check-${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . "$@" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" >/dev/null
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
  self_diff_smoke "${name}" "${build_dir}"
  checker_smoke "${name}" "${build_dir}"
  fuzz_smoke "${name}" "${build_dir}"
  fault_smoke "${name}" "${build_dir}"
  observability_smoke "${name}" "${build_dir}"
  scaling_smoke "${name}" "${build_dir}"
  incremental_smoke "${name}" "${build_dir}"
  git_to_vchist_smoke "${name}" "${build_dir}"
  serve_smoke "${name}" "${build_dir}"
  if [ "${name}" = plain ]; then
    perfbench_smoke "${name}" "${build_dir}"
  fi
}

# Per-checker smoke: every registered checker (from --list-checkers, baselines
# included) must run alone over the examples corpus without a usage or
# internal error (exit 0 or 1), and an unknown checker name must be rejected
# with exit 2 plus the usage text.
checker_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  echo "=== [${name}] per-checker smoke ==="
  local checkers
  checkers="$("${vc}" --list-checkers | awk -F'|' 'NR > 2 && NF > 2 { gsub(/ /, "", $2); if ($2 != "") print $2 }')"
  if [ "$(printf '%s\n' "${checkers}" | wc -l)" -lt 5 ]; then
    echo "checker smoke: --list-checkers returned fewer than 5 checkers" >&2
    return 1
  fi
  local checker rc
  for checker in ${checkers}; do
    rc=0
    "${vc}" analyze --checkers "${checker}" --jobs 2 examples/corpus >/dev/null 2>&1 || rc=$?
    if [ "${rc}" -ge 2 ]; then
      echo "checker smoke: --checkers ${checker} failed (exit ${rc})" >&2
      return 1
    fi
  done
  rc=0
  local usage
  usage="$("${vc}" analyze --checkers bogus examples/corpus 2>&1 >/dev/null)" || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "checker smoke: --checkers bogus exited ${rc}, want 2" >&2
    return 1
  fi
  if ! printf '%s' "${usage}" | grep -q "unknown checker"; then
    echo "checker smoke: --checkers bogus did not explain the rejection" >&2
    return 1
  fi
  if ! printf '%s' "${usage}" | grep -q "usage"; then
    echo "checker smoke: --checkers bogus did not print usage" >&2
    return 1
  fi
  echo "checker smoke: ok"
}

# Differential fuzz smoke: a fixed-seed vc_fuzz campaign (~200 generated
# programs, every oracle `vc_fuzz --help` lists: parse cleanliness, --jobs
# determinism, metrics parity, JSON round-trip, metamorphic fingerprint
# stability, degraded-run subset, incremental equivalence). Time-boxed to
# 30s so sanitizer-slowed builds stop at the budget instead of timing out.
fuzz_smoke() {
  local name="$1"
  local build_dir="$2"
  echo "=== [${name}] fuzz smoke ==="
  local corpus
  corpus="$(mktemp -d)"
  trap 'rm -rf "${corpus}"; trap - RETURN' RETURN
  if ! "${build_dir}/tools/vc_fuzz" --seed 42 --iters 200 --time-budget 30 \
      --quiet --corpus-dir "${corpus}"; then
    echo "fuzz smoke: oracle failures — reproducers:" >&2
    find "${corpus}" -name MANIFEST.txt -exec cat {} \; >&2
    return 1
  fi
  echo "fuzz smoke: ok"
}

# Self-diff smoke: analyze the examples corpus twice into a fresh ledger and
# require `diff --check` to report zero new findings — the analyzer must be
# deterministic run-to-run, and the ledger/diff plumbing must agree with
# itself under every sanitizer.
self_diff_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  echo "=== [${name}] self-diff smoke ==="
  local ledger
  ledger="$(mktemp -d)"
  # Disarm the trap as it fires: RETURN traps persist past this function and
  # would re-run in the caller, where ${ledger} is out of scope (set -u).
  trap 'rm -rf "${ledger}"; trap - RETURN' RETURN
  # The corpus deliberately contains findings, so analyze exits 1; only
  # exit >= 2 (usage/parse error) is a failure here.
  local rc=0
  "${vc}" analyze --ledger "${ledger}" --jobs 2 examples/corpus >/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "self-diff smoke: first analyze failed (exit ${rc})" >&2
    return 1
  fi
  rc=0
  "${vc}" analyze --ledger "${ledger}" --jobs 2 examples/corpus >/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "self-diff smoke: second analyze failed (exit ${rc})" >&2
    return 1
  fi
  "${vc}" diff --ledger "${ledger}" --check
  "${vc}" report --ledger "${ledger}" --html "${ledger}/dashboard.html" >/dev/null
  if [ ! -s "${ledger}/dashboard.html" ]; then
    echo "self-diff smoke: dashboard not written" >&2
    return 1
  fi
  echo "self-diff smoke: ok"
}

# Fault-injection smoke: the robustness contract under every sanitizer.
# 1) the degraded_run oracle over generated programs (fault-injected pipeline
#    completes, survivors are a subset of the clean run, identical at any
#    --jobs); 2) a 10% fault-injected analyze over the examples corpus must
#    degrade gracefully (exit 0/1), never abort; 3) the same run under
#    --strict with rate 1.0 must exit exactly 3.
fault_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  echo "=== [${name}] fault-injection smoke ==="
  local corpus
  corpus="$(mktemp -d)"
  trap 'rm -rf "${corpus}"; trap - RETURN' RETURN
  if ! "${build_dir}/tools/vc_fuzz" --seed 42 --iters 60 --time-budget 20 \
      --oracles degraded_run --quiet --corpus-dir "${corpus}"; then
    echo "fault smoke: degraded_run oracle failures — reproducers:" >&2
    find "${corpus}" -name MANIFEST.txt -exec cat {} \; >&2
    return 1
  fi
  local rc=0
  "${vc}" analyze --fault-inject 42:0.10 --jobs 2 examples/corpus >/dev/null 2>&1 || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "fault smoke: 10% fault injection did not degrade gracefully (exit ${rc})" >&2
    return 1
  fi
  rc=0
  "${vc}" analyze --strict --fault-inject 42:1.0 --jobs 2 examples/corpus >/dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 3 ]; then
    echo "fault smoke: --strict on a fully-quarantined run exited ${rc}, want 3" >&2
    return 1
  fi
  echo "fault smoke: ok"
}

# Observability smoke: one analyze with every observability channel on
# (--progress heartbeat, --events JSONL, --metrics-out Prometheus dump, and
# every exporter of the one recorded span set: --trace, --profile collapsed
# stacks, --perf-report) must produce well-formed artifacts — each validated
# structurally by vc_obs_lint — and byte-identical stdout findings versus a
# flag-less run: instrumentation may never perturb results.
observability_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  local lint="${build_dir}/tools/vc_obs_lint"
  echo "=== [${name}] observability smoke ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"; trap - RETURN' RETURN
  # The corpus contains findings, so exit 1 is success; only >= 2 fails.
  local rc=0
  "${vc}" analyze --jobs 2 --metrics examples/corpus \
    >"${tmp}/plain.out" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "observability smoke: baseline analyze failed (exit ${rc})" >&2
    return 1
  fi
  rc=0
  "${vc}" analyze --jobs 2 --metrics --progress \
    --events "${tmp}/events.jsonl" \
    --trace "${tmp}/trace.json" \
    --profile "${tmp}/profile.folded" \
    --perf-report "${tmp}/perf.json" \
    --metrics-out "${tmp}/metrics.prom" \
    examples/corpus >"${tmp}/instrumented.out" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "observability smoke: instrumented analyze failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/plain.out" "${tmp}/instrumented.out"; then
    echo "observability smoke: instrumentation changed stdout findings" >&2
    diff "${tmp}/plain.out" "${tmp}/instrumented.out" | head -20 >&2
    return 1
  fi
  "${lint}" events "${tmp}/events.jsonl" || {
    echo "observability smoke: events stream failed lint" >&2; return 1; }
  "${lint}" prom "${tmp}/metrics.prom" || {
    echo "observability smoke: Prometheus dump failed lint" >&2; return 1; }
  "${lint}" folded "${tmp}/profile.folded" || {
    echo "observability smoke: collapsed profile failed lint" >&2; return 1; }
  "${lint}" perf "${tmp}/perf.json" || {
    echo "observability smoke: perf report failed lint" >&2; return 1; }
  echo "observability smoke: ok"
}

# Scaling smoke: generate a small corpusgen profile to disk, analyze it at
# --jobs 1 and --jobs <all cores> and require byte-identical stdout (the core
# scaling invariant), then validate the --perf-report analytics with
# `vc_obs_lint perf` and append both runs to a ledger to exercise the perf
# columns of the run record. Speed is never asserted — see the
# underprovisioned warning above.
scaling_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  local gen="${build_dir}/tools/vc_corpusgen"
  local lint="${build_dir}/tools/vc_obs_lint"
  echo "=== [${name}] scaling smoke ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"; trap - RETURN' RETURN
  # 40 linux-like files keep sanitizer-slowed runs in the seconds range.
  "${gen}" --profile linux-like --scale small --files 40 --quiet \
    --out "${tmp}/corpus" || {
    echo "scaling smoke: vc_corpusgen failed" >&2; return 1; }
  local rc=0
  "${vc}" analyze --jobs 1 --ledger "${tmp}/ledger" \
    --perf-report "${tmp}/perf_j1.json" "${tmp}/corpus" \
    >"${tmp}/j1.out" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "scaling smoke: --jobs 1 analyze failed (exit ${rc})" >&2
    return 1
  fi
  rc=0
  "${vc}" analyze --jobs 0 --ledger "${tmp}/ledger" \
    --perf-report "${tmp}/perf_jmax.json" "${tmp}/corpus" \
    >"${tmp}/jmax.out" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "scaling smoke: --jobs 0 analyze failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/j1.out" "${tmp}/jmax.out"; then
    echo "scaling smoke: findings differ between --jobs 1 and --jobs 0" >&2
    diff "${tmp}/j1.out" "${tmp}/jmax.out" | head -20 >&2
    return 1
  fi
  "${lint}" perf "${tmp}/perf_j1.json" || {
    echo "scaling smoke: --jobs 1 perf report failed lint" >&2; return 1; }
  "${lint}" perf "${tmp}/perf_jmax.json" || {
    echo "scaling smoke: --jobs 0 perf report failed lint" >&2; return 1; }
  if [ "$(wc -l < "${tmp}/ledger/runs.jsonl" 2>/dev/null || echo 0)" -lt 2 ]; then
    echo "scaling smoke: ledger did not record both runs" >&2
    return 1
  fi
  echo "scaling smoke: ok"
}

# Incremental smoke: synthesize a commit history (vc_corpusgen --history),
# analyze it cold (full run at the head commit) and via --incremental replay
# at one and at eight jobs, and require byte-identical CSV findings — the
# engine's equivalence contract, end to end through the real binary. A
# second replay over the same
# --cache-dir must report cache reuse (disk loads and carried detect
# results), and the incremental run's Prometheus dump must contain a
# well-formed vc_cache_* family (vc_obs_lint prom --require-cache). That run
# also writes its event stream and perf report, which must pass
# `vc_obs_lint events` and `vc_obs_lint perf`, and its events, dump and
# summary line must count the same parse and detect work.
incremental_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  local gen="${build_dir}/tools/vc_corpusgen"
  local lint="${build_dir}/tools/vc_obs_lint"
  echo "=== [${name}] incremental smoke ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"; trap - RETURN' RETURN
  # 30 commits over 3 modules keeps sanitizer-slowed replays in the seconds
  # range while still mixing every edit shape the generator produces.
  "${gen}" --history "${tmp}/history.vchist" --commits 30 --modules 3 \
    --seed 7 --quiet || {
    echo "incremental smoke: vc_corpusgen --history failed" >&2; return 1; }
  # Histories can legitimately contain findings, so exit 1 is success; only
  # >= 2 (usage/internal error) fails.
  local rc=0
  "${vc}" analyze --history "${tmp}/history.vchist" --format=csv \
    --metrics-out "${tmp}/full.prom" >"${tmp}/full.csv" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "incremental smoke: full analyze failed (exit ${rc})" >&2
    return 1
  fi
  # A history run warms blame across its lanes: one lane and eight lanes
  # must both match the default run byte for byte.
  local jobs
  for jobs in 1 8; do
    rc=0
    "${vc}" analyze --history "${tmp}/history.vchist" --jobs "${jobs}" --format=csv \
      >"${tmp}/full-j${jobs}.csv" 2>/dev/null || rc=$?
    if [ "${rc}" -ge 2 ]; then
      echo "incremental smoke: analyze --jobs ${jobs} failed (exit ${rc})" >&2
      return 1
    fi
    if ! cmp -s "${tmp}/full.csv" "${tmp}/full-j${jobs}.csv"; then
      echo "incremental smoke: analyze --jobs ${jobs} differs from the default run" >&2
      diff "${tmp}/full.csv" "${tmp}/full-j${jobs}.csv" | head -20 >&2
      return 1
    fi
  done
  # Odd histories through the real loader: without its final newline the
  # history loads to the same findings; cut inside its first content block
  # it is rejected (exit 2) with the line number of that block's write.
  head -c -1 "${tmp}/history.vchist" >"${tmp}/no-newline.vchist"
  rc=0
  "${vc}" analyze --history "${tmp}/no-newline.vchist" --format=csv \
    >"${tmp}/no-newline.csv" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "incremental smoke: analyze without a final newline failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/full.csv" "${tmp}/no-newline.csv"; then
    echo "incremental smoke: a history without its final newline changed the findings" >&2
    diff "${tmp}/full.csv" "${tmp}/no-newline.csv" | head -20 >&2
    return 1
  fi
  local open_line
  open_line="$(grep -n -m1 -x '<<<' "${tmp}/history.vchist" | cut -d: -f1)"
  head -n "$((open_line + 1))" "${tmp}/history.vchist" | head -c -1 >"${tmp}/cut.vchist"
  rc=0
  "${vc}" analyze --history "${tmp}/cut.vchist" --format=csv \
    >/dev/null 2>"${tmp}/cut.err" || rc=$?
  local want="line $((open_line - 1)): unterminated content block"
  if [ "${rc}" -ne 2 ] || ! grep -q "${want}" "${tmp}/cut.err"; then
    echo "incremental smoke: a history cut inside a content block exited ${rc}," \
      "want 2 with '${want}'" >&2
    cat "${tmp}/cut.err" >&2
    return 1
  fi
  rc=0
  "${vc}" analyze --history "${tmp}/history.vchist" --incremental \
    --cache-dir "${tmp}/cache" --format=csv \
    >"${tmp}/inc.csv" 2>"${tmp}/inc.err" || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "incremental smoke: incremental analyze failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/full.csv" "${tmp}/inc.csv"; then
    echo "incremental smoke: incremental findings differ from the full run" >&2
    diff "${tmp}/full.csv" "${tmp}/inc.csv" | head -20 >&2
    return 1
  fi
  # The replay's post-detect tail carries verdicts across its lanes too:
  # eight lanes must match the full run byte for byte.
  rc=0
  "${vc}" analyze --history "${tmp}/history.vchist" --incremental --jobs 8 --format=csv \
    >"${tmp}/inc-j8.csv" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "incremental smoke: incremental analyze --jobs 8 failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/full.csv" "${tmp}/inc-j8.csv"; then
    echo "incremental smoke: incremental findings at --jobs 8 differ from the full run" >&2
    diff "${tmp}/full.csv" "${tmp}/inc-j8.csv" | head -20 >&2
    return 1
  fi
  # Cold-restart replay over the populated cache dir: still identical, and
  # the cumulative summary line must show the disk tier actually serving
  # ("disk cache N loaded" with N > 0) plus carried detect results.
  rc=0
  "${vc}" analyze --history "${tmp}/history.vchist" --incremental \
    --cache-dir "${tmp}/cache" --metrics-out "${tmp}/inc.prom" --format=csv \
    --events "${tmp}/inc.events.jsonl" --perf-report "${tmp}/inc.perf.json" \
    >"${tmp}/inc2.csv" 2>"${tmp}/inc2.err" || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "incremental smoke: cached replay failed (exit ${rc})" >&2
    return 1
  fi
  if ! cmp -s "${tmp}/full.csv" "${tmp}/inc2.csv"; then
    echo "incremental smoke: cached replay findings differ from the full run" >&2
    diff "${tmp}/full.csv" "${tmp}/inc2.csv" | head -20 >&2
    return 1
  fi
  if ! grep -Eq 'disk cache [1-9][0-9]* loaded' "${tmp}/inc2.err"; then
    echo "incremental smoke: cached replay reported zero disk cache loads" >&2
    grep 'incremental replay:' "${tmp}/inc2.err" >&2 || true
    return 1
  fi
  if ! grep -Eq '\([1-9][0-9]* carried' "${tmp}/inc2.err"; then
    echo "incremental smoke: cached replay carried zero detect results" >&2
    grep 'incremental replay:' "${tmp}/inc2.err" >&2 || true
    return 1
  fi
  # The replay reports the memory its project holds resident: the full
  # run's tracked bytes over the same history, never zero.
  local full_mem inc_mem
  full_mem="$(awk '$1 == "vc_mem_tracked_bytes" { print $2 }' "${tmp}/full.prom")"
  inc_mem="$(awk '$1 == "vc_mem_tracked_bytes" { print $2 }' "${tmp}/inc.prom")"
  if [ -z "${inc_mem}" ] || [ "${inc_mem}" = 0 ] || [ "${inc_mem}" != "${full_mem}" ]; then
    echo "incremental smoke: replay vc_mem_tracked_bytes '${inc_mem}'," \
      "full run '${full_mem}'" >&2
    return 1
  fi
  # One tally per stage: the replay's stage_end events, its Prometheus dump
  # and its summary line count the same work — the files each commit
  # recompiled (parse `files`, vc_parse_files_total, parse cache misses) and
  # the functions it re-ran (detect `functions`, vc_detect_functions_total,
  # recomputed detect results).
  local events_work prom_work summary_work
  events_work="$(awk '
    /"event":"stage_end"/ && /"stage":"parse"[,}]/ {
      if (match($0, /"files":[0-9]+/)) files += substr($0, RSTART + 8, RLENGTH - 8)
      else missing = 1
    }
    /"event":"stage_end"/ && /"stage":"detect"[,}]/ {
      if (match($0, /"functions":[0-9]+/)) fns += substr($0, RSTART + 12, RLENGTH - 12)
      else missing = 1
    }
    END { if (missing) print "missing"; else print files + 0, fns + 0 }' "${tmp}/inc.events.jsonl")"
  prom_work="$(awk '$1 == "vc_parse_files_total" { files = $2 }
    $1 == "vc_detect_functions_total" { fns = $2 }
    END { print files, fns }' "${tmp}/inc.prom")"
  summary_work="$(awk '/incremental replay:/ {
      for (i = 2; i <= NF; ++i) {
        if ($i == "miss;") misses = $(i - 1)
        if ($i == "recomputed);") recomputed = $(i - 1)
      }
    }
    END { print misses, recomputed }' "${tmp}/inc2.err")"
  if [ "${events_work}" != "${prom_work}" ] || [ "${events_work}" != "${summary_work}" ]; then
    echo "incremental smoke: replay sinks disagree on files parsed and functions run:" \
      "stage_end events '${events_work}', Prometheus '${prom_work}'," \
      "summary line '${summary_work}'" >&2
    return 1
  fi
  "${lint}" prom "${tmp}/inc.prom" --require-cache || {
    echo "incremental smoke: cache metrics failed lint" >&2; return 1; }
  "${lint}" events "${tmp}/inc.events.jsonl" || {
    echo "incremental smoke: events stream failed lint" >&2; return 1; }
  "${lint}" perf "${tmp}/inc.perf.json" || {
    echo "incremental smoke: perf report failed lint" >&2; return 1; }
  echo "incremental smoke: ok"
}

# Benchmark smoke (plain config only): the benchmark harness
# (perfbench/vc_perfbench.cc) calls library entry points directly —
# RunPruning, ClassifyAll, DepGraph, RunCheckers, CheckerContext — and none of
# the targets above compile it, so an API break would surface only when the
# benchmark runs. Build it into this config's build dir and run the
# benchmark's own tests (each workload at small scale, traced and untraced,
# plus a planted wrong answer that must fail). The first run also builds the
# harness, about 90 s on 4 cores.
perfbench_smoke() {
  local name="$1"
  local build_dir="$2"
  echo "=== [${name}] perfbench smoke ==="
  if ! CARGO_TARGET_DIR="$(pwd)/${build_dir}/perfbench" python3 perfbench/test_perfbench.py; then
    echo "perfbench smoke: the benchmark's own tests failed" >&2
    return 1
  fi
  echo "perfbench smoke: ok"
}

# git-to-vchist smoke: a generated corpus committed to a temporary git
# repository converts (tools/git-to-vchist.sh) to a history that loads, and
# analyzing that history with the cross-scope filter off reports the same
# (file, line, function, slot) rows as analyzing the work tree. The second
# commit, with an empty message, drops one file's final newline, renames one
# file and deletes another; a third adds a line that reads `>>>`, which the
# tool must refuse.
git_to_vchist_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc gen
  vc="$(pwd)/${build_dir}/tools/valuecheck"
  gen="$(pwd)/${build_dir}/tools/vc_corpusgen"
  echo "=== [${name}] git-to-vchist smoke ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"; trap - RETURN' RETURN
  local work="${tmp}/work"
  local git=(git -C "${work}" -c user.name=smoke -c user.email=smoke@example.invalid
             -c init.defaultBranch=main)
  "${gen}" --profile linux-like --scale small --files 6 --quiet --out "${work}" || {
    echo "git-to-vchist smoke: vc_corpusgen failed" >&2; return 1; }
  local files=()
  local path
  for path in "${work}"/*.c; do
    files+=("$(basename "${path}")")
  done
  if [ "${#files[@]}" -lt 3 ]; then
    echo "git-to-vchist smoke: expected at least 3 generated files" >&2
    return 1
  fi
  "${git[@]}" init -q && "${git[@]}" add -A && "${git[@]}" commit -qm "import" || {
    echo "git-to-vchist smoke: git import failed" >&2; return 1; }
  truncate -s -1 "${work}/${files[0]}"
  "${git[@]}" mv "${files[1]}" renamed.c && "${git[@]}" rm -q "${files[2]}" &&
    "${git[@]}" commit -qa --allow-empty-message -m "" || {
    echo "git-to-vchist smoke: git edit failed" >&2; return 1; }

  bash tools/git-to-vchist.sh "${work}" >"${tmp}/history.vchist" || {
    echo "git-to-vchist smoke: conversion failed" >&2; return 1; }
  local rc=0
  "${vc}" analyze --history "${tmp}/history.vchist" --all-scopes --format=csv \
    >"${tmp}/history.csv" 2>"${tmp}/history.err" || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "git-to-vchist smoke: analyze --history failed (exit ${rc}):" >&2
    cat "${tmp}/history.err" >&2
    return 1
  fi
  rc=0
  (cd "${work}" && "${vc}" analyze --format=csv .) >"${tmp}/tree.csv" 2>/dev/null || rc=$?
  if [ "${rc}" -ge 2 ]; then
    echo "git-to-vchist smoke: analyze over the work tree failed (exit ${rc})" >&2
    return 1
  fi
  # Columns file, line, function, slot; work-tree paths start with "./".
  tail -n +2 "${tmp}/history.csv" | cut -d, -f1-4 | sort >"${tmp}/history.rows"
  tail -n +2 "${tmp}/tree.csv" | cut -d, -f1-4 | sed 's|^\./||' | sort >"${tmp}/tree.rows"
  if [ ! -s "${tmp}/tree.rows" ] || ! cmp -s "${tmp}/history.rows" "${tmp}/tree.rows"; then
    echo "git-to-vchist smoke: the history's rows differ from the work tree's" >&2
    diff "${tmp}/history.rows" "${tmp}/tree.rows" | head -20 >&2
    return 1
  fi

  printf '/*\n>>>\n*/\n' >>"${work}/renamed.c"
  "${git[@]}" commit -qam "a line the format cannot hold" || {
    echo "git-to-vchist smoke: git edit failed" >&2; return 1; }
  if bash tools/git-to-vchist.sh "${work}" >/dev/null 2>"${tmp}/refusal.err"; then
    echo "git-to-vchist smoke: a '>>>' line was converted instead of refused" >&2
    return 1
  fi
  if ! grep -q "renamed\.c: a line reads '>>>'" "${tmp}/refusal.err"; then
    echo "git-to-vchist smoke: the conversion failed, but not with the '>>>' refusal:" >&2
    cat "${tmp}/refusal.err" >&2
    return 1
  fi
  echo "git-to-vchist smoke: ok ($(wc -l <"${tmp}/tree.rows") rows; $(cat "${tmp}/refusal.err"))"
}

# Serve smoke: the daemon's robustness contract end to end through the real
# binaries. Start `valuecheck serve` on a Unix socket, drive it with a
# chaos-flavored vc_loadgen burst (10% fault injection), and require: the
# load generator's client-side accounting to balance (exit 0), the daemon to
# drain cleanly on SIGTERM with balanced server-side accounting (exit 0), the
# vc_serve_* Prometheus family to pass vc_obs_lint (including the accounting
# identity), the bench JSON to carry the latency/QPS summary, and the shared
# ledger to record both sides of the run.
serve_smoke() {
  local name="$1"
  local build_dir="$2"
  local vc="${build_dir}/tools/valuecheck"
  local loadgen="${build_dir}/tools/vc_loadgen"
  local lint="${build_dir}/tools/vc_obs_lint"
  echo "=== [${name}] serve smoke ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"; trap - RETURN' RETURN
  "${vc}" serve --socket "${tmp}/sock" --max-inflight 2 --max-queue 8 \
    --ledger "${tmp}/ledger" --metrics-out "${tmp}/serve.prom" --label smoke \
    >"${tmp}/serve.out" 2>"${tmp}/serve.err" &
  local serve_pid=$!
  # Wait for the startup handshake line; sanitizer builds start slowly.
  local waited=0
  while ! grep -q "serving on" "${tmp}/serve.out" 2>/dev/null; do
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "serve smoke: daemon exited before accepting connections" >&2
      cat "${tmp}/serve.err" >&2
      return 1
    fi
    if [ "${waited}" -ge 300 ]; then
      echo "serve smoke: daemon did not start within 30s" >&2
      kill "${serve_pid}" 2>/dev/null || true
      return 1
    fi
    sleep 0.1
    waited=$((waited + 1))
  done
  local rc=0
  "${loadgen}" --socket "${tmp}/sock" --clients 4 --warehouses 2 \
    --transactions 6 --seed 7 --files 2 --fault-inject 42:0.10 \
    --out "${tmp}/BENCH_serve.json" --ledger "${tmp}/ledger" \
    >"${tmp}/loadgen.out" 2>&1 || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "serve smoke: vc_loadgen failed (exit ${rc})" >&2
    cat "${tmp}/loadgen.out" >&2
    kill "${serve_pid}" 2>/dev/null || true
    return 1
  fi
  kill -TERM "${serve_pid}"
  rc=0
  wait "${serve_pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "serve smoke: daemon drain failed (exit ${rc})" >&2
    cat "${tmp}/serve.err" >&2
    return 1
  fi
  "${lint}" prom "${tmp}/serve.prom" --require-serve || {
    echo "serve smoke: vc_serve_* metrics failed lint" >&2; return 1; }
  local key
  for key in '"p50_ms"' '"p99_ms"' '"qps"' '"succeeded"'; do
    if ! grep -q "${key}" "${tmp}/BENCH_serve.json"; then
      echo "serve smoke: bench JSON missing ${key}" >&2
      return 1
    fi
  done
  if [ "$(wc -l < "${tmp}/ledger/runs.jsonl" 2>/dev/null || echo 0)" -lt 2 ]; then
    echo "serve smoke: ledger did not record both the loadgen and the drain" >&2
    return 1
  fi
  echo "serve smoke: ok"
}

for config in "${CONFIGS[@]}"; do
  case "${config}" in
    plain) run_config plain -DCMAKE_CXX_FLAGS=-Werror ;;
    asan)  run_config asan -DVC_ENABLE_ASAN=ON ;;
    tsan)  run_config tsan -DVC_ENABLE_TSAN=ON ;;
    ubsan) run_config ubsan -DVC_ENABLE_UBSAN=ON ;;
    *)
      echo "unknown config '${config}' (expected plain, asan, tsan, ubsan)" >&2
      exit 2
      ;;
  esac
done

echo "=== all configs passed: ${CONFIGS[*]} ==="
