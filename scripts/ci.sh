#!/usr/bin/env bash
# Full CI gate: tier-1 tests, ThreadSanitizer pass over the multithreaded
# trace-simulator and observability tests, the observability smoke
# (trace/metrics JSON artifacts validated with python), and the
# paper-reproduction benches.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh tier1      # build + ctest only
#   scripts/ci.sh tsan       # TSan build of the concurrent tests only
#   scripts/ci.sh asan       # ASan+UBSan build of the robustness-critical tests
#   scripts/ci.sh obs        # trace/metrics/profile export + telemetry invariants
#   scripts/ci.sh fault      # fault-injection/budget matrix: degraded but sound
#   scripts/ci.sh symval     # symbolic-vs-trace differential + BENCH_symval.json
#   scripts/ci.sh bench      # reproduction benches only
#   scripts/ci.sh baselines  # every artifact bench_compare.py gates has a tracked baseline
#   scripts/ci.sh perf       # perf-regression gate vs bench/baselines + self-test
#   scripts/ci.sh service    # service soak (plain + TSan), schema + compare gate, CLI e2e
#   scripts/ci.sh coverage   # gcov line coverage of src/symbolic + src/descriptors
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

tier1() {
  echo "=== tier 1: build + ctest ==="
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure
}

tsan() {
  # The obs layer, the thread pool and the batched engine are the concurrent
  # code; a dedicated -fsanitize=thread build of their tests catches data
  # races the plain run cannot. GTest itself is TSan-clean, so the whole
  # binaries run under it. sim_test rides along for the validator paths.
  # golden_test and symval_test ride along for the kernel family: the batched
  # jobs=8 golden run spawns real worker threads over the kernels' tiled and
  # sliding-window nests.
  echo "=== tsan: observability + batched-engine + validator tests under ThreadSanitizer ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$jobs" --target \
    sim_test obs_test thread_pool_test determinism_test profiler_test \
    intern_test golden_test symval_test
  ./build-tsan/tests/sim_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/thread_pool_test
  ./build-tsan/tests/determinism_test
  ./build-tsan/tests/profiler_test
  ./build-tsan/tests/intern_test
  ./build-tsan/tests/golden_test
  ./build-tsan/tests/symval_test
}

asan() {
  # The graceful-degradation machinery moves failure handling onto rarely-
  # taken paths (unwinding through ErrorContext frames, exception capture at
  # pool boundaries, budget-truncated searches); AddressSanitizer +
  # UndefinedBehaviorSanitizer keep those paths honest. The parser fuzz runs
  # here too — mutated input is where lifetime bugs hide.
  echo "=== asan: robustness tests under ASan+UBSan ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  local tests=(status_test fault_test cli_test parser_fuzz_test \
               degradation_test thread_pool_test frontend_test service_test)
  cmake --build build-asan -j "$jobs" --target "${tests[@]}"
  for t in "${tests[@]}"; do
    ./build-asan/tests/"$t"
  done
}

fault() {
  # Deterministic fault/budget matrix over the ten-code suite (six 1999 codes
  # + the AI/HPC kernel family — --suite covers all of them). Asserts the
  # documented exit-code contract (examples/tfft2_pipeline):
  #   0 clean, 2 usage, 4 analysis failed (structured, siblings unharmed),
  #   5 degraded but sound. Every degraded run executes under --simulate, so
  #   "sound" is checked by the trace validator, not assumed.
  echo "=== fault: injection matrix + exit-code contract ==="
  cmake -B build -S .
  cmake --build build -j "$jobs" --target tfft2_pipeline
  local bin=./build/examples/tfft2_pipeline

  expect_rc() {
    local want="$1"; shift
    local out rc=0
    out="$("$@" 2>&1)" || rc=$?
    if [ "$rc" -ne "$want" ]; then
      echo "FAIL: '$*' exited $rc, want $want" >&2
      echo "$out" >&2
      return 1
    fi
    echo "ok (exit $want): $*"
  }

  # Clean baselines stay clean (and byte-stable goldens are covered by ctest).
  expect_rc 0 "$bin" 8 8 4 --simulate
  expect_rc 0 "$bin" --suite --simulate

  # Budget exhaustion: conservative fallbacks only, validation still passes.
  expect_rc 5 "$bin" --suite --simulate --budget-steps 500
  expect_rc 5 "$bin" --suite --simulate --budget-steps 1500
  expect_rc 5 "$bin" --suite --simulate --fault prover.timeout@1 --budget-steps 1000000000

  # Injected hard failures: the poisoned item fails with a structured status,
  # its siblings complete, the process never aborts.
  expect_rc 4 "$bin" --suite --simulate --fault sim.trace@1
  expect_rc 4 "$bin" --suite --fault frontend.parse@2
  expect_rc 4 "$bin" --suite --fault serialize.alloc@1
  expect_rc 4 "$bin" --suite --fault pool.task@3

  # Degraded runs report their downgrades visibly. (Exit 5 was asserted
  # above; the `|| true` keeps the expected nonzero status from set -e.)
  local degraded
  degraded="$("$bin" --suite --simulate --budget-steps 500 || true)"
  echo "$degraded" | grep -q "degrade: lcg.edge" || {
    echo "FAIL: degraded run did not report its conservative C edges" >&2
    exit 1
  }
  echo "$degraded" | grep -q "VALIDATION FAILED" && {
    echo "FAIL: a degraded run disagreed with the trace simulator" >&2
    exit 1
  }

  # Usage errors: rejected flags and malformed fault specs.
  expect_rc 2 "$bin" --jobs 0
  expect_rc 2 "$bin" --fault garbage
  expect_rc 2 "$bin" --suite 8 8 4
  AD_FAULT_SPEC="tag@" expect_rc 2 "$bin" 8 8 4

  # Probabilistic campaign (the tag%P:SEED grammar, docs/ROBUSTNESS.md): each
  # seed decides firings by a hash of (seed, hit index), so the exit-code
  # sequence over a fixed seed range is fully deterministic and asserted
  # exactly. The ten-code suite gives sim.trace ten hit sites per run (one
  # per code, kernels included), so the firing rate sits at 12% — the largest
  # value that still leaves clean seeds in the range. Two legs:
  #   1. sim.trace%12 alone — a mix of hard failures (4) and clean runs (0);
  #   2. plus symval.region%2 under --validate=both — the previously-clean
  #      seeds now degrade (5), and every degraded region falls back to the
  #      enumerating oracle, so differential agreement still holds (a 1
  #      anywhere would mean the fallback produced different counts).
  campaign() {
    local spec="$1" want="$2" got="" rc seed
    for seed in 1 2 3 4 5 6 7 8 9 10; do
      rc=0
      "$bin" --suite --validate=both --fault "${spec//SEED/$seed}" >/dev/null 2>&1 || rc=$?
      got="$got$rc "
    done
    if [ "$got" != "$want" ]; then
      echo "FAIL: campaign '$spec' over seeds 1..10 gave [$got], want [$want]" >&2
      exit 1
    fi
    echo "ok (campaign): $spec over seeds 1..10 -> [$want]"
  }
  campaign "sim.trace%12:SEED" "4 0 4 4 4 4 4 4 0 4 "
  campaign "sim.trace%12:SEED,symval.region%2:SEED" "4 5 4 4 4 4 4 4 5 4 "
}

symval() {
  # Differential gate for the closed-form validator: the symbolic oracle must
  # reproduce the enumerating simulator's observed trace byte-for-byte on
  # every suite code (tests/symval_test.cpp), a paper-scale run must finish
  # under a timeout, and the scale bench must hold its <100 ms bound at P=64
  # while emitting BENCH_symval.json, whose schema is validated here.
  echo "=== symval: symbolic-vs-trace differential + scale bench ==="
  cmake -B build -S .
  cmake --build build -j "$jobs" --target symval_test symbolic_validation tfft2_pipeline
  ./build/tests/symval_test
  ./build/examples/tfft2_pipeline 8 8 4 --validate=both >/dev/null
  # Paper scale: the closed-form cost model and symval must finish TFFT2 at
  # P = Q = 1024 on 8 PEs well inside a minute. A cost model that regressed to
  # enumerating every access (minutes at this size) fails here instead of
  # hiding behind the small test sizes.
  timeout 60 ./build/examples/tfft2_pipeline 1024 1024 8 --validate=symbolic >/dev/null
  # The same run under a 50-step budget: the analysis degrades (conservative
  # C edges, exit 5), the validation does not. It charges no budget, so no
  # region falls back to enumerating the plan's accesses (~56 s when it did)
  # and no symval.region event is reported. (-w: the ad.symval.regions_*
  # metric names must not match.)
  local out rc=0
  out="$(timeout 20 ./build/examples/tfft2_pipeline 1024 1024 8 --validate=symbolic \
           --budget-steps 50 2>&1)" || rc=$?
  if [ "$rc" -ne 5 ]; then
    echo "FAIL: budgeted paper-scale symval run exited $rc, want 5" >&2
    exit 1
  fi
  if grep -qw 'symval\.region' <<<"$out"; then
    echo "FAIL: budgeted paper-scale symval run reported a symval.region downgrade" >&2
    exit 1
  fi
  echo "ok (exit 5): paper-scale symval under --budget-steps 50, no symval.region"
  ./build/bench/symbolic_validation
  python3 - <<'EOF'
import json

doc = json.load(open("BENCH_symval.json"))
assert doc["benchmark"] == "symbolic_validation", doc.get("benchmark")
codes = doc["codes"]
assert len(codes) == 10, f"want 10 codes (six 1999 + four kernels), got {len(codes)}"
for code in codes:
    assert code["name"] and isinstance(code["params"], dict), code
    procs = [r["processors"] for r in code["runs"]]
    assert procs == [4, 8, 64, 1024], f"{code['name']}: runs at {procs}"
    for run in code["runs"]:
        for key in ("accesses", "symval_seconds", "sim_extrapolated_seconds",
                    "local_fraction", "closed_form_regions", "enumerated_regions"):
            assert key in run, f"{code['name']} P={run['processors']}: missing {key}"
        assert run["accesses"] > 0
        if run["processors"] <= 8:
            assert run["differential"] == "agree", f"{code['name']}: {run}"
        else:
            assert run["differential"] is None
        if run["processors"] == 64:
            assert run["symval_seconds"] < 0.100, \
                f"{code['name']} P=64 took {run['symval_seconds']}s"
print(f"symval bench ok: {len(codes)} codes, differential agreement at P in (4, 8), "
      f"P=64 under 100 ms")
EOF
}

coverage() {
  # Line coverage of the proof/descriptor algebra, the layers the memoized
  # engine must not silently regress. No gcovr in the image, so gcov's JSON
  # intermediate format + scripts/coverage_report.py do the aggregation and
  # enforce the threshold (writes coverage.html).
  echo "=== coverage: src/symbolic + src/descriptors via gcov ==="
  cmake -B build-cov -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage"
  local tests=(expr_test ranges_test diophantine_test descriptors_test \
               property_test homogenize_test golden_test determinism_test)
  cmake --build build-cov -j "$jobs" --target "${tests[@]}"
  for t in "${tests[@]}"; do
    ./build-cov/tests/"$t" >/dev/null
  done
  python3 scripts/coverage_report.py build-cov coverage.html
}

obs() {
  # End-to-end observability smoke: runs the paper's example with tracing,
  # metrics and profile export and validates the JSON artifacts (parseable,
  # required span names, stable metric keys), then checks the telemetry's
  # reconciliation invariants (scripts/check_telemetry.py) with a self-test.
  echo "=== obs: trace/metrics export + JSON validation ==="
  cmake -B build -S .
  cmake --build build -j "$jobs" --target tfft2_pipeline
  ./build/examples/tfft2_pipeline 8 8 4 --simulate \
    --trace-out=trace.json --metrics-out=metrics.json \
    --profile-out=profile.json >/dev/null
  python3 - <<'EOF'
import json, sys

trace = json.load(open("trace.json"))
events = trace["traceEvents"]
names = {e["name"] for e in events}
need_spans = {
    "pipeline.analyze_and_simulate", "pipeline.lcg", "pipeline.ilp_build",
    "pipeline.ilp_solve", "pipeline.plan", "pipeline.comm",
    "pipeline.dsm_model", "pipeline.trace_sim", "pipeline.validate",
    "lcg.build", "ilp.solve", "dsm.simulate", "sim.trace",
}
missing = need_spans - names
assert not missing, f"trace.json missing spans: {sorted(missing)}"
assert any(n.startswith("dsm.phase:") for n in names), "no per-phase replay spans"

metrics = json.load(open("metrics.json"))
assert metrics["schema"] == "ad.metrics.v1", metrics.get("schema")
need_counters = {
    "ad.desc.stride_coalescings", "ad.desc.term_unions",
    "ad.desc.homogenizations", "ad.desc.offset_adjustments",
    "ad.lcg.edges_local", "ad.lcg.edges_comm", "ad.lcg.edges_uncoupled",
    "ad.ilp.greedy_fallbacks", "ad.sim.local_accesses",
    "ad.sim.remote_accesses",
}
missing = need_counters - set(metrics["counters"])
assert not missing, f"metrics.json missing counters: {sorted(missing)}"
assert "ad.ilp.variables" in metrics["gauges"], "missing ILP gauges"

profile = json.load(open("profile.json"))
assert profile["schema"] == "ad.profile.v2", profile.get("schema")
thread_names = {row["name"] for row in profile["threads"]}
assert "main" in thread_names, f"no main thread row: {sorted(thread_names)}"
print(f"obs smoke ok: {len(events)} trace events, "
      f"{len(metrics['counters'])} counters, "
      f"{len(metrics['gauges'])} gauges, {len(metrics['histograms'])} histograms, "
      f"{len(profile['threads'])} profile thread rows")
EOF
  python3 scripts/check_telemetry.py trace.json profile.json

  # The telemetry must add up under concurrency too: a batch on four workers
  # with helping joins, checked for proper nesting, self time >= 0, rows
  # within wall and rows equal to the trace's per-tid self time.
  ./build/examples/tfft2_pipeline --suite --jobs 4 \
    --trace-out=trace.json --profile-out=profile.json >/dev/null
  python3 scripts/check_telemetry.py trace.json profile.json

  # Self-test: the checker must reject a trace with two partially
  # overlapping spans on one tid, and a profile row whose work exceeds wall.
  local doctored out
  doctored="$(mktemp -d)"
  python3 - "$doctored" <<'EOF'
import json, sys

root = sys.argv[1]
trace = json.load(open("trace.json"))
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
wall = max(e["ts"] + e["dur"] for e in spans) - min(e["ts"] for e in spans)
for ts in (0, 5):
    trace["traceEvents"].append({"name": "doctored", "cat": "test", "ph": "X",
                                 "ts": ts, "dur": 10, "pid": 1, "tid": spans[-1]["tid"]})
json.dump(trace, open(f"{root}/overlap_trace.json", "w"))
profile = json.load(open("profile.json"))
profile["threads"][0]["work_us"] = wall + 1
json.dump(profile, open(f"{root}/overwork_profile.json", "w"))
EOF
  if out="$(python3 scripts/check_telemetry.py "$doctored/overlap_trace.json" profile.json 2>&1)" \
      || ! grep -q "partially overlaps" <<<"$out"; then
    echo "FAIL: check_telemetry accepted partially overlapping spans on one tid" >&2
    rm -rf "$doctored"
    exit 1
  fi
  echo "ok (self-test): partially overlapping spans rejected"
  if out="$(python3 scripts/check_telemetry.py trace.json "$doctored/overwork_profile.json" 2>&1)" \
      || ! grep -q "exceeds wall" <<<"$out"; then
    echo "FAIL: check_telemetry accepted a profile row with work_us > wall" >&2
    rm -rf "$doctored"
    exit 1
  fi
  rm -rf "$doctored"
  echo "ok (self-test): profile row over wall rejected"
}

baselines() {
  # Every artifact scripts/bench_compare.py compares must have a baseline
  # tracked by git: one that exists only in a working copy (say, matched by a
  # .gitignore pattern) passes locally and is missing on a fresh clone.
  echo "=== baselines: every compared artifact has a tracked baseline ==="
  local artifact missing=0
  for artifact in $(python3 -c 'import sys; sys.path.insert(0, "scripts")
import bench_compare
print(" ".join(sorted(bench_compare.COMPARATORS)))'); do
    if ! git ls-files --error-unmatch "bench/baselines/$artifact" >/dev/null 2>&1; then
      echo "FAIL: bench/baselines/$artifact is not tracked by git" >&2
      missing=1
    fi
  done
  [ "$missing" -eq 0 ] || exit 1
  echo "ok: every compared artifact has a tracked baseline"
}

perf() {
  # Perf-regression gate: rerun the perf-sensitive benches and diff their
  # artifacts against the checked-in baselines (bench/baselines/). Only
  # machine-portable metrics are compared — within-run ratios (speedup,
  # profiler overhead) and exact structural counts — never raw wall-clock
  # (see scripts/bench_compare.py). The stage also self-tests: a doctored
  # artifact with a synthetic regression must make the comparator fail.
  echo "=== perf: regression gate vs bench/baselines ==="
  baselines
  cmake -B build -S .
  cmake --build build -j "$jobs" --target \
    analysis_scaling contention_profile symbolic_validation kernel_family \
    intern_microbench
  ./build/bench/analysis_scaling
  ./build/bench/contention_profile
  ./build/bench/symbolic_validation
  ./build/bench/kernel_family
  ./build/bench/intern_microbench

  # Structural schema check of the interning artifact: the ad.bench.intern.v1
  # shape, plus the invariants the arena guarantees regardless of machine
  # (power-of-two slot count, sparse open addressing, all-positive timings).
  python3 - <<'EOF'
import json

doc = json.load(open("BENCH_intern.json"))
assert doc["schema"] == "ad.bench.intern.v1", doc.get("schema")
for key in ("distinct_exprs", "warm_rounds", "reps", "cold_ns_per_op",
            "warm_ns_per_op", "warm_speedup", "mean_probe_length",
            "load_factor", "slots", "bytes_per_node", "arena_bytes"):
    assert key in doc, f"missing {key}"
assert doc["distinct_exprs"] > 0 and doc["reps"] >= 3
assert doc["cold_ns_per_op"] > 0 and doc["warm_ns_per_op"] > 0
assert doc["slots"] & (doc["slots"] - 1) == 0, f"slots not a power of two: {doc['slots']}"
assert 0.0 < doc["load_factor"] <= 0.75, doc["load_factor"]
assert doc["mean_probe_length"] >= 1.0, doc["mean_probe_length"]
print(f"intern schema ok: {doc['distinct_exprs']} exprs, "
      f"warm speedup {doc['warm_speedup']:.2f}x, "
      f"mean probe {doc['mean_probe_length']:.3f}")
EOF

  # Structural schema check of the contention artifact before it is compared
  # or uploaded: the ad.bench.contention.v1 shape plus the embedded
  # ad.profile.v2 summary with per-thread rows, the pool-wide queue-latency
  # histogram and shard families.
  python3 - <<'EOF'
import json

doc = json.load(open("BENCH_contention.json"))
assert doc["schema"] == "ad.bench.contention.v1", doc.get("schema")
for key in ("reps", "off_ms", "on_ms", "overhead_pct", "profile"):
    assert key in doc, f"missing {key}"
assert doc["reps"] >= 3 and doc["off_ms"] > 0 and doc["on_ms"] > 0
profile = doc["profile"]
assert profile["schema"] == "ad.profile.v2", profile.get("schema")
assert profile["threads"], "profile has no per-thread rows"
for row in profile["threads"]:
    for key in ("name", "tid", "tasks", "work_us", "lock_wait_us",
                "idle_us", "steals", "helped"):
        assert key in row, f"thread row missing {key}: {row}"
assert profile["queue_wait_us"]["count"] > 0, "no queue-latency samples"
for family in ("intern.expr", "memo.context", "memo.registry", "loc.phase_array"):
    assert family in profile["shards"], f"missing shard family {family}"
    assert family in profile["lock_wait_us"], f"missing lock-wait histogram {family}"
print(f"contention schema ok: {len(profile['threads'])} thread rows, "
      f"overhead {doc['overhead_pct']:.2f}%")
EOF

  # The service artifact is regenerated (and gated) by the `service` stage,
  # not here — scope the comparison to the five artifacts this stage reran.
  local perf_artifacts="BENCH_analysis.json,BENCH_contention.json,BENCH_intern.json,BENCH_kernels.json,BENCH_symval.json"
  python3 scripts/bench_compare.py bench/baselines . --only "$perf_artifacts"

  # Self-test: inject a synthetic regression (halved jobs=8 speedup, tripled
  # profiler overhead, degenerate intern probe length) into copies of the
  # fresh artifacts; the comparator must reject them, otherwise the gate is
  # decorative.
  local doctored
  doctored="$(mktemp -d)"
  cp BENCH_analysis.json BENCH_contention.json BENCH_intern.json \
     BENCH_kernels.json BENCH_symval.json "$doctored"/
  python3 - "$doctored" <<'EOF'
import json, sys

root = sys.argv[1]
doc = json.load(open(f"{root}/BENCH_analysis.json"))
for run in doc["runs"]:
    run["speedup"] *= 0.5
json.dump(doc, open(f"{root}/BENCH_analysis.json", "w"))
doc = json.load(open(f"{root}/BENCH_contention.json"))
doc["overhead_pct"] = max(3 * doc["overhead_pct"], 12.0)
json.dump(doc, open(f"{root}/BENCH_contention.json", "w"))
doc = json.load(open(f"{root}/BENCH_intern.json"))
doc["mean_probe_length"] = 10 * doc["mean_probe_length"]
doc["warm_speedup"] *= 0.4
json.dump(doc, open(f"{root}/BENCH_intern.json", "w"))
EOF
  if python3 scripts/bench_compare.py bench/baselines "$doctored" --only "$perf_artifacts" >/dev/null 2>&1; then
    echo "FAIL: bench_compare accepted a synthetic 2x speedup regression" >&2
    rm -rf "$doctored"
    exit 1
  fi
  rm -rf "$doctored"
  echo "ok (self-test): synthetic regression rejected"

  # Second leg: doctor ONLY the interning artifact, so a pass here proves the
  # intern comparator itself trips (not just the analysis/contention gates).
  doctored="$(mktemp -d)"
  cp BENCH_analysis.json BENCH_contention.json BENCH_intern.json \
     BENCH_kernels.json BENCH_symval.json "$doctored"/
  python3 - "$doctored" <<'EOF'
import json, sys

root = sys.argv[1]
doc = json.load(open(f"{root}/BENCH_intern.json"))
doc["mean_probe_length"] = 10 * doc["mean_probe_length"]
json.dump(doc, open(f"{root}/BENCH_intern.json", "w"))
EOF
  if python3 scripts/bench_compare.py bench/baselines "$doctored" --only "$perf_artifacts" >/dev/null 2>&1; then
    echo "FAIL: bench_compare accepted a degenerate intern probe length" >&2
    rm -rf "$doctored"
    exit 1
  fi
  rm -rf "$doctored"
  echo "ok (self-test): degenerate intern table rejected"

  # Third leg: doctor ONLY the kernel-family artifact (a flipped differential
  # verdict and a drifted C-edge count), so a pass here proves compare_kernels
  # itself trips on the exact-match structural metrics.
  doctored="$(mktemp -d)"
  cp BENCH_analysis.json BENCH_contention.json BENCH_intern.json \
     BENCH_kernels.json BENCH_symval.json "$doctored"/
  python3 - "$doctored" <<'EOF'
import json, sys

root = sys.argv[1]
doc = json.load(open(f"{root}/BENCH_kernels.json"))
run = doc["kernels"][0]["bindings"][0]["runs"][0]
run["differential"] = "MISMATCH"
run["comm_edges"] += 1
json.dump(doc, open(f"{root}/BENCH_kernels.json", "w"))
EOF
  if python3 scripts/bench_compare.py bench/baselines "$doctored" --only "$perf_artifacts" >/dev/null 2>&1; then
    echo "FAIL: bench_compare accepted a flipped kernel differential verdict" >&2
    rm -rf "$doctored"
    exit 1
  fi
  rm -rf "$doctored"
  echo "ok (self-test): doctored kernel-family artifact rejected"
}

service() {
  # The analysis-service gate (docs/SERVICE.md), four legs:
  #   1. the full overload soak at its default 2000-request flood, emitting
  #      BENCH_service.json;
  #   2. a smaller flood of the same soak under ThreadSanitizer — the server's
  #      worker pool, admission queue and shared memo are the concurrent code
  #      this PR adds, and TSan is what catches the races the plain run hides;
  #   3. schema check + bench_compare gate of the artifact against
  #      bench/baselines/BENCH_service.json, with a doctored-artifact
  #      self-test so the comparator is provably not decorative;
  #   4. an end-to-end --serve/--client session over a real socket asserting
  #      the documented exit codes (0 ok, 5 degraded, 6 unavailable).
  echo "=== service: overload soak + TSan soak + compare gate + CLI e2e ==="
  baselines
  cmake -B build -S .
  cmake --build build -j "$jobs" --target service_soak service_test tfft2_pipeline
  ./build/tests/service_test
  ./build/bench/service_soak

  echo "--- service: TSan soak (reduced flood) ---"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$jobs" --target service_soak
  # The TSan leg probes races, not throughput: a 200-request flood already
  # drives every worker, the queue, the shed path and the shared memo. Its
  # artifact is scratch — the gated one came from the plain run above.
  ( cd "$(mktemp -d)" && AD_SOAK_REQUESTS=200 \
      "$OLDPWD"/build-tsan/bench/service_soak )

  # Schema check of the plain run's artifact before it is compared: the
  # ad.bench.service.v1 shape and the fields the comparator gates.
  python3 - <<'EOF'
import json

doc = json.load(open("BENCH_service.json"))
assert doc["schema"] == "ad.bench.service.v1", doc.get("schema")
flood = doc["flood"]
for key in ("requests", "submitters", "ok", "degraded", "errors", "cancelled",
            "shed", "golden_mismatches", "latency_p50_ms", "latency_p99_ms",
            "memo_hit_rate"):
    assert key in flood, f"flood missing {key}"
assert flood["requests"] >= 2000, f"flood too small: {flood['requests']}"
assert flood["ok"] + flood["degraded"] + flood["errors"] + flood["cancelled"] \
    == flood["requests"], "flood outcomes do not add up"
assert 0.0 < flood["memo_hit_rate"] <= 1.0
assert doc["faults"]["structured"] is True
assert doc["overload"]["shed"] > 0 and doc["overload"]["drained_clean"] is True
assert doc["socket"]["failures"] == 0
assert doc["golden_stable"] is True and doc["drained_clean"] is True
print(f"service schema ok: flood {flood['requests']} requests, "
      f"p50 {flood['latency_p50_ms']:.2f} ms, p99 {flood['latency_p99_ms']:.2f} ms, "
      f"memo hit rate {flood['memo_hit_rate']:.3f}, "
      f"overload shed {doc['overload']['shed']}/{doc['overload']['burst']}")
EOF

  # Compare gate: only the service artifact, in isolated dirs so the other
  # baselines (whose fresh runs belong to the perf stage) are not demanded.
  local basedir freshdir
  basedir="$(mktemp -d)"; freshdir="$(mktemp -d)"
  cp bench/baselines/BENCH_service.json "$basedir"/
  cp BENCH_service.json "$freshdir"/
  python3 scripts/bench_compare.py "$basedir" "$freshdir"

  # Self-test: a doctored artifact — flipped golden stability, zero shed,
  # collapsed memo rate — must be rejected, or the gate is decorative.
  python3 - "$freshdir" <<'EOF'
import json, sys

root = sys.argv[1]
doc = json.load(open(f"{root}/BENCH_service.json"))
doc["golden_stable"] = False
doc["overload"]["shed"] = 0
doc["flood"]["memo_hit_rate"] = 0.1
json.dump(doc, open(f"{root}/BENCH_service.json", "w"))
EOF
  if python3 scripts/bench_compare.py "$basedir" "$freshdir" >/dev/null 2>&1; then
    echo "FAIL: bench_compare accepted a doctored service artifact" >&2
    rm -rf "$basedir" "$freshdir"
    exit 1
  fi
  rm -rf "$basedir" "$freshdir"
  echo "ok (self-test): doctored service artifact rejected"

  # End-to-end over the CLI: a real daemon on a real socket, the documented
  # exit codes (examples/tfft2_pipeline --help).
  echo "--- service: --serve/--client e2e ---"
  local bin=./build/examples/tfft2_pipeline
  local sock workdir
  workdir="$(mktemp -d)"
  sock="$workdir/ad.sock"
  cat > "$workdir/stream.adl" <<'EOF'
param N
array A(N)
array B(N)
phase F1 { doall i = 0, N - 1 { write A(i) } }
phase F2 { doall i = 0, N - 1 { read A(i) write B(i) } }
EOF

  # No server on the socket yet: the client must refuse with exit 6, fast.
  rc=0
  "$bin" --client="$sock" --source="$workdir/stream.adl" --param N=64 \
    --retries 0 >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || { echo "FAIL: client without server exited $rc, want 6" >&2; exit 1; }
  echo "ok (exit 6): client with no server"

  "$bin" --serve="$sock" --jobs 2 --queue 8 --drain-ms 2000 \
    > "$workdir/serve.log" 2>&1 &
  local serverPid=$!
  for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.05; done
  [ -S "$sock" ] || { echo "FAIL: server never bound $sock" >&2; exit 1; }

  # Clean request: exit 0, golden on stdout, byte-identical across --repeat.
  "$bin" --client="$sock" --source="$workdir/stream.adl" --param N=64 \
    --processors 4 > "$workdir/one.golden"
  "$bin" --client="$sock" --source="$workdir/stream.adl" --param N=64 \
    --processors 4 --repeat 3 > "$workdir/three.golden"
  cat "$workdir/one.golden" "$workdir/one.golden" "$workdir/one.golden" \
    | cmp -s - "$workdir/three.golden" \
    || { echo "FAIL: repeated client goldens drifted" >&2; exit 1; }
  echo "ok (exit 0): clean request, byte-stable across --repeat 3"

  # Starved request: the server answers degraded, the client exits 5.
  rc=0
  "$bin" --client="$sock" --source="$workdir/stream.adl" --param N=64 \
    --budget-steps 1 >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 5 ] || { echo "FAIL: starved client exited $rc, want 5" >&2; exit 1; }
  echo "ok (exit 5): budget-starved request degraded"

  # Shutdown drains the server; the daemon exits 0 and prints its tallies.
  "$bin" --client="$sock" --shutdown >/dev/null
  rc=0
  wait "$serverPid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "FAIL: drained server exited $rc, want 0" >&2; exit 1; }
  grep -q "drained: accepted=" "$workdir/serve.log" \
    || { echo "FAIL: server did not report its drain tallies" >&2; exit 1; }
  echo "ok (exit 0): shutdown op drained the server"

  # And the socket is gone: a late client refuses with exit 6 again.
  rc=0
  "$bin" --client="$sock" --source="$workdir/stream.adl" --param N=64 \
    --retries 0 >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || { echo "FAIL: client after drain exited $rc, want 6" >&2; exit 1; }
  echo "ok (exit 6): client after drain"
  rm -rf "$workdir"
}

bench() {
  echo "=== benches: paper reproductions + simulator validation ==="
  cmake --build build -j "$jobs"
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue  # skip CMakeFiles/ etc.
    case "$b" in *perf_analysis) continue ;; esac  # google-benchmark: slow, not a check
    "$b"
  done
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  obs) obs ;;
  baselines) baselines ;;
  fault) fault ;;
  symval) symval ;;
  bench) bench ;;
  perf) perf ;;
  service) service ;;
  coverage) coverage ;;
  all) tier1; tsan; asan; obs; fault; symval; bench; perf; service; coverage ;;
  *) echo "unknown stage: $stage (tier1|tsan|asan|obs|fault|symval|bench|baselines|perf|service|coverage|all)" >&2; exit 2 ;;
esac
echo "CI gate passed."
