# Golden digests: the committed byte-identity contract for printed paper
# tables and sweep results.
#
#   cmake -DMODE=check|update -DBUILD_DIR=<build tree> \
#         -DDIGESTS=tests/golden/digests.txt -P tests/golden/golden.cmake
#
# Every paper bench runs with workload knob 1 and the SHA-256 of its stdout
# is recorded. Two CI sweep manifests also run through econcast_sweep, and
# the SHA-256 of each results JSONL is recorded: fig3a (from
# `bench_fig3_vs_prior_art 1`) and fig2 (from `bench_fig2_heterogeneity 2`).
# fig2 is also run cold and then warm through `--cache DIR --threads 4`;
# both must reproduce the uncached fig2 bytes (in either mode).
#
# check  recomputes every digest and fails, naming each entry, on any
#        difference (the golden_digests ctest).
# update rewrites DIGESTS; see tools/update_golden for when that is allowed.
cmake_minimum_required(VERSION 3.16)
foreach(var MODE BUILD_DIR DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT MODE STREQUAL "check" AND NOT MODE STREQUAL "update")
  message(FATAL_ERROR "golden.cmake: MODE must be check or update")
endif()

set(benches
  bench_ablation_params bench_fig2_heterogeneity bench_fig3_vs_prior_art
  bench_fig4_burstiness bench_fig5_latency bench_fig6_nonclique
  bench_fig7_testbed bench_sim_vs_analytic bench_table2_example
  bench_table3_vs_panda bench_table4_pings)

string(RANDOM LENGTH 12 tag)
set(work "${BUILD_DIR}/golden-work-${tag}")
file(MAKE_DIRECTORY "${work}")

# Runs a command with stdout into `out_file`; any failure is fatal.
function(run out_file)
  execute_process(COMMAND ${ARGN} OUTPUT_FILE "${out_file}"
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(REMOVE_RECURSE "${work}")
    message(FATAL_ERROR "golden.cmake: `${ARGN}` failed (${rc}):\n${err}")
  endif()
endfunction()

set(lines "")
function(record name file)
  file(SHA256 "${file}" digest)
  set(lines "${lines}${digest}  ${name}\n" PARENT_SCOPE)
endfunction()

foreach(bench IN LISTS benches)
  run("${work}/${bench}.stdout" "${BUILD_DIR}/bench/${bench}" 1
      "--manifest-dir=${work}/${bench}")
  record("${bench}.stdout" "${work}/${bench}.stdout")
endforeach()

set(sweep "${BUILD_DIR}/tools/econcast_sweep")
run("${work}/fig3a.log" "${sweep}"
    "${work}/bench_fig3_vs_prior_art/fig3a.manifest.json"
    --results "${work}/fig3a.jsonl" --threads 2 --quiet)
record("fig3a.results.jsonl" "${work}/fig3a.jsonl")

run("${work}/fig2-bench.stdout" "${BUILD_DIR}/bench/bench_fig2_heterogeneity"
    2 "--manifest-dir=${work}/fig2")
run("${work}/fig2.log" "${sweep}" "${work}/fig2/fig2.manifest.json"
    --results "${work}/fig2.jsonl" --threads 2 --quiet)
record("fig2.results.jsonl" "${work}/fig2.jsonl")

# The same fig2 manifest through a cell cache on 4 threads, cold and then
# warm. Workers probe, publish and encode concurrently there, and both
# results files must hash to the uncached fig2 digest just computed; they
# add no digest line of their own. The warm pass must execute nothing.
file(SHA256 "${work}/fig2.jsonl" fig2_digest)
foreach(pass cold warm)
  run("${work}/fig2-${pass}.log" "${sweep}" "${work}/fig2/fig2.manifest.json"
      --results "${work}/fig2-${pass}.jsonl" --cache "${work}/fig2-cache"
      --threads 4)
  file(SHA256 "${work}/fig2-${pass}.jsonl" digest)
  file(READ "${work}/fig2-${pass}.log" log)
  if(pass STREQUAL "cold")
    set(want_stats "cache: 0 hits, [0-9]+ misses, 0 rejected")
  else()
    set(want_stats "cache: [0-9]+ hits, 0 misses, 0 rejected, 0 published")
  endif()
  if(NOT digest STREQUAL fig2_digest OR NOT log MATCHES "${want_stats}")
    message(FATAL_ERROR "golden.cmake: fig2 ${pass} run through --cache "
            "--threads 4 differs from the uncached fig2 results or its "
            "cache stats (outputs kept in ${work}):\n${log}")
  endif()
endforeach()

if(MODE STREQUAL "update")
  file(WRITE "${DIGESTS}" "${lines}")
  file(REMOVE_RECURSE "${work}")
  message(STATUS "golden.cmake: wrote ${DIGESTS}")
  return()
endif()

file(READ "${DIGESTS}" want)
if(want STREQUAL lines)
  file(REMOVE_RECURSE "${work}")
  message(STATUS "golden.cmake: all digests match")
  return()
endif()
string(REPLACE "\n" ";" want_list "${want}")
string(REPLACE "\n" ";" got_list "${lines}")
set(report "")
foreach(line IN LISTS got_list)
  if(line AND NOT line IN_LIST want_list)
    string(APPEND report "  differs: ${line}\n")
  endif()
endforeach()
message(FATAL_ERROR "golden.cmake: digests differ from ${DIGESTS} "
        "(outputs kept in ${work}):\n${report}")
