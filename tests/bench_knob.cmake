# A bench's workload knob rejects what is not a positive decimal integer.
#
#   cmake -DBENCH=<bench binary> -P tests/bench_knob.cmake
#
# Runs BENCH once per bad value and requires exit code 2 from each: a
# non-numeric value, zero, trailing characters and a value beyond `long`.
# The valid knobs 1 and 2 are exercised by golden_digests.
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "bench_knob.cmake: -DBENCH=... is required")
endif()

foreach(value abc 0 5x 99999999999999999999)
  execute_process(COMMAND "${BENCH}" "${value}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "bench_knob.cmake: `${BENCH} ${value}` exited ${rc}, want 2\n"
            "stderr: ${err}")
  endif()
  if(NOT err MATCHES "usage:.*'${value}'")
    message(FATAL_ERROR
            "bench_knob.cmake: `${BENCH} ${value}` printed no usage line "
            "naming the value\nstderr: ${err}")
  endif()
endforeach()
