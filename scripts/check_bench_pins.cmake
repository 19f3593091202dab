# Runs bench/throughput at a tiny wall budget and gates its output with
# scripts/check_bench.py --tolerance 1: every cycle pin, the t2s speedup
# bound and sweep identity, without any host-timing gate. Run by CTest as
# the `bench_throughput_pins` test:
#
#   cmake -DTHROUGHPUT=<bin> -DPYTHON=<python3> -DCHECKER=<check_bench.py> \
#         -DOUT=<json> -P scripts/check_bench_pins.cmake

foreach(var THROUGHPUT PYTHON CHECKER OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DTHROUGHPUT=<bin> -DPYTHON=<python3> "
                        "-DCHECKER=<check_bench.py> -DOUT=<json> "
                        "-P check_bench_pins.cmake")
  endif()
endforeach()

execute_process(
  COMMAND "${THROUGHPUT}" --min-seconds 0.01 --out "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${THROUGHPUT} exited with ${rc}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${OUT}" --tolerance 1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_bench.py exited with ${rc}")
endif()
