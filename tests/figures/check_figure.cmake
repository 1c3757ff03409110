# Figure pin: run one figure at a small fixed scale and check its printout.
#
#   cmake -DEXE=<binary> [-DARG=<figure>] -DNAME=<figure> -DPINS=<table>
#         -P check_figure.cmake
#
# Passes when the run exits 0, its stdout holds exactly one BENCH line and
# that line's "bench" field is NAME, and the SHA-256 of the rest of stdout
# (what `grep -v '^BENCH '` keeps) equals NAME's digest in the pin table.
# The BENCH line carries wall time, so it is checked by shape only.
#
# The scale is fixed here and every knob that changes a figure's bytes is
# cleared, so an exported PSC_MODE or PSC_FAULT_SEED cannot fail a pin.
# PSC_THREADS is left alone: the printout does not depend on it.
foreach(knob PSC_MODE PSC_SHARD_SESSIONS PSC_FAULT_SEED PSC_FAULT_PLAN
             PSC_FAULT_INTENSITY PSC_AGG_PEAK PSC_AGG_SAMPLE PSC_FLASH_SEED
             PSC_METRICS PSC_TRACE_OUT)
  unset(ENV{${knob}})
endforeach()
set(ENV{PSC_SESSIONS} 24)
set(ENV{PSC_BW_SESSIONS} 8)
set(ENV{PSC_CRAWL_HOURS} 0.1)

execute_process(COMMAND "${EXE}" ${ARG}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME}: exit status ${status}\n${err}")
endif()

string(REGEX MATCHALL "\nBENCH [^\n]*" bench_lines "\n${out}")
list(LENGTH bench_lines n_bench)
if(NOT n_bench EQUAL 1)
  message(FATAL_ERROR "${NAME}: ${n_bench} BENCH lines, want 1")
endif()
string(FIND "${bench_lines}" "\nBENCH {\"bench\":\"${NAME}\"," at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "${NAME}: BENCH line names another bench:${bench_lines}")
endif()

string(REGEX REPLACE "\nBENCH [^\n]*" "" printout "\n${out}")
string(SUBSTRING "${printout}" 1 -1 printout)
string(SHA256 digest "${printout}")

file(STRINGS "${PINS}" pin REGEX "^${NAME} [0-9a-f]+$")
if(NOT pin)
  message(FATAL_ERROR "${NAME}: no pin in ${PINS}; printout digest ${digest}")
endif()
string(REGEX REPLACE "^${NAME} " "" pinned "${pin}")
if(NOT digest STREQUAL pinned)
  message(FATAL_ERROR "${NAME}: printout digest ${digest}, pinned ${pinned}\n"
                      "${printout}")
endif()
