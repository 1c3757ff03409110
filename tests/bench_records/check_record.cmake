# Recorded A/B: psc_report must load both sides of a committed
# bench/BENCH_<name>_{parent,change}.json pair.
#
#   cmake -DREPORT=<psc_report> -DPARENT=<file> -DCHANGE=<file>
#         -P check_record.cmake
#
# Passes unless psc_report exits 2 (a file it cannot read or parse). Exit 1
# only says the two sides differ, which is what an A/B records.
execute_process(COMMAND "${REPORT}" "${PARENT}" "${CHANGE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0 AND NOT status EQUAL 1)
  message(FATAL_ERROR "psc_report exit status ${status}\n${out}${err}")
endif()
if(NOT out MATCHES "metric deltas")
  message(FATAL_ERROR "psc_report printed no metric deltas\n${out}")
endif()
