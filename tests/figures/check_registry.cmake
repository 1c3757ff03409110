# Figure registry: every registered figure has a pin and every pin names a
# registered figure.
#
#   cmake -DEXE=<psc_figures> -DPINS=<table> -P check_registry.cmake
#
# Runs EXE with an unknown figure name, which must exit 2 and list the
# registered figures on stderr, one per line, indented by two spaces.
execute_process(COMMAND "${EXE}" no_such_figure
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "unknown figure name: exit status ${status}, want 2")
endif()
string(REGEX MATCHALL "\n  [a-z0-9_]+" listed "${err}")
string(REPLACE "\n  " "" listed "${listed}")
file(STRINGS "${PINS}" pinned REGEX "^[a-z0-9_]+ [0-9a-f]+$")
list(TRANSFORM pinned REPLACE " .*" "")
list(SORT listed)
list(SORT pinned)
if(NOT listed STREQUAL pinned)
  message(FATAL_ERROR "registered figures: ${listed}\npinned: ${pinned}")
endif()
