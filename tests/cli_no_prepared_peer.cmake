# A sweep whose source is too slow for any tracked peer to gather the new
# stream's prefix has no switch time to report.  sweep_cli must say so —
# "n/a" in the switch-time, reduction and completion columns, the reason on
# stderr, exit status 1 — instead of printing 0.00±0.00 and exiting 0.  Run
# by ctest as
#   cmake -DSWEEP_CLI=<exe> -P cli_no_prepared_peer.cmake
execute_process(COMMAND ${SWEEP_CLI} --sizes 300 --source-outbound 0.5 --trials 1
                RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "exit status '${status}', expected 1\n${stdout}${stderr}")
endif()
foreach(needle "n/a" "(0.000)")
  string(FIND "${stdout}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks '${needle}':\n${stdout}")
  endif()
endforeach()
string(FIND "${stdout}" "0.00±0.00" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "a zero switch time was printed:\n${stdout}")
endif()
string(FIND "${stderr}" "no tracked peer prepared S2 at 300 nodes" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks the reason:\n${stderr}")
endif()
