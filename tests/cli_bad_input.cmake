# Bad *input* (as opposed to a bad flag) must end a run cleanly with its
# reason on stderr: a missing or malformed trace file (including a node
# with a negative ping, which would otherwise reach the simulator as a
# negative link delay) exits 2, and a sweep
# in which no tracked peer prepared the new stream prints "n/a" for the
# switch time and exits 1 — never an abort, never a silent 0.00.  Run by
# ctest as
#   cmake -DSWEEP_CLI=<exe> -DTRACE_EXPLORER=<exe> -DWORK_DIR=<dir> -P cli_bad_input.cmake
function(expect_exit expected_status needle program)
  execute_process(COMMAND ${program} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "${expected_status}")
    message(FATAL_ERROR
            "${program} ${ARGN}: exit status '${status}', expected ${expected_status}\n${stderr}")
  endif()
  string(FIND "${stdout}${stderr}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${program} ${ARGN}: output lacks '${needle}':\n${stdout}${stderr}")
  endif()
endfunction()

set(missing "${WORK_DIR}/cli_bad_input_missing.trace")
set(malformed "${WORK_DIR}/cli_bad_input_malformed.trace")
file(REMOVE "${missing}")
file(WRITE "${malformed}" "trace broken\nnode 0 10.0.0.1 4000 50.0 512\nnode one\n")
# A well-formed 60-node trace except that node 5 (line 7) has a -4000 ms
# ping.
set(negative "${WORK_DIR}/cli_bad_input_negative_ping.trace")
set(text "trace negative-ping\n")
foreach(id RANGE 59)
  set(ping 50.0)
  if(id EQUAL 5)
    set(ping -4000)
  endif()
  string(APPEND text "node ${id} 10.0.0.${id} 6346 ${ping} 768\n")
endforeach()
foreach(id RANGE 1 59)
  math(EXPR prev "${id} - 1")
  string(APPEND text "edge ${prev} ${id}\n")
endforeach()
file(WRITE "${negative}" "${text}")

expect_exit(2 "cannot open trace file: ${missing}"
            ${SWEEP_CLI} --topology trace-file --trace ${missing} --sizes 100 --trials 1)
expect_exit(2 "trace parse error at line 3: bad node record"
            ${SWEEP_CLI} --topology trace-file --trace ${malformed} --sizes 100 --trials 1)
expect_exit(2 "cannot open trace file: ${missing}" ${TRACE_EXPLORER} --in ${missing})
expect_exit(2 "trace parse error at line 3: bad node record"
            ${TRACE_EXPLORER} --in ${malformed})
expect_exit(2 "trace parse error at line 7: ping_ms must be a finite non-negative number"
            ${SWEEP_CLI} --topology trace-file --trace ${negative} --sizes 100 --trials 1)
expect_exit(2 "trace parse error at line 7: ping_ms must be a finite non-negative number"
            ${TRACE_EXPLORER} --in ${negative})
file(REMOVE "${malformed}" "${negative}")
