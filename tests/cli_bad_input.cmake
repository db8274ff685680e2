# Bad *input* (as opposed to a bad flag) must end a run cleanly with its
# reason on stderr: a missing or malformed trace file exits 2, and a sweep
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

expect_exit(2 "cannot open trace file: ${missing}"
            ${SWEEP_CLI} --topology trace-file --trace ${missing} --sizes 100 --trials 1)
expect_exit(2 "trace parse error at line 3: bad node record"
            ${SWEEP_CLI} --topology trace-file --trace ${malformed} --sizes 100 --trials 1)
expect_exit(2 "cannot open trace file: ${missing}" ${TRACE_EXPLORER} --in ${missing})
expect_exit(2 "trace parse error at line 3: bad node record"
            ${TRACE_EXPLORER} --in ${malformed})
file(REMOVE "${malformed}")
