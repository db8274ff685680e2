# An unknown enum flag value must exit like any other bad flag: status 2,
# the reason and the usage on stderr — not an abort on an uncaught
# std::invalid_argument.  Run by ctest as
#   cmake -DSWEEP_CLI=<exe> -DINSPECT=<exe> -DFIG6=<exe> -P cli_bad_enum_flags.cmake
function(expect_bad_flag expected program)
  execute_process(COMMAND ${program} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${program} ${ARGN}: exit status '${status}', expected 2\n${stderr}")
  endif()
  foreach(needle "${expected}" "Usage:")
    string(FIND "${stderr}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${program} ${ARGN}: stderr lacks '${needle}':\n${stderr}")
    endif()
  endforeach()
endfunction()

expect_bad_flag("flag --capacity-model: unknown capacity model: bogus"
                ${SWEEP_CLI} --capacity-model bogus --sizes 100)
expect_bad_flag("flag --topology: unknown topology: nope" ${SWEEP_CLI} --topology nope)
expect_bad_flag("flag --capacity-model: unknown capacity model: bogus"
                ${FIG6} --capacity-model bogus --quick)
expect_bad_flag("flag --algorithm: unknown algorithm: x" ${INSPECT} --algorithm x)
expect_bad_flag("flag --capacity: unknown capacity model: x" ${INSPECT} --capacity x)
