# Drives the chase_tune CLI for ctest (tests/tune/CMakeLists.txt):
#
#   cmake -DCHASE_TUNE=<exe> -DMODE=bad-flag -P chase_tune_cli.cmake
#     a malformed flag value must exit 2 and print the reason and the usage
#     line on stderr (an uncaught exception would exit 134 through
#     std::terminate, whose message also names the bad value);
#   cmake -DCHASE_TUNE=<exe> -DMODE=round-trip -DPROFILE=<path> -P ...
#     a quick one-repeat tuning run must write PROFILE, and `--check` must
#     accept it on the same host.

function(run_tune expect_rc)
  execute_process(COMMAND "${CHASE_TUNE}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  message(STATUS "chase_tune ${ARGN} -> ${rc}\n${out}${err}")
  if(NOT rc STREQUAL "${expect_rc}")
    message(FATAL_ERROR "chase_tune ${ARGN}: exit ${rc}, expected ${expect_rc}")
  endif()
  set(tune_stderr "${err}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "bad-flag")
  run_tune(2 --reps banana)
  foreach(needle "usage:" "--reps=\"banana\"")
    string(FIND "${tune_stderr}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "stderr lacks '${needle}'")
    endif()
  endforeach()
elseif(MODE STREQUAL "round-trip")
  file(REMOVE "${PROFILE}")
  run_tune(0 --quick --reps 1 --warmup 0 --out "${PROFILE}")
  run_tune(0 --check "${PROFILE}")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
