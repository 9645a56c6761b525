# Determinism and regression probe: runs PROGRAM (with ARGS, a ;-separated
# list) twice and fails unless both runs exit 0 and print exactly the
# committed EXPECTED file, byte for byte. MASK, when given, is a regex:
# every line containing a match is left out on both sides before they are
# compared (for a line that prints a wall-clock reading).
#   cmake -DPROGRAM=<binary> [-DARGS=<args>] [-DMASK=<regex>] -DEXPECTED=<file>
#         -P replay.cmake
# To refresh EXPECTED after an intended change, rerun the program from the
# test's working directory and redirect its stdout into the file.
file(READ ${EXPECTED} expected)
if(DEFINED MASK)
  string(REGEX REPLACE "[^\n]*${MASK}[^\n]*\n?" "" expected "${expected}")
endif()
foreach(run 1 2)
  execute_process(COMMAND ${PROGRAM} ${ARGS}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: run ${run} exited with ${rc}")
  endif()
  if(DEFINED MASK)
    string(REGEX REPLACE "[^\n]*${MASK}[^\n]*\n?" "" out "${out}")
  endif()
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: run ${run} printed other than ${EXPECTED}")
  endif()
endforeach()
