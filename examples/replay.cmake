# Determinism and regression probe: runs PROGRAM (with ARGS, a ;-separated
# list) twice and fails unless both runs exit 0 and print exactly the
# committed EXPECTED file, byte for byte.
#   cmake -DPROGRAM=<binary> [-DARGS=<args>] -DEXPECTED=<file> -P replay.cmake
# To refresh EXPECTED after an intended change, rerun the program from the
# test's working directory and redirect its stdout into the file.
file(READ ${EXPECTED} expected)
foreach(run 1 2)
  execute_process(COMMAND ${PROGRAM} ${ARGS}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: run ${run} exited with ${rc}")
  endif()
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: run ${run} printed other than ${EXPECTED}")
  endif()
endforeach()
