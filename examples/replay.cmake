# Determinism probe: runs PROGRAM (with ARGS, a ;-separated list) twice and
# fails unless both runs exit 0 and print byte-identical stdout.
#   cmake -DPROGRAM=<binary> [-DARGS=<args>] -P replay.cmake
foreach(run 1 2)
  execute_process(COMMAND ${PROGRAM} ${ARGS}
                  OUTPUT_VARIABLE out${run}
                  RESULT_VARIABLE rc${run})
  if(NOT rc${run} EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: run ${run} exited with ${rc${run}}")
  endif()
endforeach()
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: two runs printed different output")
endif()
