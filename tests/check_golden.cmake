# Run one harness and compare its stdout byte for byte with a committed
# golden file:
#
#   cmake -DHARNESS=<exe> -DARGS="<space-separated flags>" -DGOLDEN=<file>
#         -DOUT=<file> -P check_golden.cmake
#
# The golden_* tests in tests/CMakeLists.txt call it once per harness.
separate_arguments(harness_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${HARNESS}" ${harness_args}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${HARNESS} ${ARGS}: stdout differs from ${GOLDEN} "
                      "(got ${OUT}; diff the two to see what moved)")
endif()
