# Runs one reproduction program and fails unless its stdout equals the
# committed golden byte for byte; on a mismatch it prints a unified
# diff (golden first). CMakeLists.txt registers one ctest per program:
#
#   cmake -DPROGRAM=repro_table1 -DGOLDEN=tests/goldens/repro_table1.txt
#         -DACTUAL=build/repro_table1.out -P repro/check_golden.cmake
execute_process(COMMAND "${PROGRAM}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN} "
                      "(full output: ${ACTUAL})")
endif()
