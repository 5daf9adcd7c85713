# Runs one program with malformed arguments and fails unless it exits 2
# (usage error) and its stderr contains the expected message.
# CMakeLists.txt registers one ctest per rejected input:
#
#   cmake -DPROGRAM=crp_sim "-DARGS=--trials 10abc"
#         "-DEXPECT=expected a non-negative integer for --trials"
#         -P examples/check_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${status}, expected 2\n"
                      "stderr: ${stderr}")
endif()
string(FIND "${stderr}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr lacks \"${EXPECT}\"\n"
                      "stderr: ${stderr}")
endif()
