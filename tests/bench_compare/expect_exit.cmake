# Runs tools/bench_compare.py on two fixture files and fails unless it exits
# with the expected code. Invoked by ctest as
#   cmake -DPYTHON=... -DSCRIPT=... -DBASE=... -DCHANGE=... -DEXPECT=N -P expect_exit.cmake
execute_process(COMMAND ${PYTHON} ${SCRIPT} ${BASE} ${CHANGE}
                RESULT_VARIABLE Code)
if(NOT Code EQUAL EXPECT)
  message(FATAL_ERROR "bench_compare.py exited ${Code}, expected ${EXPECT}")
endif()
