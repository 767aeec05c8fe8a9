# Runs tools/bench_compare.py on two fixture files and fails unless it exits
# with the expected code and, when EXPECTED names a file, prints exactly its
# text. Invoked by ctest as
#   cmake -DPYTHON=... -DSCRIPT=... -DBASE=... -DCHANGE=... -DEXPECT=N
#         [-DEXPECTED=FILE] -P expect_exit.cmake
execute_process(COMMAND ${PYTHON} ${SCRIPT} ${BASE} ${CHANGE}
                RESULT_VARIABLE Code OUTPUT_VARIABLE Output)
if(NOT Code EQUAL EXPECT)
  message(FATAL_ERROR "bench_compare.py exited ${Code}, expected ${EXPECT}")
endif()
if(DEFINED EXPECTED)
  file(READ ${EXPECTED} Expected)
  if(NOT Output STREQUAL Expected)
    message(FATAL_ERROR "bench_compare.py printed\n${Output}\nexpected\n${Expected}")
  endif()
endif()
