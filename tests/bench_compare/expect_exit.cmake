# Runs the command after `--` and fails unless it exits with the expected
# code and, when EXPECTED names a file, prints exactly its text. Invoked by
# ctest as
#   cmake -DEXPECT=N [-DEXPECTED=FILE] -P expect_exit.cmake -- COMMAND [ARG...]
set(Command)
set(InCommand FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(InCommand)
    list(APPEND Command "${CMAKE_ARGV${I}}")
  elseif(CMAKE_ARGV${I} STREQUAL "--")
    set(InCommand TRUE)
  endif()
endforeach()
execute_process(COMMAND ${Command}
                RESULT_VARIABLE Code OUTPUT_VARIABLE Output)
if(NOT Code EQUAL EXPECT)
  message(FATAL_ERROR "${Command} exited ${Code}, expected ${EXPECT}")
endif()
if(DEFINED EXPECTED)
  file(READ ${EXPECTED} Expected)
  if(NOT Output STREQUAL Expected)
    message(FATAL_ERROR "${Command} printed\n${Output}\nexpected\n${Expected}")
  endif()
endif()
