# Runs one example and checks its exit status and one line of its
# output (ctest's PASS_REGULAR_EXPRESSION alone would ignore the exit
# status).
#
#   cmake -DSTATUS=<exit status> -DEXPECT=<regex>
#         -P run_example.cmake -- <binary> [args...]

set(command)
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_dashes ON)
    endif()
endforeach()
if(NOT command OR NOT DEFINED STATUS OR NOT DEFINED EXPECT)
    message(FATAL_ERROR "pass -DSTATUS=<n> -DEXPECT=<regex> and -- <binary>")
endif()

execute_process(
    COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 300)
message("${out}${err}")
if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR "exit status ${status}, expected ${STATUS}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "no output matches '${EXPECT}'")
endif()
