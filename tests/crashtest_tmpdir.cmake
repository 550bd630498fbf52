# cq_crashtest removes the temporary tree it creates, run as a ctest
# entry (tests/CMakeLists.txt):
#
#   cmake -DCRASHTEST=<cq_crashtest binary> -DTMP=<scratch dir>
#         -P crashtest_tmpdir.cmake
#       Runs a two-trial sweep with TMPDIR pointing at a fresh, empty
#       <scratch dir>. The sweep must pass, report a tree under
#       <scratch dir> on its header line, and leave nothing behind.

if(NOT CRASHTEST OR NOT TMP)
    message(FATAL_ERROR "usage: cmake -DCRASHTEST=<path> -DTMP=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${TMP}")
file(MAKE_DIRECTORY "${TMP}")
set(ENV{TMPDIR} "${TMP}")
execute_process(
    COMMAND ${CRASHTEST} --trials 2
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cq_crashtest --trials 2: exit ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES ", dir ([^\n]+)\n")
    message(FATAL_ERROR "cq_crashtest printed no tree:\n${out}")
endif()
set(tree "${CMAKE_MATCH_1}")
if(NOT tree MATCHES "^${TMP}/cq-crashtest-")
    message(FATAL_ERROR "cq_crashtest worked in ${tree}, not under TMPDIR ${TMP}")
endif()
file(GLOB left "${TMP}/*")
if(left)
    message(FATAL_ERROR "cq_crashtest left behind: ${left}")
endif()
file(REMOVE_RECURSE "${TMP}")
