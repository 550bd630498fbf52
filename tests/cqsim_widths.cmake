# cqsim's operand-width contract, run as two ctest entries
# (tests/CMakeLists.txt):
#
#   cmake -DCQSIM=<cqsim binary> -DMODE=simulate -P cqsim_widths.cmake
#       TinyCNN simulates at every width each target's PE array runs:
#       4/8/12/16 bits on the four Cambricon-Q targets, 8/16 on the
#       8-bit TPU. Each run must exit 0 and print its result line.
#   cmake -DCQSIM=<cqsim binary> -DMODE=reject -P cqsim_widths.cmake
#       A width that is not a multiple of the target's PE width (4 and
#       12 on the TPU) exits 2 with a one-line message, not an abort.

if(NOT CQSIM OR NOT MODE)
    message(FATAL_ERROR "usage: cmake -DCQSIM=<path> -DMODE=simulate|reject -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(failures 0)

function(run_cqsim target bits)
    execute_process(
        COMMAND ${CQSIM} --network tiny --target ${target} --bits ${bits}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    set(rc "${rc}" PARENT_SCOPE)
    set(out "${out}" PARENT_SCOPE)
    set(err "${err}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "simulate")
    foreach(pair
            cq:4 cq:8 cq:12 cq:16
            cq-nondp:4 cq-nondp:8 cq-nondp:12 cq-nondp:16
            cq-t:4 cq-t:8 cq-t:12 cq-t:16
            cq-v:4 cq-v:8 cq-v:12 cq-v:16
            tpu:8 tpu:16)
        string(REPLACE ":" ";" tb "${pair}")
        list(GET tb 0 target)
        list(GET tb 1 bits)
        run_cqsim(${target} ${bits})
        if(NOT rc EQUAL 0 OR NOT out MATCHES "@ INT${bits}, " OR
           NOT out MATCHES "\nresult: +[0-9.]+ ms, [0-9.]+ mJ")
            message(SEND_ERROR "--target ${target} --bits ${bits}: exit "
                               "${rc}\n${out}${err}")
            math(EXPR failures "${failures} + 1")
        endif()
    endforeach()
elseif(MODE STREQUAL "reject")
    foreach(bits 4 12)
        run_cqsim(tpu ${bits})
        if(NOT rc EQUAL 2 OR NOT err MATCHES
               "--bits ${bits} is not a multiple of target tpu's 8-bit PE width")
            message(SEND_ERROR "--target tpu --bits ${bits}: want exit 2 "
                               "and a width message, got exit ${rc}\n"
                               "${out}${err}")
            math(EXPR failures "${failures} + 1")
        endif()
    endforeach()
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} cqsim width check(s) failed")
endif()
