# cqsim's one cross-mode rule, run as a ctest entry
# (tests/CMakeLists.txt):
#
#   cmake -DCQSIM=<cqsim binary> -P cqsim_modes.cmake
#       Each sim-only flag under --train, and each train-only flag
#       under --network or --gemm, exits 2 with a one-line message
#       naming the flag and its mode instead of being ignored. A flag
#       that no mode reads (--chips) exits 2 as unknown.

if(NOT CQSIM)
    message(FATAL_ERROR "usage: cmake -DCQSIM=<path> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(failures 0)

# Run cqsim with the ';'-list @p args; want exit 2 and @p pattern on
# stderr.
function(expect_rejected args pattern)
    execute_process(
        COMMAND ${CQSIM} ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${pattern}")
        string(REPLACE ";" " " shown "${args}")
        message(SEND_ERROR "cqsim ${shown}: want exit 2 and "
                           "'${pattern}', got exit ${rc}\n${out}${err}")
        math(EXPR failures "${failures} + 1")
        set(failures ${failures} PARENT_SCOPE)
    endif()
endfunction()

# Sim-only flags under an otherwise valid --train run (each with a
# value where it takes one).
set(train "--train;spiral;--steps;3;--masters-out;never-created.bin")
foreach(flag
        "--target;tpu" "--bits;4" "--optimizer;sgd" "--batch;2"
        "--disasm;3" "--stats" "--trace")
    list(GET flag 0 name)
    expect_rejected("${train};${flag}"
                    "${name} is a --network/--gemm flag; --train does not")
endforeach()

# Train-only flags under --network and --gemm.
foreach(flag
        "--steps;5" "--seed;3" "--ckpt-dir;never-created" "--ckpt-every;2"
        "--ckpt-keep;2" "--resume;never-created" "--sync-ckpt"
        "--masters-out;never-created.bin" "--ecc" "--abft"
        "--fault-rate;1" "--telemetry-out;never-created.jsonl"
        "--metrics-every;2" "--obs-port;0")
    list(GET flag 0 name)
    expect_rejected("--network;tiny;${flag}"
                    "${name} is a --train flag; --network does not")
    expect_rejected("--gemm;8,8,8;${flag}"
                    "${name} is a --train flag; --gemm does not")
endforeach()

# --chips belongs to no mode: it exits 2 as an unknown flag.
expect_rejected("--train;spiral;--chips;2" "unknown flag '--chips'")

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} cqsim cross-mode check(s) failed")
endif()
