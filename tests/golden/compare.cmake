# Run one bench binary and compare its stdout with a committed golden
# file byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected.txt> -DOUTPUT=<actual.txt> \
#         -P tests/golden/compare.cmake
#
# The actual output is kept at OUTPUT so a failure can be inspected
# with `diff GOLDEN OUTPUT`.
foreach(var BENCH GOLDEN OUTPUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
    endif()
endforeach()

get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
execute_process(COMMAND "${BENCH}"
                OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${OUTPUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "stdout of ${BENCH} differs from its golden output:\n"
            "  diff ${GOLDEN} ${OUTPUT}")
endif()
