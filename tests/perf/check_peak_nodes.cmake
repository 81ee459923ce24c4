# Structural performance gate: compile one input with --report and fail
# when the verification's QMDD peak node count exceeds a bound. Peak
# nodes do not depend on the machine, so the bound can be tight.
#
#   cmake -DQSYNC=<qsync> -DINPUT=<file> -DDEVICE=<name>
#         -DMAX_PEAK_NODES=<n> -DREPORT=<scratch json> -P check_peak_nodes.cmake
execute_process(
    COMMAND ${QSYNC} ${INPUT} -d ${DEVICE} --no-emit --quiet
            --report ${REPORT}
    RESULT_VARIABLE status
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "qsync exited ${status}: ${stderr}")
endif()
file(READ ${REPORT} report)
string(JSON verdict GET "${report}" verification)
string(JSON peak GET "${report}" qmdd peak_nodes)
if(NOT verdict STREQUAL "equivalent")
    message(FATAL_ERROR "verification: ${verdict}")
endif()
if(peak GREATER MAX_PEAK_NODES)
    message(FATAL_ERROR
        "qmdd.peak_nodes ${peak} exceeds the bound ${MAX_PEAK_NODES}")
endif()
message(STATUS "qmdd.peak_nodes ${peak} (bound ${MAX_PEAK_NODES})")
