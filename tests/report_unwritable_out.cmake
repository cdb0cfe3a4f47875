# Checks that timedemo_report refuses an output directory it cannot
# create, with a message and a non-zero exit, before any run starts.
#
#   cmake -DREPORT=<timedemo_report> -DWORK_DIR=<scratch dir>
#         -P tests/report_unwritable_out.cmake

if(NOT REPORT OR NOT WORK_DIR)
    message(FATAL_ERROR "pass -DREPORT=<binary> -DWORK_DIR=<dir>")
endif()

# A regular file where the output directory's parent should be.
set(blocker "${WORK_DIR}/report-out-blocker")
file(WRITE "${blocker}" "not a directory\n")
execute_process(
    COMMAND "${REPORT}" --out "${blocker}/results"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
file(REMOVE "${blocker}")

if(status EQUAL 0)
    message(FATAL_ERROR "timedemo_report exited 0 for an unwritable --out")
endif()
if(NOT err MATCHES "cannot create output directory")
    message(FATAL_ERROR "no reason on stderr (exit ${status}): ${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "report ran before the directory check: ${out}")
endif()
message(STATUS "refused with exit ${status}: ${err}")
