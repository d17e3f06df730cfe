# Post-hoc check for odq_profile_smoke: the JSON report must contain the
# fused ODQ tiles' phase-breakdown keys and the collapsed-input count in its
# per-layer objects.
if(NOT DEFINED REPORT)
  message(FATAL_ERROR "pass -DREPORT=<path to smoke.report.json>")
endif()
file(READ "${REPORT}" report_json)
foreach(key pack_seconds gemm_seconds sparse_epilogue_seconds collapsed)
  string(FIND "${report_json}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "odq_profile report ${REPORT} is missing \"${key}\"")
  endif()
endforeach()
