# Post-hoc check for a tool's smoke report: the file must name every key in
# KEYS (a ;-separated list) as a quoted JSON key, or, when CSV is set, as a
# field of its header line.
if(NOT DEFINED REPORT OR NOT DEFINED KEYS)
  message(FATAL_ERROR "pass -DREPORT=<report path> -DKEYS=<key;key;...>")
endif()
file(READ "${REPORT}" report)
string(REGEX MATCH "^[^\n]*" header "${report}")
foreach(key ${KEYS})
  if(CSV)
    string(FIND ",${header}," ",${key}," pos)
  else()
    string(FIND "${report}" "\"${key}\"" pos)
  endif()
  if(pos EQUAL -1)
    message(FATAL_ERROR "report ${REPORT} is missing \"${key}\"")
  endif()
endforeach()
