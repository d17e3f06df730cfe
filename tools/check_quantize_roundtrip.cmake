# odq_cli round trip: train LeNet-5 for one epoch into ${DIR}/roundtrip.bin,
# export it with `quantize` to roundtrip.qbin, evaluate both under ODQ, and
# fail unless the two accuracy lines are equal (the ODQ executor quantizes
# the loaded code·scale weights back to the exported codes and scale).
if(NOT DEFINED CLI OR NOT DEFINED DIR)
  message(FATAL_ERROR "pass -DCLI=<odq_cli path> -DDIR=<output directory>")
endif()
set(float_ckpt "${DIR}/roundtrip.bin")
set(int4_ckpt "${DIR}/roundtrip.qbin")
foreach(step "train;lenet5;${float_ckpt};1"
             "quantize;lenet5;${float_ckpt};${int4_ckpt}"
             "eval;lenet5;${float_ckpt};odq"
             "eval;lenet5;${int4_ckpt};odq")
  execute_process(COMMAND "${CLI}" ${step} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " args "${step}")
    message(FATAL_ERROR "odq_cli ${args} failed (${rc}):\n${out}${err}")
  endif()
  list(GET step 0 cmd)
  if(cmd STREQUAL "eval")
    string(REGEX MATCH "[^\n]*test accuracy[^\n]*" line "${out}")
    list(APPEND accuracy "${line}")
  endif()
endforeach()
list(GET accuracy 0 from_float)
list(GET accuracy 1 from_int4)
message(STATUS "float checkpoint: ${from_float}")
message(STATUS "INT4 export:      ${from_int4}")
if(from_float STREQUAL "" OR NOT from_float STREQUAL from_int4)
  message(FATAL_ERROR "accuracy differs between the float checkpoint and "
                      "its INT4 export")
endif()
