# Fails when an evaluation-path object file in the treevqa archive
# references the C99 Annex G complex multiply/divide routines
# (__muldc3/__divdc3): the statevector, expectation and compiled-circuit
# kernels and the Lanczos pass are written in real arithmetic so they
# vectorize without -fcx-limited-range or -ffast-math. Registered by the
# top-level CMakeLists.txt as the `no_complex_libcalls` test:
#
#   cmake -DNM=<nm> -DARCHIVE=<libtreevqa.a> -P NoComplexLibcalls.cmake

execute_process(COMMAND ${NM} -A ${ARCHIVE}
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} -A ${ARCHIVE} failed (${status})")
endif()

string(REGEX MATCHALL
  "[^\n]*(statevector|expectation|compiled_circuit|lanczos)\\.cpp\\.o[^\n]*__(mul|div)dc3[^\n]*"
  hits "${symbols}")
if(hits)
  string(REPLACE ";" "\n" hits "${hits}")
  message(FATAL_ERROR "complex library calls on the evaluation path:\n${hits}")
endif()
message(STATUS "no __muldc3/__divdc3 in statevector, expectation, compiled_circuit or lanczos")
