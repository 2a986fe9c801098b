# Fails unless a harness prints, on stdout, exactly the bytes of a
# golden file. Stdout carries only deterministic figure text (host
# timings go to stderr), so any change to a recorded or replayed
# number shows here. On a mismatch the actual output is written to
# ACTUAL for a diff. Run with
#   cmake -DBIN=<harness> -DGOLDEN=<file> -DACTUAL=<file>
#         -P golden_stdout.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${ACTUAL}")
endif()
