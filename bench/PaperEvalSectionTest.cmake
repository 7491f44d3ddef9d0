# Runs `paper_eval --smoke` in its own directory and checks one section of
# its output: the run exits 0, stdout holds the section's heading followed
# by a table that ends in a geomean row, and the section's artifact (if it
# has one) is written afresh. Each Fig. 2-5 / Sec. 7.4 section keeps the
# smoke-test name of the per-figure driver it replaced:
#   cmake -DEXE=<paper_eval> -DROOT=<scratch dir> -DHEADING=<text>
#         [-DARTIFACT=BENCH_x.json] -P PaperEvalSectionTest.cmake
file(REMOVE_RECURSE ${ROOT})
file(MAKE_DIRECTORY ${ROOT})
set(ENV{NIMAGE_BENCH_JSON_DIR} ${ROOT})
execute_process(COMMAND ${EXE} --smoke WORKING_DIRECTORY ${ROOT}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "paper_eval --smoke exited ${RC}: ${ERR}")
endif()
string(FIND "${OUT}" "${HEADING}" AT)
if(AT EQUAL -1)
  message(FATAL_ERROR "paper_eval --smoke printed no '${HEADING}':\n${OUT}")
endif()
string(SUBSTRING "${OUT}" ${AT} -1 SECTION)
# The section ends where the next figure or Sec. 7.x heading begins.
string(REGEX REPLACE "\n\n(Figure|Sec\\.) .*" "" SECTION "${SECTION}")
string(FIND "${SECTION}" "\ngeomean " GEO)
if(GEO EQUAL -1)
  message(FATAL_ERROR "'${HEADING}' has no geomean row:\n${SECTION}")
endif()
if(DEFINED ARTIFACT)
  if(NOT EXISTS ${ROOT}/${ARTIFACT})
    message(FATAL_ERROR "paper_eval --smoke wrote no ${ARTIFACT}")
  endif()
  file(SIZE ${ROOT}/${ARTIFACT} BYTES)
  if(BYTES EQUAL 0)
    message(FATAL_ERROR "paper_eval --smoke wrote an empty ${ARTIFACT}")
  endif()
endif()
