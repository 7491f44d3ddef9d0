# Every numeric flag rejects values that are not plain decimal digits in
# range, and every command rejects flags outside its own list: each case
# must exit 2 with the expected error and write no image. A valid value
# must still build. Run by ctest as cli_rejects_bad_flags:
#   cmake -DCLI=<nimage_cli> -DROOT=<scratch dir> -P CliFlagTest.cmake
file(REMOVE_RECURSE ${ROOT})
file(MAKE_DIRECTORY ${ROOT})
set(OUT ${ROOT}/out.nimg)

# Each case: command, flag, value, expected stderr text.
set(CASES
  "build|--seed|bogus|error: --seed expects"
  "build|--seed|12abc|error: --seed expects"
  "build|--seed|-1|error: --seed expects"
  "build|--huge-pages|1x|error: --huge-pages expects"
  "build|--jobs|0|error: --jobs expects"
  "build|--jobs|2.5|error: --jobs expects"
  "profile|--generation|7q|error: --generation expects"
  "profile|--sample-period|0|error: --sample-period expects"
  "profile|--sample-period|1e3|error: --sample-period expects"
  "run|--fleet|ten|error: --fleet expects"
  "run|--fleet-seed|0x10|error: --fleet-seed expects"
  "run|--arrival-window-ns|1.5|error: --arrival-window-ns expects"
  "run|--storm-bursts|0|error: --storm-bursts expects"
  "run|--cache-pages| 8|error: --cache-pages expects"
  "build|--bogus|1|error: 'build' does not accept --bogus"
  "run|--seed|1|error: 'run' does not accept --seed"
  "profile|--out|x|error: 'profile' does not accept --out"
  "profile|--cluster-budget|4096|error: 'profile' does not accept --cluster-budget"
  "profile|--huge-pages|2|error: 'profile' does not accept --huge-pages"
  "build|--code|cluster|error: --code expects cu|method, got 'cluster'")
foreach(CASE ${CASES})
  string(REPLACE "|" ";" PARTS "${CASE}")
  list(GET PARTS 0 CMD)
  list(GET PARTS 1 FLAG)
  list(GET PARTS 2 VALUE)
  list(GET PARTS 3 WANT)
  set(OUT_ARGS)
  if(CMD STREQUAL "build")
    set(OUT_ARGS --out ${OUT})
  endif()
  execute_process(COMMAND ${CLI} ${CMD} Richards ${FLAG} ${VALUE} ${OUT_ARGS}
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}' exited ${RC}, expected 2")
  endif()
  string(FIND "${ERR}" "${WANT}" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}' printed: ${ERR}")
  endif()
  if(EXISTS ${OUT})
    message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}' wrote ${OUT}")
  endif()
endforeach()

# The removed block-order flag is an unknown flag like any other, and a
# value flag given last without its value is a usage error too.
foreach(ARGS "--split;hotcold;--blocks;exttsp" "--seed")
  execute_process(COMMAND ${CLI} build Richards --out ${OUT} ${ARGS}
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2 OR EXISTS ${OUT})
    message(FATAL_ERROR "build ${ARGS} exited ${RC}: ${ERR}")
  endif()
endforeach()

execute_process(COMMAND ${CLI} build Richards --seed 12 --jobs 2 --out ${OUT}
  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0 OR NOT EXISTS ${OUT})
  message(FATAL_ERROR "build --seed 12 exited ${RC}: ${ERR}")
endif()
