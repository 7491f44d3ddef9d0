# Builds Richards with an unknown --code and an unknown --heap value; each
# must exit 2 with a usage error naming the accepted values, and write no
# image. Run by ctest as cli_build_rejects_unknown_strategy:
#   cmake -DCLI=<nimage_cli> -DROOT=<scratch dir> -P StrategyFlagTest.cmake
file(REMOVE_RECURSE ${ROOT})
file(MAKE_DIRECTORY ${ROOT})
foreach(CASE "code;cu|method" "heap;inc|struct|path")
  list(GET CASE 0 FLAG)
  list(GET CASE 1 ALLOWED)
  set(OUT ${ROOT}/${FLAG}.nimg)
  execute_process(COMMAND ${CLI} build Richards --${FLAG} bogus --out ${OUT}
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "build --${FLAG} bogus exited ${RC}, expected 2")
  endif()
  string(FIND "${ERR}" "error: --${FLAG} expects ${ALLOWED}, got 'bogus'" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "build --${FLAG} bogus printed: ${ERR}")
  endif()
  if(EXISTS ${OUT})
    message(FATAL_ERROR "build --${FLAG} bogus wrote ${OUT}")
  endif()
endforeach()
