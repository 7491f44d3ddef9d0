# Profiles Richards into a fresh nested directory and checks that the
# profiles land there. Run by ctest as cli_profile_creates_dir:
#   cmake -DCLI=<nimage_cli> -DROOT=<scratch dir> -P ProfileDirTest.cmake
file(REMOVE_RECURSE ${ROOT})
set(DIR ${ROOT}/nested/profiles)
execute_process(COMMAND ${CLI} profile Richards --dir ${DIR}
  RESULT_VARIABLE RC OUTPUT_QUIET)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "nimage_cli profile --dir ${DIR} exited ${RC}")
endif()
if(NOT EXISTS ${DIR}/cu.csv)
  message(FATAL_ERROR "${DIR}/cu.csv was not written")
endif()
