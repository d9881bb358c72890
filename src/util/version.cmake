# Writes the build-identity header: `cmake -DSOURCE_DIR=... -DINPUT=... \
# -DOUTPUT=... -DCMAKE_BUILD_TYPE=... -P version.cmake`.
#
# The SHA is `git rev-parse --short=12 HEAD` of SOURCE_DIR with a "-dirty"
# suffix when `git status --porcelain` lists changes, and "unknown" outside
# a git checkout so source tarballs still build. configure_file leaves
# OUTPUT untouched when its content would not change, so running this on
# every build recompiles nothing until the SHA or the tree state moves.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE VERDICT_GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE rev_parse_status
  ERROR_QUIET
)
if(NOT rev_parse_status EQUAL 0 OR NOT VERDICT_GIT_SHA)
  set(VERDICT_GIT_SHA "unknown")
else()
  execute_process(
    COMMAND git --no-optional-locks status --porcelain
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE tree_status
    ERROR_QUIET
  )
  if(NOT tree_status STREQUAL "")
    string(APPEND VERDICT_GIT_SHA "-dirty")
  endif()
endif()
configure_file(${INPUT} ${OUTPUT} @ONLY)
