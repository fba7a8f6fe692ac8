# Fails when an obs counter registered under src/ is missing from the
# counters table of docs/observability.md. Every string-literal name
# passed to SB_OBS_COUNT, SB_OBS_GAUGE or SB_OBS_TIME_COUNT must appear
# there in full, in backticks.
#
#   cmake -DSRC_DIR=<repo>/src -DDOC=<repo>/docs/observability.md \
#         -P tests/check_obs_docs.cmake
if(NOT SRC_DIR OR NOT DOC)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=... -DDOC=... -P check_obs_docs.cmake")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(names "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(REGEX MATCHALL
         "SB_OBS_(COUNT|GAUGE|TIME_COUNT)\\([ \t\r\n]*\"[^\"]+\""
         calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE ".*\"([^\"]+)\"$" "\\1" name "${call}")
    list(APPEND names "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES names)
list(SORT names)
list(LENGTH names count)
if(count EQUAL 0)
  message(FATAL_ERROR "no SB_OBS_* counter literals found under ${SRC_DIR}")
endif()

file(READ "${DOC}" doc)
set(missing "")
foreach(name IN LISTS names)
  string(FIND "${doc}" "`${name}`" at)
  if(at EQUAL -1)
    list(APPEND missing "${name}")
  endif()
endforeach()
if(missing)
  list(JOIN missing "\n  " listing)
  message(FATAL_ERROR "counters missing from ${DOC}:\n  ${listing}")
endif()
message(STATUS "all ${count} registered obs counters are documented")
