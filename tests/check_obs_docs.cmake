# Fails when an obs counter registered under src/ is missing from the
# counters table of docs/observability.md, or when that table names a
# counter nothing under src/ registers. A counter is registered by a
# string-literal name passed to SB_OBS_COUNT, SB_OBS_GAUGE or
# SB_OBS_TIME_COUNT, or by the name an owned obs::Counter feeds (its
# constructor literal: `obs::Counter hits_{"arena.hits"};`). Every such
# name must appear there in full, in backticks, and every backticked name
# in the table's first column must be one of them.
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
  string(REGEX MATCHALL
         "Counter[ \t\r\n]+[A-Za-z_][A-Za-z_0-9]*[ \t\r\n]*[{(][ \t\r\n]*\"[^\"]+\""
         owned "${text}")
  foreach(call IN LISTS calls owned)
    string(REGEX REPLACE ".*\"([^\"]+)\"$" "\\1" name "${call}")
    list(APPEND names "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES names)
list(SORT names)
list(LENGTH names count)
if(count EQUAL 0)
  message(FATAL_ERROR "no obs counter names found under ${SRC_DIR}")
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

# The other direction: the first cell of every row of the "## Counters"
# table, up to the next heading.
string(FIND "${doc}" "\n## Counters" table_at)
if(table_at EQUAL -1)
  message(FATAL_ERROR "no '## Counters' section in ${DOC}")
endif()
string(SUBSTRING "${doc}" ${table_at} -1 table)
string(SUBSTRING "${table}" 1 -1 rest)
string(FIND "${rest}" "\n## " table_end)
if(NOT table_end EQUAL -1)
  string(SUBSTRING "${table}" 0 ${table_end} table)
endif()
string(REGEX MATCHALL "\n\\|[^|\n]*\\|" cells "${table}")
set(stale "")
set(rows 0)
foreach(cell IN LISTS cells)
  string(REGEX MATCHALL "`[^`]+`" quoted "${cell}")
  foreach(entry IN LISTS quoted)
    string(REGEX REPLACE "`" "" name "${entry}")
    math(EXPR rows "${rows} + 1")
    list(FIND names "${name}" known)
    if(known EQUAL -1)
      list(APPEND stale "${name}")
    endif()
  endforeach()
endforeach()
if(rows EQUAL 0)
  message(FATAL_ERROR "no counter rows found in the counters table of ${DOC}")
endif()
if(stale)
  list(JOIN stale "\n  " listing)
  message(FATAL_ERROR
          "counters documented in ${DOC} that nothing under ${SRC_DIR} "
          "registers:\n  ${listing}")
endif()
message(STATUS "all ${count} registered obs counters are documented, "
               "and all ${rows} documented names are registered")
