# Fails when a span recorded under src/ or tools/ is missing from the
# "## Span taxonomy" table of docs/observability.md, or when that table
# names a span nothing records. A recorded span is a (cat, name) pair of
# string literals passed to SB_OBS_SPAN, obs::record_complete, an
# obs::Span constructor or an optional<obs::Span>::emplace. A row whose
# name is a <placeholder> (`service` / `<job kind>`, `cli` /
# `<subcommand>`) documents spans named at run time and is not checked.
#
#   cmake -DSRC_DIR=<repo>/src -DTOOLS_DIR=<repo>/tools \
#         -DDOC=<repo>/docs/observability.md -P tests/check_obs_spans.cmake
if(NOT SRC_DIR OR NOT TOOLS_DIR OR NOT DOC)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=... -DTOOLS_DIR=... -DDOC=... "
                      "-P check_obs_spans.cmake")
endif()

set(sources "")
foreach(dir IN ITEMS "${SRC_DIR}" "${TOOLS_DIR}")
  file(GLOB_RECURSE found "${dir}/*.cpp" "${dir}/*.hpp")
  list(APPEND sources ${found})
endforeach()
set(recorded "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(REGEX MATCHALL
         "(SB_OBS_SPAN|record_complete|emplace|Span [A-Za-z_]+)\\([ \t\r\n]*\"[^\"]+\",[ \t\r\n]*\"[^\"]+\""
         calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE ".*\"([^\"]+)\",[ \t\r\n]*\"([^\"]+)\"$" "\\1/\\2"
           span "${call}")
    list(APPEND recorded "${span}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES recorded)
list(SORT recorded)
list(LENGTH recorded count)
if(count EQUAL 0)
  message(FATAL_ERROR "no span literals found under ${SRC_DIR}, ${TOOLS_DIR}")
endif()

# The rows of the span table, up to the next heading: `cat` | `name`.
file(READ "${DOC}" doc)
string(FIND "${doc}" "\n## Span taxonomy" table_at)
if(table_at EQUAL -1)
  message(FATAL_ERROR "no '## Span taxonomy' section in ${DOC}")
endif()
string(SUBSTRING "${doc}" ${table_at} -1 table)
string(SUBSTRING "${table}" 1 -1 rest)
string(FIND "${rest}" "\n## " table_end)
if(NOT table_end EQUAL -1)
  string(SUBSTRING "${table}" 0 ${table_end} table)
endif()
string(REGEX MATCHALL "\n\\| `[^`]+` \\| `[^`]+` \\|" rows "${table}")
set(documented "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n\\| `([^`]+)` \\| `([^`]+)` \\|$" "\\1/\\2"
         span "${row}")
  if(NOT span MATCHES "/<")
    list(APPEND documented "${span}")
  endif()
endforeach()
list(LENGTH rows row_count)
if(row_count EQUAL 0)
  message(FATAL_ERROR "no span rows found in the span table of ${DOC}")
endif()

set(missing "")
foreach(span IN LISTS recorded)
  list(FIND documented "${span}" at)
  if(at EQUAL -1)
    list(APPEND missing "${span}")
  endif()
endforeach()
set(stale "")
foreach(span IN LISTS documented)
  list(FIND recorded "${span}" at)
  if(at EQUAL -1)
    list(APPEND stale "${span}")
  endif()
endforeach()
if(missing OR stale)
  list(JOIN missing "\n  " missing_listing)
  list(JOIN stale "\n  " stale_listing)
  message(FATAL_ERROR
          "span table of ${DOC} out of date\n"
          "recorded but not documented:\n  ${missing_listing}\n"
          "documented but not recorded:\n  ${stale_listing}")
endif()
message(STATUS "all ${count} recorded spans are documented, and all "
               "${row_count} documented rows are recorded or placeholders")
