# Fails when a pattern of a labelled suite's --gtest_filter matches no test
# of the test binary. gtest runs a filter that selects nothing as a pass, so
# a suite whose tests were deleted or renamed would otherwise drop out of
# its label's sweep unnoticed.
#
#   cmake -DTEST_BINARY=<csq_tests>
#         -DFILTERS=<suite>=<filter>|<suite>=<filter>|...
#         -P check_suite_filters.cmake
#
# Only the positive half of a filter (before a '-') is checked.

execute_process(COMMAND "${TEST_BINARY}" --gtest_list_tests
                OUTPUT_VARIABLE listing RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${TEST_BINARY} --gtest_list_tests failed: ${result}")
endif()

# The listing is "Suite." lines, each followed by "  Test" lines, either
# with an optional "  # GetParam() = ..." comment. Characters that CMake
# lists treat specially never occur in test names; drop them first.
string(REPLACE ";" "" listing "${listing}")
string(REPLACE "[" "" listing "${listing}")
string(REPLACE "]" "" listing "${listing}")
string(REPLACE "\n" ";" lines "${listing}")
set(tests "")
set(suite "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE " *#.*$" "" line "${line}")
  if(line MATCHES "^[^ ]")
    set(suite "${line}")
  elseif(line MATCHES "^ +([^ ]+)$")
    list(APPEND tests "${suite}${CMAKE_MATCH_1}")
  endif()
endforeach()
list(LENGTH tests test_count)
if(test_count EQUAL 0)
  message(FATAL_ERROR "${TEST_BINARY} lists no tests")
endif()

string(REPLACE "|" ";" suites "${FILTERS}")
set(dead "")
set(checked 0)
foreach(entry IN LISTS suites)
  string(FIND "${entry}" "=" eq)
  string(SUBSTRING "${entry}" 0 ${eq} name)
  math(EXPR start "${eq} + 1")
  string(SUBSTRING "${entry}" ${start} -1 filter)
  string(REGEX REPLACE "-.*$" "" filter "${filter}")
  string(REPLACE ":" ";" patterns "${filter}")
  foreach(pattern IN LISTS patterns)
    # The gtest wildcards as a regex: '*' any run, '?' one character.
    string(REGEX REPLACE "([.+^$(){}|\\\\])" "\\\\\\1" regex "${pattern}")
    string(REPLACE "*" ".*" regex "${regex}")
    string(REPLACE "?" "." regex "${regex}")
    set(found FALSE)
    foreach(test IN LISTS tests)
      if(test MATCHES "^${regex}$")
        set(found TRUE)
        break()
      endif()
    endforeach()
    math(EXPR checked "${checked} + 1")
    if(NOT found)
      list(APPEND dead "${name}: ${pattern}")
    endif()
  endforeach()
endforeach()

if(dead)
  string(REPLACE ";" "\n  " dead "${dead}")
  message(FATAL_ERROR "filter patterns that match no test:\n  ${dead}")
endif()
message(STATUS "${checked} filter patterns each match at least one of "
               "${test_count} tests")
