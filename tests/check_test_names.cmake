# Fails when a gtest binary lists a parameter printed as raw bytes.
# Usage: cmake -DBINARIES="bin1|bin2|..." -P check_test_names.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
set(bad "")
foreach(bin IN LISTS binaries)
  execute_process(COMMAND ${bin} --gtest_list_tests
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} --gtest_list_tests exited with ${rc}")
  endif()
  string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" hits "${out}")
  foreach(hit IN LISTS hits)
    string(APPEND bad "\n  ${bin}: ${hit}")
  endforeach()
endforeach()
if(bad)
  message(FATAL_ERROR "test names built from raw parameter bytes (give "
                      "the parameter struct a PrintTo):${bad}")
endif()
list(LENGTH binaries n)
message(STATUS "${n} test binaries list stable names")
