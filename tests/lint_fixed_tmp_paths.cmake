# Fails when a test source names a fixed /tmp/ path.
#
# ctest runs every discovered test as its own process, in parallel
# under -j, so two tests writing one fixed path race. Tests that need
# files use tests/temp_dir.hpp (a directory per test and pid).
#
#   cmake -DTEST_DIR=<repo>/tests -P lint_fixed_tmp_paths.cmake
if(NOT TEST_DIR)
  message(FATAL_ERROR "usage: cmake -DTEST_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(GLOB sources "${TEST_DIR}/*.cpp" "${TEST_DIR}/*.hpp")
set(found "")
foreach(src IN LISTS sources)
  file(STRINGS "${src}" hits REGEX "/tmp/")
  foreach(line IN LISTS hits)
    get_filename_component(name "${src}" NAME)
    string(STRIP "${line}" line)
    string(APPEND found "\n  ${name}: ${line}")
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "fixed /tmp/ paths in tests (use tests/temp_dir.hpp):${found}")
endif()
list(LENGTH sources n)
message(STATUS "no fixed /tmp/ path in ${n} test sources")
