# Passed as CMAKE_PROJECT_INCLUDE by run.py. It runs at the repository's
# project() call and defers rtr_suite.cmake until the top-level
# CMakeLists.txt has finished, so rtr_suite inherits every compile
# option the repository sets after project().
include_guard(GLOBAL)
set(RTR_SUITE_CMAKE "${CMAKE_CURRENT_LIST_DIR}/rtr_suite.cmake")
cmake_language(DEFER CALL include "${RTR_SUITE_CMAKE}")
