# The suite benchmark program, rtr_suite. The repository's CMakeLists.txt
# does not include this file: run.py configures the repository with
# -DCMAKE_PROJECT_INCLUDE=suitebench/hook.cmake, which includes it once
# the top-level file has finished, so rtr_suite and the libraries it
# measures compile with exactly the repository's flags.

set(RTR_SUITE_BINARY_DIR ${CMAKE_BINARY_DIR}/suitebench)

add_executable(rtr_suite
    ${CMAKE_CURRENT_LIST_DIR}/main.cpp
    ${CMAKE_CURRENT_LIST_DIR}/kernels.cpp
    ${CMAKE_CURRENT_LIST_DIR}/service.cpp)
target_link_libraries(rtr_suite PRIVATE rtr_kernels rtr_service)
set_target_properties(rtr_suite PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${RTR_SUITE_BINARY_DIR})

# Provenance baked into the binary: build type and compile flags.
get_directory_property(_suite_options COMPILE_OPTIONS)
string(TOUPPER "${CMAKE_BUILD_TYPE}" _suite_build)
string(JOIN " " _suite_flags ${CMAKE_CXX_FLAGS}
       ${CMAKE_CXX_FLAGS_${_suite_build}} ${_suite_options})
file(CONFIGURE OUTPUT ${RTR_SUITE_BINARY_DIR}/suite_build_info.h
     CONTENT "#define RTR_SUITE_BUILD_TYPE \"${CMAKE_BUILD_TYPE}\"
#define RTR_SUITE_CXX_FLAGS \"${_suite_flags}\"
")
target_include_directories(rtr_suite PRIVATE ${RTR_SUITE_BINARY_DIR})
