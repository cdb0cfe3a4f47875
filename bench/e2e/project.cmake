# Adds bench/e2e to the root project. Passed at configure time as
# -DCMAKE_PROJECT_wc3d_INCLUDE=<this file>, it is included by
# project(wc3d); the deferred call runs when the root CMakeLists.txt is
# done, so bench_e2e is built with the root's flags, dependencies and
# libraries. It does nothing once bench/CMakeLists.txt adds e2e itself.
function(wc3d_add_bench_e2e)
    if(NOT TARGET bench_e2e)
        # A deferred call may not add a subdirectory; include the list.
        include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
    endif()
endfunction()
cmake_language(DEFER CALL wc3d_add_bench_e2e)
