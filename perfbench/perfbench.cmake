# Build file of the benchmark program. run.py configures the
# simulator's own top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_cnvlutin_INCLUDE=<this file>
# so the benchmark links the libraries exactly as the repository
# builds them (same flags, same options), and then builds only the
# perfbench_cnv target. CMake includes this file right after the
# project() call, so the target sets its language standard itself.
add_executable(perfbench_cnv
    ${CMAKE_CURRENT_LIST_DIR}/heap_peak.cc
    ${CMAKE_CURRENT_LIST_DIR}/main.cc
    ${CMAKE_CURRENT_LIST_DIR}/span_trace.cc)
set_target_properties(perfbench_cnv PROPERTIES
    CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF
    EXCLUDE_FROM_ALL ON)
target_link_libraries(perfbench_cnv PRIVATE
    cnv_driver cnv_pruning cnv_arch cnv_timing cnv_nn cnv_tensor cnv_sim
    cnv_warnings)
