// The vqsim library's CMakeLists builds its kernel generator from
// ${CMAKE_SOURCE_DIR}/tools/gen_kernels.cpp; with perfbench as the
// top-level project that path lands here, so forward to the real tool.
#include "../../tools/gen_kernels.cpp"
