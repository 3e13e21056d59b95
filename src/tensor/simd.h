#pragma once
// The one SIMD switch for src/tensor (private to the library).
//
// MATGPT_X86_DISPATCH is the compile-time half: it is defined where AVX2+FMA
// code may be compiled at all (x86-64 GCC/Clang outside a MATGPT_PORTABLE
// build), and every `#pragma GCC target("avx2,fma")` region sits inside it.
// simd_active() is the runtime half: the host supports AVX2 and FMA. The
// GEMM kernels and the attention row kernels both dispatch on exactly these
// two, so a portable build compiles no AVX2 code and a host without the ISA
// runs none.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MATGPT_PORTABLE)
#define MATGPT_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace matgpt::kernels {

inline bool simd_active() {
#ifdef MATGPT_X86_DISPATCH
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

}  // namespace matgpt::kernels
