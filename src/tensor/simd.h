#pragma once
// The one SIMD switch for src/tensor (private to the library).
//
// MATGPT_X86_DISPATCH is the compile-time half: it is defined where AVX2+FMA
// code may be compiled at all (x86-64 GCC/Clang outside a MATGPT_PORTABLE
// build), and every `#pragma GCC target(...)` region sits inside it.
// simd_active() is the runtime half: the host supports AVX2 and FMA. The
// GEMM kernels and the attention row kernels both dispatch on exactly these
// two, so a portable build compiles no SIMD code and a host without the ISA
// runs none. simd512_active() adds AVX-512F, which only the packed GEMM's
// register kernel uses (see gemm_width.h).

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

/// AVX2+FMA and AVX-512F. libgcc's check also requires the OS to save zmm
/// state (XCR0), so a true here means 512-bit code may run.
inline bool simd512_active() {
#ifdef MATGPT_X86_DISPATCH
  static const bool ok = simd_active() && __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

}  // namespace matgpt::kernels
