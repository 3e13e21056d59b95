#pragma once
// Reduced-precision emulation.
//
// The paper trains in bfloat16 (and compares against float16, finding nearly
// identical loss curves). The CPU engine stores everything as float32 but can
// round values through the bf16/fp16 grids after each update, reproducing the
// precision study without native half-precision hardware.

#include <bit>
#include <cstdint>

namespace matgpt {

/// Storage precision emulated on top of float32.
enum class DType { kFloat32, kBFloat16, kFloat16 };

/// Round a float through the bfloat16 grid (round-to-nearest-even). A NaN
/// becomes the quiet NaN of its sign: rounding its payload could carry into
/// the exponent and turn it into an infinity or a zero.
inline float round_bf16(float x) {
  auto bits = std::bit_cast<std::uint32_t>(x);
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return std::bit_cast<float>((bits & 0x80000000u) | 0x7fc00000u);
  }
  const std::uint32_t lsb = (bits >> 16) & 1u;
  bits += 0x7fffu + lsb;   // round to nearest, ties to even
  bits &= 0xffff0000u;     // drop the low mantissa half
  return std::bit_cast<float>(bits);
}

/// Round a float through the IEEE float16 grid, with overflow to ±inf and
/// gradual underflow to subnormals, matching hardware fp16 casts.
float round_fp16(float x);

/// Apply the given precision grid to a value (identity for kFloat32).
inline float round_to(DType dtype, float x) {
  switch (dtype) {
    case DType::kFloat32:
      return x;
    case DType::kBFloat16:
      return round_bf16(x);
    case DType::kFloat16:
      return round_fp16(x);
  }
  return x;
}

/// Bytes per element a real accelerator would use for this dtype; the memory
/// model uses this even though the CPU engine stores float32.
inline constexpr double dtype_bytes(DType dtype) {
  return dtype == DType::kFloat32 ? 4.0 : 2.0;
}

const char* dtype_name(DType dtype);

}  // namespace matgpt
