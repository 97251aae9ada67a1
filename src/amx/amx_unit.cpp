#include "amx/amx_unit.hpp"

#include <cstring>

#include "simd/neon.hpp"
#include "util/error.hpp"

namespace ao::amx {

void AmxUnit::set() {
  enabled_ = true;
  x_.fill(std::byte{0});
  y_.fill(std::byte{0});
  z_.fill(std::byte{0});
  mac_count_ = 0;
}

void AmxUnit::clr() { enabled_ = false; }

void AmxUnit::require_enabled() const {
  if (!enabled_) {
    throw util::StateError("AMX instruction issued before AMX_SET");
  }
}

void AmxUnit::ldx(std::size_t reg, const void* src) {
  require_enabled();
  AO_REQUIRE(reg < kXRegs, "X register index out of range");
  AO_REQUIRE(src != nullptr, "ldx source is null");
  std::memcpy(x_.data() + reg * kRegBytes, src, kRegBytes);
}

void AmxUnit::ldy(std::size_t reg, const void* src) {
  require_enabled();
  AO_REQUIRE(reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(src != nullptr, "ldy source is null");
  std::memcpy(y_.data() + reg * kRegBytes, src, kRegBytes);
}

void AmxUnit::ldz(std::size_t row, const void* src) {
  require_enabled();
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  AO_REQUIRE(src != nullptr, "ldz source is null");
  std::memcpy(z_.data() + row * kRegBytes, src, kRegBytes);
}

void AmxUnit::stz(std::size_t row, void* dst) const {
  require_enabled();
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  AO_REQUIRE(dst != nullptr, "stz destination is null");
  std::memcpy(dst, z_.data() + row * kRegBytes, kRegBytes);
}

void AmxUnit::zero_z() {
  require_enabled();
  z_.fill(std::byte{0});
}

void AmxUnit::fma32(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset,
                    bool accumulate) {
  require_enabled();
  AO_REQUIRE(x_reg < kXRegs, "X register index out of range");
  AO_REQUIRE(y_reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(z_offset < 4, "fp32 Z offset must be 0..3");

  // Copy the operands out of the byte register file first: Z may alias X and
  // Y through it, which otherwise keeps the compiler on scalar code. Each Z
  // row is then four 4-lane vectors; multiply and add stay separate (no
  // fused multiply-add), so every lane rounds exactly as z + x * y.
  float x[kLanesF32] = {};
  float y[kLanesF32] = {};
  std::memcpy(x, x_.data() + x_reg * kRegBytes, kRegBytes);
  std::memcpy(y, y_.data() + y_reg * kRegBytes, kRegBytes);
  for (std::size_t j = 0; j < kLanesF32; ++j) {
    auto* z_row =
        reinterpret_cast<float*>(z_.data() + (j * 4 + z_offset) * kRegBytes);
    for (std::size_t i = 0; i < kLanesF32; i += simd::kNeonLanesF32) {
      simd::float32x4_t v = simd::vmulq_n_f32(simd::vld1q_f32(x + i), y[j]);
      if (accumulate) {
        v = simd::vaddq_f32(simd::vld1q_f32(z_row + i), v);
      }
      simd::vst1q_f32(z_row + i, v);
    }
  }
  mac_count_ += kLanesF32 * kLanesF32;
}

void AmxUnit::fma16(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset,
                    bool accumulate) {
  require_enabled();
  AO_REQUIRE(x_reg < kXRegs, "X register index out of range");
  AO_REQUIRE(y_reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(z_offset < 2, "fp16 Z offset must be 0..1");

  const auto* x = reinterpret_cast<const Half*>(x_.data() + x_reg * kRegBytes);
  const auto* y = reinterpret_cast<const Half*>(y_.data() + y_reg * kRegBytes);
  // Product row j lands in Z row j * 2 + z_offset (interleave 2), so the 32
  // rows of one offset cover every other Z row.
  for (std::size_t j = 0; j < kLanesF16; ++j) {
    auto* z_row =
        reinterpret_cast<float*>(z_.data() + (j * 2 + z_offset) * kRegBytes);
    const float yj = half_to_float(y[j]);
    for (std::size_t i = 0; i < kLanesF32; ++i) {
      // One 64-byte Z row holds 16 FP32 lanes, so the model keeps the
      // products of X lanes 0..15 only.
      const float prod = half_to_float(x[i]) * yj;
      z_row[i] = accumulate ? z_row[i] + prod : prod;
    }
  }
  mac_count_ += kLanesF16 * kLanesF32;
}

std::span<const float> AmxUnit::x_f32(std::size_t reg) const {
  AO_REQUIRE(reg < kXRegs, "X register index out of range");
  return {reinterpret_cast<const float*>(x_.data() + reg * kRegBytes), kLanesF32};
}

std::span<const float> AmxUnit::y_f32(std::size_t reg) const {
  AO_REQUIRE(reg < kYRegs, "Y register index out of range");
  return {reinterpret_cast<const float*>(y_.data() + reg * kRegBytes), kLanesF32};
}

std::span<const float> AmxUnit::z_row_f32(std::size_t row) const {
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  return {reinterpret_cast<const float*>(z_.data() + row * kRegBytes), kLanesF32};
}

}  // namespace ao::amx
