#include "shaders/gemm_shaders.hpp"

#include <algorithm>

#include "metal/compute_pipeline.hpp"
#include "simd/neon.hpp"
#include "util/error.hpp"

namespace ao::shaders {
namespace {

using metal::ArgumentTable;
using metal::DispatchShape;
using metal::GroupContext;
using metal::WorkEstimate;

metal::WorkEstimator gemm_estimator(soc::GemmImpl impl) {
  return [impl](const ArgumentTable& args, const DispatchShape&) {
    return WorkEstimate::gemm(impl, args.value<std::uint32_t>(3));
  };
}

/// The largest C tile one group computes: one accumulator per thread.
constexpr std::uint32_t kMaxGroupTile =
    metal::ComputePipelineState::kMaxTotalThreadsPerThreadgroup;
static_assert(kGemmTile * kGemmTile <= kMaxGroupTile);

/// Adds a[r,k] * b[k,j] into acc[r * cols + j] over `rows` rows, k outermost
/// and ascending. A nonzero kCols fixes the width at compile time: for a
/// full 32-column tile the compiler then keeps the B row in registers
/// across the tile's rows, which takes about a third off the tiled
/// shader's time at n=1024.
template <std::size_t kCols>
void accumulate_tile(const float* a, const float* b, std::size_t n,
                     std::size_t rows, std::size_t cols, float* acc) {
  const std::size_t width = kCols != 0 ? kCols : cols;
  for (std::size_t kk = 0; kk < n; ++kk) {
    const float* b_row = b + kk * n;
    for (std::size_t r = 0; r < rows; ++r) {
      const float a_val = a[r * n + kk];
      float* acc_row = acc + r * width;
      for (std::size_t j = 0; j < width; ++j) {
        acc_row[j] += a_val * b_row[j];
      }
    }
  }
}

/// Width of the naive launch's 8 x 8 groups (GpuNaiveGemm::kGroupEdge), and
/// the k rows of B staged at a time for it: 8 KiB of stack.
constexpr std::size_t kStripCols = 8;
constexpr std::size_t kStripDepth = 256;

/// accumulate_tile for a tile exactly kStripCols wide. The rows of B's
/// 8-float column strip lie n floats apart (4 KiB at n=1024, all in one
/// cache set), so each block of kStripDepth rows is first copied into a
/// contiguous stack buffer; each tile row then keeps its 8 sums in two
/// 4-lane registers over the block's ascending k (multiply, then add).
void accumulate_strip(const float* a, const float* b, std::size_t n,
                      std::size_t rows, float* acc) {
  using simd::vaddq_f32;
  using simd::vld1q_f32;
  using simd::vmulq_n_f32;
  using simd::vst1q_f32;
  constexpr std::size_t kHi = simd::kNeonLanesF32;
  alignas(64) float strip[kStripDepth * kStripCols];
  for (std::size_t k0 = 0; k0 < n; k0 += kStripDepth) {
    const std::size_t depth = std::min(kStripDepth, n - k0);
    for (std::size_t kk = 0; kk < depth; ++kk) {
      std::copy_n(b + (k0 + kk) * n, kStripCols, strip + kk * kStripCols);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const float* a_row = a + r * n + k0;
      float* acc_row = acc + r * kStripCols;
      simd::float32x4_t lo = vld1q_f32(acc_row);
      simd::float32x4_t hi = vld1q_f32(acc_row + kHi);
      for (std::size_t kk = 0; kk < depth; ++kk) {
        const float* b_row = strip + kk * kStripCols;
        lo = vaddq_f32(lo, vmulq_n_f32(vld1q_f32(b_row), a_row[kk]));
        hi = vaddq_f32(hi, vmulq_n_f32(vld1q_f32(b_row + kHi), a_row[kk]));
      }
      vst1q_f32(acc_row, lo);
      vst1q_f32(acc_row + kHi, hi);
    }
  }
}

/// Computes one group's `tile_rows` x `tile_cols` tile of C at (row0, col0),
/// clipped at the matrix edge: the MSL threads past n return early. k is the
/// outer loop, so each row of B's column panel is read once per group rather
/// than once per thread. Every element still starts at 0.0f and adds
/// a[row,k] * b[k,col] in ascending k, the order of each MSL thread's loop.
void multiply_group_tile(const ArgumentTable& args, std::uint64_t row0,
                         std::uint64_t col0, std::uint32_t tile_rows,
                         std::uint32_t tile_cols) {
  const auto n = args.value<std::uint32_t>(3);
  if (row0 >= n || col0 >= n) {
    return;
  }
  const auto rows =
      static_cast<std::size_t>(std::min<std::uint64_t>(tile_rows, n - row0));
  const auto cols =
      static_cast<std::size_t>(std::min<std::uint64_t>(tile_cols, n - col0));
  const float* a = args.buffer_data<float>(0) + row0 * n;
  const float* b = args.buffer_data<float>(1) + col0;
  float* c = args.buffer_data<float>(2) + row0 * n + col0;

  float acc[kMaxGroupTile];
  std::fill_n(acc, rows * cols, 0.0f);
  if (cols == kGemmTile) {
    accumulate_tile<kGemmTile>(a, b, n, rows, cols, acc);
  } else if (cols == kStripCols) {
    accumulate_strip(a, b, n, rows, acc);
  } else {
    accumulate_tile<0>(a, b, n, rows, cols, acc);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(acc + r * cols, cols, c + r * n);
  }
}

}  // namespace

metal::Kernel make_gemm_naive() {
  metal::Kernel k;
  k.name = "gemm_naive";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const metal::UInt3 tpg = ctx.threads_per_threadgroup;
    const metal::UInt3 group = ctx.threadgroup_position_in_grid;
    // The group's tile is its x-y plane of threads (row = global y, col =
    // global x); threads along z would recompute the same elements, so z is
    // ignored. The check cannot fire: the encoder refuses any dispatch whose
    // x*y*z exceeds the same limit before it is queued. It only guards the
    // stack accumulator, and is not a recoverable error path (it would throw
    // on a dispatch worker thread).
    AO_REQUIRE(static_cast<std::uint64_t>(tpg.x) * tpg.y <= kMaxGroupTile,
               "gemm_naive threadgroup exceeds maxTotalThreadsPerThreadgroup");
    multiply_group_tile(args, static_cast<std::uint64_t>(group.y) * tpg.y,
                        static_cast<std::uint64_t>(group.x) * tpg.x, tpg.y,
                        tpg.x);
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuNaive);
  return k;
}

metal::Kernel make_gemm_tiled() {
  metal::Kernel k;
  k.name = "gemm_tiled";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    // One group per 32 x 32 C tile, whatever the launch's thread shape.
    const metal::UInt3 group = ctx.threadgroup_position_in_grid;
    multiply_group_tile(args, static_cast<std::uint64_t>(group.y) * kGemmTile,
                        static_cast<std::uint64_t>(group.x) * kGemmTile,
                        kGemmTile, kGemmTile);
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuCutlass);
  return k;
}

}  // namespace ao::shaders
