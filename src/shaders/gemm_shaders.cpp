#include "shaders/gemm_shaders.hpp"

#include <algorithm>

#include "metal/compute_pipeline.hpp"
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

}  // namespace

metal::Kernel make_gemm_naive() {
  metal::Kernel k;
  k.name = "gemm_naive";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(3);
    const metal::UInt3 tpg = ctx.threads_per_threadgroup;
    const metal::UInt3 group = ctx.threadgroup_position_in_grid;

    // One stack accumulator per thread of the group's x-y plane, bounded by
    // the pipeline's thread limit. Threads along z would recompute the same
    // elements, so z is ignored. The check cannot fire: the encoder refuses
    // any dispatch whose x*y*z exceeds the same limit before it is queued.
    // It only guards the stack array, and is not a recoverable error path
    // (it would throw on a dispatch worker thread).
    constexpr std::uint32_t kMaxThreads =
        metal::ComputePipelineState::kMaxTotalThreadsPerThreadgroup;
    AO_REQUIRE(static_cast<std::uint64_t>(tpg.x) * tpg.y <= kMaxThreads,
               "gemm_naive threadgroup exceeds maxTotalThreadsPerThreadgroup");

    const std::uint64_t col0 = static_cast<std::uint64_t>(group.x) * tpg.x;
    const std::uint64_t row0 = static_cast<std::uint64_t>(group.y) * tpg.y;
    if (row0 >= n || col0 >= n) {
      return;
    }
    // Edge groups clip to the matrix: the MSL threads past n return early.
    const auto cols =
        static_cast<std::size_t>(std::min<std::uint64_t>(tpg.x, n - col0));
    const auto rows =
        static_cast<std::size_t>(std::min<std::uint64_t>(tpg.y, n - row0));
    const float* a = args.buffer_data<float>(0) + row0 * n;
    const float* b = args.buffer_data<float>(1) + col0;
    float* c = args.buffer_data<float>(2) + row0 * n + col0;

    // k outermost: each row of B's column panel is read once per group.
    // Every element still starts at 0.0f and adds a[row,k] * b[k,col] in
    // ascending k, the order of each MSL thread's own loop.
    float acc[kMaxThreads];
    std::fill_n(acc, rows * cols, 0.0f);
    for (std::size_t kk = 0; kk < n; ++kk) {
      const float* b_row = b + kk * n;
      for (std::size_t r = 0; r < rows; ++r) {
        const float a_val = a[r * n + kk];
        float* acc_row = acc + r * cols;
        for (std::size_t j = 0; j < cols; ++j) {
          acc_row[j] += a_val * b_row[j];
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(acc + r * cols, cols, c + r * n);
    }
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuNaive);
  return k;
}

metal::Kernel make_gemm_tiled() {
  metal::Kernel k;
  k.name = "gemm_tiled";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(3);
    const float* a = args.buffer_data<float>(0);
    const float* b = args.buffer_data<float>(1);
    float* c = args.buffer_data<float>(2);

    constexpr std::uint32_t T = kGemmTile;
    constexpr std::uint32_t G = kGemmGroupEdge;
    constexpr std::uint32_t M = kGemmMicroTile;

    // threadgroup float tile_a[T][T]; threadgroup float tile_b[T][T];
    auto scratch = ctx.threadgroup_span<float>();
    float* tile_a = scratch.data();
    float* tile_b = scratch.data() + T * T;

    const std::uint32_t tile_row0 = ctx.threadgroup_position_in_grid.y * T;
    const std::uint32_t tile_col0 = ctx.threadgroup_position_in_grid.x * T;
    if (tile_row0 >= n || tile_col0 >= n) {
      return;
    }

    // Per-thread accumulator micro-tiles (the "registers" of the Cutlass
    // layout): acc[thread_y][thread_x][M][M].
    float acc[G][G][M][M] = {};

    const std::uint32_t k_tiles = (n + T - 1) / T;
    for (std::uint32_t kt = 0; kt < k_tiles; ++kt) {
      const std::uint32_t k0 = kt * T;

      // ---- load phase: all threads cooperatively stage A and B tiles ----
      // (threadgroup_barrier(mem_threadgroup) follows in the MSL original.)
      for (std::uint32_t idx = 0; idx < T * T; ++idx) {
        const std::uint32_t r = idx / T;
        const std::uint32_t col = idx % T;
        const std::uint32_t ga_r = tile_row0 + r;
        const std::uint32_t ga_c = k0 + col;
        tile_a[idx] = (ga_r < n && ga_c < n)
                          ? a[static_cast<std::size_t>(ga_r) * n + ga_c]
                          : 0.0f;
        const std::uint32_t gb_r = k0 + r;
        const std::uint32_t gb_c = tile_col0 + col;
        tile_b[idx] = (gb_r < n && gb_c < n)
                          ? b[static_cast<std::size_t>(gb_r) * n + gb_c]
                          : 0.0f;
      }

      // ---- multiply phase: each thread updates its 4x4 micro-tile ----
      // (second threadgroup_barrier in the MSL original.)
      const std::uint32_t k_lim = std::min(T, n - k0);
      for (std::uint32_t ty = 0; ty < G; ++ty) {
        for (std::uint32_t tx = 0; tx < G; ++tx) {
          for (std::uint32_t kk = 0; kk < k_lim; ++kk) {
            for (std::uint32_t mi = 0; mi < M; ++mi) {
              const float a_val = tile_a[(ty * M + mi) * T + kk];
              for (std::uint32_t mj = 0; mj < M; ++mj) {
                acc[ty][tx][mi][mj] += a_val * tile_b[kk * T + tx * M + mj];
              }
            }
          }
        }
      }
    }

    // ---- epilogue: write the C tile ----
    for (std::uint32_t ty = 0; ty < G; ++ty) {
      for (std::uint32_t tx = 0; tx < G; ++tx) {
        for (std::uint32_t mi = 0; mi < M; ++mi) {
          const std::uint32_t row = tile_row0 + ty * M + mi;
          if (row >= n) {
            continue;
          }
          for (std::uint32_t mj = 0; mj < M; ++mj) {
            const std::uint32_t col = tile_col0 + tx * M + mj;
            if (col >= n) {
              continue;
            }
            c[static_cast<std::size_t>(row) * n + col] = acc[ty][tx][mi][mj];
          }
        }
      }
    }
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuCutlass);
  return k;
}

}  // namespace ao::shaders
