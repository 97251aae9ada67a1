#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "mem/unified_memory.hpp"
#include "metal/compute_command_encoder.hpp"
#include "metal/device.hpp"
#include "shaders/default_library.hpp"
#include "shaders/gemm_shaders.hpp"
#include "shaders/stream_kernels.hpp"
#include "util/rng.hpp"

namespace ao::shaders {
namespace {

class ShaderTest : public ::testing::Test {
 protected:
  soc::Soc soc_{soc::ChipModel::kM3};
  mem::UnifiedMemory memory_{soc_};
  metal::Device device_{soc_, memory_};
  metal::CommandQueuePtr queue_ = device_.new_command_queue();

  metal::BufferPtr make_buffer(std::size_t floats) {
    return device_.new_buffer(floats * sizeof(float), mem::StorageMode::kShared);
  }

  void run_stream(const std::string& kernel, metal::Buffer* a, metal::Buffer* b,
                  metal::Buffer* c, std::uint32_t n, float scalar) {
    auto pipeline =
        device_.new_compute_pipeline_state(default_library(), kernel);
    auto cmd = queue_->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->set_buffer(a, 0, 0);
    enc->set_buffer(b, 0, 1);
    enc->set_buffer(c, 0, 2);
    enc->set_value<std::uint32_t>(n, 3);
    enc->set_value<float>(scalar, 4);
    enc->dispatch_threads({n, 1, 1}, {256, 1, 1});
    enc->end_encoding();
    cmd->commit();
    cmd->wait_until_completed();
  }

  /// Runs one of the GEMM shaders functionally and returns C.
  /// `group` is the naive shader's threadgroup shape.
  std::vector<float> run_gemm(const std::string& kernel, std::uint32_t n,
                              const std::vector<float>& a,
                              const std::vector<float>& b,
                              metal::UInt3 group = {8, 8, 1}) {
    auto buf_a = make_buffer(n * n);
    auto buf_b = make_buffer(n * n);
    auto buf_c = make_buffer(n * n);
    std::copy(a.begin(), a.end(), static_cast<float*>(buf_a->contents()));
    std::copy(b.begin(), b.end(), static_cast<float*>(buf_b->contents()));

    auto pipeline =
        device_.new_compute_pipeline_state(default_library(), kernel);
    auto cmd = queue_->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->set_buffer(buf_a.get(), 0, 0);
    enc->set_buffer(buf_b.get(), 0, 1);
    enc->set_buffer(buf_c.get(), 0, 2);
    enc->set_value<std::uint32_t>(n, 3);
    if (kernel == "gemm_tiled") {
      enc->set_threadgroup_memory_length(kGemmTiledScratchBytes);
      const auto groups = (n + kGemmTile - 1) / kGemmTile;
      enc->dispatch_threadgroups({groups, groups, 1},
                                 {kGemmGroupEdge, kGemmGroupEdge, 1});
    } else {
      enc->dispatch_threads({n, n, 1}, group);
    }
    enc->end_encoding();
    cmd->commit();
    cmd->wait_until_completed();

    const auto* out = static_cast<const float*>(buf_c->contents());
    return {out, out + n * n};
  }

  static bool bitwise_equal(const std::vector<float>& x,
                            const std::vector<float>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
  }

  void check_gemm_against_reference(const std::string& kernel,
                                    std::uint32_t n) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    util::fill_uniform(std::span<float>(a), 11);
    util::fill_uniform(std::span<float>(b), 22);
    const auto got = run_gemm(kernel, n, a, b);
    std::vector<float> expected(n * n);
    accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), n,
                                 b.data(), n, 0.0f, expected.data(), n);
    const float err = accelerate::reference::max_abs_diff(
        expected.data(), got.data(), n, n, n);
    EXPECT_LE(err, accelerate::reference::gemm_tolerance(n))
        << kernel << " n=" << n;
  }
};

// --------------------------------------------------------- library ---------

TEST_F(ShaderTest, DefaultLibraryContainsAllKernels) {
  const auto& lib = default_library();
  EXPECT_EQ(lib.size(), 6u);
  for (const auto& name : {"stream_copy", "stream_scale", "stream_add",
                           "stream_triad", "gemm_naive", "gemm_tiled"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
  }
}

TEST_F(ShaderTest, KernelNameHelpers) {
  EXPECT_EQ(stream_kernel_name(soc::StreamKernel::kCopy), "stream_copy");
  EXPECT_EQ(stream_kernel_name(soc::StreamKernel::kTriad), "stream_triad");
}

// ----------------------------------------------------- STREAM kernels ------

TEST_F(ShaderTest, CopyKernel) {
  const std::uint32_t n = 5000;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pa = static_cast<float*>(a->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    pa[i] = static_cast<float>(i) * 0.5f;
  }
  run_stream("stream_copy", a.get(), b.get(), c.get(), n, 0.0f);
  const auto* pc = static_cast<const float*>(c->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pc[i], static_cast<float>(i) * 0.5f);
  }
}

TEST_F(ShaderTest, ScaleKernel) {
  const std::uint32_t n = 4096;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pc = static_cast<float*>(c->contents());
  std::fill(pc, pc + n, 2.0f);
  run_stream("stream_scale", a.get(), b.get(), c.get(), n, 3.0f);
  const auto* pb = static_cast<const float*>(b->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pb[i], 6.0f);
  }
}

TEST_F(ShaderTest, AddKernel) {
  const std::uint32_t n = 3000;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pa = static_cast<float*>(a->contents());
  auto* pb = static_cast<float*>(b->contents());
  std::fill(pa, pa + n, 1.5f);
  std::fill(pb, pb + n, 2.5f);
  run_stream("stream_add", a.get(), b.get(), c.get(), n, 0.0f);
  const auto* pc = static_cast<const float*>(c->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pc[i], 4.0f);
  }
}

TEST_F(ShaderTest, TriadKernel) {
  const std::uint32_t n = 2048;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pb = static_cast<float*>(b->contents());
  auto* pc = static_cast<float*>(c->contents());
  std::fill(pb, pb + n, 2.0f);
  std::fill(pc, pc + n, 4.0f);
  run_stream("stream_triad", a.get(), b.get(), c.get(), n, 3.0f);
  const auto* pa = static_cast<const float*>(a->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pa[i], 14.0f);  // 2 + 3*4
  }
}

TEST_F(ShaderTest, StreamEstimatorUsesStreamTiming) {
  // A STREAM dispatch must charge the calibrated bandwidth, not the generic
  // roofline: 3 arrays * n * 4 B at the M3 GPU-Add anchor (90 GB/s).
  const std::uint32_t n = 1u << 20;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  const auto t0 = soc_.clock().now();
  run_stream("stream_add", a.get(), b.get(), c.get(), n, 0.0f);
  const auto dt = static_cast<double>(soc_.clock().now() - t0);
  const double bytes = 3.0 * n * sizeof(float);
  const double expected_ns =
      bytes / 90.0 + soc_.calib().stream.gpu_launch_overhead_ns;
  EXPECT_NEAR(dt, expected_ns, expected_ns * 0.01);
}

// ------------------------------------------------------- GEMM kernels ------

TEST_F(ShaderTest, NaiveGemmMatchesReferencePowerOfTwo) {
  check_gemm_against_reference("gemm_naive", 64);
  check_gemm_against_reference("gemm_naive", 128);
}

TEST_F(ShaderTest, NaiveGemmHandlesRaggedSizes) {
  // Not a multiple of the 8x8 threadgroup: bounds checks must hold.
  check_gemm_against_reference("gemm_naive", 33);
  check_gemm_against_reference("gemm_naive", 100);
}

TEST_F(ShaderTest, TiledGemmMatchesReferenceTileMultiples) {
  check_gemm_against_reference("gemm_tiled", 32);
  check_gemm_against_reference("gemm_tiled", 64);
  check_gemm_against_reference("gemm_tiled", 128);
}

TEST_F(ShaderTest, TiledGemmHandlesRaggedSizes) {
  // Partial edge tiles: 100 = 3*32 + 4; 48 = 32 + 16.
  check_gemm_against_reference("gemm_tiled", 48);
  check_gemm_against_reference("gemm_tiled", 100);
}

TEST_F(ShaderTest, TiledAndNaiveAgree) {
  const std::uint32_t n = 96;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  util::fill_uniform(std::span<float>(a), 5);
  util::fill_uniform(std::span<float>(b), 6);
  const auto naive = run_gemm("gemm_naive", n, a, b);
  const auto tiled = run_gemm("gemm_tiled", n, a, b);
  // Both sum every element from 0.0f in ascending k: bit-identical.
  EXPECT_TRUE(bitwise_equal(naive, tiled));
}

TEST_F(ShaderTest, NaiveGemmIsBitIdenticalAcrossThreadgroupShapes) {
  // The one-group-at-a-time emulation clips edge groups and never changes
  // an element's summation order, whatever the threadgroup shape.
  for (const std::uint32_t n : {37u, 100u}) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    util::fill_uniform(std::span<float>(a), 7 + n);
    util::fill_uniform(std::span<float>(b), 8 + n);
    const auto expected = run_gemm("gemm_naive", n, a, b);
    for (const metal::UInt3 group : {metal::UInt3{16, 4, 1},
                                     metal::UInt3{32, 32, 1},
                                     metal::UInt3{1, 1, 1},
                                     metal::UInt3{1024, 1, 1}}) {
      EXPECT_TRUE(bitwise_equal(run_gemm("gemm_naive", n, a, b, group),
                                expected))
          << "n=" << n << " group " << group.x << "x" << group.y;
    }
  }
}

TEST_F(ShaderTest, GemmEstimatorsReportCorrectImplClass) {
  // Charged times must follow the per-implementation anchors: the naive
  // shader is *faster* than the tiled one at the same size on M3 (450 vs
  // 270 GFLOPS peak), reproducing the paper's inversion.
  const std::uint32_t n = 128;
  std::vector<float> a(n * n, 0.0f);
  std::vector<float> b(n * n, 0.0f);

  const auto t0 = soc_.clock().now();
  run_gemm("gemm_naive", n, a, b);
  const auto naive_ns = static_cast<double>(soc_.clock().now() - t0);

  const auto t1 = soc_.clock().now();
  run_gemm("gemm_tiled", n, a, b);
  const auto tiled_ns = static_cast<double>(soc_.clock().now() - t1);

  soc::PerfModel perf(soc_);
  EXPECT_NEAR(naive_ns, perf.gemm_time_ns(soc::GemmImpl::kGpuNaive, n),
              naive_ns * 0.05);
  EXPECT_NEAR(tiled_ns, perf.gemm_time_ns(soc::GemmImpl::kGpuCutlass, n),
              tiled_ns * 0.05);
}

}  // namespace
}  // namespace ao::shaders
