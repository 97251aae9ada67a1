#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "amx/amx_gemm.hpp"
#include "amx/amx_unit.hpp"
#include "amx/float16.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao::amx {
namespace {

// ------------------------------------------------------------ float16 ------

TEST(Float16, ExactValuesRoundTrip) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Float16, RoundingErrorBounded) {
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.next_float();  // [0, 1)
    const float rt = half_to_float(float_to_half(v));
    // FP16 has 11 significand bits: relative error < 2^-11.
    EXPECT_NEAR(rt, v, std::max(std::fabs(v), 1e-4f) * 0x1.0p-10f);
  }
}

TEST(Float16, OverflowToInfinity) {
  const Half h = float_to_half(100000.0f);  // > 65504 (fp16 max)
  EXPECT_TRUE(std::isinf(half_to_float(h)));
  EXPECT_GT(half_to_float(h), 0.0f);
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(-1e9f))));
  EXPECT_LT(half_to_float(float_to_half(-1e9f)), 0.0f);
}

TEST(Float16, SubnormalsPreserved) {
  const float tiny = 1e-5f;  // subnormal in fp16 (min normal ~6.1e-5)
  const float rt = half_to_float(float_to_half(tiny));
  EXPECT_GT(rt, 0.0f);
  EXPECT_NEAR(rt, tiny, 1e-6f);
}

TEST(Float16, NanPropagates) {
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(NAN))));
}

TEST(Float16, UnderflowToZero) {
  EXPECT_EQ(half_to_float(float_to_half(1e-12f)), 0.0f);
}

// ------------------------------------------------------------ AmxUnit ------

TEST(AmxUnit, RequiresSet) {
  AmxUnit unit;
  float data[16] = {};
  EXPECT_THROW(unit.ldx(0, data), util::StateError);
  EXPECT_THROW(unit.fma32(0, 0), util::StateError);
  unit.set();
  EXPECT_NO_THROW(unit.ldx(0, data));
  unit.clr();
  EXPECT_THROW(unit.ldx(0, data), util::StateError);
}

TEST(AmxUnit, RegisterGeometry) {
  EXPECT_EQ(AmxUnit::kRegBytes, 64u);
  EXPECT_EQ(AmxUnit::kXRegs, 8u);
  EXPECT_EQ(AmxUnit::kYRegs, 8u);
  EXPECT_EQ(AmxUnit::kZRows, 64u);
  EXPECT_EQ(AmxUnit::kLanesF32, 16u);
}

TEST(AmxUnit, LoadStoreRoundTrip) {
  AmxUnit unit;
  unit.set();
  alignas(64) float in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = static_cast<float>(i) * 1.5f;
  }
  unit.ldx(3, in);
  const auto x = unit.x_f32(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(x[i], in[i]);
  }
  unit.ldz(10, in);
  alignas(64) float out[16] = {};
  unit.stz(10, out);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i], in[i]);
  }
}

TEST(AmxUnit, BoundsChecked) {
  AmxUnit unit;
  unit.set();
  float data[16] = {};
  EXPECT_THROW(unit.ldx(8, data), util::InvalidArgument);
  EXPECT_THROW(unit.ldy(8, data), util::InvalidArgument);
  EXPECT_THROW(unit.ldz(64, data), util::InvalidArgument);
  EXPECT_THROW(unit.fma32(0, 0, 4), util::InvalidArgument);  // z_offset > 3
}

TEST(AmxUnit, Fma32IsOuterProduct) {
  AmxUnit unit;
  unit.set();
  alignas(64) float x[16];
  alignas(64) float y[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = static_cast<float>(i + 1);
    y[i] = static_cast<float>(2 * i + 1);
  }
  unit.ldx(0, x);
  unit.ldy(0, y);
  unit.fma32(0, 0);
  // z[j*4][i] == x[i] * y[j] (fp32 interleave-4 layout).
  for (int j = 0; j < 16; ++j) {
    const auto z = unit.z_row_f32(j * 4);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(z[i], x[i] * y[j]) << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(unit.mac_count(), 256u);
}

TEST(AmxUnit, Fma32Accumulates) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0);
  unit.fma32(0, 0);
  EXPECT_EQ(unit.z_row_f32(0)[0], 2.0f);
  // Overwrite mode resets instead.
  unit.fma32(0, 0, 0, /*accumulate=*/false);
  EXPECT_EQ(unit.z_row_f32(0)[0], 1.0f);
}

TEST(AmxUnit, ZOffsetsAreIndependentAccumulators) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0, 0);
  unit.fma32(0, 0, 1);
  unit.fma32(0, 0, 1);
  EXPECT_EQ(unit.z_row_f32(0)[0], 1.0f);  // offset 0: one product
  EXPECT_EQ(unit.z_row_f32(1)[0], 2.0f);  // offset 1: two products
}

TEST(AmxUnit, SetZeroesState) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0);
  unit.set();  // re-arm
  EXPECT_EQ(unit.z_row_f32(0)[0], 0.0f);
  EXPECT_EQ(unit.mac_count(), 0u);
}

TEST(AmxUnit, Fma32IsBitExactAtEveryOffset) {
  // Random non-integer operands in registers other than 0, Z preloaded with
  // random values: each lane of the offset's rows must equal z + x * y (or
  // x * y when overwriting) bit for bit, and every other row is untouched.
  util::Xoshiro256 rng(17);
  auto next = [&rng] { return rng.next_float() * 6.0f - 3.0f; };
  alignas(64) float x[16];
  alignas(64) float y[16];
  alignas(64) float z0[AmxUnit::kZRows][16];
  for (const bool accumulate : {true, false}) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      AmxUnit unit;
      unit.set();
      for (auto& v : x) v = next();
      for (auto& v : y) v = next();
      unit.ldx(5, x);
      unit.ldy(3, y);
      for (std::size_t row = 0; row < AmxUnit::kZRows; ++row) {
        for (auto& v : z0[row]) v = next();
        unit.ldz(row, z0[row]);
      }
      unit.fma32(5, 3, offset, accumulate);
      EXPECT_EQ(unit.mac_count(), 256u);
      for (std::size_t row = 0; row < AmxUnit::kZRows; ++row) {
        const auto z = unit.z_row_f32(row);
        for (std::size_t i = 0; i < 16; ++i) {
          float expected = z0[row][i];
          if (row % 4 == offset) {
            const float prod = x[i] * y[row / 4];
            expected = accumulate ? z0[row][i] + prod : prod;
          }
          ASSERT_EQ(std::bit_cast<std::uint32_t>(z[i]),
                    std::bit_cast<std::uint32_t>(expected))
              << "accumulate=" << accumulate << " offset=" << offset
              << " row=" << row << " lane=" << i;
        }
      }
    }
  }
}

TEST(AmxUnit, Fma16ComputesThroughHalf) {
  AmxUnit unit;
  unit.set();
  alignas(64) Half x[32];
  alignas(64) Half y[32];
  for (int i = 0; i < 32; ++i) {
    x[i] = float_to_half(1.0f);
    y[i] = float_to_half(static_cast<float>(i + 1));
  }
  unit.ldx(0, x);
  unit.ldy(0, y);
  unit.fma16(0, 0);
  // Y lane j lands alone in Z row j * 2: rows 0, 2, ..., 62 read 1..32 and
  // the offset-1 rows stay zero.
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_EQ(unit.z_row_f32(j * 2)[i], static_cast<float>(j + 1))
          << "row " << j * 2 << " lane " << i;
      ASSERT_EQ(unit.z_row_f32(j * 2 + 1)[i], 0.0f)
          << "row " << j * 2 + 1 << " lane " << i;
    }
  }
  EXPECT_EQ(unit.mac_count(), 512u);

  // Offset 1 fills the odd rows, twice when accumulating.
  unit.fma16(0, 0, 1);
  unit.fma16(0, 0, 1);
  for (std::size_t j = 0; j < 32; ++j) {
    EXPECT_EQ(unit.z_row_f32(j * 2)[0], static_cast<float>(j + 1)) << j;
    EXPECT_EQ(unit.z_row_f32(j * 2 + 1)[0], static_cast<float>(2 * (j + 1)))
        << j;
  }
  unit.fma16(0, 0, 1, /*accumulate=*/false);
  EXPECT_EQ(unit.z_row_f32(63)[15], 32.0f);
  EXPECT_THROW(unit.fma16(0, 0, 2), util::InvalidArgument);
}

// ----------------------------------------------------------- amx_sgemm -----

void check_amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
                     float beta, int threads) {
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  std::vector<float> c(m * n, 0.5f);
  std::vector<float> expected = c;
  util::fill_uniform(std::span<float>(a), 100 + m);
  util::fill_uniform(std::span<float>(b), 200 + n);

  amx_sgemm(m, n, k, alpha, a.data(), k, b.data(), n, beta, c.data(), n,
            threads);
  accelerate::reference::sgemm(false, false, m, n, k, alpha, a.data(), k,
                               b.data(), n, beta, expected.data(), n);
  EXPECT_LE(
      accelerate::reference::max_abs_diff(expected.data(), c.data(), m, n, n),
      accelerate::reference::gemm_tolerance(k))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST(AmxGemm, TileMultiples) { check_amx_sgemm(64, 64, 64, 1.0f, 0.0f, 1); }

TEST(AmxGemm, RaggedEdges) {
  check_amx_sgemm(17, 23, 31, 1.0f, 0.0f, 1);
  check_amx_sgemm(15, 16, 17, 1.0f, 0.0f, 1);
  check_amx_sgemm(1, 1, 1, 1.0f, 0.0f, 1);
}

TEST(AmxGemm, NonSquare) {
  check_amx_sgemm(96, 32, 128, 1.0f, 0.0f, 1);
  check_amx_sgemm(32, 128, 16, 1.0f, 0.0f, 1);
}

TEST(AmxGemm, AlphaBeta) {
  check_amx_sgemm(48, 48, 48, 2.5f, 1.5f, 1);
  check_amx_sgemm(48, 48, 48, 0.0f, 2.0f, 1);  // alpha=0 -> C = beta*C
}

TEST(AmxGemm, ParallelMatchesSerial) {
  const std::size_t n = 160;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  util::fill_uniform(std::span<float>(a), 1);
  util::fill_uniform(std::span<float>(b), 2);
  std::vector<float> serial(n * n, 0.0f);
  std::vector<float> parallel(n * n, 0.0f);
  amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, serial.data(), n, 1);
  amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, parallel.data(), n,
            0);
  // Tiles are independent: parallel execution must be bit-identical.
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(AmxGemm, LeadingDimensions) {
  // Operate on a 20x20 sub-matrix inside 32-wide storage.
  const std::size_t n = 20;
  const std::size_t ld = 32;
  std::vector<float> a(n * ld);
  std::vector<float> b(n * ld);
  std::vector<float> c(n * ld, 0.0f);
  std::vector<float> expected(n * ld, 0.0f);
  util::fill_uniform(std::span<float>(a), 9);
  util::fill_uniform(std::span<float>(b), 10);
  amx_sgemm(n, n, n, 1.0f, a.data(), ld, b.data(), ld, 0.0f, c.data(), ld, 1);
  accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), ld,
                               b.data(), ld, 0.0f, expected.data(), ld);
  EXPECT_LE(
      accelerate::reference::max_abs_diff(expected.data(), c.data(), n, n, ld),
      accelerate::reference::gemm_tolerance(n));
}

TEST(AmxGemm, BitExactAgainstAscendingKDotProduct) {
  // Every element starts at 0.0f and adds a[i][kk] * b[kk][j] in ascending
  // kk, serially and on the pool, ragged edges and padded leading dimensions
  // included.
  struct Shape {
    std::size_t m, n, k, ld_pad;
  };
  for (const Shape& s : {Shape{37, 23, 45, 0}, Shape{16, 16, 16, 0},
                         Shape{50, 33, 17, 3}, Shape{1, 17, 100, 0},
                         Shape{64, 48, 129, 5}}) {
    const std::size_t lda = s.k + s.ld_pad;
    const std::size_t ldb = s.n + s.ld_pad;
    const std::size_t ldc = s.n + s.ld_pad;
    std::vector<float> a(s.m * lda);
    std::vector<float> b(s.k * ldb);
    util::fill_uniform(std::span<float>(a), 300 + s.m);
    util::fill_uniform(std::span<float>(b), 400 + s.n);
    std::vector<float> expected(s.m * ldc, 0.0f);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        float sum = 0.0f;
        for (std::size_t kk = 0; kk < s.k; ++kk) {
          sum += a[i * lda + kk] * b[kk * ldb + j];
        }
        expected[i * ldc + j] = sum;
      }
    }
    for (const int threads : {1, 0}) {
      std::vector<float> c(s.m * ldc, 0.0f);
      amx_sgemm(s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
                c.data(), ldc, threads);
      ASSERT_EQ(
          std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)), 0)
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " threads=" << threads;
    }
  }
}

TEST(AmxGemm, RejectsNullAndBadLd) {
  std::vector<float> buf(16);
  EXPECT_THROW(
      amx_sgemm(4, 4, 4, 1.0f, nullptr, 4, buf.data(), 4, 0.0f, buf.data(), 4),
      util::InvalidArgument);
  EXPECT_THROW(amx_sgemm(4, 4, 8, 1.0f, buf.data(), 4 /* < k */, buf.data(), 4,
                         0.0f, buf.data(), 4),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ao::amx
