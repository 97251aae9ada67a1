#include "amx/amx_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "amx/amx_unit.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ao::amx {
namespace {

constexpr std::size_t kTile = AmxUnit::kLanesF32;  // 16

/// Packs rows [i0, i0+mi) of A as a k x 16 panel, panel[kk * 16 + ii] =
/// a[i0+ii][kk], zero past row mi: each k's Y operand is then one
/// contiguous 64-byte load instead of a 16-row strided gather.
void pack_a_panel(const float* a, std::size_t lda, std::size_t i0,
                  std::size_t mi, std::size_t k, float* panel) {
  if (mi < kTile) {
    std::fill_n(panel, k * kTile, 0.0f);
  }
  for (std::size_t ii = 0; ii < mi; ++ii) {
    const float* a_row = a + (i0 + ii) * lda;
    for (std::size_t kk = 0; kk < k; ++kk) {
      panel[kk * kTile + ii] = a_row[kk];
    }
  }
}

/// Computes one 16 x 16 C tile (rows [i0, i0+mi), cols [j0, j0+nj)) on
/// `unit`, reading Y from the tile row's packed A panel.
void compute_tile(AmxUnit& unit, const float* panel, std::size_t i0,
                  std::size_t j0, std::size_t mi, std::size_t nj,
                  std::size_t k, float alpha, const float* b, std::size_t ldb,
                  float beta, float* c, std::size_t ldc) {
  unit.zero_z();

  // Lanes past nj stay zero; only a ragged edge tile goes through the copy.
  alignas(64) float x_buf[kTile] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    // X register <- B row segment (b[kk][j0 .. j0+nj)).
    const float* b_row = b + kk * ldb + j0;
    if (nj == kTile) {
      unit.ldx(0, b_row);
    } else {
      std::memcpy(x_buf, b_row, nj * sizeof(float));
      unit.ldx(0, x_buf);
    }
    // Y register <- A column segment (a[i0 .. i0+16)[kk]), packed.
    unit.ldy(0, panel + kk * kTile);
    // z[j][i] += x[i] * y[j]  =>  z[row=ii][col=jj] += B[kk][j0+jj]*A[i0+ii][kk]
    unit.fma32(0, 0, /*z_offset=*/0, /*accumulate=*/true);
  }

  // Drain Z rows into C with alpha/beta.
  alignas(64) float z_buf[kTile];
  for (std::size_t ii = 0; ii < mi; ++ii) {
    unit.stz(ii * 4, z_buf);  // fp32 rows live at interleave 4
    float* c_row = c + (i0 + ii) * ldc + j0;
    for (std::size_t jj = 0; jj < nj; ++jj) {
      const float updated = alpha * z_buf[jj];
      c_row[jj] = beta == 0.0f ? updated : beta * c_row[jj] + updated;
    }
  }
}

}  // namespace

void amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float beta, float* c, std::size_t ldc, int threads) {
  AO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "amx_sgemm operands must not be null");
  AO_REQUIRE(lda >= k && ldb >= n && ldc >= n,
             "leading dimensions too small for row-major operands");
  if (m == 0 || n == 0) {
    return;
  }
  if (k == 0 || alpha == 0.0f) {
    // Degenerate: C = beta * C.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        c[i * ldc + j] *= beta;
      }
    }
    return;
  }

  const std::size_t tile_rows = (m + kTile - 1) / kTile;
  const std::size_t tile_cols = (n + kTile - 1) / kTile;

  // One tile row: pack its A panel once, then walk its tiles left to right.
  auto run_tile_row = [&](AmxUnit& unit, std::vector<float>& panel,
                          std::size_t ti) {
    const std::size_t i0 = ti * kTile;
    const std::size_t mi = std::min(kTile, m - i0);
    panel.resize(k * kTile);
    pack_a_panel(a, lda, i0, mi, k, panel.data());
    for (std::size_t tj = 0; tj < tile_cols; ++tj) {
      const std::size_t j0 = tj * kTile;
      const std::size_t nj = std::min(kTile, n - j0);
      compute_tile(unit, panel.data(), i0, j0, mi, nj, k, alpha, b, ldb, beta,
                   c, ldc);
    }
  };

  if (threads == 1 || tile_rows == 1) {
    AmxUnit unit;
    unit.set();
    std::vector<float> panel;
    for (std::size_t ti = 0; ti < tile_rows; ++ti) {
      run_tile_row(unit, panel, ti);
    }
    unit.clr();
    return;
  }

  // One AMX unit per worker thread (each core drives its own coprocessor
  // port). thread_local keeps the unit and its panel alive across tasks on
  // one worker.
  util::global_pool().parallel_for(tile_rows, [&](std::size_t ti) {
    thread_local AmxUnit unit;
    thread_local std::vector<float> panel;
    if (!unit.enabled()) {
      unit.set();
    }
    run_tile_row(unit, panel, ti);
  });
}

}  // namespace ao::amx
