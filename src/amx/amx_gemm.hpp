#pragma once

#include <cstddef>

namespace ao::amx {

/// Tiled FP32 GEMM executed through the AMX instruction emulator — the
/// engine underneath ao::accelerate's BLAS/vDSP (Section 2.1: "BLAS routines
/// within Accelerate ... utilizing the AMX units").
///
/// Computes C = alpha * A * B + beta * C over row-major matrices with leading
/// dimensions lda/ldb/ldc. Internally:
///   1. walks 16-row tile rows of C; each packs its A rows once into a
///      k x 16 panel (zero past the matrix edge), so the A column segment
///      a[i0..i0+16)[k] is one contiguous Y load;
///   2. for each 16 x 16 tile in the row and each k, loads the B row segment
///      b[k][j0..j0+16) into X (straight from B for a full tile, through a
///      zero-padded copy at the right edge) and the panel's column segment
///      into Y, then accumulates the outer product in Z via fma32; every
///      element starts at 0.0f and adds a * b in ascending k;
///   3. drains Z into C with alpha/beta;
///   4. splits the work across tile rows: `threads` == 1 (or a single tile
///      row) runs them in order on one AmxUnit; any other `threads` value,
///      0 and negatives included, runs them on the shared
///      util::global_pool() at the pool's own width, one thread_local
///      AmxUnit and panel per worker (each P-core owns AMX access in
///      flight).
void amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float beta, float* c, std::size_t ldc, int threads = 0);

}  // namespace ao::amx
