#pragma once

#include "metal/kernel.hpp"

namespace ao::shaders {

/// GEMM compute shaders after the open-source metal_performance_testing
/// repository the paper takes its naive and "Cutlass-style" shaders from.
/// Both compute C = A * B over row-major FP32 square matrices bound as:
///
///   slot 0: A    slot 1: B    slot 2: C    slot 3: uint32 n
///
/// Both shaders keep one summation order per C element: it starts from 0.0f
/// and adds a[row,k] * b[k,col] in ascending k. Every Table-2 path sums the
/// same way, which is what keeps their functional outputs bit-identical.
///
/// The naive shader assigns one thread per C element (row = global y,
/// col = global x) and walks the full k dimension with no data staging.
/// The host emulation runs it one threadgroup at a time: k is the outer
/// loop over the group's tile of C (clipped at the matrix edge; z ignored),
/// so each row of B's column panel is read once per group rather than once
/// per thread, with no change to any element's summation order.
metal::Kernel make_gemm_naive();

/// The Cutlass-style tiled shader stages 32 x 32 tiles of A and B through
/// threadgroup memory; an 8 x 8 threadgroup computes one C tile with each
/// thread accumulating a 4 x 4 register micro-tile. Written as a GroupKernel:
/// the explicit phase loops correspond to the MSL version's
/// threadgroup_barrier(mem_flags::mem_threadgroup) between the load and
/// multiply phases.
metal::Kernel make_gemm_tiled();

/// Tile geometry of the tiled shader (exported for dispatch-size math).
inline constexpr std::uint32_t kGemmTile = 32;          ///< C tile edge
inline constexpr std::uint32_t kGemmGroupEdge = 8;      ///< threads per edge
inline constexpr std::uint32_t kGemmMicroTile =
    kGemmTile / kGemmGroupEdge;                         ///< 4x4 per thread

/// Threadgroup memory the tiled shader needs (two staged tiles).
inline constexpr std::size_t kGemmTiledScratchBytes =
    2u * kGemmTile * kGemmTile * sizeof(float);

}  // namespace ao::shaders
