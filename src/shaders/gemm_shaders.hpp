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
/// Its host emulation (see make_gemm_tiled for the shared part) stages
/// nonetheless: a group tile exactly 8 columns wide, as at the 8 x 8
/// launch, copies its B column strip into a fixed-size stack buffer a block
/// of k rows at a time and keeps each row's 8 sums in registers over the
/// block's ascending k. Other widths, ragged edges included, take the
/// shared path.
metal::Kernel make_gemm_naive();

/// The Cutlass-style tiled shader computes one 32 x 32 C tile per 8 x 8
/// threadgroup; the MSL original stages A and B tiles through threadgroup
/// memory and keeps a 4 x 4 register micro-tile per thread.
///
/// The host emulation of both shaders runs one threadgroup at a time: k is
/// the outer loop over the group's tile of C (clipped at the matrix edge),
/// so each row of B's column panel is read once per group rather than once
/// per thread, with no change to any element's summation order.
metal::Kernel make_gemm_tiled();

/// Launch geometry of the tiled shader (exported for dispatch-size math).
inline constexpr std::uint32_t kGemmTile = 32;          ///< C tile edge
inline constexpr std::uint32_t kGemmGroupEdge = 8;      ///< threads per edge

/// Threadgroup memory the MSL tiled shader declares (two staged tiles).
inline constexpr std::size_t kGemmTiledScratchBytes =
    2u * kGemmTile * kGemmTile * sizeof(float);

}  // namespace ao::shaders
