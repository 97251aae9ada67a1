#pragma once

#include "gemm/gemm_interface.hpp"

namespace ao::gemm {

/// CPU-Single: the reference baseline — a naive triple nested loop in plain
/// C++ on one performance core (Table 2 row 1).
class CpuSingleGemm final : public IGemm {
 public:
  explicit CpuSingleGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuSingle; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

/// CPU-OMP: multi-threaded block multiplication with OpenMP, after the
/// open-source Block-Matrix-Multiplication-OpenMP implementation the paper
/// uses (Section 3.2, footnote 1). The host run splits C into 64-row
/// panels across the OpenMP team; each row runs CPU-Single's loop, so the
/// output is bit-identical to CPU-Single's whatever the team size.
class CpuOmpGemm final : public IGemm {
 public:
  explicit CpuOmpGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuOmp; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

/// CPU-Accelerate: cblas_sgemm from the Accelerate clone, running on the AMX
/// coprocessor emulator (Listing 1).
class CpuAccelerateGemm final : public IGemm {
 public:
  explicit CpuAccelerateGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuAccelerate; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

}  // namespace ao::gemm
