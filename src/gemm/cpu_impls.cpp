#include "gemm/cpu_impls.hpp"

#include <algorithm>

#include "accelerate/cblas.hpp"

namespace ao::gemm {
namespace {

/// Rows of C per OpenMP work item of CPU-OMP.
constexpr std::size_t kBlock = 64;

/// Computes rows [i0, i1) of C = A * B: each row starts at 0.0f and adds
/// a[i,k] * b[k,:] in ascending k over B's full width (i-k-j order). Kept
/// out of line so CPU-Single and every CPU-OMP thread run one compiled loop.
[[gnu::noinline]] void multiply_rows(std::size_t n, const float* left,
                                     const float* right, float* out,
                                     std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* c_row = out + i * n;
    std::fill(c_row, c_row + n, 0.0f);
    for (std::size_t k = 0; k < n; ++k) {
      const float a_ik = left[i * n + k];
      const float* b_row = right + k * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ik * b_row[j];
      }
    }
  }
}

/// Charges the modeled cost of one multiplication to the SoC.
void charge(GemmContext& ctx, const soc::PerfModel& perf, soc::GemmImpl impl,
            std::size_t n, soc::ComputeUnit unit) {
  ctx.soc.execute(unit, perf.gemm_time_ns(impl, n),
                  perf.gemm_power_watts(impl, n), perf.gemm_utilization(impl, n));
}

}  // namespace

CpuSingleGemm::CpuSingleGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuSingleGemm::multiply(std::size_t n, std::size_t memory_length,
                             const float* left, const float* right, float* out,
                             bool functional) {
  validate_operands(n, memory_length, left, right, out);
  if (functional) {
    // The paper's baseline: standard algorithm, triple nested loop. The
    // classic i-j-k order would stride down B's columns; i-k-j walks B by
    // rows with the same per-element summation order, so the functional run
    // does not dominate the harness while remaining a naive single-threaded
    // loop.
    multiply_rows(n, left, right, out, 0, n);
  }
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kCpuPCluster);
}

CpuOmpGemm::CpuOmpGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuOmpGemm::multiply(std::size_t n, std::size_t memory_length,
                          const float* left, const float* right, float* out,
                          bool functional) {
  validate_operands(n, memory_length, left, right, out);
  if (functional) {
    // One kBlock-row panel of C per iteration, each row over B's full width:
    // a narrower column strip of B would put its rows n floats apart, which
    // at power-of-two n alias into a few cache sets.
    const auto panels = static_cast<long long>((n + kBlock - 1) / kBlock);
#pragma omp parallel for schedule(static)
    for (long long p = 0; p < panels; ++p) {
      const std::size_t i0 = static_cast<std::size_t>(p) * kBlock;
      multiply_rows(n, left, right, out, i0, std::min(i0 + kBlock, n));
    }
  }
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kCpuPCluster);
}

CpuAccelerateGemm::CpuAccelerateGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuAccelerateGemm::multiply(std::size_t n, std::size_t memory_length,
                                 const float* left, const float* right,
                                 float* out, bool functional) {
  validate_operands(n, memory_length, left, right, out);
  if (functional) {
    // Listing 1, verbatim semantics:
    // cblas_sgemm(CblasRowMajor, NoTrans, NoTrans, n,n,n, 1, A,n, B,n, 0, C,n)
    const int ni = static_cast<int>(n);
    accelerate::cblas_sgemm(accelerate::CblasRowMajor, accelerate::CblasNoTrans,
                            accelerate::CblasNoTrans, ni, ni, ni, 1.0f, left, ni,
                            right, ni, 0.0f, out, ni);
  }
  // Accelerate's SGEMM runs on the AMX units (Section 5.2).
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kAmx);
}

}  // namespace ao::gemm
