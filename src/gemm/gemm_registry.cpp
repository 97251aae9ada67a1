#include "gemm/cpu_impls.hpp"
#include "gemm/gemm_interface.hpp"
#include "gemm/gpu_impls.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"

namespace ao::gemm {

void validate_operands(std::size_t n, std::size_t memory_length,
                       const float* left, const float* right,
                       const float* out) {
  AO_REQUIRE(n > 0, "matrix size must be positive");
  AO_REQUIRE(left != nullptr && right != nullptr && out != nullptr,
             "matrix pointers must not be null");
  AO_REQUIRE(memory_length >= util::matrix_bytes(n, sizeof(float)),
             "memory_length smaller than the matrix");
}

std::unique_ptr<IGemm> create_gemm(soc::GemmImpl impl, GemmContext& context) {
  switch (impl) {
    case soc::GemmImpl::kCpuSingle:
      return std::make_unique<CpuSingleGemm>(context);
    case soc::GemmImpl::kCpuOmp:
      return std::make_unique<CpuOmpGemm>(context);
    case soc::GemmImpl::kCpuAccelerate:
      return std::make_unique<CpuAccelerateGemm>(context);
    case soc::GemmImpl::kGpuNaive:
      return std::make_unique<GpuNaiveGemm>(context);
    case soc::GemmImpl::kGpuCutlass:
      return std::make_unique<GpuTiledGemm>(context);
    case soc::GemmImpl::kGpuMps:
      return std::make_unique<GpuMpsGemm>(context);
  }
  throw util::InvalidArgument("unknown GEMM implementation");
}

std::vector<std::unique_ptr<IGemm>> create_all_gemms(GemmContext& context) {
  std::vector<std::unique_ptr<IGemm>> impls;
  impls.reserve(soc::kAllGemmImpls.size());
  for (const auto impl : soc::kAllGemmImpls) {
    impls.push_back(create_gemm(impl, context));
  }
  return impls;
}

}  // namespace ao::gemm
