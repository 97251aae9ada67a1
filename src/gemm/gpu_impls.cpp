#include "gemm/gpu_impls.hpp"

#include "metal/compute_command_encoder.hpp"
#include "mps/mps_gemm.hpp"
#include "shaders/gemm_shaders.hpp"

namespace ao::gemm {
namespace {

/// Wraps the three page-aligned matrices in no-copy shared buffers — the
/// paper's zero-copy path ("an MTL-shared no-copy buffer is made to wrap
/// around the matrix data").
struct WrappedMatrices {
  metal::BufferPtr a;
  metal::BufferPtr b;
  metal::BufferPtr c;
};

WrappedMatrices wrap(metal::Device& device, std::size_t memory_length,
                     const float* left, const float* right, float* out) {
  WrappedMatrices w;
  // The simulated GPU reads through the host pointer; constness of the
  // inputs is preserved by the kernels (they only read slots 0 and 1).
  w.a = device.new_buffer_with_bytes_no_copy(const_cast<float*>(left),
                                             memory_length,
                                             mem::StorageMode::kShared);
  w.b = device.new_buffer_with_bytes_no_copy(const_cast<float*>(right),
                                             memory_length,
                                             mem::StorageMode::kShared);
  w.c = device.new_buffer_with_bytes_no_copy(out, memory_length,
                                             mem::StorageMode::kShared);
  return w;
}

}  // namespace

GpuNaiveGemm::GpuNaiveGemm(GemmContext& context)
    : ctx_(&context),
      pipeline_(context.device.new_compute_pipeline_state(context.shaders,
                                                          "gemm_naive")) {}

void GpuNaiveGemm::multiply(std::size_t n, std::size_t memory_length,
                            const float* left, const float* right, float* out,
                            bool functional) {
  validate_operands(n, memory_length, left, right, out);
  auto wrapped = wrap(ctx_->device, memory_length, left, right, out);

  auto cmd = ctx_->queue->command_buffer();
  auto enc = cmd->compute_command_encoder();
  enc->set_compute_pipeline_state(pipeline_);
  enc->set_buffer(wrapped.a.get(), 0, 0);
  enc->set_buffer(wrapped.b.get(), 0, 1);
  enc->set_buffer(wrapped.c.get(), 0, 2);
  enc->set_value<std::uint32_t>(static_cast<std::uint32_t>(n), 3);
  enc->set_functional_execution(functional);
  enc->dispatch_threads(
      {static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n), 1},
      {kGroupEdge, kGroupEdge, 1});
  enc->end_encoding();
  cmd->commit();
  cmd->wait_until_completed();
}

GpuTiledGemm::GpuTiledGemm(GemmContext& context)
    : ctx_(&context),
      pipeline_(context.device.new_compute_pipeline_state(context.shaders,
                                                          "gemm_tiled")) {}

void GpuTiledGemm::multiply(std::size_t n, std::size_t memory_length,
                            const float* left, const float* right, float* out,
                            bool functional) {
  validate_operands(n, memory_length, left, right, out);
  auto wrapped = wrap(ctx_->device, memory_length, left, right, out);

  const std::uint32_t tile = shaders::kGemmTile;
  const auto groups =
      static_cast<std::uint32_t>((n + tile - 1) / tile);

  auto cmd = ctx_->queue->command_buffer();
  auto enc = cmd->compute_command_encoder();
  enc->set_compute_pipeline_state(pipeline_);
  enc->set_buffer(wrapped.a.get(), 0, 0);
  enc->set_buffer(wrapped.b.get(), 0, 1);
  enc->set_buffer(wrapped.c.get(), 0, 2);
  enc->set_value<std::uint32_t>(static_cast<std::uint32_t>(n), 3);
  enc->set_threadgroup_memory_length(shaders::kGemmTiledScratchBytes);
  enc->set_functional_execution(functional);
  enc->dispatch_threadgroups(
      {groups, groups, 1},
      {shaders::kGemmGroupEdge, shaders::kGemmGroupEdge, 1});
  enc->end_encoding();
  cmd->commit();
  cmd->wait_until_completed();
}

GpuMpsGemm::GpuMpsGemm(GemmContext& context) : ctx_(&context) {}

void GpuMpsGemm::multiply(std::size_t n, std::size_t memory_length,
                          const float* left, const float* right, float* out,
                          bool functional) {
  validate_operands(n, memory_length, left, right, out);
  auto wrapped = wrap(ctx_->device, memory_length, left, right, out);

  const auto desc = mps::MatrixDescriptor::with_rows(
      n, n, n * sizeof(float), mps::DataType::kFloat32);
  mps::Matrix mat_a(wrapped.a.get(), desc);
  mps::Matrix mat_b(wrapped.b.get(), desc);
  mps::Matrix mat_c(wrapped.c.get(), desc);

  mps::MatrixMultiplication multiplication(ctx_->device, n, n, n);
  multiplication.set_functional_execution(functional);

  auto cmd = ctx_->queue->command_buffer();
  multiplication.encode_to_command_buffer(*cmd, mat_a, mat_b, mat_c);
  cmd->commit();
  cmd->wait_until_completed();
}

}  // namespace ao::gemm
