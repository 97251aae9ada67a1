#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ao::metal {

/// MSL-style 3-component unsigned vector (thread coordinates).
struct UInt3 {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;

  constexpr std::uint64_t volume() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
  friend constexpr bool operator==(const UInt3&, const UInt3&) = default;
};

/// MSL spelling, for kernels ported from Metal Shading Language.
using uint3 = UInt3;

/// Per-thread coordinates handed to a ThreadKernel — the attributes MSL
/// exposes as [[thread_position_in_grid]] and friends.
struct ThreadContext {
  UInt3 thread_position_in_grid;
  UInt3 thread_position_in_threadgroup;
  UInt3 threadgroup_position_in_grid;
  UInt3 threads_per_threadgroup;
  UInt3 threadgroups_per_grid;
};

/// Per-threadgroup coordinates handed to a GroupKernel.
///
/// The host-side simulator executes one threadgroup per worker task. A
/// kernel authored at threadgroup granularity sees the whole group at once:
/// it may loop over the group's threads in explicit phases, each phase
/// boundary corresponding to a threadgroup_barrier(mem_flags::mem_threadgroup)
/// in the original MSL, or compute the group's output in one pass, as the
/// GEMM shaders do.
struct GroupContext {
  UInt3 threadgroup_position_in_grid;
  UInt3 threads_per_threadgroup;
  UInt3 threadgroups_per_grid;
  /// Scratch equivalent to MSL `threadgroup` memory; sized by
  /// ComputeCommandEncoder::set_threadgroup_memory_length.
  std::span<std::byte> threadgroup_memory;

  template <typename T>
  std::span<T> threadgroup_span() const {
    return {reinterpret_cast<T*>(threadgroup_memory.data()),
            threadgroup_memory.size() / sizeof(T)};
  }
};

/// Dispatch geometry (dispatchThreadgroups:threadsPerThreadgroup:).
struct DispatchShape {
  UInt3 threadgroups_per_grid;
  UInt3 threads_per_threadgroup;

  std::uint64_t total_threadgroups() const {
    return threadgroups_per_grid.volume();
  }
  std::uint64_t total_threads() const {
    return threadgroups_per_grid.volume() * threads_per_threadgroup.volume();
  }
};

}  // namespace ao::metal
