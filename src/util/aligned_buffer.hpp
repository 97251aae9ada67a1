#pragma once

#include <cstddef>
#include <span>

#include "util/units.hpp"

namespace ao::util {

/// Page-aligned, page-granular host allocation.
///
/// The paper allocates every matrix via aligned_alloc with the Apple page
/// size (16384 bytes) and rounds lengths up to the next page multiple so the
/// GPU can wrap the allocation zero-copy ("such that the GPU could bypass
/// memory copying", Section 3.2). This class reproduces those semantics as a
/// RAII owner; ao::metal::Buffer validates the same alignment rules when
/// wrapping one of these no-copy.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  /// Allocates at least `length` bytes aligned to `alignment`; the usable
  /// capacity is rounded up to a whole number of alignment units and zeroed.
  explicit AlignedBuffer(std::size_t length, std::size_t alignment = kApplePageSize);

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  ~AlignedBuffer();

  /// Requested length in bytes (before rounding).
  std::size_t length() const { return length_; }
  /// Allocated capacity in bytes (rounded up to a page multiple).
  std::size_t capacity() const { return capacity_; }
  /// Alignment in bytes.
  std::size_t alignment() const { return alignment_; }

  void* data() { return data_; }
  const void* data() const { return data_; }
  bool empty() const { return data_ == nullptr; }

  /// Typed view over the *requested* length (not the rounded capacity).
  template <typename T>
  std::span<T> as_span() {
    return {static_cast<T*>(data_), length_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as_span() const {
    return {static_cast<const T*>(data_), length_ / sizeof(T)};
  }

  /// Rounds `length` up to the next multiple of `alignment`.
  static std::size_t round_up(std::size_t length, std::size_t alignment);

  /// True if `ptr` is aligned to `alignment` bytes.
  static bool is_aligned(const void* ptr, std::size_t alignment);

 private:
  void* data_ = nullptr;
  std::size_t length_ = 0;
  std::size_t capacity_ = 0;
  std::size_t alignment_ = 0;
};

/// Bytes of an n x n matrix of `element_bytes`-sized elements. Throws
/// InvalidArgument when the product does not fit in size_t, so a hostile
/// size can never wrap to a small (or zero) allocation.
std::size_t matrix_bytes(std::size_t n, std::size_t element_bytes);

}  // namespace ao::util
