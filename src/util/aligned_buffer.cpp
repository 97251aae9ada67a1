#include "util/aligned_buffer.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ao::util {

AlignedBuffer::AlignedBuffer(std::size_t length, std::size_t alignment)
    : length_(length), alignment_(alignment) {
  AO_REQUIRE(length > 0, "AlignedBuffer length must be positive");
  AO_REQUIRE(alignment > 0 && (alignment & (alignment - 1)) == 0,
             "AlignedBuffer alignment must be a power of two");
  capacity_ = round_up(length, alignment);
  data_ = std::aligned_alloc(alignment, capacity_);
  if (data_ == nullptr) {
    throw std::bad_alloc();
  }
  std::memset(data_, 0, capacity_);
}

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      length_(std::exchange(other.length_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      alignment_(std::exchange(other.alignment_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    length_ = std::exchange(other.length_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    alignment_ = std::exchange(other.alignment_, 0);
  }
  return *this;
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

std::size_t AlignedBuffer::round_up(std::size_t length, std::size_t alignment) {
  const std::size_t rem = length % alignment;
  return rem == 0 ? length : length + (alignment - rem);
}

bool AlignedBuffer::is_aligned(const void* ptr, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(ptr) % alignment == 0;
}

std::size_t matrix_bytes(std::size_t n, std::size_t element_bytes) {
  std::size_t elements = 0;
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(n, n, &elements) ||
      __builtin_mul_overflow(elements, element_bytes, &bytes)) {
    throw InvalidArgument("matrix byte size overflows: " + std::to_string(n) +
                          " x " + std::to_string(n) + " x " +
                          std::to_string(element_bytes) + " bytes");
  }
  return bytes;
}

}  // namespace ao::util
