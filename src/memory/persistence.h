#ifndef PAFEAT_MEMORY_PERSISTENCE_H_
#define PAFEAT_MEMORY_PERSISTENCE_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace pafeat {

// Little-endian byte-blob primitives: the one codec for every checkpoint
// byte (DESIGN.md "Bounded memory plane" / persistence), raw host-endian
// scalars. Writers never fail; readers track a sticky ok flag so a corrupt
// blob costs one error check per parse, not one per field, and accept a
// record count only if the records fit in the bytes that remain (Fits).

class ByteWriter {
 public:
  void U8(std::uint8_t value) { Raw(&value, sizeof(value)); }
  void U32(std::uint32_t value) { Raw(&value, sizeof(value)); }
  void U64(std::uint64_t value) { Raw(&value, sizeof(value)); }
  void I32(std::int32_t value) { Raw(&value, sizeof(value)); }
  void I64(std::int64_t value) { Raw(&value, sizeof(value)); }
  void F32(float value) { Raw(&value, sizeof(value)); }
  void F64(double value) { Raw(&value, sizeof(value)); }
  void Raw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }
  // u64 element count, then the raw elements (float or double).
  template <typename T>
  void Vector(const std::vector<T>& values) {
    U64(values.size());
    Raw(values.data(), values.size() * sizeof(T));
  }

  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& blob)
      : data_(blob.data()), size_(blob.size()) {}

  std::uint8_t U8() { return Scalar<std::uint8_t>(); }
  std::uint32_t U32() { return Scalar<std::uint32_t>(); }
  std::uint64_t U64() { return Scalar<std::uint64_t>(); }
  std::int32_t I32() { return Scalar<std::int32_t>(); }
  std::int64_t I64() { return Scalar<std::int64_t>(); }
  float F32() { return Scalar<float>(); }
  double F64() { return Scalar<double>(); }
  bool Raw(void* out, std::size_t size) {
    if (!ok_ || size > size_ - pos_) {
      ok_ = false;
      return false;
    }
    if (size > 0) std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  // The length check: `count` records whose smallest encoding is
  // `min_bytes` (>= 1) each fit only if count * min_bytes <= remaining();
  // otherwise the reader goes not-ok. Returns ok().
  bool Fits(std::uint64_t count, std::size_t min_bytes) {
    if (ok_ && count > remaining() / min_bytes) ok_ = false;
    return ok_;
  }
  // Counterpart of ByteWriter::Vector; false on a count the remaining
  // bytes cannot hold.
  template <typename T>
  bool Vector(std::vector<T>* out) {
    const std::uint64_t count = U64();
    if (!Fits(count, sizeof(T))) return false;
    out->resize(count);
    return Raw(out->data(), count * sizeof(T));
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T Scalar() {
    T value{};
    Raw(&value, sizeof(value));
    return value;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pafeat

#endif  // PAFEAT_MEMORY_PERSISTENCE_H_
