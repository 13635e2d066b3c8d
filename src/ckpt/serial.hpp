// Binary checkpoint serialization primitives (DESIGN.md §8).
//
// Header-only so every library layer (common, noc, faults, core) can
// implement its checkpoint walks against CkptWriter/CkptReader without
// linking the dozz_ckpt file layer: the writer fills an in-memory byte
// buffer, the reader walks one, and the file framing (magic, version, CRC)
// lives in checkpoint.{hpp,cpp}.
//
// Encoding rules:
//   * fixed-width little-endian integers (portable across hosts),
//   * doubles as the raw IEEE-754 bit pattern of the value (bit-exact
//     round trips, including infinities — RunningStat min/max start there),
//   * strings and sequences length-prefixed with a u32,
//   * 4-byte ASCII section tags guarding structural positions, so a
//     corrupted or truncated stream fails with a typed, offset-naming
//     CheckpointError instead of silently misparsing.
//
// One walk per record: the writer and the reader share one field
// vocabulary, so each record's layout is written once, as a function
// template over the direction `Io` that both save and restore run. Each
// call writes a field from a const& or reads it into a &:
//   io.u64(x), io.f64(x), ...    one field of the named width
//   io.tag("NET0")               a section tag, emitted or expected
//   io.check(v, "... mismatch")  a guard: written, or read and compared
//   io.seq(container, walk)      a u32 count, then each element's walk
// Work that only a restore does (range checks on the file, rebuilding
// derived state, handing snapshots back) sits in
// `if constexpr (Io::kLoading)` blocks of the walk.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/error.hpp"

namespace dozz {

/// Thrown when a checkpoint or manifest stream is malformed: truncated,
/// bit-flipped (CRC mismatch, bad tag), or from an incompatible version /
/// configuration. Derives InputError so callers hardened against bad
/// external input (tests/test_error_paths.cpp contract) catch it too.
class CheckpointError : public InputError {
 public:
  using InputError::InputError;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
/// Guards the checkpoint payload against torn writes and bit rot.
inline std::uint32_t ckpt_crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// Serializes simulation state into a growable byte buffer.
class CkptWriter {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { raw_le(v); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i32(std::int32_t v) { raw_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    raw_le(bits);
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Emits a 4-character ASCII section tag.
  void tag(const char* t) {
    bytes_.insert(bytes_.end(), t, t + 4);
  }

  /// Writes a guard value: the reader fails with `what` unless it reads
  /// back the value of its own configuration.
  void check(bool v, const char*) { boolean(v); }
  void check(std::uint8_t v, const char*) { u8(v); }
  void check(std::int32_t v, const char*) { i32(v); }
  void check(std::uint32_t v, const char*) { u32(v); }
  void check(std::uint64_t v, const char*) { u64(v); }
  void check(const std::string& v, const char*) { str(v); }

  /// Writes the element count of `s` as a u32, then runs `walk` on each
  /// element in order.
  template <typename Seq, typename Walk>
  void seq(const Seq& s, Walk&& walk) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const auto& e : s) walk(e);
  }

  const std::vector<unsigned char>& bytes() const { return bytes_; }

 private:
  template <typename T>
  void raw_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes_.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
  }

  std::vector<unsigned char> bytes_;
};

/// Walks a serialized byte buffer; every failure names the source (file
/// path or "<memory>") and the byte offset where parsing stopped.
class CkptReader {
 public:
  CkptReader(const unsigned char* data, std::size_t size, std::string source)
      : data_(data), size_(size), source_(std::move(source)) {}

  static constexpr bool kLoading = true;

  void u8(std::uint8_t& v) { v = take<std::uint8_t>(); }
  void u16(std::uint16_t& v) { v = take<std::uint16_t>(); }
  void u32(std::uint32_t& v) { v = take<std::uint32_t>(); }
  void u64(std::uint64_t& v) { v = take<std::uint64_t>(); }
  void i32(std::int32_t& v) {
    v = static_cast<std::int32_t>(take<std::uint32_t>());
  }
  void i64(std::int64_t& v) {
    v = static_cast<std::int64_t>(take<std::uint64_t>());
  }
  void boolean(bool& v) { v = take<std::uint8_t>() != 0; }

  void f64(double& v) {
    const std::uint64_t bits = take<std::uint64_t>();
    std::memcpy(&v, &bits, sizeof v);
  }

  void str(std::string& s) {
    const std::uint32_t n = take<std::uint32_t>();
    require(n, "string body");
    s.assign(reinterpret_cast<const char*>(data_ + offset_), n);
    offset_ += n;
  }

  /// Consumes a 4-byte section tag and fails unless it matches `expected`.
  void tag(const char* expected) {
    require(4, "section tag");
    if (std::memcmp(data_ + offset_, expected, 4) != 0) {
      fail(std::string("expected section '") + expected + "', found '" +
           std::string(reinterpret_cast<const char*>(data_ + offset_), 4) +
           "'");
    }
    offset_ += 4;
  }

  /// Reads a guard value and fails with `what` unless it equals `v`.
  void check(bool v, const char* what) {
    guard(&CkptReader::boolean, v, what);
  }
  void check(std::uint8_t v, const char* what) {
    guard(&CkptReader::u8, v, what);
  }
  void check(std::int32_t v, const char* what) {
    guard(&CkptReader::i32, v, what);
  }
  void check(std::uint32_t v, const char* what) {
    guard(&CkptReader::u32, v, what);
  }
  void check(std::uint64_t v, const char* what) {
    guard(&CkptReader::u64, v, what);
  }
  /// A string guard's failure names both strings.
  void check(const std::string& v, const char* what) {
    std::string got;
    str(got);
    if (got != v)
      fail(std::string(what) + ": checkpoint has '" + got +
           "', network has '" + v + "'");
  }

  /// Reads a u32 element count, then replaces the contents of `s` with
  /// that many elements, each value-initialized, filled by `walk` and
  /// appended. Nothing is reserved up front: a corrupt count fails on the
  /// first missing element instead of allocating for it.
  template <typename Seq, typename Walk>
  void seq(Seq& s, Walk&& walk) {
    const std::uint32_t n = take<std::uint32_t>();
    s.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::remove_cvref_t<decltype(*s.begin())> e{};
      walk(e);
      s.push_back(std::move(e));
    }
  }

  std::size_t offset() const { return offset_; }
  bool at_end() const { return offset_ == size_; }
  const std::string& source() const { return source_; }

  /// Fails unless the whole stream has been consumed (a short parse means
  /// the stream and the loader disagree about the layout).
  void expect_end() {
    if (!at_end())
      fail("trailing bytes after checkpoint payload (" +
           std::to_string(size_ - offset_) + " unread)");
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw CheckpointError("checkpoint " + source_ + ": " + msg +
                          " at byte offset " + std::to_string(offset_));
  }

 private:
  void require(std::size_t n, const char* what) {
    if (size_ - offset_ < n)
      fail(std::string("truncated: wanted ") + std::to_string(n) +
           " bytes for " + what + ", have " + std::to_string(size_ - offset_));
  }

  template <typename T>
  void guard(void (CkptReader::*read)(T&), T want, const char* what) {
    T got{};
    (this->*read)(got);
    if (got != want) fail(what);
  }

  template <typename T>
  T take() {
    require(sizeof(T), "scalar");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<std::uint64_t>(data_[offset_ + i])
                              << (8 * i)));
    offset_ += sizeof(T);
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string source_;
};

}  // namespace dozz
