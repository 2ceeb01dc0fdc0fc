//===- support/ByteStream.h - Bounds-checked byte readers/writers -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-stream primitives under engine/Serialization.h: a growable
/// little-endian writer and a bounds-checked reader with a sticky fail
/// bit.  Fixed-width integers are written explicitly byte-by-byte (no
/// struct memcpy), so the byte format is identical across hosts and a
/// format change is always a deliberate edit here or in the serializer —
/// never an accidental ABI drift.
///
/// The reader never throws and never reads out of bounds: any over-read
/// sets `fail()` and returns zeros from then on, so deserializers can
/// decode a whole record and check `ok()` once at the end.  Length
/// prefixes are validated against the remaining bytes *before* any
/// allocation, which is what makes truncated or corrupted cache entries
/// a cheap miss instead of a bad_alloc.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SUPPORT_BYTESTREAM_H
#define SCT_SUPPORT_BYTESTREAM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sct {

/// Growable little-endian byte sink.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { fixed(V, 2); }
  void u32(uint32_t V) { fixed(V, 4); }
  void u64(uint64_t V) { fixed(V, 8); }
  void b(bool V) { u8(V ? 1 : 0); }
  /// IEEE-754 bit pattern; exact round-trip.
  void f64(double V) { u64(std::bit_cast<uint64_t>(V)); }

  /// Length-prefixed string (u64 length + raw bytes).
  void str(std::string_view S) {
    u64(S.size());
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  /// Raw bytes, no prefix.
  void bytes(std::span<const uint8_t> B) {
    Buf.insert(Buf.end(), B.begin(), B.end());
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  void fixed(uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I < Bytes; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian byte source with a sticky fail bit.
class ByteReader {
public:
  explicit ByteReader(std::span<const uint8_t> Buf) : Buf(Buf) {}

  uint8_t u8() { return static_cast<uint8_t>(fixed(1)); }
  uint16_t u16() { return static_cast<uint16_t>(fixed(2)); }
  uint32_t u32() { return static_cast<uint32_t>(fixed(4)); }
  uint64_t u64() { return fixed(8); }
  bool b() { return u8() != 0; }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    uint64_t Len = u64();
    if (!checkLen(Len))
      return {};
    std::string S(reinterpret_cast<const char *>(Buf.data() + Pos),
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  /// The next \p N raw bytes, in place; on under-run fails and returns
  /// an empty span.
  std::span<const uint8_t> view(uint64_t N) {
    if (!checkLen(N))
      return {};
    std::span<const uint8_t> V = Buf.subspan(Pos, static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return V;
  }

  /// Reads a u64 element count and validates it against the bytes left
  /// (each element needs at least \p MinElemBytes).  Returns 0 and fails
  /// on a count the buffer cannot possibly hold — the corruption guard
  /// that keeps a flipped length byte from becoming a giant resize.
  uint64_t count(size_t MinElemBytes) {
    uint64_t N = u64();
    if (MinElemBytes != 0 && N > remaining() / MinElemBytes) {
      Failed = true;
      return 0;
    }
    return N;
  }

  size_t remaining() const { return Failed ? 0 : Buf.size() - Pos; }
  bool ok() const { return !Failed; }
  /// True iff everything decoded and the buffer was consumed exactly.
  bool done() const { return !Failed && Pos == Buf.size(); }
  void fail() { Failed = true; }

private:
  uint64_t fixed(unsigned Bytes) {
    if (!checkLen(Bytes))
      return 0;
    uint64_t V = 0;
    for (unsigned I = 0; I < Bytes; ++I)
      V |= static_cast<uint64_t>(Buf[Pos + I]) << (8 * I);
    Pos += Bytes;
    return V;
  }

  bool checkLen(uint64_t Len) {
    if (Failed || Len > Buf.size() - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> Buf;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace sct

#endif // SCT_SUPPORT_BYTESTREAM_H
