//===- ByteBuffer.h - Little-endian append-only byte buffer ----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only byte buffer used by the structural-hash and heap-path
/// identity strategies to encode objects before hashing (Alg. 2/3), by the
/// snapshot's escape-analysis keys, and by the image file writer. All
/// multi-byte values are encoded little-endian so hashes are stable across
/// hosts.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_SUPPORT_BYTEBUFFER_H
#define NIMG_SUPPORT_BYTEBUFFER_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nimg {

/// Stores \p V at \p Dst as sizeof(T) little-endian bytes.
template <class T> inline void storeLE(uint8_t *Dst, T V) {
  static_assert(std::is_unsigned_v<T>, "encode unsigned values");
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(Dst, &V, sizeof(T));
  } else {
    for (size_t I = 0; I < sizeof(T); ++I)
      Dst[I] = uint8_t(V >> (I * 8));
  }
}

/// Loads sizeof(T) little-endian bytes at \p Src.
template <class T> inline T loadLE(const uint8_t *Src) {
  static_assert(std::is_unsigned_v<T>, "decode unsigned values");
  T V = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&V, Src, sizeof(T));
  } else {
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= T(Src[I]) << (I * 8);
  }
  return V;
}

/// An append-only little-endian byte buffer.
class ByteBuffer {
public:
  ByteBuffer() = default;

  void appendU8(uint8_t V) { Bytes.push_back(V); }

  void appendU32(uint32_t V) { appendLE(V); }

  void appendU64(uint64_t V) { appendLE(V); }

  void appendI64(int64_t V) { appendU64(uint64_t(V)); }

  void appendF64(double V) {
    uint64_t Raw;
    std::memcpy(&Raw, &V, sizeof(Raw));
    appendU64(Raw);
  }

  /// Appends the raw characters of \p S (no length prefix).
  void appendString(std::string_view S) {
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }

  /// Appends a length-prefixed string; prefer this when concatenated
  /// encodings must stay unambiguous.
  void appendSizedString(std::string_view S) {
    appendU32(uint32_t(S.size()));
    appendString(S);
  }

  /// Appends another buffer's contents.
  void appendBuffer(const ByteBuffer &Other) {
    Bytes.insert(Bytes.end(), Other.Bytes.begin(), Other.Bytes.end());
  }

  /// Appends raw bytes (a memoized sub-encoding, e.g.).
  void appendBytes(const std::vector<uint8_t> &B) {
    Bytes.insert(Bytes.end(), B.begin(), B.end());
  }

  void reserve(size_t N) { Bytes.reserve(N); }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  /// Moves the contents out, leaving the buffer empty.
  std::vector<uint8_t> take() {
    std::vector<uint8_t> Out;
    Out.swap(Bytes);
    return Out;
  }
  size_t size() const { return Bytes.size(); }
  bool empty() const { return Bytes.empty(); }
  void clear() { Bytes.clear(); }

private:
  template <class T> void appendLE(T V) {
    uint8_t Raw[sizeof(T)];
    storeLE(Raw, V);
    Bytes.insert(Bytes.end(), Raw, Raw + sizeof(T));
  }

  std::vector<uint8_t> Bytes;
};

} // namespace nimg

#endif // NIMG_SUPPORT_BYTEBUFFER_H
