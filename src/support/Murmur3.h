//===- Murmur3.h - MurmurHash3 x64-128 hash -------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MurmurHash3 (x64, 128-bit variant) as referenced by the paper's
/// structural-hash and heap-path object-identity strategies (Sec. 5.2 and
/// 5.3). The strategies consume the low 64 bits of the 128-bit digest.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_SUPPORT_MURMUR3_H
#define NIMG_SUPPORT_MURMUR3_H

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace nimg {

/// 128-bit MurmurHash3 digest.
struct Murmur3Digest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  friend bool operator==(const Murmur3Digest &A, const Murmur3Digest &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
};

/// Computes MurmurHash3 x64-128 over \p Data with the given \p Seed.
Murmur3Digest murmurHash3x64_128(const void *Data, size_t Len,
                                 uint64_t Seed = 0);

/// Incremental MurmurHash3 x64-128: feeding a byte string through update()
/// in any split yields exactly the digest murmurHash3x64_128 computes over
/// the whole string, without ever holding more than one 16-byte block.
class Murmur3Stream {
public:
  explicit Murmur3Stream(uint64_t Seed = 0) : H1(Seed), H2(Seed) {}

  void update(const void *Data, size_t Len);
  /// Digest of everything fed so far; the stream may keep growing after.
  Murmur3Digest digest() const;

private:
  uint64_t H1;
  uint64_t H2;
  uint64_t Total = 0;
  uint8_t Pending[16] = {};
  size_t NumPending = 0;
};

/// Convenience wrapper returning the low 64 bits of the 128-bit digest,
/// which is the object-identity width used throughout Sec. 5.
inline uint64_t murmurHash3(const void *Data, size_t Len, uint64_t Seed = 0) {
  return murmurHash3x64_128(Data, Len, Seed).Lo;
}

inline uint64_t murmurHash3(std::string_view S, uint64_t Seed = 0) {
  return murmurHash3(S.data(), S.size(), Seed);
}

inline uint64_t murmurHash3(const std::vector<uint8_t> &Bytes,
                            uint64_t Seed = 0) {
  return murmurHash3(Bytes.data(), Bytes.size(), Seed);
}

} // namespace nimg

#endif // NIMG_SUPPORT_MURMUR3_H
