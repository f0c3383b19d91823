#include "common/buffer.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "simd/simd.h"

#ifdef VFPS_SIMD_X86
#include <immintrin.h>
#endif

namespace vfps {

namespace {
// Table-driven CRC-32 (IEEE), generated once from the reflected polynomial.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
    return entries;
  }();
  return table;
}

// The scalar reference: one table lookup per byte over the raw
// (pre-inverted) CRC state.
uint32_t Crc32Bytes(uint32_t crc, const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef VFPS_SIMD_X86
// Carry-less-multiply folding over whole 16-byte blocks (Intel, "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", 2009),
// with the bit-reflected constants of the IEEE polynomial:
//   k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P  (4 x 128-bit fold)
//   k3 = x^(128+32) mod P,   k4 = x^(128-32) mod P    (1 x 128-bit fold)
//   k5 = x^64 mod P                                    (96 -> 64 bits)
//   P' = the polynomial itself, mu = floor(x^64 / P)  (Barrett, 64 -> 32)
// `n` is a positive multiple of 16; `crc` is the raw state in and out, so
// the result is exactly what Crc32Bytes() computes over the same bytes.
alignas(16) constexpr uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr uint64_t kK5[2] = {0x0163cd6124, 0};
alignas(16) constexpr uint64_t kPolyMu[2] = {0x01db710641, 0x01f7011641};

#define VFPS_CRC_TARGET __attribute__((target("avx2,pclmul")))

VFPS_CRC_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

VFPS_CRC_TARGET uint32_t Crc32Clmul(uint32_t crc, const uint8_t* data,
                                    size_t n) {
  const auto load = [](const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  const __m128i k3k4 = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  __m128i x =
      _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  if (n >= 64) {
    // Four independent 128-bit lanes, each folded 64 bytes forward per step,
    // then folded into one.
    const __m128i k1k2 =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
    __m128i x1 = load(data + 16);
    __m128i x2 = load(data + 32);
    __m128i x3 = load(data + 48);
    data += 64;
    n -= 64;
    for (; n >= 64; data += 64, n -= 64) {
      x = Fold(x, k1k2, load(data));
      x1 = Fold(x1, k1k2, load(data + 16));
      x2 = Fold(x2, k1k2, load(data + 32));
      x3 = Fold(x3, k1k2, load(data + 48));
    }
    x = Fold(x, k3k4, x1);
    x = Fold(x, k3k4, x2);
    x = Fold(x, k3k4, x3);
  } else {
    data += 16;
    n -= 16;
  }
  for (; n >= 16; data += 16, n -= 16) x = Fold(x, k3k4, load(data));

  // 128 -> 64 bits: fold the low half onto the high half with k4, then the
  // low 32 bits of the result onto the rest with k5.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  const __m128i k5 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction 64 -> 32 bits.
  const __m128i poly_mu =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kPolyMu));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef VFPS_CRC_TARGET

bool UseClmul() {
  static const bool has_pclmul = __builtin_cpu_supports("pclmul");
  return has_pclmul && simd::ActiveIsa() >= simd::Isa::kAvx2;
}
#endif  // VFPS_SIMD_X86

// Whole 16-byte blocks through the fold when dispatch allows it; the tail
// (and everything on the scalar path) through the byte loop.
uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t n) {
#ifdef VFPS_SIMD_X86
  if (n >= 16 && UseClmul()) {
    const size_t blocks = n & ~size_t{15};
    crc = Crc32Clmul(crc, data, blocks);
    data += blocks;
    n -= blocks;
  }
#endif
  return Crc32Bytes(crc, data, n);
}
}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  return Crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

void Crc32Accumulator::Update(const uint8_t* data, size_t n) {
  state_ = Crc32Update(state_, data, n);
}

Result<uint8_t> BinaryReader::ReadU8() {
  VFPS_RETURN_NOT_OK(Require(1));
  return data_[pos_++];
}

Result<uint32_t> BinaryReader::ReadU32() {
  VFPS_RETURN_NOT_OK(Require(sizeof(uint32_t)));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  VFPS_RETURN_NOT_OK(Require(sizeof(uint64_t)));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  VFPS_RETURN_NOT_OK(Require(sizeof(int64_t)));
  int64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  VFPS_RETURN_NOT_OK(Require(sizeof(double)));
  double v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<std::vector<uint8_t>> BinaryReader::ReadBytes() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n));
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(double)));
  std::vector<double> out(n);
  // n == 0 leaves out.data() null; memcpy's arguments are declared nonnull.
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return out;
}

Result<std::vector<uint64_t>> BinaryReader::ReadU64Vec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(uint64_t)));
  std::vector<uint64_t> out(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(uint64_t));
  pos_ += n * sizeof(uint64_t);
  return out;
}

Result<std::span<const uint8_t>> BinaryReader::ReadCrcFramedView() {
  VFPS_ASSIGN_OR_RETURN(uint32_t expected, ReadU32());
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n));
  const std::span<const uint8_t> payload(data_ + pos_, n);
  const uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != expected) {
    return Status::Corrupt(
        StrFormat("CRC mismatch: frame carries 0x%08X, payload hashes to 0x%08X",
                  expected, actual));
  }
  pos_ += n;
  return payload;
}

Result<std::vector<uint8_t>> BinaryReader::ReadCrcFramed() {
  VFPS_ASSIGN_OR_RETURN(auto payload, ReadCrcFramedView());
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(uint32_t)));
  std::vector<uint32_t> out(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(uint32_t));
  pos_ += n * sizeof(uint32_t);
  return out;
}

}  // namespace vfps
