// Word-at-a-time MSB-first bit packing for the AVX2 kernel tier.
//
// The generic BitWriter/BitReader in common/bytes.h insert one byte
// fragment per iteration; these helpers keep a 64-bit accumulator and emit
// whole bytes, which is what makes the odd mantissa widths (9/12/14) fast
// without per-width shuffle tables. Layout is identical to BitWriter:
// values MSB-first, two's-complement truncated to `width` bits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rb::iqk {

namespace detail {
/// Width-9 fast path: the BFP default width, so the hottest by far. A
/// group of 8 values is exactly 72 bits = 9 bytes, so the whole group is
/// assembled with independent shifts into one 64-bit word plus one tail
/// byte - no accumulator loop, no carried state between groups.
inline void pack_words9(const std::int16_t* v, std::size_t n,
                        std::uint8_t* out) {
  for (std::size_t k = 0; k + 8 <= n; k += 8, out += 9) {
    const std::uint64_t v0 = std::uint16_t(v[k + 0]) & 0x1ffu;
    const std::uint64_t v1 = std::uint16_t(v[k + 1]) & 0x1ffu;
    const std::uint64_t v2 = std::uint16_t(v[k + 2]) & 0x1ffu;
    const std::uint64_t v3 = std::uint16_t(v[k + 3]) & 0x1ffu;
    const std::uint64_t v4 = std::uint16_t(v[k + 4]) & 0x1ffu;
    const std::uint64_t v5 = std::uint16_t(v[k + 5]) & 0x1ffu;
    const std::uint64_t v6 = std::uint16_t(v[k + 6]) & 0x1ffu;
    const std::uint64_t v7 = std::uint16_t(v[k + 7]) & 0x1ffu;
    const std::uint64_t hi = (v0 << 55) | (v1 << 46) | (v2 << 37) |
                             (v3 << 28) | (v4 << 19) | (v5 << 10) |
                             (v6 << 1) | (v7 >> 8);
    out[0] = std::uint8_t(hi >> 56);
    out[1] = std::uint8_t(hi >> 48);
    out[2] = std::uint8_t(hi >> 40);
    out[3] = std::uint8_t(hi >> 32);
    out[4] = std::uint8_t(hi >> 24);
    out[5] = std::uint8_t(hi >> 16);
    out[6] = std::uint8_t(hi >> 8);
    out[7] = std::uint8_t(hi);
    out[8] = std::uint8_t(v7);
  }
}

inline void unpack_words9(const std::uint8_t* in, std::size_t n,
                          std::int16_t* v) {
  const auto sext9 = [](std::uint32_t raw) {
    return std::int16_t(std::uint16_t((raw ^ 0x100u) - 0x100u));
  };
  for (std::size_t k = 0; k + 8 <= n; k += 8, in += 9) {
    const std::uint64_t hi =
        (std::uint64_t(in[0]) << 56) | (std::uint64_t(in[1]) << 48) |
        (std::uint64_t(in[2]) << 40) | (std::uint64_t(in[3]) << 32) |
        (std::uint64_t(in[4]) << 24) | (std::uint64_t(in[5]) << 16) |
        (std::uint64_t(in[6]) << 8) | std::uint64_t(in[7]);
    v[k + 0] = sext9(std::uint32_t(hi >> 55) & 0x1ffu);
    v[k + 1] = sext9(std::uint32_t(hi >> 46) & 0x1ffu);
    v[k + 2] = sext9(std::uint32_t(hi >> 37) & 0x1ffu);
    v[k + 3] = sext9(std::uint32_t(hi >> 28) & 0x1ffu);
    v[k + 4] = sext9(std::uint32_t(hi >> 19) & 0x1ffu);
    v[k + 5] = sext9(std::uint32_t(hi >> 10) & 0x1ffu);
    v[k + 6] = sext9(std::uint32_t(hi >> 1) & 0x1ffu);
    v[k + 7] = sext9((std::uint32_t(hi & 1u) << 8) | in[8]);
  }
}
}  // namespace detail

/// Bytes covering n_values packed `width`-bit fields (final byte padded
/// with zero bits, as BitWriter leaves them in a pre-zeroed buffer).
inline std::size_t packed_bytes(std::size_t n_values, int width) {
  return (n_values * std::size_t(width) + 7) / 8;
}

/// Pack n int16 values at `width` bits each, MSB-first. Writes
/// packed_bytes(n, width) bytes. Values are truncated to their low
/// `width` bits (two's complement), matching BitWriter::put.
///
/// The accumulator drains 32 bits at a time: a big-endian dword store is
/// byte-for-byte the MSB-first stream, and the explicit shift sequence
/// below compiles to a single bswap+store. With width <= 16 the
/// accumulator holds at most 47 valid bits before a drain, so it never
/// overflows 64.
inline void pack_words(const std::int16_t* v, std::size_t n, int width,
                       std::uint8_t* out) {
  if (width == 9) {
    const std::size_t full = n & ~std::size_t(7);
    detail::pack_words9(v, full, out);
    if (full == n) return;
    // Groups are 72 bits = 9 whole bytes, so the tail starts byte-aligned.
    v += full;
    n -= full;
    out += full / 8 * 9;
  }
  const std::uint32_t mask =
      width >= 32 ? ~0u : ((1u << unsigned(width)) - 1u);
  std::uint64_t acc = 0;
  unsigned bits = 0;
  for (std::size_t k = 0; k < n; ++k) {
    acc = (acc << unsigned(width)) |
          (std::uint32_t(std::uint16_t(v[k])) & mask);
    bits += unsigned(width);
    if (bits >= 32) {
      bits -= 32;
      const std::uint32_t w32 = std::uint32_t(acc >> bits);
      out[0] = std::uint8_t(w32 >> 24);
      out[1] = std::uint8_t(w32 >> 16);
      out[2] = std::uint8_t(w32 >> 8);
      out[3] = std::uint8_t(w32);
      out += 4;
    }
  }
  while (bits >= 8) {
    bits -= 8;
    *out++ = std::uint8_t(acc >> bits);
  }
  if (bits > 0) *out = std::uint8_t(acc << (8 - bits));
}

/// Unpack n `width`-bit fields MSB-first into sign-extended int16 values.
/// Reads packed_bytes(n, width) bytes. Width 2..16.
///
/// Refills pull a big-endian dword while at least 4 input bytes remain
/// (the span is exactly packed_bytes(n, width) long, so the tail falls
/// back to byte loads rather than over-reading). Before a refill
/// bits < width <= 16, so acc << 32 keeps at most 47 valid bits.
inline void unpack_words(const std::uint8_t* in, std::size_t n, int width,
                         std::int16_t* v) {
  if (width == 9) {
    const std::size_t full = n & ~std::size_t(7);
    detail::unpack_words9(in, full, v);
    if (full == n) return;
    in += full / 8 * 9;
    v += full;
    n -= full;
  }
  const std::uint32_t mask = (width >= 32) ? ~0u : ((1u << unsigned(width)) - 1u);
  const std::uint32_t sign = 1u << unsigned(width - 1);
  const std::uint8_t* const end = in + packed_bytes(n, width);
  std::uint64_t acc = 0;
  unsigned bits = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (bits < unsigned(width)) {
      if (end - in >= 4) {
        acc = (acc << 32) | (std::uint32_t(in[0]) << 24) |
              (std::uint32_t(in[1]) << 16) | (std::uint32_t(in[2]) << 8) |
              std::uint32_t(in[3]);
        in += 4;
        bits += 32;
      } else {
        do {
          acc = (acc << 8) | *in++;
          bits += 8;
        } while (bits < unsigned(width));
      }
    }
    bits -= unsigned(width);
    const std::uint32_t raw = std::uint32_t(acc >> bits) & mask;
    // Sign-extend from `width` bits without UB on the high bit.
    v[k] = std::int16_t(std::uint16_t((raw ^ sign) - sign));
  }
}

}  // namespace rb::iqk
