#include "common/inet_csum.h"

namespace papm {

u32 inet_sum(std::span<const u8> data) noexcept {
  u64 sum = 0;
  const u8* p = data.data();
  std::size_t n = data.size();

  // Sum 16-bit big-endian words; accumulate in 64 bits, fold at the end.
  while (n >= 8) {
    sum += static_cast<u32>(p[0]) << 8 | p[1];
    sum += static_cast<u32>(p[2]) << 8 | p[3];
    sum += static_cast<u32>(p[4]) << 8 | p[5];
    sum += static_cast<u32>(p[6]) << 8 | p[7];
    p += 8;
    n -= 8;
  }
  while (n >= 2) {
    sum += static_cast<u32>(p[0]) << 8 | p[1];
    p += 2;
    n -= 2;
  }
  if (n == 1) sum += static_cast<u32>(p[0]) << 8;  // pad odd byte with zero

  while (sum >> 32) sum = (sum & 0xffffffff) + (sum >> 32);
  return static_cast<u32>(sum);
}

u16 inet_checksum(std::span<const u8> data) noexcept {
  return static_cast<u16>(~inet_fold(inet_sum(data)));
}

namespace {
// Byte-swap a folded 16-bit ones'-complement sum (odd-offset adjustment).
constexpr u16 swap16(u16 v) noexcept {
  return static_cast<u16>((v << 8) | (v >> 8));
}
}  // namespace

u16 inet_sum_at(std::span<const u8> chunk, std::size_t offset) noexcept {
  const u16 s = inet_fold(inet_sum(chunk));
  return offset % 2 != 0 ? swap16(s) : s;
}

u16 inet_csum_concat(u16 csum_a, std::size_t len_a, u16 csum_b,
                     std::size_t len_b) noexcept {
  (void)len_b;
  // Work on the (non-inverted) sums.
  u32 sum_a = static_cast<u16>(~csum_a);
  u32 sum_b = static_cast<u16>(~csum_b);
  if (len_a % 2 != 0) {
    // Odd boundary: bytes of block B land at swapped positions.
    sum_b = static_cast<u32>(((sum_b & 0xff) << 8) | (sum_b >> 8));
  }
  return static_cast<u16>(~inet_fold(sum_a + sum_b));
}

u16 inet_csum_update(u16 old_csum, u16 old_word, u16 new_word) noexcept {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
  u32 sum = static_cast<u16>(~old_csum);
  sum += static_cast<u16>(~old_word);
  sum += new_word;
  return static_cast<u16>(~inet_fold(sum));
}

u16 inet_csum_slice(std::span<const u8> full, u16 full_csum, std::size_t a,
                    std::size_t b) noexcept {
  // total = prefix +' shift_a(slice) +' shift_b(suffix), where shift_k
  // swaps bytes when offset k is odd. Solve for slice.
  const u16 total = inet_fold(static_cast<u16>(~full_csum));
  const u16 prefix = inet_sum_at(full.first(a), 0);
  const u16 suffix = inet_sum_at(full.subspan(b), b);
  // slice_shifted = total -' prefix -' suffix
  u32 s = total;
  s += static_cast<u16>(~prefix);
  s += static_cast<u16>(~suffix);
  u16 slice = inet_fold(s);
  if (a % 2 != 0) slice = swap16(slice);
  const u16 csum = static_cast<u16>(~slice);
  return csum == 0 ? 0xffff : csum;  // normalize negative zero
}

}  // namespace papm
