/**
 * @file
 * A small flat bitset over 64-bit words, sized at runtime.
 *
 * Used for the ComputeUnit scheduling masks (pending / occupied /
 * far wave slots, and the age order's ready and per-SIMD masks). The
 * hot operations - set, clear, test, word access and set-bit
 * iteration - are all inline and branch-light; the word array is a
 * plain vector so the mask itself is value-semantic and snapshots by
 * assignment.
 */

#ifndef PCSTALL_COMMON_BIT_MASK_HH
#define PCSTALL_COMMON_BIT_MASK_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcstall
{

/** Runtime-sized bitset with inline word-level access. */
class BitMask
{
  public:
    /** Words needed to hold @p bits bits. */
    static constexpr std::size_t
    wordsFor(std::size_t bits)
    {
        return (bits + 63) / 64;
    }

    /** Resize to @p bits bits, clearing every bit. */
    void
    resize(std::size_t bits)
    {
        bits_ = bits;
        words_.assign(wordsFor(bits), 0);
    }

    std::size_t size() const { return bits_; }
    std::size_t wordCount() const { return words_.size(); }

    void set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
    void reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }

    /** Clear every bit, keeping the size. */
    void
    clearAll()
    {
        for (std::uint64_t &w : words_)
            w = 0;
    }

    bool
    any() const
    {
        for (const std::uint64_t w : words_)
            if (w != 0)
                return true;
        return false;
    }

    std::uint64_t word(std::size_t wi) const { return words_[wi]; }
    std::uint64_t &word(std::size_t wi) { return words_[wi]; }

    /**
     * Call @p fn(index) for every set bit in ascending order. @p fn
     * may mutate this mask: each word is captured before its bits are
     * visited, so in-flight set/reset of visited words is safe.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w != 0) {
                const std::size_t i =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                fn(i);
                w &= w - 1;
            }
        }
    }

    /** Call @p fn(index) for every *clear* bit below size(), ascending. */
    template <typename Fn>
    void
    forEachClear(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = ~words_[wi];
            while (w != 0) {
                const std::size_t i =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                if (i >= bits_)
                    return;
                fn(i);
                w &= w - 1;
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;
    std::size_t bits_ = 0;
};

} // namespace pcstall

#endif // PCSTALL_COMMON_BIT_MASK_HH
