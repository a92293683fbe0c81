/**
 * @file
 * Low-level wire encoding shared by the binary file formats (the
 * sealed containers of sealed.hh and PC snapshots): LEB128 varints
 * (zigzag for signed), little-endian IEEE-754 doubles,
 * length-prefixed strings, and a bounds-checked read cursor that
 * turns every malformed input into a sticky failure instead of
 * undefined behaviour.
 */

#ifndef PCSTALL_TRACE_WIRE_HH
#define PCSTALL_TRACE_WIRE_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace pcstall::trace
{

/** Append an unsigned LEB128 varint. */
inline void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7F) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Append a zigzag-encoded signed varint. */
inline void
putZigzag(std::string &out, std::int64_t value)
{
    const std::uint64_t u = static_cast<std::uint64_t>(value);
    putVarint(out, (u << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

/** Append a little-endian IEEE-754 double (exact round-trip). */
inline void
putDouble(std::string &out, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
}

/** Append a fixed little-endian 64-bit word (checksums). */
inline void
putFixed64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

/** Append a length-prefixed string. */
inline void
putString(std::string &out, const std::string &value)
{
    putVarint(out, value.size());
    out.append(value);
}

/** Append a boolean as one byte. */
inline void
putBool(std::string &out, bool value)
{
    out.push_back(value ? '\1' : '\0');
}

/** FNV-1a 64-bit hash, the format's corruption checksum. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= p[i];
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

inline constexpr std::uint64_t fnvSeed = 0xCBF29CE484222325ULL;

/**
 * 32-hex content digest of @p text: two chained FNV-1a passes (the
 * second seeded from the first) give 128 bits. Names the entries of
 * the content-addressed caches (trace library, results store); each
 * entry also stores its key text, which guards the residual
 * collision case.
 */
inline std::string
digest128(const std::string &text)
{
    const std::uint64_t a = fnv1a(fnvSeed, text.data(), text.size());
    const std::uint64_t b =
        fnv1a(0x9E3779B97F4A7C15ULL ^ a, text.data(), text.size());
    static constexpr char hex[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        out[15 - i] = hex[(a >> (4 * i)) & 0xF];
        out[31 - i] = hex[(b >> (4 * i)) & 0xF];
    }
    return out;
}

/**
 * Bounds-checked reader over a byte buffer. Any overrun or malformed
 * varint sets a sticky failure flag; subsequent reads return zeros, so
 * callers can decode a whole structure and check failed() once.
 */
class Cursor
{
  public:
    Cursor(const char *data, std::size_t size)
        : p(data), end(data + size)
    {}

    explicit Cursor(const std::string &buf)
        : Cursor(buf.data(), buf.size())
    {}

    bool failed() const { return fail; }
    bool atEnd() const { return p == end; }
    std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

    std::uint8_t
    u8()
    {
        if (p >= end) {
            fail = true;
            return 0;
        }
        return static_cast<std::uint8_t>(*p++);
    }

    bool getBool() { return u8() != 0; }

    std::uint64_t
    varint()
    {
        std::uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (p >= end) {
                fail = true;
                return 0;
            }
            const auto byte = static_cast<std::uint8_t>(*p++);
            value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return value;
        }
        fail = true; // > 10 continuation bytes: corrupt
        return 0;
    }

    std::int64_t
    zigzag()
    {
        const std::uint64_t u = varint();
        return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }

    double
    getDouble()
    {
        if (remaining() < 8) {
            fail = true;
            return 0.0;
        }
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i) {
            bits |= static_cast<std::uint64_t>(
                        static_cast<std::uint8_t>(p[i]))
                << (8 * i);
        }
        p += 8;
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    std::uint64_t
    fixed64()
    {
        if (remaining() < 8) {
            fail = true;
            return 0;
        }
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i) {
            bits |= static_cast<std::uint64_t>(
                        static_cast<std::uint8_t>(p[i]))
                << (8 * i);
        }
        p += 8;
        return bits;
    }

    /** Length-prefixed string, rejecting lengths over 64 KiB. */
    std::string
    getString()
    {
        const std::uint64_t len = varint();
        if (fail || len > (1 << 16) || len > remaining()) {
            fail = true;
            return "";
        }
        std::string s(p, p + len);
        p += len;
        return s;
    }

  private:
    const char *p;
    const char *end;
    bool fail = false;
};

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_WIRE_HH
