/**
 * @file
 * The sealed container of epoch traces (PCTR), provenance sidecars
 * (PCPV) and results-store entries (PCRS), and the one whole-file read
 * every file reader uses (docs/trace_format.md, "Container"):
 *
 *   magic[4]  u16 version  u16 reserved (0)
 *   { u8 tag  varint length  payload } ...
 *   u8 endTag  varint length  trailer  fixed64 FNV-1a of all prior bytes
 *
 * A format picks its magic, version and END tag and owns its section
 * payloads and their order; the framing and the checksum live here.
 */

#ifndef PCSTALL_TRACE_SEALED_HH
#define PCSTALL_TRACE_SEALED_HH

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/wire.hh"

namespace pcstall::trace
{

struct SealedFormat
{
    /** Four magic bytes, also the format's name in diagnostics. */
    const char *magic;
    std::uint16_t version;
    std::uint8_t endTag;
};

/** Longest section a well-formed file carries. */
inline constexpr std::uint64_t maxSealedSection = 1ULL << 32;

/** Read the whole file at @p path into @p bytes; false when it cannot
 *  be opened or read. */
inline bool
readFile(const std::string &path, std::string &bytes)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
    return !is.bad();
}

/**
 * Frames a sealed file and keeps its running checksum. Each call hands
 * back the bytes to emit and folds them, and the payload, into the
 * checksum, so a streaming writer passes payloads through uncopied.
 */
class SealedWriter
{
  public:
    explicit SealedWriter(const SealedFormat &format)
        : head(format.magic, 4), endTag(format.endTag)
    {
        head.push_back(static_cast<char>(format.version & 0xFF));
        head.push_back(static_cast<char>(format.version >> 8));
        head.append(2, '\0');
        hash = fnv1a(fnvSeed, head.data(), head.size());
    }

    /** The file header; emit it first. */
    const std::string &header() const { return head; }

    /** Tag and length of a section; emit them, then @p payload. */
    std::string
    section(std::uint8_t tag, std::string_view payload)
    {
        std::string frame(1, static_cast<char>(tag));
        putVarint(frame, payload.size());
        hash = fnv1a(hash, frame.data(), frame.size());
        hash = fnv1a(hash, payload.data(), payload.size());
        return frame;
    }

    /** The whole END section: tag, length, @p trailer, checksum. */
    std::string
    end(std::string_view trailer)
    {
        std::string frame(1, static_cast<char>(endTag));
        putVarint(frame, trailer.size() + 8);
        frame.append(trailer);
        putFixed64(frame, fnv1a(hash, frame.data(), frame.size()));
        return frame;
    }

    /** Append a section to the in-memory image @p out. */
    void
    append(std::string &out, std::uint8_t tag, std::string_view payload)
    {
        out += section(tag, payload);
        out.append(payload);
    }

  private:
    std::string head;
    std::uint8_t endTag;
    std::uint64_t hash;
};

/** One section of an unsealed image: a view into the caller's bytes. */
struct SealedSection
{
    std::uint8_t tag = 0;
    const char *data = nullptr;
    std::size_t size = 0;

    Cursor cursor() const { return Cursor(data, size); }
    std::string bytes() const { return std::string(data, size); }
};

struct Unsealed
{
    /** Every section before END, in file order. */
    std::vector<SealedSection> sections;
    /** The END payload without its checksum. */
    SealedSection trailer;
    /** Empty on success; a one-line diagnostic otherwise. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Strictly open the sealed image @p bytes: magic and version, every
 * section's framing (none may run past the file or exceed
 * maxSealedSection), the END checksum, and no byte after END. On
 * failure nothing in the image may be decoded.
 */
inline Unsealed
unseal(const std::string &bytes, const SealedFormat &format)
{
    const std::string name(format.magic, 4);
    Unsealed out;
    const auto fail = [&out](const std::string &why) {
        out.sections.clear();
        out.error = why;
        return out;
    };
    if (bytes.size() < 8 || bytes.compare(0, 4, name) != 0)
        return fail("not a " + name + " file (bad magic or header)");
    const unsigned version = static_cast<std::uint8_t>(bytes[4]) |
        static_cast<std::uint8_t>(bytes[5]) << 8;
    if (version != format.version) {
        return fail("unsupported " + name + " version " +
                    std::to_string(version) + " (this build reads " +
                    std::to_string(format.version) + ")");
    }
    Cursor cur(bytes.data() + 8, bytes.size() - 8);
    while (!cur.atEnd()) {
        SealedSection s;
        s.tag = cur.u8();
        const std::uint64_t len = cur.varint();
        if (cur.failed() || len > maxSealedSection ||
            len > cur.remaining()) {
            return fail("truncated " + name + " section (tag " +
                        std::to_string(s.tag) + ")");
        }
        s.data = bytes.data() + (bytes.size() - cur.remaining());
        s.size = static_cast<std::size_t>(len);
        cur = Cursor(s.data + s.size, cur.remaining() - s.size);
        if (s.tag != format.endTag) {
            out.sections.push_back(s);
            continue;
        }
        if (s.size < 8)
            return fail(name + " END section too short");
        s.size -= 8;
        const char *sum = s.data + s.size;
        if (Cursor(sum, 8).fixed64() !=
            fnv1a(fnvSeed, bytes.data(),
                  static_cast<std::size_t>(sum - bytes.data()))) {
            return fail(name + " checksum mismatch (corrupt file)");
        }
        if (!cur.atEnd())
            return fail("bytes after the " + name + " END section");
        out.trailer = s;
        return out;
    }
    return fail(name + " has no END section (truncated file)");
}

/** The sections view the image, which must outlive them. */
Unsealed unseal(std::string &&bytes, const SealedFormat &format) = delete;

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_SEALED_HH
