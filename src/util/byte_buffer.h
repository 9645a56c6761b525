// Byte-buffer utilities: growable buffers plus big-endian (network byte
// order) readers and writers used by every wire codec in the library.
//
// All multi-byte integers on the wire are big-endian, per RFC 791 / RFC 793.
// The reader throws util::DecodeError on truncated input so that corrupted
// or short packets surface as a single, catchable failure mode.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace catenet::util {

/// Raw octet storage for packets and protocol messages.
using ByteBuffer = std::vector<std::uint8_t>;

/// Error thrown when decoding runs past the end of a buffer or a field
/// holds an impossible value. Protocol code treats this as "drop packet".
class DecodeError : public std::runtime_error {
public:
    explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Unchecked network-byte-order loads and stores at a raw pointer, for
/// codecs whose fixed-offset fields were already bounds-checked as a
/// block (the IPv4 and TCP header fast paths).
inline std::uint16_t load_be16(const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be16(std::uint8_t* p, std::uint16_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v & 0xff);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v & 0xff);
}

/// Serializes integers and byte ranges in network byte order, appending to
/// an internal buffer. `take()` moves the result out.
class BufferWriter {
public:
    BufferWriter() = default;
    /// Pre-reserve `expected_size` bytes to avoid reallocation on hot paths.
    explicit BufferWriter(std::size_t expected_size) { buf_.reserve(expected_size); }

    void put_u8(std::uint8_t v) { buf_.push_back(v); }
    void put_u16(std::uint16_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_bytes(std::span<const std::uint8_t> bytes);

    /// Writes `count` zero octets (padding / reserved fields).
    void put_zero(std::size_t count);

    /// Overwrites two bytes at `offset` (used to patch checksums after the
    /// fact). Throws std::out_of_range unless `offset + 2` is within the
    /// current size.
    void patch_u16(std::size_t offset, std::uint16_t v);

    std::size_t size() const noexcept { return buf_.size(); }
    const ByteBuffer& data() const noexcept { return buf_; }
    ByteBuffer take() { return std::move(buf_); }

private:
    ByteBuffer buf_;
};

/// Deserializes integers and byte ranges in network byte order from a
/// non-owning view. Throws DecodeError on truncation.
class BufferReader {
public:
    explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t get_u8();
    std::uint16_t get_u16();
    std::uint32_t get_u32();
    std::uint64_t get_u64();

    /// Returns a view of the next `count` bytes and advances past them.
    std::span<const std::uint8_t> get_bytes(std::size_t count);

    /// Skips `count` bytes (e.g. options we do not interpret).
    void skip(std::size_t count);

    /// Returns a view of everything not yet consumed without advancing.
    std::span<const std::uint8_t> remaining() const noexcept { return data_.subspan(pos_); }

    std::size_t remaining_size() const noexcept { return data_.size() - pos_; }
    std::size_t position() const noexcept { return pos_; }
    bool at_end() const noexcept { return pos_ == data_.size(); }

private:
    void require(std::size_t count) const;

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

/// Convenience: copies a span into a fresh ByteBuffer.
ByteBuffer to_buffer(std::span<const std::uint8_t> bytes);

/// Convenience: builds a ByteBuffer from a string's bytes (for tests and
/// example applications).
ByteBuffer buffer_from_string(const std::string& s);

/// Convenience: interprets a buffer's bytes as text.
std::string string_from_buffer(std::span<const std::uint8_t> bytes);

}  // namespace catenet::util
