// Little-endian binary readers/writers: the one byte codec every file
// format in the tree shares -- the whole-graph CPG file
// (serialize.cpp), the shard files and manifest (src/shard/), and the
// three files a traced run persists for the offline rebuild of §V-B:
// perf.data (perf/data_file.cpp), the threading-library journal
// (journal.cpp) and the binary image (ptsim/image.cpp). Every file
// opens with a u32 magic naming its kind; the CPG, shard and manifest
// formats follow it with a u32 format version. check_magic() and
// check_header() turn the two classic stale-file failure modes --
// "this is not one of our files at all" and "this file is from
// another format generation" -- into precise SerializeError messages
// instead of whatever a misparsed length field would have produced
// downstream; decoders convert SerializeError into a typed Status
// naming the file kind at their API boundary.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/varint.h"

namespace inspector::cpg::detail {

/// Little-endian loads from bytes the caller has bounds-checked (a
/// ByteReader::record(), an LZ block's stripes).
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Little-endian stores into bytes the caller has sized.
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof v);
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

/// Any structural problem with an encoded buffer: truncation, a bad
/// magic, an unsupported version, an implausible length field.
class SerializeError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64_vec(std::span<const std::uint64_t> v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void u8_vec(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void str(const std::string& s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  // Varint forms. The sequence codecs are self-framing (leading count
  // varint) and delegate to util/varint.h, the one shared
  // implementation.
  void uvarint(std::uint64_t v) { util::put_uvarint(out_, v); }
  /// Strictly ascending u64 sequence as delta-1 varints. A
  /// non-monotone input is a writer bug and throws, so it can never
  /// reach disk as a corrupt file.
  void monotone_u64(std::span<const std::uint64_t> v) {
    if (Status st = util::put_monotone(out_, v); !st.ok()) {
      throw SerializeError(st.message());
    }
  }
  /// Any u64 sequence as zigzag varints of the wrapping
  /// difference-of-neighbors (near-sorted sidecars pack small).
  void zigzag_u64(std::span<const std::uint64_t> v) {
    util::put_zigzag_delta(out_, v);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() {
    need(1, "u8");
    return in_[pos_++];
  }
  /// A one-byte enum tag: values at or above `count` name no
  /// enumerator, so a decoder can never switch over an unknown kind.
  std::uint8_t u8_enum(std::uint8_t count, const char* what) {
    return enum_at(record(1, "u8"), count, what);
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  /// A fixed-width record of `width` bytes behind one bounds check:
  /// the returned pointer reads them unchecked (load_u32/load_u64), so
  /// a decoder of many small records pays one check per record, not
  /// one per field.
  const std::uint8_t* record(std::size_t width, const char* what) {
    need(width, what);
    const std::uint8_t* p = in_.data() + pos_;
    pos_ += width;
    return p;
  }
  /// u8_enum() for a tag byte inside a record() (same message, naming
  /// the byte's offset).
  std::uint8_t enum_at(const std::uint8_t* p, std::uint8_t count,
                       const char* what) const {
    if (*p >= count) {
      throw SerializeError(std::string("unknown ") + what + " " +
                           std::to_string(*p) + " at offset " +
                           std::to_string(p - in_.data()));
    }
    return *p;
  }
  std::vector<std::uint64_t> u64_vec() {
    const std::uint64_t n = counted(8, "u64 vector");
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<std::uint8_t> u8_vec() {
    const auto v = u8_view();
    return {v.begin(), v.end()};
  }
  /// Zero-copy form of u8_vec(): a length-prefixed view into the
  /// underlying buffer, valid only while that buffer lives. Nested
  /// sections (a shard's embedded graph) decode through this so the
  /// dominant payload is never duplicated.
  std::span<const std::uint8_t> u8_view() {
    const std::uint64_t n = counted(1, "byte vector");
    need(n, "byte vector payload");
    const auto v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  std::string str() {
    const std::uint64_t n = counted(1, "string");
    need(n, "string payload");
    std::string s(reinterpret_cast<const char*>(in_.data()) + pos_, n);
    pos_ += n;
    return s;
  }
  /// Everything left in the buffer as a zero-copy view (the reader is
  /// drained afterwards). The framing form for a format's final,
  /// file-end-delimited section -- a shard file's codec payload -- where
  /// a length prefix would only duplicate what the file size already
  /// says.
  std::span<const std::uint8_t> rest() {
    const auto v = in_.subspan(pos_);
    pos_ = in_.size();
    return v;
  }

  // Varint forms. One checked decode path: these delegate to
  // util/varint.h and convert its typed Status into the reader's
  // SerializeError flow, so truncation, overlong encodings, and
  // accumulator overflow surface exactly like every other structural
  // defect.
  std::uint64_t uvarint() {
    // One-byte fast path: most counts and small fields fit 7 bits, and
    // a byte below 0x80 is a complete canonical varint.
    if (pos_ < in_.size() && in_[pos_] < 0x80) return in_[pos_++];
    std::uint64_t v = 0;
    if (Status st = util::get_uvarint(in_, pos_, v); !st.ok()) {
      throw SerializeError(st.message());
    }
    return v;
  }
  std::vector<std::uint64_t> monotone_u64() {
    std::vector<std::uint64_t> v;
    if (Status st = util::get_monotone(in_, pos_, v); !st.ok()) {
      throw SerializeError(st.message());
    }
    return v;
  }
  std::vector<std::uint64_t> zigzag_u64() {
    std::vector<std::uint64_t> v;
    if (Status st = util::get_zigzag_delta(in_, pos_, v); !st.ok()) {
      throw SerializeError(st.message());
    }
    return v;
  }
  /// The sequence forms straight into the caller's array, whose
  /// element type may be narrower than u64 (a value past it is an
  /// error naming `what`): no u64 scratch, no second pass.
  template <typename Vec>
  void monotone_into(Vec& out, const char* what) {
    if (Status st = util::get_monotone(in_, pos_, out); !st.ok()) {
      throw SerializeError(std::string(what) + ": " + st.message());
    }
  }
  template <typename Vec>
  void zigzag_into(Vec& out, const char* what) {
    if (Status st = util::get_zigzag_delta(in_, pos_, out); !st.ok()) {
      throw SerializeError(std::string(what) + ": " + st.message());
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }

  /// Reject bytes after the last field: a file that decodes but does
  /// not end where its own structure says it does is malformed.
  void expect_end(const char* what) const {
    if (remaining() != 0) {
      throw SerializeError(std::to_string(remaining()) +
                           " trailing bytes after the " + what);
    }
  }

  /// Read a length prefix and reject counts the buffer cannot hold
  /// (`element_size` = the record's minimum encoded size). The one
  /// plausibility guard for every counted section in every format --
  /// the vec readers above use it, and callers decoding records by
  /// hand must too, so no reserve() ever honors a corrupt count.
  std::uint64_t counted(std::uint64_t element_size, const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining() / element_size) {
      throw SerializeError(std::string("implausible ") + what + " length " +
                           std::to_string(n) + " with " +
                           std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

  /// counted() for varint-framed sections (`element_size` = the
  /// record's minimum encoded size under the varint layout).
  std::uint64_t counted_varint(std::uint64_t element_size, const char* what) {
    const std::uint64_t n = uvarint();
    if (n > remaining() / element_size) {
      throw SerializeError(std::string("implausible ") + what + " length " +
                           std::to_string(n) + " with " +
                           std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > in_.size() - pos_) {
      throw SerializeError(std::string("truncated buffer reading ") + what +
                           " at offset " + std::to_string(pos_));
    }
  }
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

inline void write_header(ByteWriter& w, std::uint32_t magic,
                         std::uint32_t version) {
  w.u32(magic);
  w.u32(version);
}

/// Check the leading magic, with a message that names the file kind.
inline void check_magic(ByteReader& r, std::uint32_t magic, const char* what) {
  const std::uint32_t got_magic = r.u32();
  if (got_magic != magic) {
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", got_magic);
    throw SerializeError(std::string("not a ") + what +
                         " file (bad magic 0x" + buf + ")");
  }
}

/// Check magic + exact version, with messages that name the file kind.
inline void check_header(ByteReader& r, std::uint32_t magic,
                         std::uint32_t version, const char* what) {
  check_magic(r, magic, what);
  const std::uint32_t got_version = r.u32();
  if (got_version != version) {
    throw SerializeError(std::string(what) + " format version " +
                         std::to_string(got_version) +
                         " is not supported (this build reads version " +
                         std::to_string(version) +
                         "); re-export the file with a matching build");
  }
}

}  // namespace inspector::cpg::detail
