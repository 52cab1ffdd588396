#include "perf/data_file.h"

#include <set>
#include <string>

#include "cpg/binary_io.h"

namespace inspector::perf {

namespace {

using cpg::detail::ByteReader;
using cpg::detail::ByteWriter;

constexpr std::uint32_t kMagic = 0x31465049;  // "IPF1"
constexpr std::uint8_t kRecordTypes =
    static_cast<std::uint8_t>(RecordType::kAuxTruncated) + 1;

}  // namespace

DataFile capture(PerfSession& session) {
  session.drain(0);
  DataFile file;
  file.records = session.records();
  for (Pid pid : session.traced_pids()) {
    file.aux.push_back({pid, session.trace_for(pid)});
  }
  return file;
}

std::vector<std::uint8_t> serialize(const DataFile& file) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kMagic);
  w.u64(file.records.size());
  for (const auto& r : file.records) {
    w.u8(static_cast<std::uint8_t>(r.type));
    w.u32(r.pid);
    w.u32(r.parent);
    w.u64(r.time);
    w.u64(r.addr);
    w.u64(r.len);
    w.str(r.name);
  }
  w.u64(file.aux.size());
  for (const auto& s : file.aux) {
    w.u32(s.pid);
    w.u8_vec(s.data);
  }
  return out;
}

Result<DataFile> deserialize(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    cpg::detail::check_magic(r, kMagic, "perf data");
    DataFile file;
    // Minimum encoded record: type 1 + pid/parent 8 + time/addr/len 24
    // + empty name 8.
    const std::uint64_t record_count = r.counted(41, "record");
    file.records.reserve(record_count);
    for (std::uint64_t i = 0; i < record_count; ++i) {
      Record rec;
      rec.type =
          static_cast<RecordType>(r.u8_enum(kRecordTypes, "record type"));
      rec.pid = r.u32();
      rec.parent = r.u32();
      rec.time = r.u64();
      rec.addr = r.u64();
      rec.len = r.u64();
      rec.name = r.str();
      file.records.push_back(std::move(rec));
    }
    // Minimum encoded stream: pid 4 + empty data 8.
    const std::uint64_t stream_count = r.counted(12, "AUX stream");
    file.aux.reserve(stream_count);
    std::set<Pid> pids;
    for (std::uint64_t i = 0; i < stream_count; ++i) {
      DataFile::AuxStream s;
      s.pid = r.u32();
      if (!pids.insert(s.pid).second) {
        return Status(StatusCode::kInvalidArgument,
                      "perf data: a second AUX stream for pid " +
                          std::to_string(s.pid));
      }
      s.data = r.u8_vec();
      file.aux.push_back(std::move(s));
    }
    r.expect_end("AUX streams");
    return file;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("perf data: ") + e.what());
  }
}

}  // namespace inspector::perf
