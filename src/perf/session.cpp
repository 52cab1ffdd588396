#include "perf/session.h"

namespace inspector::perf {

PerfSession::PerfSession(std::string cgroup_name, SessionOptions options)
    : cgroup_(std::move(cgroup_name)), options_(options) {}

void PerfSession::start_stream(Pid pid, std::uint64_t now) {
  streams_.emplace(pid, std::make_unique<TraceStream>(options_));
  pids_.push_back(pid);
  records_.push_back(
      {RecordType::kItraceStart, pid, 0, now, 0, 0, std::string{}});
}

void PerfSession::attach_root(Pid pid, std::uint64_t now) {
  cgroup_.add(pid);
  records_.push_back({RecordType::kComm, pid, 0, now, 0, 0, cgroup_.name()});
  start_stream(pid, now);
}

void PerfSession::on_fork(Pid parent, Pid child, std::uint64_t now) {
  records_.push_back(
      {RecordType::kFork, child, parent, now, 0, 0, std::string{}});
  if (cgroup_.on_fork(parent, child)) {
    start_stream(child, now);
  }
}

void PerfSession::on_exit(Pid pid, std::uint64_t now) {
  records_.push_back({RecordType::kExit, pid, 0, now, 0, 0, std::string{}});
  // Stream data is kept for post-mortem decode; only the cgroup
  // membership ends.
  cgroup_.on_exit(pid);
}

void PerfSession::on_mmap(Pid pid, std::uint64_t addr, std::uint64_t len,
                          const std::string& name, std::uint64_t now) {
  records_.push_back({RecordType::kMmap, pid, 0, now, addr, len, name});
}

ptsim::PacketEncoder* PerfSession::encoder_for(Pid pid) {
  auto it = streams_.find(pid);
  return it == streams_.end() ? nullptr : &it->second->encoder;
}

bool PerfSession::take_stream_overflow(Pid pid) {
  auto it = streams_.find(pid);
  if (it == streams_.end()) return false;
  const bool overflowed = it->second->ring.take_overflow();
  if (overflowed) ++overflows_;
  return overflowed;
}

void PerfSession::drain(std::uint64_t now) {
  for (Pid pid : pids_) {
    TraceStream& stream = *streams_.at(pid);
    if (stream.ring.take_overflow()) {
      ++overflows_;
      records_.push_back(
          {RecordType::kAuxTruncated, pid, 0, now, 0, 0, std::string{}});
    }
    std::vector<std::uint8_t> chunk = stream.ring.drain();
    if (chunk.empty()) continue;
    records_.push_back({RecordType::kAux, pid, 0, now,
                        stream.collected.size(), chunk.size(), std::string{}});
    stream.collected.insert(stream.collected.end(), chunk.begin(),
                            chunk.end());
  }
}

std::uint64_t PerfSession::total_trace_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [pid, stream] : streams_) {
    total += stream->collected.size() + stream->ring.readable();
  }
  return total;
}

const std::vector<std::uint8_t>& PerfSession::trace_for(Pid pid) {
  drain(0);
  return streams_.at(pid)->collected;
}

}  // namespace inspector::perf
