// Control-flow reconstruction: packets + image -> branch events.
//
// This is the block-decoder layer of the paper's pipeline: the raw AUX
// stream only says "taken, taken, not-taken, target 0x4018f0"; combining
// it with the binary image recovers the exact path each thread took,
// which INSPECTOR stores as thunks inside each sub-computation (§IV-A).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ptsim/decoder.h"
#include "ptsim/image.h"
#include "ptsim/packets.h"

namespace inspector::ptsim {

/// One reconstructed control-flow event.
struct BranchEvent {
  enum class Kind : std::uint8_t {
    kConditional,  ///< conditional branch; `taken` valid
    kIndirect,     ///< indirect transfer to `target`
    kEnable,       ///< tracing enabled at `target`
    kDisable,      ///< tracing disabled
    kGap,          ///< overflow gap; trace resumes at `target`
  };
  Kind kind = Kind::kConditional;
  std::uint64_t ip = 0;      ///< branch instruction address (0 for enable/gap)
  std::uint64_t target = 0;  ///< destination address
  bool taken = false;

  bool operator==(const BranchEvent&) const = default;
};

/// Result of a flow reconstruction pass.
struct FlowResult {
  std::vector<BranchEvent> events;
  std::uint64_t blocks_executed = 0;
  std::uint64_t instructions_retired = 0;
  std::uint64_t gaps = 0;  ///< overflow gaps encountered
  /// TSC values seen in PSB+ sequences (simulated nanoseconds); zero
  /// when the stream carries no timing packets.
  std::uint64_t first_timestamp = 0;
  std::uint64_t last_timestamp = 0;
};

/// Reconstruct the control flow of one thread's trace.
///
/// Throws DecodeError when the packet stream is inconsistent with the
/// image (e.g. a TNT bit arrives while the current block ends in an
/// indirect branch), and when the walk visits more blocks than the
/// image holds without consuming a packet: such a walk is a cycle of
/// jump, call and fall-through blocks and would never end.
class FlowDecoder {
 public:
  FlowDecoder(const Image& image, std::span<const std::uint8_t> trace);

  /// Run the reconstruction to the end of the trace.
  FlowResult run();

 private:
  // Pull the next TNT bit / TIP target out of the packet stream,
  // processing interleaved PSB/PAD/OVF packets on the way.
  bool next_tnt_bit();
  std::uint64_t next_tip();
  void refill();

  const Image& image_;
  PacketDecoder decoder_;
  FlowResult result_;

  // Pending TNT bits from the most recent TNT packet.
  TntPayload pending_tnt_;
  std::uint8_t tnt_pos_ = 0;

  // Pending TIP target (indirect branch destination).
  std::uint64_t pending_tip_ = 0;
  bool has_pending_tip_ = false;

  std::uint64_t current_ip_ = 0;
  bool enabled_ = false;
  bool done_ = false;

  // Set when refill() hits OVF: the next FUP re-syncs the IP.
  bool resync_pending_ = false;
  // Set when a post-overflow FUP moved control: the current walk step
  // must abandon its pending packet request and restart at the new IP.
  bool diverted_ = false;

  // Blocks walked since the trace last yielded a packet or TNT bit.
  std::uint64_t blocks_without_packet_ = 0;
};

}  // namespace inspector::ptsim
