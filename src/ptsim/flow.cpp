#include "ptsim/flow.h"

namespace inspector::ptsim {

FlowDecoder::FlowDecoder(const Image& image,
                         std::span<const std::uint8_t> trace)
    : image_(image), decoder_(trace) {}

// Pull packets until the decoder yields one that affects control flow.
// Handles enable/disable/overflow inline; stashes TNT payloads.
void FlowDecoder::refill() {
  blocks_without_packet_ = 0;
  while (true) {
    auto p = decoder_.next();
    if (!p) {
      done_ = true;
      return;
    }
    switch (p->type) {
      case PacketType::kTnt:
        pending_tnt_ = p->tnt;
        tnt_pos_ = 0;
        return;
      case PacketType::kTip:
        // Leave for next_tip() via pending IP.
        pending_tip_ = p->ip;
        has_pending_tip_ = true;
        return;
      case PacketType::kTipPge:
        enabled_ = true;
        current_ip_ = p->ip;
        resync_pending_ = false;
        result_.events.push_back(
            {BranchEvent::Kind::kEnable, 0, p->ip, false});
        return;
      case PacketType::kTipPgd:
        enabled_ = false;
        result_.events.push_back({BranchEvent::Kind::kDisable, 0, 0, false});
        return;
      case PacketType::kTsc:
        if (result_.first_timestamp == 0) {
          result_.first_timestamp = p->payload;
        }
        result_.last_timestamp = p->payload;
        break;
      case PacketType::kOvf:
        // Gap: the FUP that follows carries the resume IP.
        resync_pending_ = true;
        pending_tnt_ = {};
        tnt_pos_ = 0;
        ++result_.gaps;
        break;
      case PacketType::kFup:
        if (resync_pending_) {
          current_ip_ = p->ip;
          resync_pending_ = false;
          diverted_ = true;  // abandon the in-progress block walk
          result_.events.push_back(
              {BranchEvent::Kind::kGap, 0, p->ip, false});
          return;
        }
        break;  // PSB+ status FUP: informational
      default:
        break;  // PAD / PSB / PSBEND / CBR / MODE / TSC / PIP
    }
  }
}

bool FlowDecoder::next_tnt_bit() {
  // Precondition: caller verified a bit is pending or pulls via walk().
  blocks_without_packet_ = 0;
  const bool bit = pending_tnt_.taken(tnt_pos_);
  ++tnt_pos_;
  if (tnt_pos_ >= pending_tnt_.count) {
    pending_tnt_ = {};
    tnt_pos_ = 0;
  }
  return bit;
}

std::uint64_t FlowDecoder::next_tip() {
  blocks_without_packet_ = 0;
  has_pending_tip_ = false;
  return pending_tip_;
}

FlowResult FlowDecoder::run() {
  while (!done_) {
    if (!enabled_) {
      refill();
      continue;
    }
    const BasicBlock* block = resync_pending_
                                  ? nullptr
                                  : image_.block_containing(current_ip_);
    if (resync_pending_) {
      // Waiting for the post-overflow FUP.
      refill();
      continue;
    }
    if (block == nullptr) {
      throw DecodeError("trace IP not covered by image", decoder_.offset());
    }
    if (++blocks_without_packet_ > image_.block_count()) {
      throw DecodeError("control flow cycles through the image without "
                        "consuming a packet",
                        decoder_.offset());
    }
    ++result_.blocks_executed;
    result_.instructions_retired += block->instr_count;

    switch (block->term) {
      case TermKind::kCondBranch: {
        // Need one TNT bit; pump packets until one is available. The
        // pump may instead divert control (overflow or disable).
        while (pending_tnt_.count == 0 && !done_) {
          refill();
          if (diverted_) break;
          if (has_pending_tip_) {
            throw DecodeError("TIP while expecting TNT bit",
                              decoder_.offset());
          }
          if (!enabled_ || resync_pending_) break;
        }
        if (diverted_) {
          diverted_ = false;  // restart the walk at the resume IP
          break;
        }
        if (done_ || !enabled_ || resync_pending_) break;
        const bool taken = next_tnt_bit();
        const std::uint64_t dest =
            taken ? block->taken_target : block->fall_target;
        result_.events.push_back(
            {BranchEvent::Kind::kConditional, block->branch_ip(), dest, taken});
        current_ip_ = dest;
        break;
      }
      case TermKind::kJump:
      case TermKind::kCall:
        current_ip_ = block->taken_target;
        break;
      case TermKind::kFallThrough:
        current_ip_ = block->fall_target;
        break;
      case TermKind::kIndirect: {
        while (!has_pending_tip_ && !done_) {
          refill();
          if (diverted_) break;
          if (pending_tnt_.count != 0) {
            throw DecodeError("TNT while expecting TIP", decoder_.offset());
          }
          if (!enabled_ || resync_pending_) break;
        }
        if (diverted_) {
          diverted_ = false;
          break;
        }
        if (done_ || !enabled_ || resync_pending_) break;
        const std::uint64_t target = next_tip();
        result_.events.push_back(
            {BranchEvent::Kind::kIndirect, block->branch_ip(), target, true});
        current_ip_ = target;
        break;
      }
      case TermKind::kExit: {
        // Thread exits; the encoder emits TIP.PGD.
        while (enabled_ && !done_) refill();
        break;
      }
    }
  }
  return result_;
}

}  // namespace inspector::ptsim
