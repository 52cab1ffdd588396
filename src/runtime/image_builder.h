// Build the ptsim::Image (basic-block CFG) for a Program, and the per-op
// branch-site table the executor uses to drive the PT encoder.
//
// Layout decisions (documented because the flow decoder round-trip test
// depends on them):
//  * each script has its own code window: its code bytes rounded up to
//    kCodeWindow, and at least kCodeWindow. The windows sit back to back
//    from kCodeBase, so while every script fits in kCodeWindow, script
//    `s` starts at kCodeBase + s*kCodeWindow. The .text segment covers
//    all of them;
//  * ops accumulate into a block until a block-ending op:
//      - kCondBranch   -> terminator kCondBranch; the *taken* target is
//        the next block, the fall-through goes to a synthetic pad block
//        that jumps to the next block (so taken/not-taken produce
//        distinguishable paths, as in real code);
//      - kIndirectBranch, kSpawn and kJoin -> terminator kIndirect to
//        the next block (clone()/waitpid() paths produce real indirect
//        transfers, i.e. TIP packets);
//      - other sync ops -> a RET-compressed return: Intel PT encodes
//        returns whose target matches the call stack as a single
//        "taken" TNT bit, so a pthreads call contributes one TNT bit,
//        modelled as a conditional branch whose both targets are the
//        next block;
//      - end of script -> terminator kExit.
#pragma once

#include <cstdint>
#include <vector>

#include "ptsim/image.h"
#include "runtime/program.h"

namespace inspector::runtime {

/// Branch-site info for an op that ends a basic block.
struct OpSite {
  bool ends_block = false;
  std::uint64_t branch_ip = 0;     ///< address of the branch instruction
  std::uint64_t taken_target = 0;  ///< destination when taken / indirect target
  std::uint64_t fall_target = 0;   ///< destination when not taken (pad block)
};

struct BuiltImage {
  ptsim::Image image;
  /// sites[script][op_index]
  std::vector<std::vector<OpSite>> sites;
  /// Entry address of each script.
  std::vector<std::uint64_t> entries;
};

inline constexpr std::uint64_t kCodeWindow = 1ull << 23;  // 8 MiB of code
inline constexpr std::uint64_t kOpBytes = 16;  // synthetic instr encoding

/// Build the image for `program`.
[[nodiscard]] BuiltImage build_image(const Program& program);

}  // namespace inspector::runtime
