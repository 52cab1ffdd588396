#include "runtime/image_builder.h"

#include <stdexcept>

#include "memtrack/allocator.h"

namespace inspector::runtime {

namespace {

using memtrack::AddressLayout;

/// What one script's code takes: every op is one kOpBytes instruction,
/// a conditional branch adds its pad block, and the exit block closes
/// the script.
struct ScriptShape {
  std::uint64_t code_bytes = kOpBytes;  // the exit block
  std::size_t blocks = 1;
};

ScriptShape shape_of(const ThreadScript& script) {
  ScriptShape shape;
  for (const Op& op : script.ops) {
    shape.code_bytes += kOpBytes;
    if (op.code == OpCode::kCondBranch) {
      shape.code_bytes += kOpBytes;
      shape.blocks += 2;
    } else if (op.code == OpCode::kIndirectBranch || is_sync_op(op.code)) {
      shape.blocks += 1;
    }
  }
  return shape;
}

struct ScriptBuilder {
  std::uint64_t cursor;  // next free code address
  std::vector<OpSite> sites;

  std::uint64_t block_start;
  std::uint32_t block_instrs = 0;

  explicit ScriptBuilder(std::uint64_t base)
      : cursor(base), block_start(base) {}

  void bump(std::uint64_t bytes) { cursor += bytes; }

  /// Account one straight-line op into the open block.
  void straight_op(std::uint32_t instrs) {
    bump(kOpBytes);
    block_instrs += instrs;
    sites.push_back(OpSite{});
  }

  /// Close the open block with terminator `term`; returns the block.
  ptsim::BasicBlock close_block(ptsim::TermKind term) {
    bump(kOpBytes);  // the branch instruction itself
    ++block_instrs;
    ptsim::BasicBlock block;
    block.start = block_start;
    block.size_bytes = static_cast<std::uint32_t>(cursor - block_start);
    block.instr_count = block_instrs;
    block.term = term;
    return block;
  }

  void open_next_block() {
    block_start = cursor;
    block_instrs = 0;
  }
};

}  // namespace

BuiltImage build_image(const Program& program) {
  BuiltImage built;
  built.sites.resize(program.scripts.size());
  built.entries.resize(program.scripts.size());

  // Size each script's window from its code, and the image from the
  // block count, before building anything.
  std::uint64_t code_end = AddressLayout::kCodeBase;
  std::size_t blocks = 0;
  for (std::size_t s = 0; s < program.scripts.size(); ++s) {
    const ScriptShape shape = shape_of(program.scripts[s]);
    built.entries[s] = code_end;
    // At least one window: every script has its exit block.
    code_end +=
        (shape.code_bytes + kCodeWindow - 1) / kCodeWindow * kCodeWindow;
    blocks += shape.blocks;
  }
  built.image.add_segment({program.name + ".text", AddressLayout::kCodeBase,
                           code_end - AddressLayout::kCodeBase});
  built.image.reserve(blocks);

  for (std::size_t s = 0; s < program.scripts.size(); ++s) {
    const ThreadScript& script = program.scripts[s];
    ScriptBuilder b(built.entries[s]);
    b.sites.reserve(script.ops.size());

    for (const Op& op : script.ops) {
      switch (op.code) {
        case OpCode::kLoad:
        case OpCode::kStore:
        case OpCode::kMmapInput:
          b.straight_op(1);
          break;
        case OpCode::kCompute:
          b.straight_op(static_cast<std::uint32_t>(op.a));
          break;
        case OpCode::kCondBranch: {
          ptsim::BasicBlock block = b.close_block(ptsim::TermKind::kCondBranch);
          // Pad block: the not-taken path, jumping to the next block.
          const std::uint64_t pad_start = block.end();
          const std::uint64_t next_start = pad_start + kOpBytes;
          block.taken_target = next_start;
          block.fall_target = pad_start;
          built.image.add_block(block);

          ptsim::BasicBlock pad;
          pad.start = pad_start;
          pad.size_bytes = static_cast<std::uint32_t>(kOpBytes);
          pad.instr_count = 1;
          pad.term = ptsim::TermKind::kJump;
          pad.taken_target = next_start;
          built.image.add_block(pad);
          b.bump(kOpBytes);  // pad occupies code space

          b.sites.push_back(OpSite{true, block.branch_ip(),
                                   block.taken_target, block.fall_target});
          b.open_next_block();
          break;
        }
        case OpCode::kIndirectBranch:
        case OpCode::kSpawn:
        case OpCode::kJoin: {
          // True indirect transfer: TIP packet.
          ptsim::BasicBlock block = b.close_block(ptsim::TermKind::kIndirect);
          const std::uint64_t next_start = block.end();
          block.taken_target = next_start;
          built.image.add_block(block);
          b.sites.push_back(OpSite{true, block.branch_ip(), next_start, 0});
          b.open_next_block();
          break;
        }
        default: {  // other sync ops: RET-compressed library-call return
          if (!is_sync_op(op.code)) {
            throw std::logic_error("unhandled opcode in image builder");
          }
          ptsim::BasicBlock block =
              b.close_block(ptsim::TermKind::kCondBranch);
          const std::uint64_t next_start = block.end();
          // RET compression: the "branch" consumes one TNT bit but both
          // outcomes land on the next block.
          block.taken_target = next_start;
          block.fall_target = next_start;
          built.image.add_block(block);
          b.sites.push_back(
              OpSite{true, block.branch_ip(), next_start, next_start});
          b.open_next_block();
          break;
        }
      }
    }
    // Final exit block (covers the implicit pthread_exit).
    ptsim::BasicBlock last = b.close_block(ptsim::TermKind::kExit);
    built.image.add_block(last);
    built.sites[s] = std::move(b.sites);
  }
  return built;
}

}  // namespace inspector::runtime
