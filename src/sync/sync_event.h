// Synchronization schedule records (INSPECTOR §IV-A "sync schedule").
//
// Every pthreads primitive decomposes into acquire/release operations on
// a synchronization object; the recorded sequence of these operations is
// the schedule dependency component of the CPG.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace inspector::sync {

/// Thread id inside one execution (dense, 0-based; thread 0 = main).
using ThreadId = std::uint32_t;

/// Opaque synchronization object identity. The upper byte namespaces
/// the object kind so workload-supplied ids cannot collide with the
/// implicit per-thread objects used for create/join ordering.
using ObjectId = std::uint64_t;

enum class ObjectKind : std::uint8_t {
  kMutex = 1,
  kSemaphore = 2,
  kBarrier = 3,
  kCondVar = 4,
  kThreadLifecycle = 5,  ///< implicit object ordering create/start/exit/join
};

[[nodiscard]] constexpr ObjectId make_object_id(ObjectKind kind,
                                                std::uint64_t n) noexcept {
  return (static_cast<std::uint64_t>(kind) << 56) | (n & 0x00FF'FFFF'FFFF'FFFFull);
}
[[nodiscard]] constexpr ObjectKind object_kind(ObjectId id) noexcept {
  return static_cast<ObjectKind>(id >> 56);
}
[[nodiscard]] constexpr std::uint64_t object_index(ObjectId id) noexcept {
  return id & 0x00FF'FFFF'FFFF'FFFFull;
}

/// The implicit lifecycle object of thread `tid`.
[[nodiscard]] constexpr ObjectId thread_lifecycle_object(ThreadId tid) noexcept {
  return make_object_id(ObjectKind::kThreadLifecycle, tid);
}

/// Kinds of schedule events, at pthreads-API granularity.
enum class SyncEventKind : std::uint8_t {
  kMutexLock,
  kMutexUnlock,
  kSemWait,
  kSemPost,
  kCondWait,     ///< recorded when the wait is satisfied
  kCondSignal,
  kCondBroadcast,
  kBarrierWait,  ///< recorded when the barrier releases
  kThreadCreate,
  kThreadStart,
  kThreadExit,
  kThreadJoin,
};

/// Number of SyncEventKind values: a decoded kind byte must be below it.
inline constexpr std::uint8_t kSyncEventKinds =
    static_cast<std::uint8_t>(SyncEventKind::kThreadJoin) + 1;

[[nodiscard]] std::string to_string(SyncEventKind kind);

/// One entry of the recorded sync schedule.
struct SyncEvent {
  std::uint64_t seq = 0;  ///< global sequence number (total order of record)
  ThreadId thread = 0;
  ObjectId object = 0;
  SyncEventKind kind = SyncEventKind::kMutexLock;

  bool operator==(const SyncEvent&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SyncEvent& event);

}  // namespace inspector::sync
