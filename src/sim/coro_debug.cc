#include "sim/coro_debug.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/block_pool.h"
#include "sim/logging.h"

namespace reflex::sim {
namespace {

struct FrameInfo {
  // The creation site, from std::source_location (static strings).
  const char* function = nullptr;
  const char* file = nullptr;
  uint32_t line = 0;
  uint64_t seq = 0;  // creation order, for stable reporting

  /** "Function (file:line)". */
  std::string Tag() const {
    return std::string(function != nullptr ? function : "?") + " (" +
           (file != nullptr ? file : "?") + ":" + std::to_string(line) +
           ")";
  }
};

struct Registry {
  uint64_t created = 0;
  uint64_t destroyed = 0;
  // Keyed by frame address. The pointer key is sound here: the map is
  // debug-only bookkeeping, consulted for membership and dumped only
  // inside a panic message (sorted by creation seq, not by address),
  // so hash/address order can never reach simulation event order.
  // Nodes come from the block pool, so registering a frame allocates
  // nothing once warm and the allocation budget holds in this build too.
  // detlint: allow(pointer-key) debug-only registry; reporting sorts
  // by creation seq so address order never affects behavior.
  std::map<const void*, FrameInfo, std::less<>,
           PoolAllocator<std::pair<const void* const, FrameInfo>>>
      live;
};

Registry& GetRegistry() {
  static Registry r;
  return r;
}

}  // namespace

bool CoroDebugEnabled() {
#ifdef REFLEX_CORO_DEBUG
  return true;
#else
  return false;
#endif
}

CoroDebugStats CoroDebugGetStats() {
  const Registry& r = GetRegistry();
  return CoroDebugStats{r.created, r.destroyed,
                        static_cast<uint64_t>(r.live.size())};
}

bool CoroDebugIsLive(const void* frame) {
  return GetRegistry().live.count(frame) > 0;
}

std::vector<std::string> CoroDebugLiveTags() {
  const Registry& r = GetRegistry();
  std::vector<std::pair<uint64_t, std::string>> by_seq;
  by_seq.reserve(r.live.size());
  for (const auto& [frame, info] : r.live) {
    by_seq.emplace_back(info.seq, info.Tag());
  }
  std::sort(by_seq.begin(), by_seq.end());
  std::vector<std::string> tags;
  tags.reserve(by_seq.size());
  for (auto& [seq, tag] : by_seq) tags.push_back(std::move(tag));
  return tags;
}

void CoroDebugAssertNoLiveFrames() {
  Registry& r = GetRegistry();
  if (r.live.empty()) return;
  std::string sites;
  for (const std::string& tag : CoroDebugLiveTags()) {
    sites += "\n  live frame created at ";
    sites += tag;
  }
  REFLEX_PANIC(
      "REFLEX_CORO_DEBUG: %zu coroutine frame(s) still alive at Simulator "
      "teardown (created %" PRIu64 ", destroyed %" PRIu64
      "). Every parked sim::Task must be registered via co_await "
      "sim::SelfHandle and destroy()ed by its owner before the simulator "
      "dies.%s",
      r.live.size(), r.created, r.destroyed, sites.c_str());
}

namespace internal {

void CoroDebugRegister(const void* frame, const char* function,
                       const char* file, uint32_t line) {
  Registry& r = GetRegistry();
  r.live[frame] = FrameInfo{function, file, line, r.created++};
}

void CoroDebugUnregister(const void* frame) {
  Registry& r = GetRegistry();
  if (r.live.erase(frame) > 0) ++r.destroyed;
}

}  // namespace internal

}  // namespace reflex::sim
