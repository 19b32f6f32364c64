// Allocation budget of the ReFlex request path. This binary replaces
// the global operator new with a counting one. After warm-up, a server
// serving timing-only reads and writes must not allocate at all, and a
// TenantSession op may allocate only its Future's shared state. Every
// request-path object lives in a recycled slot, and every callback on
// the path fits the simulator's inline event storage (DESIGN.md
// "Request-path allocation rule").

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "client/reflex_client.h"
#include "core/reflex_server.h"
#include "sim/fault.h"
#include "sim/task.h"
#include "testing/harness.h"

namespace {
int64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace reflex {
namespace {

using testing::Harness;

constexpr uint32_t kSectors = 8;
constexpr int kQueueDepth = 16;

uint64_t LbaFor(int64_t n) {
  // Spread over 64K pages so reads and writes hit every die.
  return static_cast<uint64_t>((n * 7919) % 65536) * kSectors;
}

/**
 * Closed-loop load straight into one ServerConnection: every response
 * issues the next request until the budget is spent, alternating
 * timing-only reads and writes.
 */
struct ConnectionLoad {
  core::ServerConnection* conn = nullptr;
  uint32_t handle = 0;
  int64_t budget = 0;
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t errors = 0;

  void Issue() {
    core::RequestMsg msg;
    msg.type = issued % 2 == 0 ? core::ReqType::kRead : core::ReqType::kWrite;
    msg.handle = handle;
    msg.lba = LbaFor(issued);
    msg.sectors = kSectors;
    msg.cookie = static_cast<uint64_t>(++issued);
    conn->Send(conn->Park(std::move(msg)));
  }

  void OnResponse(const core::ResponseMsg& resp) {
    ++completed;
    if (resp.status != core::ReqStatus::kOk) ++errors;
    if (issued < budget) Issue();
  }
};

/** Shared budget of a fleet of SessionWorker coroutines. */
struct SessionLoad {
  int64_t budget = 0;
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  int workers_done = 0;
};

sim::Task SessionWorker(client::TenantSession* session, SessionLoad* load) {
  while (load->issued < load->budget) {
    const int64_t n = load->issued++;
    sim::Future<client::IoResult> io =
        n % 2 == 0 ? session->Read(LbaFor(n), kSectors)
                   : session->Write(LbaFor(n), kSectors);
    const client::IoResult result = co_await io;
    ++load->completed;
    if (!result.ok()) ++load->errors;
  }
  ++load->workers_done;
}

TEST(AllocBudgetTest, ServerConnectionRequestsAllocateNothingAfterWarmup) {
  Harness h;
  core::Tenant* tenant = h.BeTenant();
  ConnectionLoad load;
  load.handle = tenant->handle();
  load.budget = 28000;
  core::AcceptResult accepted = h.server.Accept(
      h.client_machine, tenant->handle(),
      [&load](const core::ResponseMsg& resp) { load.OnResponse(resp); });
  ASSERT_NE(accepted.conn, nullptr);
  load.conn = accepted.conn;
  for (int i = 0; i < kQueueDepth; ++i) load.Issue();

  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 8000; }));
  const int64_t allocations_before = g_allocations;
  const int64_t completed_before = load.completed;
  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 24000; }));
  const int64_t allocations = g_allocations - allocations_before;
  const int64_t requests = load.completed - completed_before;

  EXPECT_GE(requests, 15000);
  EXPECT_EQ(allocations, 0) << "over " << requests << " requests";

  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed == load.budget; }));
  EXPECT_EQ(load.errors, 0);
  EXPECT_EQ(h.server.parked_requests(), 0u);
}

TEST(AllocBudgetTest, TenantSessionOpsAllocateOnlyTheirFutureState) {
  Harness h;
  core::Tenant* tenant = h.BeTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              client::ReflexClient::Options());
  std::unique_ptr<client::TenantSession> session =
      client.AttachSession(tenant->handle());
  ASSERT_NE(session, nullptr);
  SessionLoad load;
  load.budget = 40000;
  for (int i = 0; i < kQueueDepth; ++i) SessionWorker(session.get(), &load);

  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 20000; }));
  const int64_t allocations_before = g_allocations;
  const int64_t completed_before = load.completed;
  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 36000; }));
  const int64_t allocations = g_allocations - allocations_before;
  const int64_t ops = load.completed - completed_before;

  EXPECT_GE(ops, 15000);
  EXPECT_LE(allocations, ops) << "more than one allocation per op";

  ASSERT_TRUE(
      h.RunUntilReady([&] { return load.workers_done == kQueueDepth; }));
  EXPECT_EQ(load.errors, 0);
}

TEST(AllocBudgetTest, DroppedMessagesReturnTheirParkedSlots) {
  Harness h;
  sim::FaultPlan plan(h.sim, 7);
  h.net.SetFaultPlan(&plan);
  // Every message sent inside the window vanishes: requests on their
  // way to the server and responses on their way back.
  plan.ScheduleWindow(sim::FaultKind::kNetDrop, sim::Micros(300),
                      sim::Micros(400));
  core::Tenant* tenant = h.BeTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              testing::RetryingClientOptions());
  std::unique_ptr<client::TenantSession> session =
      client.AttachSession(tenant->handle());
  ASSERT_NE(session, nullptr);
  SessionLoad load;
  load.budget = 2000;
  for (int i = 0; i < kQueueDepth; ++i) SessionWorker(session.get(), &load);

  ASSERT_TRUE(
      h.RunUntilReady([&] { return load.workers_done == kQueueDepth; }));
  EXPECT_GT(h.net.dropped_messages(), 0);
  EXPECT_GT(load.errors + client.fault_stats().retries, 0);
  // A retransmission may still be on the wire after its op resolved;
  // give every message in flight time to land and be parsed.
  h.sim.RunUntil(h.sim.Now() + sim::Millis(20));
  EXPECT_EQ(h.server.parked_requests(), 0u);
}

}  // namespace
}  // namespace reflex
