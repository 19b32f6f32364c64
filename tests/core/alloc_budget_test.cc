// Allocation budget of the ReFlex request path. This binary replaces
// the global operator new with a counting one. After warm-up nothing
// on the path allocates: not a server serving timing-only reads and
// writes, not a TenantSession op carrying data, not a BlockDevice
// request of one chunk or several, not a PageCache hit, miss, prefetch
// or readahead, not a replicated ClusterSession read or write of one
// extent or two. Every request-path object lives in a recycled slot or
// a pooled block (coroutine frames, future states, page pins), and
// every callback on the path is stored inline (DESIGN.md
// "Request-path allocation rule").

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "client/block_device.h"
#include "client/page_cache.h"
#include "client/reflex_client.h"
#include "cluster/cluster_client.h"
#include "core/reflex_server.h"
#include "sim/fault.h"
#include "sim/task.h"
#include "testing/cluster_harness.h"
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
 * Page of op `n` for loads that carry data: 512 pages, so warm-up has
 * written every page a later write lands on (a write to a new page
 * grows the device's store). Two ops share a page only 512 ops apart,
 * never while both are in flight: a write to a page that an in-flight
 * read has pinned copies the page (copy-on-write), which allocates.
 */
uint64_t DataPageFor(int64_t n) {
  return static_cast<uint64_t>((n * 7919) % 512);
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

/** Reads into and writes from its own buffer, so payloads travel. */
sim::Task SessionWorker(client::TenantSession* session, SessionLoad* load) {
  std::vector<uint8_t> buffer(kSectors * 512, 0x5a);
  while (load->issued < load->budget) {
    const int64_t n = load->issued++;
    sim::Future<client::IoResult> io =
        n % 2 == 0
            ? session->Read(DataPageFor(n) * kSectors, kSectors, buffer.data())
            : session->Write(DataPageFor(n) * kSectors, kSectors,
                             buffer.data());
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

TEST(AllocBudgetTest, TenantSessionOpsAllocateNothingAfterWarmup) {
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
  EXPECT_EQ(allocations, 0) << "over " << ops << " ops";

  ASSERT_TRUE(
      h.RunUntilReady([&] { return load.workers_done == kQueueDepth; }));
  EXPECT_EQ(load.errors, 0);
}

/**
 * Closed-loop BlockDevice load: reads and writes of one 8 KB chunk and
 * of three (24 KB), each worker with its own buffer. Each op owns an
 * 8-page slot of DataPageFor's 512, so requests never share a page.
 */
sim::Task BlockWorker(client::BlockDevice* bdev, SessionLoad* load) {
  std::vector<uint8_t> buffer(24576, 0x3c);
  while (load->issued < load->budget) {
    const int64_t n = load->issued++;
    const uint32_t bytes = n % 4 < 2 ? 8192 : 24576;
    const uint64_t offset = DataPageFor(n) * 8 * client::PageCache::kPageBytes;
    sim::Future<client::IoResult> io =
        n % 2 == 0 ? bdev->Read(offset, bytes, buffer.data())
                   : bdev->Write(offset, bytes, buffer.data());
    const client::IoResult result = co_await io;
    ++load->completed;
    if (!result.ok()) ++load->errors;
  }
  ++load->workers_done;
}

TEST(AllocBudgetTest, BlockDeviceRequestsAllocateNothingAfterWarmup) {
  Harness h;
  core::Tenant* tenant = h.BeTenant();
  client::BlockDevice::Options options;
  options.num_contexts = 3;
  options.max_request_sectors = 16;
  client::BlockDevice bdev(h.sim, h.server, h.client_machine,
                           tenant->handle(), options);
  SessionLoad load;
  load.budget = 24000;
  for (int i = 0; i < kQueueDepth; ++i) BlockWorker(&bdev, &load);

  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 8000; }));
  const int64_t allocations_before = g_allocations;
  const int64_t completed_before = load.completed;
  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 20000; }));
  const int64_t allocations = g_allocations - allocations_before;
  const int64_t requests = load.completed - completed_before;

  EXPECT_GE(requests, 10000);
  EXPECT_EQ(allocations, 0) << "over " << requests << " requests";

  ASSERT_TRUE(
      h.RunUntilReady([&] { return load.workers_done == kQueueDepth; }));
  EXPECT_EQ(load.errors, 0);
}

/**
 * Closed-loop page-cache load over 1024 pages, 16 times the cache:
 * random pages (misses, evictions and hits), every fourth op part of a
 * sequential run (readahead and its stream hits), and a prefetch of
 * the next random page before each read.
 */
sim::Task CacheWorker(client::PageCache* cache, SessionLoad* load) {
  while (load->issued < load->budget) {
    const int64_t n = load->issued++;
    const uint64_t random_page = static_cast<uint64_t>(n * 7919) % 1024;
    const uint64_t page =
        n % 4 == 0 ? static_cast<uint64_t>(n / 4) % 1024 : random_page;
    cache->Prefetch(static_cast<uint64_t>((n + 1) * 7919) % 1024 *
                    client::PageCache::kPageBytes);
    const uint8_t* data =
        co_await cache->GetPage(page * client::PageCache::kPageBytes);
    ++load->completed;
    if (data == nullptr) ++load->errors;
  }
  ++load->workers_done;
}

TEST(AllocBudgetTest, PageCacheAccessesAllocateNothingAfterWarmup) {
  Harness h;
  core::Tenant* tenant = h.BeTenant();
  client::BlockDevice bdev(h.sim, h.server, h.client_machine,
                           tenant->handle(), client::BlockDevice::Options());
  client::PageCache cache(h.sim, bdev, /*capacity_pages=*/64,
                          /*max_outstanding=*/16, /*readahead_pages=*/4);
  SessionLoad load;
  load.budget = 40000;
  constexpr int kWorkers = 8;
  for (int i = 0; i < kWorkers; ++i) CacheWorker(&cache, &load);

  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 10000; }));
  const int64_t allocations_before = g_allocations;
  const int64_t completed_before = load.completed;
  const client::PageCache::Stats before = cache.stats();
  ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 35000; }));
  const int64_t allocations = g_allocations - allocations_before;
  const int64_t accesses = load.completed - completed_before;
  const client::PageCache::Stats& after = cache.stats();

  EXPECT_GE(accesses, 20000);
  EXPECT_EQ(allocations, 0) << "over " << accesses << " accesses";
  // The window saw every kind of access.
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_GT(after.readaheads, before.readaheads);

  ASSERT_TRUE(h.RunUntilReady([&] { return load.workers_done == kWorkers; }));
  EXPECT_EQ(load.errors, 0);
}

/**
 * Closed-loop ClusterSession load carrying data: 8-sector reads and
 * writes, alternating. Op n works in stripe pair DataPageFor(n) (two
 * 8-sector stripes, so in-flight ops never share a page); half the ops
 * end at the pair's inner boundary (one extent), the other half
 * straddle it (two extents, on two shards).
 */
sim::Task ClusterWorker(cluster::ClusterSession* session,
                        SessionLoad* load) {
  std::vector<uint8_t> buffer(kSectors * 512, 0x6b);
  while (load->issued < load->budget) {
    const int64_t n = load->issued++;
    const uint64_t boundary = (2 * DataPageFor(n) + 1) * kSectors;
    const uint64_t lba = n % 4 < 2 ? boundary - kSectors
                                   : boundary - kSectors / 2;
    sim::Future<client::IoResult> io =
        n % 2 == 0 ? session->Read(lba, kSectors, buffer.data())
                   : session->Write(lba, kSectors, buffer.data());
    const client::IoResult result = co_await io;
    ++load->completed;
    if (!result.ok()) ++load->errors;
  }
  ++load->workers_done;
}

TEST(AllocBudgetTest, ClusterSessionRequestsAllocateNothingAfterWarmup) {
  // R=1, R=2 (power of two over two candidates: a comparison) and R=3
  // (power of two over three: two steering draws per extent).
  for (int replication : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "replication=" << replication);
    cluster::ClusterClient::Options options;
    options.steering = cluster::SteeringPolicy::kPowerOfTwo;
    testing::ClusterHarness h(
        testing::ClusterHarness::MakeOptions(4, kSectors, replication),
        options);
    std::unique_ptr<cluster::ClusterSession> session =
        h.client.OpenSession(core::SloSpec{}, core::TenantClass::kBestEffort);
    ASSERT_NE(session, nullptr);
    SessionLoad load;
    load.budget = 68000;
    for (int i = 0; i < kQueueDepth; ++i) ClusterWorker(session.get(), &load);

    // A longer warm-up than the single-server tests: four servers'
    // queues and devices (writes stay in a device's command table until
    // programmed) reach their high-water marks later, and until then a
    // new peak grows a slot table or ring. No such growth happens past
    // 46,000 requests at any R here.
    ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 46000; }));
    const int64_t allocations_before = g_allocations;
    const int64_t completed_before = load.completed;
    const int64_t split_before = session->requests_split();
    ASSERT_TRUE(h.RunUntilReady([&] { return load.completed >= 64000; }));
    const int64_t allocations = g_allocations - allocations_before;
    const int64_t requests = load.completed - completed_before;

    EXPECT_GE(requests, 15000);
    EXPECT_GT(session->requests_split() - split_before, requests / 4)
        << "the window must include stripe-straddling requests";
    EXPECT_EQ(allocations, 0) << "over " << requests << " requests";

    ASSERT_TRUE(
        h.RunUntilReady([&] { return load.workers_done == kQueueDepth; }));
    EXPECT_EQ(load.errors, 0);
  }
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
