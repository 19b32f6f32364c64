// Non-idempotent write paths under faults, checked with the consistency
// oracle: a timed-out or reset write must end in kUnknownOutcome (never
// a retransmit that could double-apply), and whatever a later read
// observes must be explainable by the oracle's zombie rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "client/reflex_client.h"
#include "sim/fault.h"
#include "simtest/oracle.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using client::IoResult;
using core::ReqStatus;
using sim::FaultKind;
using sim::FaultPlan;
using sim::Micros;
using sim::Millis;
using simtest::ConsistencyOracle;
using testing::Harness;
using testing::RetryingClientOptions;

constexpr uint32_t kSectors = 8;
constexpr size_t kBytes = kSectors * core::kSectorBytes;

/** Issues one oracle-tracked write of `version` and returns its result. */
IoResult AwaitWrite(Harness& h, client::TenantSession& session,
                    ConsistencyOracle& oracle, std::vector<uint8_t>& buf,
                    uint64_t version, uint64_t lba) {
  ConsistencyOracle::StampPayload(buf.data(), version, lba, kSectors);
  auto io = session.Write(lba, kSectors, buf.data());
  EXPECT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  oracle.EndWrite(version, io.Get());
  return io.Get();
}

/** Reads `lba` and feeds the payload through the oracle. */
IoResult AwaitRead(Harness& h, client::TenantSession& session,
                   ConsistencyOracle& oracle, std::vector<uint8_t>& buf,
                   uint64_t lba) {
  auto io = session.Read(lba, kSectors, buf.data());
  EXPECT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  oracle.EndRead(lba, kSectors, buf.data(), io.Get());
  return io.Get();
}

TEST(RetryWriteTest, UndeliverableWriteIsUnknownOutcomeNotRetried) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());
  ConsistencyOracle oracle;

  std::vector<uint8_t> w1(kBytes), w2(kBytes), r(kBytes);
  const uint64_t v1 = oracle.BeginWrite(0, 0, kSectors, h.sim.Now());
  ASSERT_TRUE(AwaitWrite(h, *session, oracle, w1, v1, 0).ok());

  // Link down for the whole attempt: the second write cannot complete
  // and must NOT be blindly retransmitted (it is not idempotent).
  plan.ScheduleWindow(FaultKind::kNetLinkFlap, h.sim.Now() + Micros(1),
                      Millis(20));
  const uint64_t v2 = oracle.BeginWrite(0, 0, kSectors, h.sim.Now());
  const IoResult res = AwaitWrite(h, *session, oracle, w2, v2, 0);
  EXPECT_EQ(res.status, ReqStatus::kUnknownOutcome);
  EXPECT_EQ(client.fault_stats().retries, 0)
      << "non-idempotent writes must not be retransmitted";

  // After the flap clears, the sector must read as v1 or v2 -- both
  // are acceptable (v2 is a zombie) -- and nothing else.
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(25); });
  ASSERT_TRUE(AwaitRead(h, *session, oracle, r, 0).ok());
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front().detail;
  const uint64_t seen = ConsistencyOracle::ReadStamp(r.data());
  EXPECT_TRUE(seen == v1 || seen == v2);
}

TEST(RetryWriteTest, ResetRacingWriteCompletionDoesNotDoubleApply) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());
  ConsistencyOracle oracle;

  const int64_t before = h.device.stats().writes_completed;

  // Reset the connection while the write is on the wire: the client
  // cannot tell whether the server applied it before the reset.
  plan.ScheduleWindow(FaultKind::kNetReset, Micros(1), Micros(200),
                      static_cast<uint64_t>(h.client_machine->id()));
  h.sim.RunUntil(Micros(2));
  std::vector<uint8_t> w(kBytes), r(kBytes);
  const uint64_t v = oracle.BeginWrite(0, 0, kSectors, h.sim.Now());
  const IoResult res = AwaitWrite(h, *session, oracle, w, v, 0);
  EXPECT_FALSE(res.ok()) << "a reset mid-flight cannot report success";
  EXPECT_EQ(res.status, ReqStatus::kUnknownOutcome);

  // Exactly-zero-or-once: the device never applied the write twice.
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(10); });
  EXPECT_LE(h.device.stats().writes_completed, before + 1);

  // The read (after reconnect) sees either the zombie or unwritten
  // zeros; the oracle accepts both and flags anything else.
  ASSERT_TRUE(AwaitRead(h, *session, oracle, r, 0).ok());
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front().detail;
  EXPECT_GE(client.fault_stats().reconnects, 1);
}

TEST(RetryWriteTest, AppliedWriteWithLostResponseIsAcceptedAsZombie) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());
  ConsistencyOracle oracle;

  // Drop only messages the SERVER sends for the next millisecond: the
  // write request gets through and applies, but its completion never
  // reaches the client, which must report kUnknownOutcome -- the write
  // executed even though the library cannot know it.
  plan.ScheduleWindow(FaultKind::kNetDrop, h.sim.Now() + Micros(1),
                      Millis(1),
                      static_cast<uint64_t>(h.server_machine->id()));
  std::vector<uint8_t> w(kBytes), r(kBytes);
  const uint64_t v = oracle.BeginWrite(0, 0, kSectors, h.sim.Now());
  const IoResult res = AwaitWrite(h, *session, oracle, w, v, 0);
  EXPECT_EQ(res.status, ReqStatus::kUnknownOutcome)
      << "lost completion on a write is an unknown outcome, not an error";
  EXPECT_GE(h.net.dropped_messages(), 1);

  // The zombie rule makes the silently-applied write acceptable: the
  // read after the window MUST observe v (it really did apply) and the
  // oracle must not flag it.
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(5); });
  ASSERT_TRUE(AwaitRead(h, *session, oracle, r, 0).ok());
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front().detail;
  EXPECT_EQ(ConsistencyOracle::ReadStamp(r.data()), v)
      << "the write applied server-side despite the unknown outcome";
}

TEST(RetryWriteTest, ZombieWriteLandsTheBytesItWasSent) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.device.SetFaultPlan(&plan);
  client::ReflexClient::Options copts = RetryingClientOptions();
  copts.retry.reconnect_after_timeouts = 100;
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());
  ConsistencyOracle oracle;

  // Hold the write server-side past its 1 ms timeout: a read slowed by
  // a 5 ms latency spike goes first, then a barrier, so the write
  // reaches the device only when the spiked read completes.
  plan.set_latency_spike(Millis(5));
  plan.ScheduleWindow(FaultKind::kFlashLatencySpike, h.sim.Now() + Micros(1),
                      Micros(100));
  h.sim.RunUntil(h.sim.Now() + Micros(2));
  auto spiked = session->Read(8000, kSectors);
  auto barrier = session->Barrier();
  std::vector<uint8_t> w(kBytes), r(kBytes);
  const uint64_t v = oracle.BeginWrite(0, 0, kSectors, h.sim.Now());
  const IoResult res = AwaitWrite(h, *session, oracle, w, v, 0);
  EXPECT_EQ(res.status, ReqStatus::kUnknownOutcome);
  ASSERT_EQ(h.device.stats().writes_completed, 0)
      << "the write must resolve before it even reaches the device";

  // The op resolved, so the buffer is the caller's again. Fill it with
  // bytes no write ever carried: the zombie must still land v.
  std::fill(w.begin(), w.end(), 0xEE);
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(20); });
  EXPECT_EQ(h.device.stats().writes_completed, 1) << "the zombie applied";
  ASSERT_TRUE(AwaitRead(h, *session, oracle, r, 0).ok());
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front().detail;
  EXPECT_EQ(ConsistencyOracle::ReadStamp(r.data()), v)
      << "a zombie write lands the bytes it was sent with";
}

}  // namespace
}  // namespace reflex
