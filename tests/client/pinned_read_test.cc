// Pinned reads end to end: a read pins the device pages it covers when
// it is submitted to the device, and a write that lands on those pages
// while the read is in flight must not change the bytes the read
// delivers -- through the ReFlex client (pins ride the response) and
// through a local baseline (pins are copied out at device completion).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/local_spdk.h"
#include "client/reflex_client.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"
#include "testing/harness.h"

namespace reflex {
namespace {

constexpr uint64_t kLba = 4096;
constexpr uint32_t kSectors = 16;  // two pages
constexpr size_t kBytes = kSectors * 512;

/**
 * Writes `old_fill`, then issues a read and, right behind it, a write
 * of `new_fill` to the same sectors; returns what the read delivered.
 * Afterwards a second read must see the new bytes.
 */
template <typename Session, typename RunFn>
void ExpectReadKeepsPinnedBytes(Session& session, RunFn run) {
  std::vector<uint8_t> old_bytes(kBytes, 0x5a);
  auto w0 = session.Write(kLba, kSectors, old_bytes.data());
  run([&] { return w0.Ready(); });
  ASSERT_TRUE(w0.Get().ok());

  std::vector<uint8_t> read_buf(kBytes, 0);
  std::vector<uint8_t> new_bytes(kBytes, 0xc3);
  auto r = session.Read(kLba, kSectors, read_buf.data());
  auto w1 = session.Write(kLba, kSectors, new_bytes.data());
  run([&] { return r.Ready() && w1.Ready(); });
  ASSERT_TRUE(r.Get().ok());
  ASSERT_TRUE(w1.Get().ok());
  // The write landed while the read was in flight.
  EXPECT_LT(w1.Get().complete_time, r.Get().complete_time);
  EXPECT_EQ(read_buf, old_bytes) << "the write changed a pinned read";

  std::vector<uint8_t> after(kBytes, 0);
  auto r2 = session.Read(kLba, kSectors, after.data());
  run([&] { return r2.Ready(); });
  ASSERT_TRUE(r2.Get().ok());
  EXPECT_EQ(after, new_bytes);
}

TEST(PinnedReadTest, WriteDuringReadThroughReflexClient) {
  testing::Harness h;
  core::Tenant* tenant = h.BeTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              client::ReflexClient::Options());
  std::unique_ptr<client::TenantSession> session =
      client.AttachSession(tenant->handle());
  ASSERT_NE(session, nullptr);
  ExpectReadKeepsPinnedBytes(*session, [&h](auto ready) {
    ASSERT_TRUE(h.RunUntilReady(ready));
  });
}

TEST(PinnedReadTest, WriteDuringReadThroughLocalSpdk) {
  sim::Simulator sim;
  flash::FlashDevice device(sim, flash::DeviceProfile::DeviceA(), 5);
  baseline::LocalSpdkService local(sim, device,
                                   baseline::LocalSpdkService::Options{});
  ExpectReadKeepsPinnedBytes(local, [&sim](auto ready) {
    sim.Run();
    ASSERT_TRUE(ready());
  });
}

}  // namespace
}  // namespace reflex
