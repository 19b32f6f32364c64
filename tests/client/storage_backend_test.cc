#include "client/storage_backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace reflex::client {
namespace {

/** An IoSession that records each call and completes it at once. */
class RecordingSession : public IoSession {
 public:
  struct Call {
    bool is_read;
    uint64_t lba;
    uint32_t sectors;
    uint8_t* data;
    int lane;
  };

  explicit RecordingSession(sim::Simulator& sim) : sim_(sim) {}

  sim::Future<IoResult> Read(uint64_t lba, uint32_t sectors, uint8_t* data,
                             int lane) override {
    return Record({true, lba, sectors, data, lane});
  }
  sim::Future<IoResult> Write(uint64_t lba, uint32_t sectors, uint8_t* data,
                              int lane) override {
    return Record({false, lba, sectors, data, lane});
  }

  uint32_t tenant_handle() const override { return 0; }
  int num_lanes() const override { return 1; }
  uint64_t capacity_sectors() const override { return 12345; }
  uint32_t sector_bytes() const override { return 512; }
  uint32_t sectors_per_page() const override { return 8; }

  std::vector<Call> calls;

 private:
  sim::Future<IoResult> Record(Call call) {
    calls.push_back(call);
    sim::Promise<IoResult> promise(sim_);
    promise.Set(IoResult{});
    return promise.GetFuture();
  }

  sim::Simulator& sim_;
};

class SessionStorageBackendTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  RecordingSession session_{sim_};
  SessionStorageBackend backend_{session_};
};

TEST_F(SessionStorageBackendTest, AlignedPageMapsToItsSectors) {
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(backend_.ReadBytes(8192, 4096, buf.data()).Ready());
  ASSERT_EQ(session_.calls.size(), 1u);
  const RecordingSession::Call& c = session_.calls[0];
  EXPECT_TRUE(c.is_read);
  EXPECT_EQ(c.lba, 16u);
  EXPECT_EQ(c.sectors, 8u);
  EXPECT_EQ(c.data, buf.data());
  EXPECT_EQ(c.lane, -1);
}

TEST_F(SessionStorageBackendTest, UnalignedRangeCoversEverySectorItTouches) {
  // Bytes [1000, 1100) straddle sectors 1 and 2.
  std::vector<uint8_t> buf(100);
  ASSERT_TRUE(backend_.WriteBytes(1000, 100, buf.data()).Ready());
  // Bytes [511, 1536) touch sectors 0, 1 and 2.
  ASSERT_TRUE(backend_.ReadBytes(511, 1025, nullptr).Ready());
  ASSERT_EQ(session_.calls.size(), 2u);
  EXPECT_FALSE(session_.calls[0].is_read);
  EXPECT_EQ(session_.calls[0].lba, 1u);
  EXPECT_EQ(session_.calls[0].sectors, 2u);
  EXPECT_EQ(session_.calls[0].data, buf.data());
  EXPECT_TRUE(session_.calls[1].is_read);
  EXPECT_EQ(session_.calls[1].lba, 0u);
  EXPECT_EQ(session_.calls[1].sectors, 3u);
}

TEST_F(SessionStorageBackendTest, CapacityIsSessionSectorsTimesSectorBytes) {
  EXPECT_EQ(backend_.CapacityBytes(), 12345u * 512u);
}

}  // namespace
}  // namespace reflex::client
