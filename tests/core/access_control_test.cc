#include "core/access_control.h"

#include <gtest/gtest.h>

namespace reflex::core {
namespace {

TEST(AccessControlTest, PermissiveByDefault) {
  AccessControl acl;
  EXPECT_TRUE(acl.CheckConnect("anyone", 7));
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 0, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kWrite, 1 << 20, 8), ReqStatus::kOk);
}

TEST(AccessControlTest, StrictDeniesUngranted) {
  AccessControl acl;
  acl.SetStrict(true);
  EXPECT_FALSE(acl.CheckConnect("client1", 7));
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 0, 8),
            ReqStatus::kAccessDenied);
}

TEST(AccessControlTest, ConnectGrant) {
  AccessControl acl;
  acl.SetStrict(true);
  acl.AllowClient("client1", 7);
  EXPECT_TRUE(acl.CheckConnect("client1", 7));
  EXPECT_FALSE(acl.CheckConnect("client2", 7));
  EXPECT_FALSE(acl.CheckConnect("client1", 8));
}

TEST(AccessControlTest, NamespaceBoundsEnforced) {
  AccessControl acl;
  acl.SetStrict(true);
  acl.AddNamespace(1, 1000, 500);
  acl.GrantTenant(7, 1, /*read=*/true, /*write=*/false);
  // Inside the namespace.
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 1000, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 1492, 8), ReqStatus::kOk);
  // Straddles the end.
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 1496, 8),
            ReqStatus::kAccessDenied);
  // Before the start.
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 992, 8),
            ReqStatus::kAccessDenied);
}

TEST(AccessControlTest, ReadWritePermissionsIndependent) {
  AccessControl acl;
  acl.SetStrict(true);
  acl.AddNamespace(1, 0, 10000);
  acl.GrantTenant(7, 1, /*read=*/true, /*write=*/false);
  acl.GrantTenant(8, 1, /*read=*/false, /*write=*/true);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 0, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kWrite, 0, 8),
            ReqStatus::kAccessDenied);
  EXPECT_EQ(acl.CheckIo(8, ReqType::kWrite, 0, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(8, ReqType::kRead, 0, 8),
            ReqStatus::kAccessDenied);
}

TEST(AccessControlTest, MultipleNamespacesAnyMatchAllows) {
  AccessControl acl;
  acl.SetStrict(true);
  acl.AddNamespace(1, 0, 100);
  acl.AddNamespace(2, 1000, 100);
  acl.GrantTenant(7, 1, true, true);
  acl.GrantTenant(7, 2, true, true);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 50, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 1050, 8), ReqStatus::kOk);
  EXPECT_EQ(acl.CheckIo(7, ReqType::kRead, 500, 8),
            ReqStatus::kAccessDenied);
}

TEST(AccessControlTest, CheckIoIndependentOfGrantInsertionOrder) {
  // The grant sets are ordered (std::set) so CheckIo probes namespaces
  // in ascending id order no matter how grants were issued. Two ACLs
  // with the same grants inserted in opposite orders must agree on
  // every decision (this walk used to traverse an unordered_set, the
  // one hash-order-dependent iteration in src/).
  AccessControl fwd, rev;
  for (AccessControl* acl : {&fwd, &rev}) {
    acl->SetStrict(true);
    acl->AddNamespace(1, 0, 100);
    acl->AddNamespace(2, 100, 100);
    acl->AddNamespace(3, 200, 100);
  }
  for (uint32_t ns = 1; ns <= 3; ++ns) fwd.GrantTenant(7, ns, true, false);
  for (uint32_t ns = 3; ns >= 1; --ns) rev.GrantTenant(7, ns, true, false);
  for (uint64_t lba = 0; lba < 320; lba += 16) {
    EXPECT_EQ(fwd.CheckIo(7, ReqType::kRead, lba, 8),
              rev.CheckIo(7, ReqType::kRead, lba, 8))
        << "at lba " << lba;
    EXPECT_EQ(fwd.CheckIo(7, ReqType::kWrite, lba, 8),
              rev.CheckIo(7, ReqType::kWrite, lba, 8))
        << "at lba " << lba;
  }
}

TEST(AccessControlTest, NamespaceContains) {
  BlockNamespace ns{1, 100, 50};
  EXPECT_TRUE(ns.Contains(100, 50));
  EXPECT_TRUE(ns.Contains(149, 1));
  EXPECT_FALSE(ns.Contains(149, 2));
  EXPECT_FALSE(ns.Contains(99, 1));
  // lba + count wraps past 2^64 to 4, inside [100, 150) only if the
  // check forms the sum.
  EXPECT_FALSE(ns.Contains(~uint64_t{0} - 3, 8));
  EXPECT_FALSE(ns.Contains(140, 51));
  // A namespace reaching the top of the address space.
  BlockNamespace top{2, ~uint64_t{0} - 9, 10};
  EXPECT_TRUE(top.Contains(~uint64_t{0} - 9, 10));
  EXPECT_FALSE(top.Contains(~uint64_t{0} - 3, 8));
}

}  // namespace
}  // namespace reflex::core
