// Migration-aware simtest coverage: forced-migration seeds run clean
// against the consistency oracle, the sweep is bit-identical across
// in-process runs, both planted migration mutations are caught, the
// --migrate override round-trips through the repro artifact, and
// autoscaling seeds stay clean.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simtest/repro.h"
#include "simtest/runner.h"
#include "simtest/scenario.h"

namespace reflex {
namespace {

using simtest::GenerateScenario;
using simtest::Mutation;
using simtest::RunReport;
using simtest::RunScenario;
using simtest::ScenarioSpec;

/** The sweep's --migrate override: applied post-expansion so the RNG
 * stream (and with it the rest of the scenario) is untouched. */
ScenarioSpec ExpandMigrating(uint64_t seed) {
  ScenarioSpec spec = GenerateScenario(seed);
  spec.migrate = true;
  return spec;
}

void ExpectClean(const RunReport& report, uint64_t seed) {
  EXPECT_TRUE(report.completed) << "seed " << seed << " stalled";
  EXPECT_TRUE(report.data_violations.empty())
      << "seed " << seed << ": " << report.data_violations.front().detail;
  EXPECT_TRUE(report.invariant_violations.empty())
      << "seed " << seed << ": "
      << report.invariant_violations.front().detail;
}

// The PR-gating sweep, in-process: ten forced-migration seeds (fuzzed
// schedules raced against the drawn fault plan and replication factor)
// with zero oracle violations, and at least one actually migrating.
TEST(MigrationSweepTest, ForcedMigrationSeedsStayClean) {
  int64_t migrations = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RunReport report = RunScenario(ExpandMigrating(seed));
    ExpectClean(report, seed);
    migrations += report.migrations_started;
  }
  EXPECT_GE(migrations, 1)
      << "no seed started a migration; the sweep lost its coverage";
}

// Seeds that once lost an acknowledged write at cutover: the write was
// admitted under a copying gate and still queued or in flight when a
// recopy cleared the gate's dirty bit and read the range, so the
// cutover committed a copy without it. Seed 1755 (R=2, autoscaler)
// failed the default sweep, seed 818 the --policy qwin sweep.
TEST(MigrationSweepTest, WritesInFlightAcrossARecopyReachTheTarget) {
  ExpectClean(RunScenario(GenerateScenario(1755)), 1755);
  ScenarioSpec qwin = GenerateScenario(818);
  qwin.policy = core::QosPolicyKind::kQwin;
  qwin.enforce_qos = true;
  ExpectClean(RunScenario(qwin), 818);
}

TEST(MigrationSweepTest, MigrationSweepIsBitIdenticalAcrossRuns) {
  auto sweep = [] {
    std::vector<std::string> artifacts;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const ScenarioSpec spec = ExpandMigrating(seed);
      const RunReport report = RunScenario(spec);
      EXPECT_TRUE(report.ok()) << "seed " << seed;
      artifacts.push_back(simtest::ReproToJson(
          spec, report, Mutation::kNone, -1, /*force_policy=*/false,
          /*force_replication=*/false, /*force_migration=*/true));
    }
    return artifacts;
  };
  EXPECT_EQ(sweep(), sweep());
}

// Canary 1: a migration that silently drops the dirty-recopy rounds
// loses every write that raced the copy window -- the oracle must
// surface it as a stale read, or the oracle is not migration-aware.
TEST(MigrationSweepTest, DropForwardedWriteCanaryIsCaught) {
  const RunReport report =
      RunScenario(GenerateScenario(1), Mutation::kDropForwardedWrite);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.data_violations.empty());
  EXPECT_EQ(report.data_violations.front().kind, "stale_read");
}

// Canary 2: a cutover that forgets the kMoved gates leaves the source
// serving pre-migration bytes to stale-mapped clients.
TEST(MigrationSweepTest, ServePremigrationRangeCanaryIsCaught) {
  const RunReport report =
      RunScenario(GenerateScenario(1), Mutation::kServePremigrationRange);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.data_violations.empty());
  EXPECT_EQ(report.data_violations.front().kind, "stale_read");
}

TEST(MigrationSweepTest, MigrationCanariesReplayDeterministically) {
  for (Mutation mutation : {Mutation::kDropForwardedWrite,
                            Mutation::kServePremigrationRange}) {
    const ScenarioSpec spec = GenerateScenario(1);
    const RunReport a = RunScenario(spec, mutation);
    const RunReport b = RunScenario(spec, mutation);
    ASSERT_FALSE(a.ok());
    ASSERT_EQ(a.data_violations.size(), b.data_violations.size());
    for (size_t i = 0; i < a.data_violations.size(); ++i) {
      EXPECT_EQ(a.data_violations[i].detail, b.data_violations[i].detail);
      EXPECT_EQ(a.data_violations[i].time, b.data_violations[i].time);
    }
  }
}

TEST(MigrationSweepTest, MigrationMutationNamesRoundTrip) {
  for (Mutation mutation : {Mutation::kDropForwardedWrite,
                            Mutation::kServePremigrationRange}) {
    EXPECT_EQ(simtest::MutationFromName(simtest::MutationName(mutation)),
              mutation);
  }
}

// Seeds whose expansion draws SLO-aware autoscaling must also run
// clean: rebalances ride the same oracle-checked dataplane.
TEST(MigrationSweepTest, AutoscaleSeedsStayClean) {
  int covered = 0;
  for (uint64_t seed = 1; seed <= 60 && covered < 3; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    if (!spec.autoscale || spec.num_shards < 2) continue;
    ++covered;
    ExpectClean(RunScenario(spec), seed);
  }
  EXPECT_GE(covered, 1)
      << "no seed in 1..60 drew autoscaling; the fuzzer lost coverage";
}

TEST(MigrationSweepTest, ForcedMigrationRoundTripsThroughArtifact) {
  const ScenarioSpec spec = ExpandMigrating(4);
  const RunReport report = RunScenario(spec, Mutation::kNone, 50);
  const std::string json = simtest::ReproToJson(
      spec, report, Mutation::kNone, 50, /*force_policy=*/false,
      /*force_replication=*/false, /*force_migration=*/true);
  EXPECT_NE(json.find("\"forced_migration\": true"), std::string::npos);

  simtest::ReproSpec repro;
  ASSERT_TRUE(simtest::ParseRepro(json, &repro));
  EXPECT_TRUE(repro.force_migration);
  EXPECT_EQ(repro.seed, 4u);
  EXPECT_EQ(repro.max_ops, 50);

  // An artifact without the field must not force anything.
  simtest::ReproSpec plain;
  ASSERT_TRUE(simtest::ParseRepro(
      simtest::ReproToJson(spec, report, Mutation::kNone, 50), &plain));
  EXPECT_FALSE(plain.force_migration);
}

}  // namespace
}  // namespace reflex
