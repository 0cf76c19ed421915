// Paper-figure reproductions: each test builds one figure's topology,
// runs its bench's measurement and asserts the shape EXPERIMENTS.md
// records, with an explicit tolerance. `ctest -L repro` runs only these.
#include <gtest/gtest.h>

#include "sim/fig12_chain.h"

namespace rb {
namespace {

/// Fig 12 (section 6.3.2): RU sharing chained with DAS hosts two 40 MHz
/// MNOs over four shared RUs. Both UEs attach through the chain, and each
/// MNO's floor-walk mean is within 15% of the recorded 284 / 311 Mbps.
TEST(Repro, Fig12ChainCarriesBothMnos) {
  Fig12Chain rig;
  ASSERT_TRUE(rig.d.attach_all(900));
  const auto points = rig.walk();
  ASSERT_EQ(points.size(), 16u);
  double mean_a = 0, mean_b = 0;
  for (const auto& p : points) {
    mean_a += p.mbps_a / double(points.size());
    mean_b += p.mbps_b / double(points.size());
  }
  EXPECT_NEAR(mean_a, 284.0, 0.15 * 284.0);
  EXPECT_NEAR(mean_b, 311.0, 0.15 * 311.0);
  // RU sharing accepts the DAS stage's uplink as its one RU's.
  EXPECT_EQ(
      rig.rushare_rt->telemetry().counter("rushare_quarantine_src_mac"), 0u);
}

}  // namespace
}  // namespace rb
