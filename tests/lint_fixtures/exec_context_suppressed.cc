// Fixture: exec-context-threading honors inline suppression markers.
#include "spgemm/algorithm.h"

namespace spnet {

class LegacyAlgorithm : public spgemm::SpGemmAlgorithm {
 private:
  // spnet-lint: allow(exec-context-threading)
  spgemm::SpGemmPlan PlanImpl(const spgemm::Workload& workload,
                              const gpusim::DeviceSpec& device) const override;
};

}  // namespace spnet
