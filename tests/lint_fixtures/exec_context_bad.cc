// Fixture: exec-context-threading must fire on PlanImpl/PairOrder
// overrides that drop the ExecContext parameter.
#include "spgemm/algorithm.h"

namespace spnet {

class BadAlgorithm : public spgemm::SpGemmAlgorithm {
 private:
  spgemm::SpGemmPlan PlanImpl(const spgemm::Workload& workload,
                              const gpusim::DeviceSpec& device) const override;

  std::vector<sparse::Index> PairOrder(
      const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) const override;
};

}  // namespace spnet
