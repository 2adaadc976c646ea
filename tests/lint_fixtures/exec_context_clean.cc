// Fixture: overrides that thread ExecContext* — and plain call sites of
// the hooks — never fire exec-context-threading.
#include "spgemm/algorithm.h"

namespace spnet {

class GoodAlgorithm : public spgemm::SpGemmAlgorithm {
 private:
  spgemm::SpGemmPlan PlanImpl(const spgemm::Workload& workload,
                              const gpusim::DeviceSpec& device,
                              spgemm::ExecContext* ctx) const override;

  std::vector<sparse::Index> PairOrder(
      const sparse::CsrMatrix& a, const sparse::CsrMatrix& b,
      spgemm::ExecContext* ctx) const override {
    return DispatchOrder(a, b, ctx);
  }
};

spgemm::SpGemmPlan Dispatch(const GoodAlgorithm& algorithm) {
  // A call site: the arguments name no types, and nothing trailing marks
  // it as a declaration.
  return PlanImpl(workload, device, ctx);
}

}  // namespace spnet
