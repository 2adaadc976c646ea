#ifndef SPNET_SPGEMM_OUTER_PRODUCT_H_
#define SPNET_SPGEMM_OUTER_PRODUCT_H_

#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

/// Builds the plain outer-product expansion kernel: one block per nonzero
/// pair, no reorganization.
gpusim::KernelDesc BuildOuterProductExpansion(const Workload& workload,
                                              int block_size);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_OUTER_PRODUCT_H_
