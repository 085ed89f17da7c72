#include "la/factor/policy.hpp"

namespace chase::la {

FactorKernel factor_kernel_for(Index n) {
  const perf::TunedTables* t = perf::tuned_tables();
  if (t == nullptr) return factor_policy.resolve();
  return factor_policy.resolve(t->factor_kernel[int(perf::factor_n_class(n))]);
}

}  // namespace chase::la
