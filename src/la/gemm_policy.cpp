#include "la/gemm_policy.hpp"

namespace chase::la {

GemmKernel gemm_kernel_for(perf::ScalarTag tag, Index m, Index n, Index k) {
  const perf::TunedTables* t = perf::tuned_tables();
  if (t == nullptr) return gemm_policy.resolve();
  const perf::NClass cls = perf::gemm_n_class(double(m), double(n), double(k));
  return gemm_policy.resolve(t->gemm_kernel[int(tag)][int(cls)]);
}

}  // namespace chase::la
