// Kernel tier selection. One atomic pointer swap at first use; the hot
// path pays a single relaxed load per call site after that.
#include <atomic>

#include "common/iq_stats.h"
#include "iq/kernels/tiers.h"

namespace rb {
namespace {

using iqk::avx2_ops;
using iqk::scalar_ops;

const IqKernelOps* table_for(KernelTier t) {
  switch (t) {
    case KernelTier::Scalar:
      return scalar_ops();
    case KernelTier::Avx2:
#if defined(__x86_64__) || defined(__i386__)
      if (__builtin_cpu_supports("avx2")) return avx2_ops();
#endif
      return nullptr;
  }
  return nullptr;
}

const IqKernelOps* select_ops() {
  if (const IqKernelOps* ops = table_for(KernelTier::Avx2)) return ops;
  return scalar_ops();
}

void record_tier(const IqKernelOps* ops) {
  iqstats::kernel_tier().store(int(ops->tier), std::memory_order_relaxed);
  iqstats::kernel_tier_label().store(kernel_tier_name(ops->tier),
                                     std::memory_order_relaxed);
}

std::atomic<const IqKernelOps*>& active_ops() {
  static std::atomic<const IqKernelOps*> v{nullptr};
  return v;
}

}  // namespace

const char* kernel_tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::Scalar:
      return "scalar";
    case KernelTier::Avx2:
      return "avx2";
  }
  return "unknown";
}

const IqKernelOps& iq_ops() {
  const IqKernelOps* ops = active_ops().load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = select_ops();
    const IqKernelOps* expected = nullptr;
    // A concurrent first call selects the same table; keep whichever won.
    if (!active_ops().compare_exchange_strong(expected, ops,
                                              std::memory_order_acq_rel)) {
      ops = expected;
    }
    record_tier(ops);
  }
  return *ops;
}

KernelTier iq_kernel_tier() { return iq_ops().tier; }

const IqKernelOps* iq_ops_for(KernelTier t) { return table_for(t); }

bool iq_force_tier(KernelTier t) {
  const IqKernelOps* ops = table_for(t);
  if (ops == nullptr) return false;
  active_ops().store(ops, std::memory_order_release);
  record_tier(ops);
  return true;
}

}  // namespace rb
