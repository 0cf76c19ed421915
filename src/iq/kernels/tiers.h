// Internal: per-tier kernel table factories wired up by dispatch.cpp.
//
// avx2_ops() returns nullptr when the tier is not compiled into this
// binary (non-x86 build); the CPU feature check happens in dispatch.cpp.
#pragma once

#include "iq/kernels/kernels.h"

namespace rb::iqk {

const IqKernelOps* scalar_ops();  // always available
const IqKernelOps* avx2_ops();    // x86 only

}  // namespace rb::iqk
