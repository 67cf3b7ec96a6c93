// alloc_counter.h — the tests' one heap-allocation hook. Linking
// tests/support/alloc_counter.cpp replaces every global operator
// new/delete of the test binary (plain, array, sized and aligned) with
// malloc-backed versions that count allocations while armed, so a test can
// pin a steady-state path as allocation-free without seeing gtest's own
// bookkeeping outside the measured window.
#pragma once

#include <cstdint>

namespace sne::test {

/// Zeroes the count and starts counting allocations from every thread.
void arm_alloc_counter() noexcept;

/// Stops counting; returns the allocations seen since arm_alloc_counter.
std::int64_t disarm_alloc_counter() noexcept;

}  // namespace sne::test
