// libFuzzer harness for the interval-encoded axis layer: any byte
// string decodes to a valid tree (TreeFromBytes), and on every tree the
// interval axis rows must match Tree navigation, the pre/post-order
// numbering must characterize ancestry, and a compiled selector must
// match navigation.  A disagreement is a bug, so trap.

#include <cstddef>
#include <cstdint>

#include "tests/fuzz/axis_interval_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (!treewalk::AxisIntervalAgrees(data, size, 512)) __builtin_trap();
  return 0;
}
