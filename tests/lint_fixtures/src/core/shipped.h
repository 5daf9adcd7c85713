// Fixture: test-only-module negative control — a header that only a
// program outside src/ includes (examples/uses_shipped.cpp) is reached,
// so nothing here may fire.
#pragma once

namespace crp::core {

inline int shipped_answer() { return 7; }

}  // namespace crp::core
