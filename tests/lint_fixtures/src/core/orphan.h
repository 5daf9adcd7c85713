// Fixture: test-only-module — a module whose header only its own .cpp
// (src/core/orphan.cpp) and a test (tests/orphan_test.cpp) include.
// Neither counts, so the rule fires on the `#pragma once` line.
#pragma once  // expect-lint: test-only-module

namespace crp::core {

int orphan_answer();

}  // namespace crp::core
