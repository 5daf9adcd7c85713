// Fixture: test-only-module — the orphan's own implementation file,
// which does not count as a caller.
#include "core/orphan.h"

namespace crp::core {

int orphan_answer() { return 42; }

}  // namespace crp::core
