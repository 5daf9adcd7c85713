// Fixture: test-only-module — a test is the orphan's only other
// includer, which does not count either.
#include "core/orphan.h"

int main() { return crp::core::orphan_answer() == 42 ? 0 : 1; }
