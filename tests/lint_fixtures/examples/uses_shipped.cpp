// Fixture: test-only-module negative control — the one includer of
// src/core/shipped.h, a program the repo builds.
#include "core/shipped.h"

int main() { return crp::core::shipped_answer() == 7 ? 0 : 1; }
