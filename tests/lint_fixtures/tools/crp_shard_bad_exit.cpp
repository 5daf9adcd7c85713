// Fixture: exit-taxonomy — magic exit codes, taxonomy bypasses and
// numeric case labels in the scheduler-facing driver paths, plus the
// sanctioned named-constant forms as negative controls.
#include <cstdlib>

namespace {
constexpr int kExitOk = 0;
constexpr int kExitValidation = 3;
}

void bad_magic_exit(bool corrupt) {
  if (corrupt) {
    std::exit(3);  // expect-lint: exit-taxonomy
  }
}

void bad_underscore_exit() {
  _exit(75);  // expect-lint: exit-taxonomy
}

void bad_abort() {
  abort();  // expect-lint: exit-taxonomy
}

void fine_named_exit(bool corrupt) {
  if (corrupt) {
    std::exit(kExitValidation);
  }
}

bool bad_numeric_case(int status) {
  switch (status) {
    case 3:  // expect-lint: exit-taxonomy
      return false;
    case kExitOk:
      return true;
    default:
      return false;
  }
}
