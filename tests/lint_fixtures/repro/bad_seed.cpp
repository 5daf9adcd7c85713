// Fixture: det-no-wallclock-rng covers the reproduction programs — a
// table seeded from the wall clock would make its golden unreproducible.
#include <ctime>
#include <iostream>

int main() {
  const auto seed = static_cast<unsigned long>(time(nullptr));  // expect-lint: det-no-wallclock-rng
  std::cout << seed << "\n";
  return 0;
}
