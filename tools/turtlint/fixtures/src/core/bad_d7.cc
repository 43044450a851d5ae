// D7 fixture: raw C library randomness and wall time, with and without
// the std:: or global qualifier.
#include <cstdlib>
#include <ctime>

int roll() {
  std::srand(7);
  return rand() % 6;
}

long stamp() { return static_cast<long>(::time(nullptr)) + std::time(nullptr); }

long later() {
  if (stamp() > 0) return time(nullptr);
  return 0;
}
