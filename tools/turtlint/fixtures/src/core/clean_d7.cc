// D7 fixture: declaring functions named time(), calling members and other
// namespaces' time(), identifiers containing the names, and mentions of
// rand() in comments or strings are all fine.
namespace sim {
long time(long t) { return t; }
}  // namespace sim

struct Probe {
  long time() const { return 3; }
};

long use(const Probe& probe, const Probe* ptr) {
  const char* label = "time() and rand()";
  long runtime = probe.time() + ptr->time() + sim::time(4);
  return runtime + (label != nullptr ? 1 : 0);
}
