// H2 fixture: function-local using-directives stay local, and a
// `using namespace` inside a comment or string is not code.
#pragma once

#include <chrono>
#include <string>

namespace fix {

inline long ticks() {
  using namespace std::chrono;  // local to this function
  return 0;
}

struct Clock {
  long now() const {
    using namespace std::chrono;
    return 1;
  }
  const char* help = "using namespace std;";
};

using Seconds = long;  // an alias declaration, not a using-directive

}  // namespace fix
