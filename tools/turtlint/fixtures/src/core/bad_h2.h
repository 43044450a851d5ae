// H2 fixture: using-directives at file scope and inside a namespace body
// (nested and extern "C" included) leak into every includer.
#pragma once

#include <chrono>
#include <string>

using namespace std;

namespace fix::inner {
using namespace std::chrono;
}  // namespace fix::inner

extern "C" {
using namespace fix;
}
