// H1 fixture: the pragma may follow a comment block.
#pragma once

namespace fix {
inline int answer() { return 42; }
}  // namespace fix
